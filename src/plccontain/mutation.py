"""Seeded fault injection for SFC programs.

Three erroneous-upgrade patterns:

* type1 hoists an assignment out of one branch arm into the step before
  the branch, introducing a false data dependence (the other arm now also
  executes the write, and it happens before the guard decision).
* type2 moves the bifurcation step's last assignment down into exactly one
  branch arm, starving the other arm of the write it depended on.
* type3 swaps a dependent pair of assignments inside a loop body,
  breaking a read-after-write chain.

A mutation site is only accepted when the exhaustive simulation oracle
certifies that the mutant behaves differently from the original, so every
emitted mutant is a genuine fault.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ._util import PlcError, natural_key
from .oracle import DEFAULT_WINDOW, confirm_equivalent
from .path_engine import cycle_places
from .petri_net import translate
from .sfc_core import (ActionBlock, SfcProgram, Step, expr_vars,
                       validate_sfc)

MUTATION_KINDS = ("type1", "type2", "type3")


class SelectorNotFound(PlcError):
    pass


class MutationInapplicable(PlcError):
    pass


@dataclass(frozen=True)
class MutationSpec:
    kind: str  # type1 | type2 | type3
    seed: int = 0
    target_step: str = ""  # optional: restrict to one step id


def _branches(prog: SfcProgram):
    """(bifurcation step, arm) pairs: each step with more than one
    outgoing transition, then each other step those transitions mark, in
    natural order."""
    outgoing = prog.outgoing()
    for branch in sorted((s for s, ts in outgoing.items() if len(ts) > 1),
                         key=natural_key):
        for tr in sorted(outgoing[branch], key=lambda t: natural_key(t.id)):
            for arm in sorted(tr.targets, key=natural_key):
                if arm != branch:
                    yield branch, arm


def _edit_step(prog: SfcProgram, sid: str, edit) -> SfcProgram:
    """``prog`` with the blocks of step ``sid`` replaced by
    ``edit(list of its blocks)``."""
    steps = tuple(Step(s.id, tuple(edit(list(s.blocks)))) if s.id == sid
                  else s for s in prog.steps)
    return SfcProgram(prog.vars, steps, prog.transitions,
                      prog.initial_steps)


def _set_body(blocks: list, bi: int, body: tuple) -> list:
    blocks[bi] = replace(blocks[bi], body=body)
    return blocks


def _insert(blocks: list, assignment, at_end: bool) -> list:
    """Put ``assignment`` at the end of the last entry block (``at_end``)
    or at the start of the first one; a step without one gets a new
    ``Mut`` entry block there."""
    entries = [i for i, blk in enumerate(blocks) if blk.qualifier == "entry"]
    if not entries:
        new = ActionBlock("Mut", "entry", (assignment,))
        return blocks + [new] if at_end else [new] + blocks
    i = entries[-1] if at_end else entries[0]
    body = blocks[i].body
    return _set_body(blocks, i, body + (assignment,) if at_end
                     else (assignment,) + body)


# ---------------------------------------------------------------------------
# candidate enumeration per fault type


def _type1_sites(prog: SfcProgram) -> list:
    """(branch step, arm step) pairs where the arm's first assignment can
    be hoisted above the branch."""
    smap = prog.step_map()
    return [(branch, arm) for branch, arm in _branches(prog)
            if any(blk.body for blk in smap[arm].blocks)]


def _apply_type1(prog: SfcProgram, site) -> SfcProgram:
    branch, arm = site
    blocks = prog.step_map()[arm].blocks
    bi = next(i for i, blk in enumerate(blocks) if blk.body)
    body = blocks[bi].body
    prog = _edit_step(prog, arm, lambda bs: _set_body(bs, bi, body[1:]))
    return _edit_step(prog, branch,
                      lambda bs: _insert(bs, body[0], at_end=True))


def _type2_sites(prog: SfcProgram) -> list:
    smap = prog.step_map()
    return [(branch, arm) for branch, arm in _branches(prog)
            if any(blk.body for blk in smap[branch].blocks)]


def _apply_type2(prog: SfcProgram, site) -> SfcProgram:
    branch, arm = site
    blocks = prog.step_map()[branch].blocks
    bi = max(i for i, blk in enumerate(blocks) if blk.body)
    body = blocks[bi].body
    prog = _edit_step(prog, branch, lambda bs: _set_body(bs, bi, body[:-1]))
    return _edit_step(prog, arm,
                      lambda bs: _insert(bs, body[-1], at_end=False))


def _type3_sites(prog: SfcProgram) -> list:
    """(step, block index, stmt index) where stmt and its successor form a
    dependence chain inside a loop body."""
    sites = []
    smap = prog.step_map()
    for sid in sorted(cycle_places(translate(prog)), key=natural_key):
        for bi, blk in enumerate(smap[sid].blocks):
            for si in range(len(blk.body) - 1):
                v1, rhs1 = blk.body[si]
                v2, rhs2 = blk.body[si + 1]
                raw = v1 in expr_vars(rhs2)  # read after write
                war = v2 in expr_vars(rhs1)  # write after read
                waw = v1 == v2
                if raw or war or waw:
                    sites.append((sid, bi, si))
    return sites


def _apply_type3(prog: SfcProgram, site) -> SfcProgram:
    sid, bi, si = site
    body = prog.step_map()[sid].blocks[bi].body
    swapped = body[:si] + (body[si + 1], body[si]) + body[si + 2:]
    return _edit_step(prog, sid, lambda bs: _set_body(bs, bi, swapped))


_SITES = {"type1": _type1_sites, "type2": _type2_sites,
          "type3": _type3_sites}
_APPLY = {"type1": _apply_type1, "type2": _apply_type2,
          "type3": _apply_type3}


def mutate(prog: SfcProgram, spec: MutationSpec,
           certify: bool = True, window=DEFAULT_WINDOW) -> SfcProgram:
    """Apply the requested fault type at a seeded-random applicable site.

    With ``certify`` (the default) sites are tried until the oracle
    confirms the mutant's behavior actually differs from the original.
    """
    if spec.kind not in MUTATION_KINDS:
        raise SelectorNotFound(f"unknown mutation kind {spec.kind!r}")
    sites = _SITES[spec.kind](prog)
    if spec.target_step:
        sites = [s for s in sites if s[0] == spec.target_step]
        if not sites:
            raise SelectorNotFound(
                f"no {spec.kind} site at step {spec.target_step!r}")
    if not sites:
        raise MutationInapplicable(f"no {spec.kind} site in program")
    rng = random.Random(spec.seed)
    order = list(sites)
    rng.shuffle(order)
    base_net = translate(prog)
    f_out = {p: p for p in base_net.out_ports()}
    for site in order:
        mutant = _APPLY[spec.kind](prog, site)
        if validate_sfc(mutant):
            continue
        if not certify:
            return mutant
        mnet = translate(mutant)
        if set(mnet.out_ports()) != set(base_net.out_ports()):
            continue
        if not confirm_equivalent(base_net, mnet, f_out, window)[0]:
            return mutant
    raise MutationInapplicable(
        f"no {spec.kind} site changes behavior under the oracle window")
