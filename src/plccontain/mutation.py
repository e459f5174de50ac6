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
from dataclasses import dataclass

from ._util import PlcError, natural_key
from .oracle import behaviorally_different
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


def _branch_steps(prog: SfcProgram) -> list:
    by_source = {}
    for tr in prog.transitions:
        for src in tr.sources:
            by_source.setdefault(src, []).append(tr)
    return sorted((s for s, ts in by_source.items() if len(ts) > 1),
                  key=natural_key)


def _branch_arms(prog: SfcProgram, branch: str) -> list:
    arms = []
    for tr in sorted(prog.transitions, key=lambda t: natural_key(t.id)):
        if branch in tr.sources:
            for tgt in sorted(tr.targets, key=natural_key):
                arms.append(tgt)
    return arms


def _loop_body_steps(prog: SfcProgram) -> list:
    from .path_engine import cycle_places

    net = translate(prog)
    return sorted(cycle_places(net), key=natural_key)


def _first_assignment_block(step: Step):
    for i, blk in enumerate(step.blocks):
        if blk.body:
            return i, blk
    return None, None


def _replace_step(prog: SfcProgram, new_step: Step) -> SfcProgram:
    steps = tuple(new_step if s.id == new_step.id else s
                  for s in prog.steps)
    return SfcProgram(prog.vars, steps, prog.transitions,
                      prog.initial_steps)


def _append_assignment(step: Step, assignment) -> Step:
    for i in range(len(step.blocks) - 1, -1, -1):
        if step.blocks[i].qualifier == "entry":
            blk = step.blocks[i]
            blocks = list(step.blocks)
            blocks[i] = ActionBlock(blk.action_name, blk.qualifier,
                                    blk.body + (assignment,))
            return Step(step.id, tuple(blocks))
    return Step(step.id, step.blocks +
                (ActionBlock("Mut", "entry", (assignment,)),))


def _prepend_assignment(step: Step, assignment) -> Step:
    for i, blk in enumerate(step.blocks):
        if blk.qualifier == "entry":
            blocks = list(step.blocks)
            blocks[i] = ActionBlock(blk.action_name, blk.qualifier,
                                    (assignment,) + blk.body)
            return Step(step.id, tuple(blocks))
    return Step(step.id, (ActionBlock("Mut", "entry", (assignment,)),)
                + step.blocks)


def _remove_assignment(step: Step, block_index: int, stmt_index: int) -> Step:
    blk = step.blocks[block_index]
    body = blk.body[:stmt_index] + blk.body[stmt_index + 1:]
    blocks = list(step.blocks)
    blocks[block_index] = ActionBlock(blk.action_name, blk.qualifier, body)
    return Step(step.id, tuple(blocks))


# ---------------------------------------------------------------------------
# candidate enumeration per fault type


def _type1_sites(prog: SfcProgram) -> list:
    """(branch step, arm step) pairs where the arm's first assignment can
    be hoisted above the branch."""
    sites = []
    smap = prog.step_map()
    for branch in _branch_steps(prog):
        for arm in _branch_arms(prog, branch):
            if arm == branch:
                continue
            bi, blk = _first_assignment_block(smap[arm])
            if blk is not None:
                sites.append((branch, arm))
    return sites


def _apply_type1(prog: SfcProgram, site) -> SfcProgram:
    branch, arm = site
    smap = prog.step_map()
    bi, blk = _first_assignment_block(smap[arm])
    assignment = blk.body[0]
    prog = _replace_step(prog, _remove_assignment(smap[arm], bi, 0))
    smap = prog.step_map()
    return _replace_step(prog, _append_assignment(smap[branch], assignment))


def _type2_sites(prog: SfcProgram) -> list:
    sites = []
    smap = prog.step_map()
    for branch in _branch_steps(prog):
        bstep = smap[branch]
        has = any(blk.body for blk in bstep.blocks)
        if not has:
            continue
        for arm in _branch_arms(prog, branch):
            if arm != branch:
                sites.append((branch, arm))
    return sites


def _apply_type2(prog: SfcProgram, site) -> SfcProgram:
    branch, arm = site
    smap = prog.step_map()
    bstep = smap[branch]
    for i in range(len(bstep.blocks) - 1, -1, -1):
        if bstep.blocks[i].body:
            assignment = bstep.blocks[i].body[-1]
            shrunk = _remove_assignment(bstep, i,
                                        len(bstep.blocks[i].body) - 1)
            prog = _replace_step(prog, shrunk)
            smap = prog.step_map()
            return _replace_step(prog,
                                 _prepend_assignment(smap[arm], assignment))
    raise MutationInapplicable("bifurcation step has no assignment")


def _type3_sites(prog: SfcProgram) -> list:
    """(step, block index, stmt index) where stmt and its successor form a
    dependence chain inside a loop body."""
    sites = []
    smap = prog.step_map()
    for sid in _loop_body_steps(prog):
        step = smap.get(sid)
        if step is None:
            continue
        for bi, blk in enumerate(step.blocks):
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
    smap = prog.step_map()
    step = smap[sid]
    blk = step.blocks[bi]
    body = list(blk.body)
    body[si], body[si + 1] = body[si + 1], body[si]
    blocks = list(step.blocks)
    blocks[bi] = ActionBlock(blk.action_name, blk.qualifier, tuple(body))
    return _replace_step(prog, Step(sid, tuple(blocks)))


_SITES = {"type1": _type1_sites, "type2": _type2_sites,
          "type3": _type3_sites}
_APPLY = {"type1": _apply_type1, "type2": _apply_type2,
          "type3": _apply_type3}


def mutate(prog: SfcProgram, spec: MutationSpec,
           certify: bool = True, window=(0, 3)) -> SfcProgram:
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
        if behaviorally_different(base_net, mnet, f_out, window):
            return mutant
    raise MutationInapplicable(
        f"no {spec.kind} site changes behavior under the oracle window")
