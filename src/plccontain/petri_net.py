"""Petri net model, the SFC translator, and the token-tracking simulator.

Places carry variable-update sequences; transitions carry guards only.
Nets produced by ``translate`` are deterministic (no two enabled
transitions share a pre-place) and 1-safe. The simulator fires the whole
enabled set each round, and ``successor_marking`` rejects a shared
pre-place, an unsafe marking or a write conflict. The simulator doubles
as the brute-force behavioral oracle used to certify generated benchmarks
and to cross-check containment verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .sfc_core import (Expr, SfcProgram, TRUE, VarRef, IntLit,
                       BoolLit, Unary, Binary, expr_to_str, negate,
                       QUALIFIER_ORDER)
from .symbolic import tdiv
from ._util import natural_key


class EvalError(Exception):
    pass


class ConflictingFire(Exception):
    pass


class NotEnabled(Exception):
    pass


class WriteConflict(Exception):
    pass


class UnsafeMarking(Exception):
    pass


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class Place:
    id: str
    vars: frozenset  # variables written by this place's updates
    updates: tuple  # full sequence, entry -> active -> exit order
    on_mark: tuple  # runs when the place is marked by an ordinary transition
    on_self_loop: tuple  # runs when the place's own self-loop re-marks it


@dataclass(frozen=True)
class PnTransition:
    id: str
    guard: Expr = TRUE
    is_synchronizing: bool = False


@dataclass(frozen=True)
class PetriNet:
    places: tuple
    vars: tuple  # tuple of VarDecl
    transitions: tuple
    input_arcs: frozenset  # (place_id, transition_id)
    output_arcs: frozenset  # (transition_id, place_id)
    initial_marking: frozenset

    def _maps(self) -> dict:
        cache = getattr(self, "_cached_maps", None)
        if cache is not None:
            return cache
        pre_p = {t.id: set() for t in self.transitions}
        post_p = {t.id: set() for t in self.transitions}
        post_t = {p.id: set() for p in self.places}
        for p, t in self.input_arcs:
            pre_p.setdefault(t, set()).add(p)
            post_t.setdefault(p, set()).add(t)
        for t, p in self.output_arcs:
            post_p.setdefault(t, set()).add(p)
        self_loops = {}
        for t in self.transitions:
            pre = frozenset(pre_p[t.id])
            if len(pre) == 1 and pre == frozenset(post_p[t.id]):
                self_loops[next(iter(pre))] = t.id
        cache = {
            "pre_p": {k: frozenset(v) for k, v in pre_p.items()},
            "post_p": {k: frozenset(v) for k, v in post_p.items()},
            "post_t": {k: frozenset(v) for k, v in post_t.items()},
            "place_map": {p.id: p for p in self.places},
            "trans_map": {t.id: t for t in self.transitions},
            "self_loops": self_loops,
            "sync": frozenset(t.id for t in self.transitions
                              if t.is_synchronizing),
        }
        cache["out_ports"] = frozenset().union(
            *(cache["pre_p"][t] for t in cache["sync"]))
        object.__setattr__(self, "_cached_maps", cache)
        return cache

    def place_map(self) -> dict:
        return self._maps()["place_map"]

    def transition_map(self) -> dict:
        return self._maps()["trans_map"]

    def var_env(self) -> dict:
        return {v.name: v.kind for v in self.vars}

    def pre_places(self, tid: str) -> frozenset:
        return self._maps()["pre_p"].get(tid, frozenset())

    def post_places(self, tid: str) -> frozenset:
        return self._maps()["post_p"].get(tid, frozenset())

    def post_transitions(self, pid: str) -> frozenset:
        return self._maps()["post_t"].get(pid, frozenset())

    def changed_vars(self) -> frozenset:
        out = set()
        for p in self.places:
            out |= p.vars
        return frozenset(out)

    def unchanged_vars(self) -> frozenset:
        return frozenset(v.name for v in self.vars) - self.changed_vars()

    def self_loop_of(self, pid: str):
        return self._maps()["self_loops"].get(pid)

    def synchronizing_ids(self) -> frozenset:
        return self._maps()["sync"]

    def out_ports(self) -> frozenset:
        """Places feeding a synchronizing transition."""
        return self._maps()["out_ports"]


@dataclass
class Marking:
    marked: frozenset
    state: dict
    tick: int = 0


def initial_state(net: PetriNet) -> dict:
    state = {}
    for v in net.vars:
        state[v.name] = v.initial.value
    return state


def initial_marking(net: PetriNet, overrides: dict = None) -> Marking:
    """Marking at tick 0; initially marked places run their updates once."""
    state = initial_state(net)
    if overrides:
        state.update(overrides)
    pm = net.place_map()
    writes = {}
    for pid in sorted(net.initial_marking, key=natural_key):
        _run_updates(pm[pid].on_mark, state, writes, pid)
    state.update({k: v for k, (v, _src) in writes.items()})
    return Marking(net.initial_marking, state, 0)


# ---------------------------------------------------------------------------
# expression evaluation


def eval_expr(e: Expr, state: dict):
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, VarRef):
        return state[e.name]
    if isinstance(e, Unary):
        v = eval_expr(e.operand, state)
        return -v if e.op == "-" else (not v)
    if isinstance(e, Binary):
        a = eval_expr(e.left, state)
        if e.op == "&&":
            return bool(a) and bool(eval_expr(e.right, state))
        if e.op == "||":
            return bool(a) or bool(eval_expr(e.right, state))
        b = eval_expr(e.right, state)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise EvalError(f"division by zero in {expr_to_str(e)}")
            return tdiv(a, b)
        if e.op == "<":
            return a < b
        if e.op == "<=":
            return a <= b
        if e.op == "=":
            return a == b
        if e.op == "!=":
            return a != b
        if e.op == ">=":
            return a >= b
        if e.op == ">":
            return a > b
    raise EvalError(f"cannot evaluate {e!r}")


# ---------------------------------------------------------------------------
# translation


def translate(prog: SfcProgram) -> PetriNet:
    """Syntactic single-pass SFC -> Petri net mapping.

    Steps become places (same ids), SFC transitions become net transitions
    (same ids, guards carried verbatim), the flow relation becomes the arc
    sets, and initial steps become the initial marking. A step whose
    ``active`` body modifies state gets the self-loop sub-net: transition
    ``<step>__u`` looping on the place, enabled under the negation of the
    disjunction of the step's exit guards.
    """
    places = []
    transitions = []
    input_arcs = set()
    output_arcs = set()

    outgoing = {}
    for tr in prog.transitions:
        for src in tr.sources:
            outgoing.setdefault(src, []).append(tr)

    for step in prog.steps:
        on_mark, on_loop, full = [], [], []
        for q in QUALIFIER_ORDER:
            for blk in step.blocks:
                if blk.qualifier == q:
                    full.extend(blk.body)
                    (on_loop if q == "active" else on_mark).extend(blk.body)
        written = frozenset(v for v, _ in full)
        places.append(Place(step.id, written, tuple(full), tuple(on_mark),
                            tuple(on_loop)))
        if on_loop and step.id in outgoing:
            exits = [tr.guard for tr in outgoing[step.id]]
            cond = exits[0]
            for g in exits[1:]:
                cond = Binary("||", cond, g)
            uid = f"{step.id}__u"
            transitions.append(PnTransition(uid, negate(cond)))
            input_arcs.add((step.id, uid))
            output_arcs.add((uid, step.id))

    for tr in prog.transitions:
        transitions.append(PnTransition(tr.id, tr.guard))
        for src in tr.sources:
            input_arcs.add((src, tr.id))
        for tgt in tr.targets:
            output_arcs.add((tr.id, tgt))

    init = frozenset(prog.initial_steps)
    post = {}
    for t, p in output_arcs:
        post.setdefault(t, set()).add(p)
    transitions = [
        PnTransition(t.id, t.guard,
                     is_synchronizing=(frozenset(post.get(t.id, ())) == init))
        for t in transitions
    ]
    return PetriNet(tuple(places), tuple(prog.vars), tuple(transitions),
                    frozenset(input_arcs), frozenset(output_arcs), init)


# ---------------------------------------------------------------------------
# firing semantics


def enabled_transitions(net: PetriNet, m: Marking) -> frozenset:
    pre = net._maps()["pre_p"]
    marked, state = m.marked, m.state
    out = set()
    for t in net.transitions:
        if pre[t.id] <= marked and eval_expr(t.guard, state):
            out.add(t.id)
    return frozenset(out)


def _run_updates(updates, state: dict, writes: dict, pid: str) -> None:
    """Run one place's sequence against the pre-round state, recording its
    final writes. Two places writing one variable in a round conflict."""
    local = dict(state)
    mine = {}
    for var, rhs in updates:
        val = eval_expr(rhs, local)
        local[var] = val
        mine[var] = val
    for var, val in mine.items():
        if var in writes and writes[var][1] != pid:
            raise WriteConflict(
                f"places {writes[var][1]!r} and {pid!r} both write {var!r}")
        writes[var] = (val, pid)


def successor_marking(net: PetriNet, m: Marking, fired) -> Marking:
    """Successor marking: post-places of the fired set plus surviving tokens;
    newly marked places run their update sequences against the pre-round
    state, then writes commit together."""
    maps = net._maps()
    pre_p, post_p = maps["pre_p"], maps["post_p"]
    pm, self_loops = maps["place_map"], maps["self_loops"]
    order = sorted(frozenset(fired), key=natural_key)
    marked, state0 = m.marked, m.state
    pre_seen = {}
    for tid in order:
        if not pre_p[tid] <= marked or not eval_expr(maps["trans_map"][tid].guard, state0):
            raise NotEnabled(f"transition {tid!r} is not enabled")
        for p in pre_p[tid]:
            if p in pre_seen:
                raise ConflictingFire(
                    f"{pre_seen[p]!r} and {tid!r} share pre-place {p!r}")
            pre_seen[p] = tid

    survivors = marked - frozenset(pre_seen)
    newly = {}
    for tid in order:
        for p in post_p[tid]:
            if p in newly:
                raise UnsafeMarking(f"two tokens pushed into {p!r}")
            if p in survivors:
                raise UnsafeMarking(f"token pushed into marked place {p!r}")
            newly[p] = tid

    state = dict(state0)
    writes = {}
    for p in sorted(newly, key=natural_key):
        producer = newly[p]
        place = pm[p]
        if self_loops.get(p) == producer:
            _run_updates(place.on_self_loop, state0, writes, p)
        else:
            _run_updates(place.on_mark, state0, writes, p)
    state.update({k: v for k, (v, _src) in writes.items()})
    return Marking(survivors | frozenset(newly), state, m.tick + 1)


def compute_all_concur_trans(net: PetriNet, m: Marking) -> frozenset:
    """All maximal sets of simultaneously firable transitions: enabled,
    pairwise pre-place-disjoint. Deterministic translated nets yield at
    most one set.

    The reference semantics: ``simulate`` fires the enabled set instead,
    and a shared pre-place, which it rejects, is exactly when more than
    one set exists. Acceptance criterion 7 checks determinism against it,
    and ``test_petri_net`` also checks ``simulate``'s runs against it."""
    enabled = sorted(enabled_transitions(net, m), key=natural_key)
    return _maximal_disjoint_sets(enabled, {t: net.pre_places(t)
                                            for t in enabled})


def _maximal_disjoint_sets(candidates, footprint: dict) -> frozenset:
    """All maximal subsets of `candidates` whose members have pairwise
    disjoint footprints (`footprint` maps each candidate to a set)."""
    if not candidates:
        return frozenset()
    sets = set()

    def rec(chosen, used, rest):
        extended = False
        for i, t in enumerate(rest):
            if not (footprint[t] & used):
                extended = True
                rec(chosen + [t], used | footprint[t], rest[i + 1:])
        if not extended:
            cand = frozenset(chosen)
            # maximal against the full candidate list
            if all(footprint[t] & used for t in candidates if t not in cand):
                sets.add(cand)

    rec([], frozenset(), list(candidates))
    sets.discard(frozenset())
    return frozenset(sets)


# ---------------------------------------------------------------------------
# simulation

DEFAULT_FUEL = 10_000


@dataclass(frozen=True)
class TraceRound:
    tick: int
    fired: frozenset


@dataclass
class Trace:
    rounds: list
    final: Marking
    stopped: str  # "sync" | "halt" | "quiescent" | "fuel"
    before_last: dict  # state the final round fired from

    def state_before_last(self) -> dict:
        """State when the final round's pre-marking held (the final state
        if no round fired); for a sync stop this is the state at the
        out-port (the computation's end)."""
        return dict(self.before_last)


@dataclass
class InvalidModel:
    reason: str
    tick: int = 0


def simulate(net: PetriNet, fuel: int = DEFAULT_FUEL, state: dict = None):
    """Fire the enabled set from the initial marking, incrementing the tick
    each round, until a synchronizing transition fires.

    Clean stops: fuel exhaustion, a synchronizing-transition firing, a
    marking of structural sinks ("halt"), or guard quiescence — some
    transition is structurally ready but every guard is false, the net
    waiting for inputs ("quiescent"). InvalidModel: structural starvation
    of a live marking, nondeterminism (two enabled transitions sharing a
    pre-place), 1-safety violations, same-round write conflicts.
    """
    m = initial_marking(net, state)
    before = m.state
    rounds = []
    sync_ids = net.synchronizing_ids()
    for _ in range(fuel):
        fired = enabled_transitions(net, m)
        if not fired:
            if not m.marked:
                return Trace(rounds, m, "halt", before)
            structurally_ready = any(
                net.pre_places(t.id) <= m.marked for t in net.transitions)
            if structurally_ready:
                return Trace(rounds, m, "quiescent", before)
            if all(not net.post_transitions(p) for p in m.marked):
                return Trace(rounds, m, "halt", before)
            return InvalidModel("structural starvation at a live marking",
                                m.tick)
        try:
            nxt = successor_marking(net, m, fired)
        except ConflictingFire:
            return InvalidModel("nondeterministic marking", m.tick)
        except (UnsafeMarking, WriteConflict) as exc:
            return InvalidModel(str(exc), m.tick)
        rounds.append(TraceRound(m.tick, fired))
        before, m = m.state, nxt
        if fired & sync_ids:
            return Trace(rounds, m, "sync", before)
    return Trace(rounds, m, "fuel", before)


# ---------------------------------------------------------------------------
# JSON dump


def net_to_json(net: PetriNet) -> str:
    doc = {
        "initial_marking": sorted(net.initial_marking, key=natural_key),
        "input_arcs": [[p, t] for p, t in
                       sorted(net.input_arcs, key=lambda a: (natural_key(a[0]),
                                                             natural_key(a[1])))],
        "output_arcs": [[t, p] for t, p in
                        sorted(net.output_arcs, key=lambda a: (natural_key(a[0]),
                                                               natural_key(a[1])))],
        "places": [
            {
                "id": p.id,
                "updates": [[v, expr_to_str(rhs)] for v, rhs in p.updates],
                "vars": sorted(p.vars),
            }
            for p in sorted(net.places, key=lambda p: natural_key(p.id))
        ],
        "transitions": [
            {
                "guard": expr_to_str(t.guard),
                "id": t.id,
                "synchronizing": t.is_synchronizing,
            }
            for t in sorted(net.transitions, key=lambda t: natural_key(t.id))
        ],
        "vars": [
            {"initial": expr_to_str(v.initial), "kind": v.kind, "name": v.name}
            for v in sorted(net.vars, key=lambda v: v.name)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
