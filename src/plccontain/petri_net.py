"""Petri net model, the SFC translator, and the token-tracking simulator.

Places carry variable-update sequences; transitions carry guards only.
Nets produced by ``translate`` are deterministic (no two enabled
transitions share a pre-place) and 1-safe. The simulator fires the whole
enabled set each round and rejects a shared pre-place, an unsafe marking
or a write conflict. It runs on a firing plan compiled once per net;
``eval_expr``, ``enabled_transitions`` and ``successor_marking`` are the
one-step reference semantics it agrees with. The simulator doubles as the
brute-force behavioral oracle used to certify generated benchmarks and to
cross-check containment verdicts.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import partial, reduce

from .sfc_core import (Expr, SfcProgram, TRUE, VarRef, IntLit,
                       BoolLit, Unary, Binary, MAX_EXPR_DEPTH, expr_height,
                       expr_to_str, negate, self_loop_id, QUALIFIER_ORDER)
from .symbolic import tdiv
from ._util import PlcError, natural_key


class EvalError(PlcError):
    pass


class ConflictingFire(Exception):
    pass


class NotEnabled(Exception):
    pass


class WriteConflict(PlcError):
    pass


class UnsafeMarking(Exception):
    pass


class GuardTooDeep(PlcError):
    def __init__(self, step_id: str):
        super().__init__(f"self-loop guard of step {step_id!r} nests deeper "
                         f"than {MAX_EXPR_DEPTH} levels")


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class Place:
    id: str
    vars: frozenset  # variables written by this place's updates
    updates: tuple  # full sequence, entry -> active -> exit order
    on_mark: tuple  # runs when the place is marked by an ordinary transition
    on_self_loop: tuple  # runs when the place's own self-loop re-marks it

    def marked_updates(self, self_loop: bool) -> tuple:
        """The sequence a round that newly marks this place runs:
        ``on_self_loop`` if its own self-loop re-marked it, else
        ``on_mark``."""
        return self.on_self_loop if self_loop else self.on_mark


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
        cache = {
            "pre_p": {k: frozenset(v) for k, v in pre_p.items()},
            "post_p": {k: frozenset(v) for k, v in post_p.items()},
            "post_t": {k: frozenset(v) for k, v in post_t.items()},
            "place_map": {p.id: p for p in self.places},
            "trans_map": {t.id: t for t in self.transitions},
            "sync": frozenset(t.id for t in self.transitions
                              if t.is_synchronizing),
        }
        cache["out_ports"] = frozenset().union(
            *(cache["pre_p"][t] for t in cache["sync"]))
        object.__setattr__(self, "_cached_maps", cache)
        return cache

    def place_map(self) -> dict:
        return self._maps()["place_map"]

    def var_env(self) -> dict:
        return {v.name: v.kind for v in self.vars}

    def pre_places(self, tid: str) -> frozenset:
        return self._maps()["pre_p"].get(tid, frozenset())

    def post_places(self, tid: str) -> frozenset:
        return self._maps()["post_p"].get(tid, frozenset())

    def post_transitions(self, pid: str) -> frozenset:
        return self._maps()["post_t"].get(pid, frozenset())

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
    """Marking at tick 0; initially marked places run their updates once,
    against the initial state with ``overrides`` applied."""
    state = initial_state(net)
    if overrides:
        state.update(overrides)
    after = dict(state)
    _commit_blocks(_plan(net).initial_blocks()[0], state, after)
    return Marking(net.initial_marking, after, 0)


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


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "<": operator.lt, "<=": operator.le, "=": operator.eq,
           "!=": operator.ne, ">=": operator.ge, ">": operator.gt}


def compile_expr(e: Expr, reads: set = None):
    """A closure ``f`` with ``f(state) == eval_expr(e, state)``: the same
    value, the same evaluation order and the same errors, raised only when
    the failing node is evaluated. The names of the variables ``e`` reads
    are added to ``reads``, if given."""
    if reads is None:
        reads = set()
    if isinstance(e, (IntLit, BoolLit)):
        value = e.value
        return lambda state: value
    if isinstance(e, VarRef):
        reads.add(e.name)
        return operator.itemgetter(e.name)
    if isinstance(e, Unary):
        f = compile_expr(e.operand, reads)
        if e.op == "-":
            return lambda state: -f(state)
        return lambda state: not f(state)
    if isinstance(e, Binary):
        a, b = compile_expr(e.left, reads), compile_expr(e.right, reads)
        if e.op == "&&":
            return lambda state: bool(a(state)) and bool(b(state))
        if e.op == "||":
            return lambda state: bool(a(state)) or bool(b(state))
        op = _BINARY.get(e.op)
        if op is not None:
            return lambda state: op(a(state), b(state))

        def div_or_unknown(state):
            x, y = a(state), b(state)
            if e.op != "/":
                raise EvalError(f"cannot evaluate {e!r}")
            if y == 0:
                raise EvalError(f"division by zero in {expr_to_str(e)}")
            return tdiv(x, y)
        return div_or_unknown

    def unknown(state):
        raise EvalError(f"cannot evaluate {e!r}")
    return unknown


def compile_updates(updates, reads: set = None):
    """A closure ``f`` with ``f(state) == _run_updates(updates, state)``;
    the names of the variables the right-hand sides read are added to
    ``reads``, if given."""
    pairs = tuple((var, compile_expr(rhs, reads)) for var, rhs in updates)

    def run(state):
        local, mine = dict(state), {}
        for var, f in pairs:
            local[var] = mine[var] = f(local)
        return mine
    return run


# ---------------------------------------------------------------------------
# translation


def translate(prog: SfcProgram) -> PetriNet:
    """Syntactic single-pass SFC -> Petri net mapping.

    Steps become places (same ids), SFC transitions become net transitions
    (same ids, guards carried verbatim), the flow relation becomes the arc
    sets, and initial steps become the initial marking. A step whose
    ``active`` body modifies state gets the self-loop sub-net: transition
    ``<step>__u`` looping on the place, enabled under the negation of the
    disjunction of the step's exit guards. That guard nests one level per
    exit, and one deeper than ``MAX_EXPR_DEPTH`` raises GuardTooDeep.
    """
    places = []
    transitions = []
    input_arcs = set()
    output_arcs = set()
    init = frozenset(prog.initial_steps)

    outgoing = prog.outgoing()

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
            guard = negate(reduce(partial(Binary, "||"),
                                  [tr.guard for tr in outgoing[step.id]]))
            if expr_height(guard) > MAX_EXPR_DEPTH:
                raise GuardTooDeep(step.id)
            uid = self_loop_id(step.id)
            transitions.append(PnTransition(
                uid, guard, is_synchronizing={step.id} == init))
            input_arcs.add((step.id, uid))
            output_arcs.add((uid, step.id))

    for tr in prog.transitions:
        transitions.append(PnTransition(
            tr.id, tr.guard, is_synchronizing=tr.targets == init))
        for src in tr.sources:
            input_arcs.add((src, tr.id))
        for tgt in tr.targets:
            output_arcs.add((tr.id, tgt))

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


def _run_updates(updates, state: dict) -> dict:
    """Run one place's sequence against the pre-round state; returns its
    final writes. The reference for ``compile_updates``."""
    local = dict(state)
    mine = {}
    for var, rhs in updates:
        val = eval_expr(rhs, local)
        local[var] = val
        mine[var] = val
    return mine


def _commit_blocks(blocks, before, after: dict) -> None:
    """Run each ``(place, block)`` of a round in order against the
    pre-round state ``before`` and commit its final writes into ``after``.
    Two places writing one variable in a round conflict. The path builder
    runs a round symbolically: its ``before`` is the variable kinds, and
    its blocks return normalized forms."""
    owner = {}
    for pid, block in blocks:
        mine = block(before)
        for var in mine:
            if var in owner:
                raise WriteConflict(f"places {owner[var]!r} and {pid!r} "
                                    f"both write {var!r}")
            owner[var] = pid
        after.update(mine)


def _fire_structure(maps: dict, marked: frozenset, fired):
    """The part of a round that no state decides: the successor marking,
    and the newly marked places in natural order, each with whether its
    own self-loop ``self_loop_id(p)`` re-marked it (an SFC transition from
    a step to itself is ordinary). Raises ConflictingFire on a shared
    pre-place and UnsafeMarking on a second token in a place."""
    pre_p, post_p = maps["pre_p"], maps["post_p"]
    order = sorted(frozenset(fired), key=natural_key)
    pre_seen = {}
    for tid in order:
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
    return survivors | frozenset(newly), [
        (p, newly[p] == self_loop_id(p))
        for p in sorted(newly, key=natural_key)]


def successor_marking(net: PetriNet, m: Marking, fired) -> Marking:
    """Successor marking: post-places of the fired set plus surviving tokens;
    newly marked places run their update sequences against the pre-round
    state, then writes commit together. The one-step reference semantics:
    every fired transition must be enabled (NotEnabled, checked before
    ConflictingFire)."""
    maps = net._maps()
    pre_p, tm, pm = maps["pre_p"], maps["trans_map"], maps["place_map"]
    for tid in sorted(frozenset(fired), key=natural_key):
        if not pre_p[tid] <= m.marked or \
                not eval_expr(tm[tid].guard, m.state):
            raise NotEnabled(f"transition {tid!r} is not enabled")
    marked, newly = _fire_structure(maps, m.marked, fired)
    blocks = [(p, partial(_run_updates, pm[p].marked_updates(loop)))
              for p, loop in newly]
    state = dict(m.state)
    _commit_blocks(blocks, m.state, state)
    return Marking(marked, state, m.tick + 1)


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


@dataclass(slots=True)
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


@dataclass(slots=True)
class _Ready:
    """The transitions structurally ready at one marking, in
    ``net.transitions`` order with their compiled guards, the inputs those
    guards read, and the steps taken from it so far, by fired ids."""
    marked: frozenset
    guards: tuple
    reads: frozenset
    steps: dict = field(default_factory=dict)


@dataclass(slots=True)
class _Step:
    """One round from a marking with a given fired set: the successor
    marking, the compiled update blocks in the order they run and the
    inputs they read, whether the round synchronizes, or why the round is
    invalid."""
    fired: frozenset
    marked: frozenset = None
    blocks: tuple = ()
    reads: frozenset = frozenset()
    sync: bool = False
    invalid: str = None


@dataclass(slots=True)
class _Checkpoint:
    """Where a run stands: the state and tick, and either the ready set
    whose guards it evaluates next (``step`` None) or the step whose blocks
    it runs next."""
    ready: _Ready
    step: _Step
    state: dict
    tick: int


class _Plan:
    """A net compiled for ``simulate``. Guards and update blocks are
    compiled from the ``Expr`` AST when first needed, each with the inputs
    (variables no place writes) it reads; ready sets are memoised per
    marking and steps per (marking, fired set), so the natural-order sorts
    of a round run once per distinct round. The plan holds the net's maps
    but never the net, so a net never sits in a reference cycle through
    its plan."""

    def __init__(self, net: PetriNet):
        self.maps = net._maps()
        self.transitions = tuple((t.id, t.guard) for t in net.transitions)
        self.initial = net.initial_marking
        self.inputs = frozenset(v.name for v in net.vars).difference(
            *(p.vars for p in net.places))
        self.guards = {}
        self.blocks = {}
        self.ready_sets = {}
        self._initial_blocks = None

    def _blocks(self, places) -> tuple:
        """``(place, compiled block)`` for each ``(place, self_loop)`` in
        order, leaving out places whose sequence is empty, and the inputs
        the blocks read."""
        out, reads = [], frozenset()
        for pid, self_loop in places:
            block = self.blocks.get((pid, self_loop))
            if block is None:
                updates = self.maps["place_map"][pid].marked_updates(self_loop)
                block = self._compiled(compile_updates, updates) \
                    if updates else False
                self.blocks[pid, self_loop] = block
            if block:
                out.append((pid, block[0]))
                if block[1]:
                    reads = reads | block[1]
        return tuple(out), reads

    def _compiled(self, compiler, code) -> tuple:
        """``compiler(code)``, and the inputs the compiled code reads."""
        read = set()
        fn = compiler(code, read)
        return fn, self.inputs.intersection(read)

    def initial_blocks(self) -> tuple:
        """The initially marked places' blocks, and the inputs they read."""
        if self._initial_blocks is None:
            self._initial_blocks = self._blocks(
                (pid, False) for pid in sorted(self.initial, key=natural_key))
        return self._initial_blocks

    def ready(self, marked: frozenset) -> _Ready:
        ready = self.ready_sets.get(marked)
        if ready is None:
            pre_p, guards, reads = self.maps["pre_p"], [], frozenset()
            for tid, guard in self.transitions:
                if pre_p[tid] <= marked:
                    compiled = self.guards.get(tid)
                    if compiled is None:
                        compiled = self.guards[tid] = self._compiled(
                            compile_expr, guard)
                    guards.append((tid, compiled[0]))
                    if compiled[1]:
                        reads = reads | compiled[1]
            ready = self.ready_sets[marked] = _Ready(
                marked, tuple(guards), reads)
        return ready

    def step(self, ready: _Ready, fired_ids: tuple) -> _Step:
        fired = frozenset(fired_ids)
        try:
            marked, newly = _fire_structure(self.maps, ready.marked, fired)
        except ConflictingFire:
            step = _Step(fired, invalid="nondeterministic marking")
        except UnsafeMarking as exc:
            step = _Step(fired, invalid=str(exc))
        else:
            blocks, reads = self._blocks(newly)
            step = _Step(fired, marked, blocks, reads,
                         not fired.isdisjoint(self.maps["sync"]))
        ready.steps[fired_ids] = step
        return step


def _plan(net: PetriNet) -> _Plan:
    plan = getattr(net, "_cached_plan", None)
    if plan is None:
        plan = _Plan(net)
        object.__setattr__(net, "_cached_plan", plan)
    return plan


def _start(net: PetriNet, state: dict):
    """The checkpoint at tick 0, after the initial marking's updates ran
    against the initial state with ``state`` applied, or InvalidModel."""
    try:
        m = initial_marking(net, state)
    except WriteConflict as exc:
        return InvalidModel(str(exc), 0)
    return _Checkpoint(_plan(net).ready(m.marked), None, m.state, 0)


def _run(plan: _Plan, at: _Checkpoint, fuel: int, known: frozenset):
    """The round loop, from ``at`` until the run stops (a Trace of the
    rounds fired from ``at``), is invalid (InvalidModel) or, before it
    evaluates guards or runs blocks that read an input outside ``known``,
    pauses (the _Checkpoint where it stands). ``simulate`` knows every
    input, so its runs never pause."""
    ready, step, state, tick = at.ready, at.step, at.state, at.tick
    before, rounds = state, []
    while tick < fuel:
        if step is None:
            if not ready.reads <= known:
                return _Checkpoint(ready, None, state, tick)
            fired = tuple([tid for tid, guard in ready.guards if guard(state)])
            if not fired:
                m = Marking(ready.marked, state, tick)
                if not ready.marked:
                    return Trace(rounds, m, "halt", before)
                if ready.guards:
                    return Trace(rounds, m, "quiescent", before)
                post_t = plan.maps["post_t"]
                if all(not post_t.get(p) for p in ready.marked):
                    return Trace(rounds, m, "halt", before)
                return InvalidModel("structural starvation at a live marking",
                                    tick)
            step = ready.steps.get(fired) or plan.step(ready, fired)
            if step.invalid is not None:
                return InvalidModel(step.invalid, tick)
            if not step.reads <= known:
                return _Checkpoint(ready, step, state, tick)
        after = state  # a round that writes nothing shares its state
        if step.blocks:
            after = dict(state)
            try:
                _commit_blocks(step.blocks, state, after)
            except WriteConflict as exc:
                return InvalidModel(str(exc), tick)
        rounds.append(TraceRound(tick, step.fired))
        before, state, tick = state, after, tick + 1
        if step.sync:
            return Trace(rounds, Marking(step.marked, state, tick), "sync",
                         before)
        ready, step = plan.ready(step.marked), None
    return Trace(rounds, Marking(ready.marked, state, tick), "fuel", before)


def simulate(net: PetriNet, fuel: int = DEFAULT_FUEL, state: dict = None):
    """Fire the enabled set from the initial marking, incrementing the tick
    each round, until a synchronizing transition fires.

    Clean stops: fuel exhaustion, a synchronizing-transition firing, a
    marking of structural sinks ("halt"), or guard quiescence — some
    transition is structurally ready but every guard is false, the net
    waiting for inputs ("quiescent"). InvalidModel: structural starvation
    of a live marking, nondeterminism (two enabled transitions sharing a
    pre-place), 1-safety violations, same-round write conflicts (the
    initial marking's included, at tick 0).

    Runs on the net's compiled plan, evaluating each ready guard once per
    round; ``enabled_transitions`` and ``successor_marking`` are the
    reference it agrees with.
    """
    at = _start(net, state)
    if isinstance(at, InvalidModel):
        return at
    plan = _plan(net)
    return _run(plan, at, fuel, plan.inputs)


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
