"""Exhaustive joint-simulation oracle.

Containment is confirmed behaviorally, by one loop: for every valuation of
the original model's input variables (booleans exhaustive, integers over a
window), if the original run reaches an out-port, some valuation of the
upgraded model's extra inputs must drive the upgrade to the corresponding
out-port with the same final values on common variables. Equivalence is
that loop run both ways over one record of runs. The oracle is independent
of the symbolic checker and is what the acceptance suite trusts.

The record is one run tree per (net, set of valuation names), so that a
run is simulated only as far as no earlier run has taken it. A node is a
checkpoint of a run, taken where the run first reads inputs (variables no
place writes) that it has not read before; its children are keyed on
those inputs' values. A leaf is the run's outcome. A valuation walks down
from the root, whose key is the values the valuation gives the variables
the net writes and the inputs that the initial updates read. At a leaf,
the outcome is derived: each common input takes the valuation's value. At
a missing child, the run resumes from that checkpoint with the
valuation's inputs put into the state, and adds the checkpoints it passes.

This is sound because a round depends only on the marking and the state,
no place writes an input, and the inputs a checkpoint records cover every
guard the run evaluates (every structurally ready guard, each round) and
every block it runs. So two valuations that agree on every input read so
far reach the same marking, and the same state on every variable but the
inputs, whose values are each valuation's own. ``run_outcome``, one
``simulate`` per valuation, is the reference the tree agrees with.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from ._util import PlcError, natural_key
from .petri_net import (InvalidModel, PetriNet, _Checkpoint, _plan, _run,
                        _start, simulate)

DEFAULT_WINDOW = (0, 3)
ORACLE_FUEL = 600
VALUATION_LIMIT = 200_000  # most joint valuations one direction may run


class OracleBudgetExceeded(PlcError):
    pass


@dataclass(frozen=True)
class Outcome:
    out_ports: frozenset  # pre-places of the fired synchronizing transition
    state: tuple  # sorted (name, value) pairs over common variables
    stopped: str


def input_vars(net: PetriNet) -> tuple:
    """Declared variables never written by any place: the net's inputs."""
    return tuple(sorted(_plan(net).inputs, key=natural_key))


def _domains(net: PetriNet, names, window) -> list:
    env = net.var_env()
    return [(False, True) if env[n] == "bool"
            else tuple(range(window[0], window[1] + 1)) for n in names]


def _outcome(net: PetriNet, run, common):
    """The outcome of a finished run (a Trace), or its InvalidModel."""
    if isinstance(run, InvalidModel):
        return run
    if run.stopped != "sync":
        return Outcome(frozenset(), (), run.stopped)
    fired_sync = run.rounds[-1].fired & net.synchronizing_ids()
    ports = frozenset()
    for t in fired_sync:
        ports |= net.pre_places(t)
    state = run.before_last
    filtered = tuple(sorted((k, state[k]) for k in state if k in common))
    return Outcome(ports, filtered, "sync")


def run_outcome(net: PetriNet, valuation: dict, common):
    """Outcome of one deterministic run, or InvalidModel."""
    return _outcome(net, simulate(net, fuel=ORACLE_FUEL, state=valuation),
                    common)


@dataclass(slots=True)
class _Node:
    """A checkpoint (None at the root: the run's start), the inputs its
    run reads first there, in order, every input read up to and including
    them, and its children by those inputs' values."""
    at: _Checkpoint
    names: tuple
    known: frozenset
    children: dict


class _RunTree:
    """The runs of one net from valuations that set ``names``, as a tree
    of checkpoints (see the module docstring)."""

    def __init__(self, net: PetriNet, names, common: frozenset):
        self.net, self.common = net, common
        self.plan = plan = _plan(net)
        self.inputs = tuple(sorted(plan.inputs.intersection(names)))
        # inputs the valuations do not set keep their initial values
        fixed = plan.inputs.difference(names)
        init_reads = plan.initial_blocks()[1]
        self.root = _Node(
            None,
            tuple(sorted(n for n in names if n not in plan.inputs)) +
            tuple(sorted(init_reads.intersection(names))),
            fixed | init_reads, {})
        # positions in an outcome's state of the inputs a valuation sets
        self.fill = tuple((i, k) for i, k in enumerate(sorted(common))
                          if k in self.inputs)
        # one copy of each equal read set, port set and (name, value) pair
        self.shared = {}

    def outcome(self, valuation: dict):
        """``run_outcome(net, valuation, common)``, from the tree."""
        node = self.root
        while True:
            key = tuple([valuation[n] for n in node.names])
            child = node.children.get(key)
            if child is None:
                return self._resume(node, key, valuation)
            if not isinstance(child, _Node):
                break
            node = child
        if isinstance(child, InvalidModel) or child.stopped != "sync" or \
                not self.fill:
            return child
        state = list(child.state)
        for i, k in self.fill:
            state[i] = (k, valuation[k])
        return Outcome(child.out_ports, tuple(state), "sync")

    def _resume(self, node: _Node, key: tuple, valuation: dict):
        """Run ``valuation`` on from ``node``'s checkpoint, where no
        child has its values; add the checkpoints it passes and its
        outcome under ``node``, and return the outcome."""
        if node.at is None:
            at = _start(self.net, valuation)
        else:
            state = dict(node.at.state)
            for n in self.inputs:
                state[n] = valuation[n]
            at = _Checkpoint(node.at.ready, node.at.step, state, node.at.tick)
        known = node.known
        while isinstance(at, _Checkpoint):
            at = _run(self.plan, at, ORACLE_FUEL, known)
            if isinstance(at, _Checkpoint):
                reads = at.ready.reads if at.step is None else at.step.reads
                new = reads - known
                known = self._share(known | new)
                child = _Node(at, tuple(sorted(new)), known, {})
                node.children[key] = child
                node, key = child, tuple([valuation[n] for n in child.names])
        out = _outcome(self.net, at, self.common)
        if not isinstance(out, InvalidModel) and out.stopped == "sync":
            out = Outcome(self._share(out.out_ports),
                          tuple(map(self._share, out.state)), "sync")
        node.children[key] = out
        return out

    def _share(self, value):
        return self.shared.setdefault(value, value)


def _contained(n0: PetriNet, n1: PetriNet, f_out: dict, ins: dict,
               trees: dict):
    """Containment of n0 in n1; returns (ok, counterexample).

    ``ins`` gives each net's inputs and their domains. Outcomes come from
    the run tree in ``trees`` for each (net, names the valuations set):
    the names are every key a valuation sets, not just the net's inputs,
    since a valuation can also set a variable that the net declares and
    writes, and so start it from a different state."""
    common = frozenset(v.name for v in n0.vars) & \
        frozenset(v.name for v in n1.vars)
    ins0, dom0 = ins[id(n0)]
    extra = [(n, d) for n, d in zip(*ins[id(n1)]) if n not in ins0]
    extra1 = tuple(n for n, _ in extra)
    dom1 = [d for _, d in extra]
    total = prod(len(d) for d in dom0 + dom1)
    if total > VALUATION_LIMIT:
        raise OracleBudgetExceeded(f"{total} input valuations exceed the "
                                   f"oracle's limit of {VALUATION_LIMIT}")
    extras = [dict(zip(extra1, combo)) for combo in product(*dom1)]
    names1 = {x.name for x in n1.vars}
    base = tuple(n for n in ins0 if n in names1)

    def tree(net, names):
        key = (id(net), frozenset(names))
        found = trees.get(key)
        if found is None:
            found = trees[key] = _RunTree(net, names, common)
        return found

    tree0, tree1 = tree(n0, ins0), tree(n1, base + extra1)
    for combo in product(*dom0):
        v = dict(zip(ins0, combo))
        out0 = tree0.outcome(v)
        if isinstance(out0, InvalidModel):
            return False, {"n0_invalid": out0.reason, "inputs": v}
        if out0.stopped != "sync":
            continue  # no computation to contain
        want_ports = frozenset(f_out[p] for p in out0.out_ports)
        base1 = {k: v[k] for k in base}
        for w in extras:
            out1 = tree1.outcome({**base1, **w})
            if not isinstance(out1, InvalidModel) and \
                    out1.stopped == "sync" and \
                    out1.out_ports == want_ports and out1.state == out0.state:
                break
        else:
            return False, {"inputs": v, "n0_ports": sorted(out0.out_ports),
                           "n0_state": out0.state}
    return True, None


def _inputs(window, *nets) -> dict:
    """Each net's inputs and their domains in ``window``, by ``id``."""
    out = {}
    for net in nets:
        names = input_vars(net)
        out[id(net)] = (names, _domains(net, names, window))
    return out


def confirm_containment(n0: PetriNet, n1: PetriNet, f_out: dict,
                        window=DEFAULT_WINDOW):
    """True when every out-port run of n0 has a matching n1 run under some
    valuation of n1's extra inputs; returns (ok, counterexample)."""
    return _contained(n0, n1, f_out, _inputs(window, n0, n1), {})


def confirm_equivalent(n0: PetriNet, n1: PetriNet, f_out: dict,
                       window=DEFAULT_WINDOW):
    """Equivalence as containment both ways; returns (ok, counterexample).

    The result is that of ``confirm_containment`` N0 into N1, then N1 into
    N0, but the two directions share each net's inputs and run trees, so
    the second direction mostly derives outcomes from leaves the first
    added. A counterexample from the second direction names N1's inputs,
    ports and state in its ``n0_*`` keys."""
    ins, trees = _inputs(window, n0, n1), {}
    ok, ce = _contained(n0, n1, f_out, ins, trees)
    if not ok:
        return ok, ce
    return _contained(n1, n0, {v: k for k, v in f_out.items()}, ins, trees)
