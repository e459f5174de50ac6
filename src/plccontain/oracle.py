"""Exhaustive joint-simulation oracle.

Containment is confirmed behaviorally, by one loop: for every valuation of
the original model's input variables (booleans exhaustive, integers over a
window), if the original run reaches an out-port, some valuation of the
upgraded model's extra inputs must drive the upgrade to the corresponding
out-port with the same final values on common variables. Equivalence is
that loop run both ways over one record of runs. The oracle is independent
of the symbolic checker and is what the acceptance suite trusts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from ._util import PlcError, natural_key
from .petri_net import InvalidModel, PetriNet, simulate

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
    written = frozenset().union(*(p.vars for p in net.places))
    return tuple(sorted((v.name for v in net.vars if v.name not in written),
                        key=natural_key))


def _domains(net: PetriNet, names, window) -> list:
    env = net.var_env()
    return [(False, True) if env[n] == "bool"
            else tuple(range(window[0], window[1] + 1)) for n in names]


def run_outcome(net: PetriNet, valuation: dict, common):
    """Outcome of one deterministic run, or InvalidModel."""
    tr = simulate(net, fuel=ORACLE_FUEL, state=valuation)
    if isinstance(tr, InvalidModel):
        return tr
    if tr.stopped != "sync":
        return Outcome(frozenset(), (), tr.stopped)
    sync_round = tr.rounds[-1]
    fired_sync = sync_round.fired & net.synchronizing_ids()
    ports = frozenset()
    for t in fired_sync:
        ports |= net.pre_places(t)
    state = tr.state_before_last()
    filtered = tuple(sorted((k, state[k]) for k in state if k in common))
    return Outcome(ports, filtered, "sync")


def _contained(n0: PetriNet, n1: PetriNet, f_out: dict, window, runs: dict):
    """Containment of n0 in n1; returns (ok, counterexample).

    Each run's outcome is recorded in ``runs``, keyed on (net, the whole
    valuation), and looked up there before the net is simulated again. The
    key is every name the valuation sets, not just the net's inputs: a
    valuation can also set a variable that the net declares and writes,
    and so start it from a different state."""
    common = frozenset(v.name for v in n0.vars) & \
        frozenset(v.name for v in n1.vars)
    ins0 = input_vars(n0)
    extra1 = tuple(n for n in input_vars(n1) if n not in ins0)
    dom0, dom1 = _domains(n0, ins0, window), _domains(n1, extra1, window)
    total = prod(len(d) for d in dom0 + dom1)
    if total > VALUATION_LIMIT:
        raise OracleBudgetExceeded(f"{total} input valuations exceed the "
                                   f"oracle's limit of {VALUATION_LIMIT}")
    extras = [dict(zip(extra1, combo)) for combo in product(*dom1)]
    names1 = {x.name for x in n1.vars}

    def outcome(net, valuation):
        key = (id(net), tuple(sorted(valuation.items())))
        out = runs.get(key)
        if out is None:
            out = runs[key] = run_outcome(net, valuation, common)
        return out

    for combo in product(*dom0):
        v = dict(zip(ins0, combo))
        out0 = outcome(n0, v)
        if isinstance(out0, InvalidModel):
            return False, {"n0_invalid": out0.reason, "inputs": v}
        if out0.stopped != "sync":
            continue  # no computation to contain
        want_ports = frozenset(f_out[p] for p in out0.out_ports)
        base1 = {k: val for k, val in v.items() if k in names1}
        for w in extras:
            out1 = outcome(n1, {**base1, **w})
            if not isinstance(out1, InvalidModel) and \
                    out1.stopped == "sync" and \
                    out1.out_ports == want_ports and out1.state == out0.state:
                break
        else:
            return False, {"inputs": v, "n0_ports": sorted(out0.out_ports),
                           "n0_state": out0.state}
    return True, None


def confirm_containment(n0: PetriNet, n1: PetriNet, f_out: dict,
                        window=DEFAULT_WINDOW):
    """True when every out-port run of n0 has a matching n1 run under some
    valuation of n1's extra inputs; returns (ok, counterexample)."""
    return _contained(n0, n1, f_out, window, {})


def confirm_equivalent(n0: PetriNet, n1: PetriNet, f_out: dict,
                       window=DEFAULT_WINDOW):
    """Equivalence as containment both ways; returns (ok, counterexample).

    The result is that of ``confirm_containment`` N0 into N1, then N1 into
    N0, but the two directions share one run record: each (net, valuation)
    is simulated once per call, and the second direction mostly looks up
    outcomes the first recorded. A counterexample from the second
    direction names N1's inputs, ports and state in its ``n0_*`` keys."""
    runs = {}
    ok, ce = _contained(n0, n1, f_out, window, runs)
    if not ok:
        return ok, ce
    return _contained(n1, n0, {v: k for k, v in f_out.items()}, window, runs)
