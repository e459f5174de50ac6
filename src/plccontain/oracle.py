"""Exhaustive joint-simulation oracle.

Containment is confirmed behaviorally: for every valuation of the original
model's input variables (booleans exhaustive, integers over a window), if
the original run reaches an out-port, some valuation of the upgraded
model's extra inputs must drive the upgrade to the corresponding out-port
with the same final values on common variables. The oracle is independent
of the symbolic checker and is what the acceptance suite trusts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ._util import PlcError, natural_key
from .petri_net import InvalidModel, PetriNet, simulate

DEFAULT_WINDOW = (0, 3)
ORACLE_FUEL = 600
VALUATION_LIMIT = 200_000  # most input valuations one oracle call runs


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


def _valuations(net: PetriNet, names, window):
    env = net.var_env()
    domains = []
    for n in names:
        if env[n] == "bool":
            domains.append((False, True))
        else:
            domains.append(tuple(range(window[0], window[1] + 1)))
    total = 1
    for d in domains:
        total *= len(d)
    if total > VALUATION_LIMIT:
        raise OracleBudgetExceeded(f"{total} input valuations exceed the "
                                   f"oracle's limit of {VALUATION_LIMIT}")
    for combo in product(*domains):
        yield dict(zip(names, combo))


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


def confirm_containment(n0: PetriNet, n1: PetriNet, f_out: dict,
                        window=DEFAULT_WINDOW):
    """True when every out-port run of n0 has a matching n1 run under some
    valuation of n1's extra inputs; returns (ok, counterexample)."""
    common = frozenset(v.name for v in n0.vars) & \
        frozenset(v.name for v in n1.vars)
    ins0 = input_vars(n0)
    ins0_set = set(ins0)
    extra1 = tuple(n for n in input_vars(n1) if n not in ins0_set)
    names1 = {x.name for x in n1.vars}
    for v in _valuations(n0, ins0, window):
        out0 = run_outcome(n0, v, common)
        if isinstance(out0, InvalidModel):
            return False, {"n0_invalid": out0.reason, "inputs": v}
        if out0.stopped != "sync":
            continue  # no computation to contain
        want_ports = frozenset(f_out[p] for p in out0.out_ports)
        base1 = {k: val for k, val in v.items() if k in names1}
        matched = False
        for w in _valuations(n1, extra1, window):
            out1 = run_outcome(n1, {**base1, **w}, common)
            if isinstance(out1, InvalidModel):
                continue
            if out1.stopped == "sync" and out1.out_ports == want_ports \
                    and out1.state == out0.state:
                matched = True
                break
        if not matched:
            return False, {"inputs": v, "n0_ports": sorted(out0.out_ports),
                           "n0_state": out0.state}
    return True, None


def confirm_equivalent(n0: PetriNet, n1: PetriNet, f_out: dict,
                       window=DEFAULT_WINDOW):
    """Single-pass equivalence check for pairs sharing the same inputs:
    every valuation must produce matching outcomes in both nets."""
    common = frozenset(v.name for v in n0.vars) & \
        frozenset(v.name for v in n1.vars)
    ins0 = set(input_vars(n0))
    ins1 = set(input_vars(n1))
    if ins0 != ins1:
        ok, ce = confirm_containment(n0, n1, f_out, window)
        if not ok:
            return ok, ce
        return confirm_containment(n1, n0,
                                   {v: k for k, v in f_out.items()},
                                   window)
    names1 = {v.name for v in n1.vars}
    for v in _valuations(n0, sorted(ins0, key=natural_key), window):
        out0 = run_outcome(n0, v, common)
        out1 = run_outcome(n1, {k: x for k, x in v.items() if k in names1},
                           common)
        if isinstance(out0, InvalidModel) or isinstance(out1, InvalidModel):
            return False, {"inputs": v, "invalid": True}
        if (out0.stopped == "sync") != (out1.stopped == "sync"):
            return False, {"inputs": v, "n0": out0, "n1": out1}
        if out0.stopped != "sync":
            continue
        if frozenset(f_out[p] for p in out0.out_ports) != out1.out_ports \
                or out0.state != out1.state:
            return False, {"inputs": v, "n0": out0, "n1": out1}
    return True, None


def behaviorally_different(n0: PetriNet, n1: PetriNet, f_out: dict,
                           window=DEFAULT_WINDOW) -> bool:
    """True when some input valuation produces different outcomes (used to
    certify that a mutation actually changed behavior)."""
    ok, _ = confirm_equivalent(n0, n1, f_out, window)
    return not ok
