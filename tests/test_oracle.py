import pytest

from plccontain import oracle
from plccontain._util import natural_key
from plccontain.benchmarks import gen_bench
from plccontain.mutation import (MUTATION_KINDS, MutationInapplicable,
                                 MutationSpec, mutate)
from plccontain.oracle import (OracleBudgetExceeded, confirm_containment,
                               confirm_equivalent, input_vars, run_outcome)
from plccontain.petri_net import InvalidModel, translate
from plccontain.sfc_core import parse_sfc

from conftest import JOIN_CONFLICT, PICK_PLACE_FOUT, SPLIT_FOUT


def test_input_vars_are_never_written(nets):
    n0, n1 = nets
    assert input_vars(n0) == ("Fixer", "L1")
    assert input_vars(n1) == ("Fixer", "L1", "S")


def test_pick_and_place_containment_confirmed(nets):
    """Behavioral cross-check: the checker's N0 ⊑ N1 verdict is
    backed by exhaustive joint simulation, where the upgrade's extra
    input (the safety guard) may be chosen per run."""
    n0, n1 = nets
    ok, counterexample = confirm_containment(n0, n1, dict(PICK_PLACE_FOUT))
    assert ok, counterexample


def test_reverse_direction_is_not_contained(nets):
    # the safety redirect is genuinely new behavior: with the guard down
    # the upgrade reaches the waste port while the original collects
    n0, n1 = nets
    inverse = {v: k for k, v in PICK_PLACE_FOUT.items()}
    ok, counterexample = confirm_containment(n1, n0, inverse)
    assert not ok
    assert counterexample["inputs"]["S"] is False


def test_split_variant_equivalent(nets, pick_place_split):
    n0, _ = nets
    n2 = translate(pick_place_split)
    ok, _ = confirm_equivalent(n0, n2, dict(SPLIT_FOUT))
    assert ok


def test_mutant_behaviorally_different(pick_place_v0, nets):
    n0, _ = nets
    mutant = mutate(pick_place_v0, MutationSpec("type1", seed=1))
    nm = translate(mutant)
    assert not confirm_equivalent(n0, nm, {p: p for p in n0.out_ports()})[0]


def test_identity_not_different(nets):
    n0, _ = nets
    assert confirm_equivalent(n0, n0, {p: p for p in n0.out_ports()}) == (
        True, None)


def test_quiescent_runs_have_no_computation(nets):
    n0, _ = nets
    common = frozenset(v.name for v in n0.vars)
    out = run_outcome(n0, {"L1": False, "Fixer": 2}, common)
    assert out.stopped == "quiescent"
    assert out.out_ports == frozenset()


def test_run_outcome_reports_port_and_state(nets):
    n0, _ = nets
    common = frozenset(v.name for v in n0.vars)
    out = run_outcome(n0, {"L1": True, "Fixer": 2, "a": 7, "b": 900},
                      common)
    assert out.stopped == "sync"
    assert out.out_ports == frozenset(["s8"])  # collect branch
    state = dict(out.state)
    assert state["a"] == 700 and state["b"] == 9 and state["I"] == 2
    assert state["CollectBin"] is True and state["WasteBin"] is False


def test_waste_branch_port(nets):
    n0, _ = nets
    common = frozenset(v.name for v in n0.vars)
    out = run_outcome(n0, {"L1": True, "Fixer": 0}, common)
    assert out.out_ports == frozenset(["s10"])
    assert dict(out.state)["WasteBin"] is True


def test_invalid_runs_refute_n0_and_are_skipped_in_n1():
    join = translate(parse_sfc(JOIN_CONFLICT))
    good = translate(parse_sfc(
        JOIN_CONFLICT.replace("var x : int = 0;",
                              "var x : int = 0; var y : int = 0;")
        .replace("A9 { x := 1; }", "A9 { y := 1; }")))
    assert confirm_containment(join, good, {"s5": "s5"}) == (
        False, {"n0_invalid": "places 's2' and 's9' both write 'x'",
                "inputs": {}})
    # the only N1 run is invalid, so no run matches N0's
    ok, counterexample = confirm_containment(good, join, {"s5": "s5"})
    assert not ok
    assert counterexample["n0_ports"] == ["s5"]


def test_budget_guard():
    text = "step s0 { } init s0;\n"
    decls = "".join(f"var g{i} : bool = false;\n" for i in range(20))
    net = translate(parse_sfc(decls + text))
    with pytest.raises(OracleBudgetExceeded):
        confirm_containment(net, net, {}, window=(0, 3))


def _inputs_and_y(n_inputs, y):
    """n_inputs unread int inputs, and one step that sets y to y."""
    decls = "".join(f"var i{k} : int = 0;\n" for k in range(n_inputs))
    return translate(parse_sfc(
        decls + "var y : int = 0;\nstep s0 { }\n"
        f"step s1 {{ entry A1 {{ y := {y}; }} }}\n"
        "trans T0 : s0 -> s1;\ntrans T1 : s1 -> s0;\ninit s0;\n"))


def test_budget_bounds_the_joint_valuations_of_a_direction(runs):
    # 4**8 valuations of N0 (within the limit) times 4**2 of N1's extra
    # inputs: 1,048,576 runs, refused before the first
    n0, n1 = _inputs_and_y(8, 1), _inputs_and_y(10, 2)
    with pytest.raises(OracleBudgetExceeded, match="^1048576 input"):
        confirm_containment(n0, n1, {"s1": "s1"})
    assert runs == []


# x is an input of N1; N0 declares x and writes it after reading it, so a
# run of N0 that starts from a given x differs from one that starts from 0
INPUT_IN_N1_ONLY = ("""
var x : int = 0;
var y : int = 0;
step s0 { }
step s1 { entry A1 { y := x; x := y; } }
trans T0 : s0 -> s1;
trans T1 : s1 -> s0;
init s0;
""", """
var x : int = 0;
var y : int = 0;
step s0 { }
step s1 { entry A1 { y := x; } }
trans T0 : s0 -> s1;
trans T1 : s1 -> s0;
init s0;
""")


@pytest.fixture
def runs(monkeypatch):
    """Every (net, valuation) the run trees simulate, fresh or resumed
    from a checkpoint, in order."""
    seen = []
    resume = oracle._RunTree._resume

    def spy(tree, node, key, valuation):
        seen.append((id(tree.net), tuple(sorted(valuation.items()))))
        return resume(tree, node, key, valuation)

    monkeypatch.setattr(oracle._RunTree, "_resume", spy)
    return seen


@pytest.fixture
def compared(monkeypatch):
    """Checks every outcome the run trees give against ``run_outcome`` on
    the same valuation; holds the outcomes checked."""
    seen = []
    outcome = oracle._RunTree.outcome

    def checked(tree, valuation):
        out = outcome(tree, valuation)
        assert out == run_outcome(tree.net, valuation, tree.common), \
            valuation
        seen.append(out)
        return out

    monkeypatch.setattr(oracle._RunTree, "outcome", checked)
    return seen


def _unshared(n0, n1, f_out):
    ok, ce = confirm_containment(n0, n1, f_out)
    if not ok:
        return ok, ce
    return confirm_containment(n1, n0, {v: k for k, v in f_out.items()})


def _port_map(n0, n1):
    return dict(zip(sorted(n0.out_ports(), key=natural_key),
                    sorted(n1.out_ports(), key=natural_key)))


def _gate0_pairs():
    """The simple seed-0 pair, whose upgrade adds the input gate0, and
    mutants of either version checked against the other version."""
    v0, v1 = gen_bench("simple", 0, certify=False)
    yield "upgrade", v0, v1
    for kind in MUTATION_KINDS:
        for m in range(2):
            for name, base, other in (("original", v0, v1),
                                      ("upgrade", v1, v0)):
                try:
                    mutant = mutate(base, MutationSpec(kind, m),
                                    certify=False)
                except MutationInapplicable:
                    continue
                yield f"{name}_{kind}_{m}", other, mutant


def _assert_shared_runs(runs, n0, n1, f_out):
    expected = _unshared(n0, n1, f_out)
    runs.clear()
    assert confirm_equivalent(n0, n1, f_out) == expected
    assert runs, "no run recorded"
    assert len(runs) == len(set(runs)), "a (net, valuation) ran twice"
    return expected


def test_shared_runs_on_the_corpus_pair(runs, nets):
    n0, n1 = nets
    ok, ce = _assert_shared_runs(runs, n0, n1, dict(PICK_PLACE_FOUT))
    assert not ok and ce["inputs"]["S"] is False  # refuted N1 -> N0


def test_shared_runs_on_gate0_pairs_and_mutants(runs):
    confirmed = {}
    for name, old, new in _gate0_pairs():
        n0, n1 = translate(old), translate(new)
        if len(n0.out_ports()) != len(n1.out_ports()):
            continue
        confirmed[name], _ = _assert_shared_runs(runs, n0, n1,
                                                 _port_map(n0, n1))
    assert confirmed.pop("upgrade")
    assert len(confirmed) >= 4 and not all(confirmed.values()), confirmed


def test_shared_runs_on_equal_inputs(runs):
    """A pair whose nets have the same inputs takes the same two
    directions: a certified basic pair, and a mutant of its original
    refuted against the original."""
    v0, v1 = gen_bench("basic", 1, certify=False)
    n0, n1 = translate(v0), translate(v1)
    assert input_vars(n0) == input_vars(n1)
    assert _assert_shared_runs(runs, n0, n1, _port_map(n0, n1)) == (
        True, None)
    nm = translate(mutate(v0, MutationSpec("type1", 0), certify=False))
    assert input_vars(nm) == input_vars(n0)
    ok, ce = _assert_shared_runs(runs, n0, nm, _port_map(n0, nm))
    assert not ok and set(ce) == {"inputs", "n0_ports", "n0_state"}


def test_complex_pair_simulates_each_run_once(runs):
    n0, n1 = (translate(v) for v in gen_bench("complex", 0, certify=False))
    ok, _ = confirm_equivalent(n0, n1, _port_map(n0, n1))
    assert ok
    # 768 simulations with one run per (net, valuation), 1,152 without
    # sharing any run between the two directions
    assert len(runs) == len(set(runs)) == 386


def test_shared_runs_key_on_the_whole_valuation(runs):
    """Direction 2 runs N0 from x = 1; direction 1 ran it only from the
    initial x = 0. A memo keyed on N0's inputs alone (none) would hand
    back the x = 0 run and refute the pair."""
    n0, n1 = (translate(parse_sfc(text)) for text in INPUT_IN_N1_ONLY)
    assert input_vars(n0) == () and input_vars(n1) == ("x",)
    f_out = {"s1": "s1"}
    assert _assert_shared_runs(runs, n0, n1, f_out) == (True, None)


def _both_ways(n0, n1, f_out):
    confirm_containment(n0, n1, f_out)
    confirm_containment(n1, n0, {v: k for k, v in f_out.items()})


def test_tree_outcomes_equal_run_outcome(compared, nets):
    n0, n1 = nets
    _both_ways(n0, n1, dict(PICK_PLACE_FOUT))
    for _name, old, new in _gate0_pairs():
        a, b = translate(old), translate(new)
        if len(a.out_ports()) == len(b.out_ports()):
            _both_ways(a, b, _port_map(a, b))
    a, b = (translate(parse_sfc(text)) for text in INPUT_IN_N1_ONLY)
    _both_ways(a, b, {"s1": "s1"})
    join = translate(parse_sfc(JOIN_CONFLICT))
    _both_ways(join, join, {"s5": "s5"})
    assert len(compared) > 1000
    assert any(isinstance(out, InvalidModel) for out in compared)
