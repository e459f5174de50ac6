import dataclasses
import gc
import itertools
import json
import random
import weakref

import pytest
from conftest import INITIAL_CONFLICT
from hypothesis import given, settings
import hypothesis.strategies as st

from plccontain.benchmarks import CLASSES, gen_bench
from plccontain.oracle import input_vars
from plccontain.petri_net import (ConflictingFire, EvalError, InvalidModel,
                                  Marking, NotEnabled, Place, PnTransition,
                                  PetriNet, Trace, UnsafeMarking,
                                  WriteConflict, _maximal_disjoint_sets,
                                  _run_updates, compile_expr,
                                  compile_updates, compute_all_concur_trans,
                                  enabled_transitions, eval_expr,
                                  initial_marking, initial_state,
                                  net_to_json, simulate,
                                  successor_marking, translate)
from plccontain._util import natural_key
from plccontain.sfc_core import (_PRECEDENCE, Binary, BoolLit, IntLit, TRUE,
                                 FALSE, Unary, VarDecl, VarRef, parse_sfc)


def _mini_net(guards=None, arcs=None, places=("p0", "p1"), init=("p0",),
              variables=()):
    guards = guards or {}
    arcs = arcs or {"t1": (["p0"], ["p1"])}
    ps = tuple(Place(p, frozenset(), (), (), ()) for p in places)
    ts = tuple(PnTransition(t, guards.get(t, TRUE)) for t in arcs)
    ia = frozenset((p, t) for t, (pre, _) in arcs.items() for p in pre)
    oa = frozenset((t, p) for t, (_, post) in arcs.items() for p in post)
    return PetriNet(ps, tuple(variables), ts, ia, oa, frozenset(init))


# ---------------------------------------------------------------------------
# translation


def test_translate_counts(pick_place_v0, nets):
    n0, _ = nets
    assert len(n0.places) == len(pick_place_v0.steps)
    assert len(n0.transitions) == len(pick_place_v0.transitions)
    assert {p.id for p in n0.places} == {s.id for s in pick_place_v0.steps}
    assert n0.initial_marking == pick_place_v0.initial_steps


def test_translate_single_step():
    prog = parse_sfc("var b : bool = false; "
                     "step s0 { entry A { b := true; } } init s0;")
    net = translate(prog)
    assert len(net.places) == 1
    assert len(net.transitions) == 0
    assert net.initial_marking == frozenset(["s0"])


def test_translate_active_block_self_loop():
    prog = parse_sfc("""
    var I : int = 0;
    var Fixer : int = 3;
    step s0 { entry Init { I := 0; } }
    step loop { active Body { I := I + 1; } }
    step done { }
    trans T1 : s0 -> loop;
    trans T2 : loop -> done when !(I < Fixer);
    trans T3 : done -> s0;
    init s0;
    """)
    net = translate(prog)
    # one extra transition: the self-loop sub-net
    assert len(net.transitions) == len(prog.transitions) + 1
    loop_u = next(t for t in net.transitions if t.id == "loop__u")
    # negation of the exit guard with the double negation unwrapped
    assert loop_u.guard == Binary("<", VarRef("I"), VarRef("Fixer"))
    assert net.pre_places(loop_u.id) == net.post_places(loop_u.id) \
        == frozenset(["loop"])
    # semantics: the loop body runs once per self-loop firing
    tr = simulate(net)
    assert isinstance(tr, Trace) and tr.stopped == "sync"
    assert tr.state_before_last()["I"] == 3


def test_self_loop_guard_negates_every_exit():
    prog = parse_sfc("""
    var i : int = 0;
    var g : bool = false;
    step s0 { }
    step s1 { active Body { i := i + 1; } }
    step s2 { }
    step s3 { }
    trans T1 : s0 -> s1;
    trans T2 : s1 -> s2 when i >= 3;
    trans T3 : s1 -> s3 when g;
    trans T4 : s2 -> s0;
    trans T5 : s3 -> s0;
    init s0;
    """)
    loop_u = next(t for t in translate(prog).transitions if t.id == "s1__u")
    assert loop_u.guard == Unary("!", Binary(
        "||", Binary(">=", VarRef("i"), IntLit(3)), VarRef("g")))


def test_translate_fork(pick_place_v1, nets):
    _, n1 = nets
    fork = [t for t in n1.transitions if len(n1.post_places(t.id)) == 2]
    assert any(t.id == "Tr5" for t in fork)
    assert n1.post_places("Tr5") == frozenset(["s6", "s9"])


def test_synchronizing_flag(nets):
    n0, _ = nets
    assert n0.synchronizing_ids() == frozenset(["Tr10", "Tr11", "Tr14"])
    assert n0.out_ports() == frozenset(["s4", "s8", "s10"])


# ---------------------------------------------------------------------------
# successor marking


def test_successor_simple_move():
    net = _mini_net()
    m = initial_marking(net)
    m2 = successor_marking(net, m, {"t1"})
    assert m2.marked == frozenset(["p1"])
    assert m2.tick == m.tick + 1


def test_successor_fork():
    net = _mini_net(arcs={"t": (["p4"], ["p6", "p8"])},
                    places=("p4", "p6", "p8"), init=("p4",))
    m2 = successor_marking(net, initial_marking(net), {"t"})
    assert m2.marked == frozenset(["p6", "p8"])


def test_successor_preserves_untouched_tokens():
    # tokens whose post-transitions stay idle survive the round
    net = _mini_net(arcs={"ta": (["pA"], ["pC"])},
                    places=("pA", "pB", "pC"), init=("pA", "pB"))
    m2 = successor_marking(net, initial_marking(net), {"ta"})
    assert m2.marked == frozenset(["pB", "pC"])
    # hand evaluation of the set formula
    post, pre = {"pC"}, {"pA"}
    assert m2.marked == frozenset(post | ({"pA", "pB"} - pre))


def test_fire_conflicting_transitions():
    net = _mini_net(arcs={"t1": (["p0"], ["p1"]), "t2": (["p0"], ["p2"])},
                    places=("p0", "p1", "p2"))
    with pytest.raises(ConflictingFire):
        successor_marking(net, initial_marking(net), {"t1", "t2"})


def test_fire_not_enabled():
    net = _mini_net(guards={"t1": Binary(">", VarRef("x"), IntLit(0))},
                    variables=[VarDecl("x", "int", IntLit(0))])
    with pytest.raises(NotEnabled):
        successor_marking(net, initial_marking(net), {"t1"})


def test_token_into_marked_place_is_unsafe():
    net = _mini_net(arcs={"t1": (["p0"], ["p1"])},
                    places=("p0", "p1"), init=("p0", "p1"))
    with pytest.raises(UnsafeMarking):
        successor_marking(net, initial_marking(net), {"t1"})
    assert simulate(net) == \
        InvalidModel("token pushed into marked place 'p1'", 0)


def test_two_tokens_into_one_place_is_unsafe():
    # the second round pushes a token into p3 from p1 and from p5
    net = _mini_net(arcs={"t0": (["p0"], ["p1"]), "t2": (["p2"], ["p5"]),
                          "ta": (["p1"], ["p3"]), "tb": (["p5"], ["p3"])},
                    places=("p0", "p1", "p2", "p3", "p5"), init=("p0", "p2"))
    assert simulate(net) == InvalidModel("two tokens pushed into 'p3'", 1)


def test_same_round_write_conflict():
    a = Place("pa", frozenset(["x"]), (("x", IntLit(1)),),
              (("x", IntLit(1)),), ())
    b = Place("pb", frozenset(["x"]), (("x", IntLit(2)),),
              (("x", IntLit(2)),), ())
    src = Place("p0", frozenset(), (), (), ())
    net = PetriNet((src, a, b), (VarDecl("x", "int", IntLit(0)),),
                   (PnTransition("t"),), frozenset({("p0", "t")}),
                   frozenset({("t", "pa"), ("t", "pb")}),
                   frozenset(["p0"]))
    with pytest.raises(WriteConflict):
        successor_marking(net, initial_marking(net), {"t"})
    assert simulate(net) == \
        InvalidModel("places 'pa' and 'pb' both write 'x'", 0)


def test_write_conflict_after_first_round():
    a = Place("pa", frozenset(["x"]), (("x", IntLit(1)),),
              (("x", IntLit(1)),), ())
    b = Place("pb", frozenset(["x", "y"]),
              (("y", IntLit(2)), ("x", IntLit(2))),
              (("y", IntLit(2)), ("x", IntLit(2))), ())
    src, mid = (Place(p, frozenset(), (), (), ()) for p in ("p0", "p1"))
    net = PetriNet((src, mid, a, b),
                   (VarDecl("x", "int", IntLit(0)),
                    VarDecl("y", "int", IntLit(0))),
                   (PnTransition("t0"), PnTransition("t1")),
                   frozenset({("p0", "t0"), ("p1", "t1")}),
                   frozenset({("t0", "p1"), ("t1", "pa"), ("t1", "pb")}),
                   frozenset(["p0"]))
    assert simulate(net) == \
        InvalidModel("places 'pa' and 'pb' both write 'x'", 1)


def test_update_rhs_reads_pre_round_state():
    # two places read each other's variable: swap semantics, no conflict
    a = Place("pa", frozenset(["x"]), (("x", VarRef("y")),),
              (("x", VarRef("y")),), ())
    b = Place("pb", frozenset(["y"]), (("y", VarRef("x")),),
              (("y", VarRef("x")),), ())
    src = Place("p0", frozenset(), (), (), ())
    net = PetriNet((src, a, b),
                   (VarDecl("x", "int", IntLit(1)),
                    VarDecl("y", "int", IntLit(2))),
                   (PnTransition("t"),), frozenset({("p0", "t")}),
                   frozenset({("t", "pa"), ("t", "pb")}),
                   frozenset(["p0"]))
    m2 = successor_marking(net, initial_marking(net), {"t"})
    assert m2.state["x"] == 2 and m2.state["y"] == 1


# ---------------------------------------------------------------------------
# enabledness


def test_enabled_empty_marking():
    net = _mini_net()
    m = Marking(frozenset(), {"": 0}, 0)
    assert enabled_transitions(net, m) == frozenset()


def test_enabled_loop_place(counter_net):
    m = Marking(frozenset(["p7"]), {"i": 0, "n": 3}, 0)
    assert enabled_transitions(counter_net, m) == frozenset(["t8"])
    m2 = Marking(frozenset(["p7"]), {"i": 3, "n": 3}, 0)
    # exit t10 also needs p11; only the self-side guard matters here
    assert "t8" not in enabled_transitions(counter_net, m2)


def test_guard_division_by_zero():
    net = _mini_net(guards={"t1": Binary(">", Binary("/", VarRef("x"),
                                                     VarRef("y")),
                                         IntLit(1))},
                    variables=[VarDecl("x", "int", IntLit(4)),
                               VarDecl("y", "int", IntLit(0))])
    with pytest.raises(EvalError):
        enabled_transitions(net, initial_marking(net))


# ---------------------------------------------------------------------------
# compiled guards and update blocks against eval_expr

UNARY_OPS = ("!", "-")
BINARY_OPS = tuple(op for op in _PRECEDENCE if op not in ("!", "u-"))
NAMES = ("x", "y", "b")


def _outcome(fn, *args):
    """Value with its type, or the EvalError message."""
    try:
        value = fn(*args)
    except EvalError as exc:
        return ("EvalError", str(exc))
    if isinstance(value, dict):
        return [(k, type(v), v) for k, v in value.items()]
    return (type(value), value)


_leaves = st.one_of(st.builds(IntLit, st.integers(-3, 3)),
                    st.builds(BoolLit, st.booleans()),
                    st.builds(VarRef, st.sampled_from(NAMES)))
_exprs = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(Unary, st.sampled_from(UNARY_OPS), sub),
    st.builds(Binary, st.sampled_from(BINARY_OPS), sub, sub)),
    max_leaves=12)
_states = st.fixed_dictionaries({"x": st.integers(-3, 3),
                                 "y": st.integers(-3, 3),
                                 "b": st.booleans()})


def test_compiled_operators_match_eval_expr():
    values = (-2, -1, 0, 1, 3, False, True)
    assert set(BINARY_OPS) == {"||", "&&", "<", "<=", "=", "!=", ">=",
                               ">", "+", "-", "*", "/"}
    for op in UNARY_OPS:
        for v in values:
            e, state = Unary(op, VarRef("x")), {"x": v}
            assert _outcome(compile_expr(e), state) == \
                _outcome(eval_expr, e, state)
    for op in BINARY_OPS:
        for v, w in itertools.product(values, repeat=2):
            for e in (Binary(op, VarRef("x"), VarRef("y")),
                      Binary(op, VarRef("x"), IntLit(w))):
                state = {"x": v, "y": w}
                assert _outcome(compile_expr(e), state) == \
                    _outcome(eval_expr, e, state), (op, v, w)


@settings(max_examples=400, deadline=None)
@given(_exprs, _states)
def test_compiled_expr_matches_eval_expr(e, state):
    assert _outcome(compile_expr(e), state) == _outcome(eval_expr, e, state)


def test_compiled_division_by_zero_message():
    zero = Binary("-", VarRef("y"), VarRef("y"))
    e = Binary("+", IntLit(1), Binary("/", VarRef("x"), zero))
    state = {"x": 4, "y": 2}
    with pytest.raises(EvalError) as ref:
        eval_expr(e, state)
    with pytest.raises(EvalError) as got:
        compile_expr(e)(state)
    assert str(got.value) == str(ref.value) == \
        "division by zero in x / (y - y)"


def test_compiled_short_circuit_skips_zero_division():
    boom = Binary(">", Binary("/", VarRef("x"), VarRef("y")), IntLit(0))
    state = {"x": 1, "y": 0}
    for e, want in ((Binary("&&", FALSE, boom), False),
                    (Binary("||", TRUE, boom), True),
                    (Binary("&&", Binary("!=", VarRef("y"), IntLit(0)),
                            boom), False)):
        assert eval_expr(e, state) is want
        assert compile_expr(e)(state) is want
    with pytest.raises(EvalError):
        compile_expr(Binary("||", FALSE, boom))(state)


def test_compiled_block_reads_its_own_writes():
    updates = (("x", Binary("+", VarRef("y"), IntLit(1))),
               ("y", Binary("*", VarRef("x"), IntLit(2))),
               ("x", Binary("+", VarRef("x"), VarRef("y"))))
    state = {"x": 5, "y": 1, "b": False}
    assert compile_updates(updates)(state) == \
        _run_updates(updates, state) == {"x": 6, "y": 4}
    assert list(compile_updates(updates)(state)) == ["x", "y"]
    assert state == {"x": 5, "y": 1, "b": False}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NAMES), _exprs), max_size=4),
       _states)
def test_compiled_updates_match_run_updates(updates, state):
    updates = tuple(updates)
    before = dict(state)
    assert _outcome(compile_updates(updates), state) == \
        _outcome(_run_updates, updates, state)
    assert state == before


# ---------------------------------------------------------------------------
# concurrent sets


def _brute_maximal(candidates, footprint):
    """Exhaustive enumeration of maximal non-empty subsets whose members
    have pairwise disjoint footprints."""
    ok = []
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            fps = [footprint[t] for t in combo]
            union = frozenset().union(*fps)
            if sum(len(f) for f in fps) == len(union):
                ok.append(frozenset(combo))
    maximal = {s for s in ok if not any(s < t for t in ok)}
    return frozenset(maximal)


def _subset_oracle(net, m):
    """Maximal enabled pre-disjoint subsets, by exhaustive enumeration."""
    enabled = sorted(enabled_transitions(net, m))
    return _brute_maximal(enabled, {t: net.pre_places(t) for t in enabled})


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from("abcdefg"),
                       st.frozensets(st.integers(0, 4), max_size=3),
                       max_size=7))
def test_maximal_disjoint_sets_match_brute_force(footprint):
    cands = sorted(footprint)
    assert _maximal_disjoint_sets(cands, footprint) == \
        _brute_maximal(cands, footprint)


def test_concur_trans_empty():
    net = _mini_net(guards={"t1": Binary(">", VarRef("x"), IntLit(0))},
                    variables=[VarDecl("x", "int", IntLit(0))])
    assert compute_all_concur_trans(net, initial_marking(net)) == frozenset()


def test_concur_trans_disjoint_pair():
    net = _mini_net(arcs={"ta": (["p0"], ["p2"]), "tb": (["p1"], ["p3"])},
                    places=("p0", "p1", "p2", "p3"), init=("p0", "p1"))
    m = initial_marking(net)
    got = compute_all_concur_trans(net, m)
    assert got == frozenset([frozenset(["ta", "tb"])])
    assert got == _subset_oracle(net, m)


def test_concur_trans_conflicting_pair():
    net = _mini_net(arcs={"ta": (["p0"], ["p1"]), "tb": (["p0"], ["p2"])},
                    places=("p0", "p1", "p2"))
    m = initial_marking(net)
    got = compute_all_concur_trans(net, m)
    assert got == frozenset([frozenset(["ta"]), frozenset(["tb"])])
    assert got == _subset_oracle(net, m)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_single_place_halts():
    prog = parse_sfc("step s0 { } init s0;")
    tr = simulate(translate(prog))
    assert isinstance(tr, Trace)
    assert tr.stopped == "halt" and len(tr.rounds) == 0


SINK = """
var x : int = 0;
step s0 { }
step s1 { entry A { x := 1; } }
trans t1 : s0 -> s1;
init s0;
"""


def test_simulate_halts_on_sinks():
    from plccontain.oracle import run_outcome

    net = translate(parse_sfc(SINK))
    tr = simulate(net)
    assert isinstance(tr, Trace) and tr.stopped == "halt"
    assert tr.final.tick == 1 and tr.final.state == {"x": 1}
    assert run_outcome(net, {}, frozenset({"x"})).stopped == "halt"


def test_simulate_quiescent_on_false_guards(nets):
    n0, _ = nets
    tr = simulate(n0, state={"L1": False})
    assert isinstance(tr, Trace) and tr.stopped == "quiescent"


def test_simulate_counter_net_shape(counter_net):
    tr = simulate(counter_net)
    assert isinstance(tr, Trace) and tr.stopped == "sync"
    fired = [tuple(sorted(r.fired)) for r in tr.rounds]
    assert fired == [("t1",), ("t2", "t3"), ("t4", "t5"), ("t6", "t8"),
                     ("t9",), ("t8",), ("t7", "t9"), ("t10",), ("ts",)]


def test_simulate_structural_starvation():
    # join transition forever missing one token: invalid live marking
    net = _mini_net(arcs={"t1": (["p0"], ["p1"]),
                          "tj": (["p1", "px"], ["p2"])},
                    places=("p0", "p1", "px", "p2"))
    assert simulate(net) == \
        InvalidModel("structural starvation at a live marking", 1)


def test_simulate_nondeterministic_marking():
    net = _mini_net(arcs={"ta": (["p0"], ["p1"]), "tb": (["p0"], ["p2"])},
                    places=("p0", "p1", "p2"))
    assert simulate(net) == InvalidModel("nondeterministic marking", 0)


def test_simulate_initial_write_conflict():
    net = translate(parse_sfc(INITIAL_CONFLICT))
    with pytest.raises(WriteConflict):
        initial_marking(net)
    assert simulate(net) == \
        InvalidModel("places 's0' and 's1' both write 'x'", 0)


def _desk_nets(nets, counter_net):
    n0, n1 = nets
    yield n0, [{"L1": True, "Fixer": f, "a": 7, "b": 500} for f in range(4)]
    yield n1, [{"L1": True, "S": s, "Fixer": f, "a": 7, "b": 500}
               for s in (False, True) for f in range(4)]
    yield counter_net, [{"n": k} for k in range(4)]
    for cls in CLASSES:
        for seed in range(3):
            for prog in gen_bench(cls, seed, certify=False):
                net = translate(prog)
                env, rng = net.var_env(), random.Random(f"{cls}/{seed}")
                yield net, [{v: (rng.random() < 0.8 if env[v] == "bool"
                                 else rng.randint(0, 3))
                             for v in input_vars(net)} for _ in range(5)]


def _reference_run(net, state, fuel=300):
    """Step the reference semantics: every maximal firing set of each
    round, fired through `successor_marking` (which raises if a round is
    unsafe). Returns the fired sets, how the run ended ("sync", "fuel",
    "idle" when no set exists, or "nondeterministic"), the state the last
    round fired from and the tick at the end. The initial marking's state
    is checked against the places' updates run by `_run_updates`."""
    m = initial_marking(net, state)
    start = {**initial_state(net), **state}
    want = dict(start)
    for pid in sorted(net.initial_marking, key=natural_key):
        want.update(_run_updates(net.place_map()[pid].on_mark, start))
    assert m.state == want
    before, fired_seq = m.state, []
    for _ in range(fuel):
        sets = compute_all_concur_trans(net, m)
        if not sets:
            return fired_seq, "idle", before, m.tick
        if len(sets) > 1:
            return fired_seq, "nondeterministic", before, m.tick
        fired = next(iter(sets))
        m2 = successor_marking(net, m, fired)
        assert m2.tick == m.tick + 1, "tick monotonicity"
        fired_seq.append(fired)
        before, m = m.state, m2
        if fired & net.synchronizing_ids():
            return fired_seq, "sync", before, m.tick
    return fired_seq, "fuel", before, m.tick


def _assert_simulate_agrees(net, state, fuel=300):
    """`simulate` fires the enabled set; it must follow the reference."""
    tr = simulate(net, fuel=fuel, state=state)
    fired_seq, end, before, tick = _reference_run(net, state, fuel)
    if end == "nondeterministic":
        assert tr == InvalidModel("nondeterministic marking", tick)
        return end
    assert isinstance(tr, Trace)
    assert [(r.tick, r.fired) for r in tr.rounds] == list(enumerate(fired_seq))
    assert tr.stopped in (("halt", "quiescent") if end == "idle" else (end,))
    assert tr.state_before_last() == before
    assert tr.final.tick == tick
    return end


def _uncached(net):
    """The same net with nothing cached: no maps and no firing plan."""
    return PetriNet(*(getattr(net, f.name) for f in dataclasses.fields(net)))


def test_invariants_on_desk_nets(nets, counter_net):
    """1-safety, determinism, tick monotonicity over an input grid, and
    `simulate` against the reference semantics from the same states: on a
    cold plan, on the plan that run warmed, and on one warmed by the other
    states of the grid."""
    ends = set()
    for net, states in _desk_nets(nets, counter_net):
        for st in states:
            cold = _uncached(net)
            end = _assert_simulate_agrees(cold, st)
            assert _assert_simulate_agrees(cold, st) == end
            assert _assert_simulate_agrees(net, st) == end
            assert end != "nondeterministic", "determinism"
            ends.add(end)
    assert ends == {"sync", "idle"}


def test_plan_does_not_keep_its_net_alive():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        net = translate(parse_sfc(LATE_CONFLICT))
        assert isinstance(simulate(net, state={"x": 1}), Trace)
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


LATE_CONFLICT = """
var x : int = 0;
var y : int = 0;
step s0 { }
step s1 { entry A { y := y + 1; } }
step s2 { }
step s3 { }
step s4 { }
trans T1 : s0 -> s1;
trans T2 : s1 -> s2 when x > 0;
trans T3 : s1 -> s3 when x > 1;
trans T4 : s2 -> s4 when y > 0;
trans T5 : s3 -> s4;
trans T6 : s4 -> s0;
init s0;
"""


def test_simulate_conflict_after_first_round():
    # T2 and T3 share pre-place s1, enabled together only when x > 1
    net = translate(parse_sfc(LATE_CONFLICT))
    assert simulate(net, state={"x": 2}) == \
        InvalidModel("nondeterministic marking", 1)
    assert _assert_simulate_agrees(net, {"x": 2}) == "nondeterministic"
    assert _assert_simulate_agrees(net, {"x": 1}) == "sync"
    assert _assert_simulate_agrees(net, {"x": 0}) == "idle"
    tr = simulate(net, state={"x": 1})
    assert [sorted(r.fired) for r in tr.rounds] == \
        [["T1"], ["T2"], ["T4"], ["T6"]]
    assert tr.state_before_last()["y"] == 1


# ---------------------------------------------------------------------------
# JSON dump


def test_net_json_stable(nets):
    n0, _ = nets
    doc1, doc2 = net_to_json(n0), net_to_json(n0)
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert sorted(parsed) == ["initial_marking", "input_arcs", "output_arcs",
                              "places", "transitions", "vars"]
    assert parsed["initial_marking"] == ["s0"]
    assert len(parsed["places"]) == 11
