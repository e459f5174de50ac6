import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from plccontain.petri_net import translate
from plccontain.sfc_core import (Binary, BoolLit, IntLit, SfcError,
                                 SfcSyntaxError, SfcTypeError,
                                 UndeclaredVariable, Unary, VarRef,
                                 expr_to_str, infer_type, negate, parse_sfc,
                                 pretty_print, validate_sfc)

MINIMAL = "var b : bool = false; step s0 { entry A { b := true; } } init s0;"


def test_minimal_program():
    p = parse_sfc(MINIMAL)
    assert len(p.steps) == 1
    assert len(p.transitions) == 0
    assert p.initial_steps == frozenset(["s0"])
    assert validate_sfc(p) == []


def test_pick_and_place_counts(pick_place_v0):
    assert len(pick_place_v0.steps) == 11
    assert len(pick_place_v0.transitions) == 14
    guards = {t.id: t.guard for t in pick_place_v0.transitions}
    assert guards["Tr4"] == Binary(">", VarRef("Fixer"), IntLit(0))
    assert guards["Tr12"] == Unary("!", Binary(">", VarRef("Fixer"),
                                                IntLit(0)))
    assert validate_sfc(pick_place_v0) == []


def test_undeclared_variable_in_guard():
    text = """
    var b : bool = false;
    step s0 { }
    step s1 { }
    trans T : s0 -> s1 when Q;
    init s0;
    """
    with pytest.raises(UndeclaredVariable) as exc:
        parse_sfc(text)
    assert exc.value.name == "Q"


def test_syntax_error_positions():
    with pytest.raises(SfcSyntaxError) as exc:
        parse_sfc("var x : int = 1\nstep s0 { } init s0;")
    assert exc.value.line == 2  # missing semicolon spotted at 'step'


_GUARD_CHART = ("var a : int = 0; var p : bool = false; step s0 { } "
                "step s1 { } trans T : s0 -> s1 when {}; init s0;")


@pytest.mark.parametrize("guard, message", [
    ("a < 1 < 2", "1:94: expected ';', found '<'"),
    ("a + !p", "1:92: expected an expression, found '!'"),
    ("p = !p", "1:92: expected an expression, found '!'"),
    ("(a > 1", "1:94: expected ')', found ';'"),
])
def test_expression_syntax_errors(guard, message):
    with pytest.raises(SfcSyntaxError, match=f"^{re.escape(message)}$"):
        parse_sfc(_GUARD_CHART.replace("{}", guard))


def test_stray_character_position():
    with pytest.raises(SfcSyntaxError) as exc:
        parse_sfc("var x : int = 0;\nstep s0 {\n  entry A { x := x @ 1; }\n}")
    assert (exc.value.line, exc.value.col) == (3, 20)
    assert str(exc.value) == "3:20: expected a token, found '@'"


def test_not_takes_a_comparison():
    p = parse_sfc(_GUARD_CHART.replace("{}", "!a > 1 && p"))
    assert p.transitions[0].guard == Binary(
        "&&", Unary("!", Binary(">", VarRef("a"), IntLit(1))), VarRef("p"))


def test_type_error():
    with pytest.raises(SfcTypeError):
        parse_sfc("var x : int = 0; step s0 { entry A { x := true; } } "
                  "init s0;")


_BAD_GUARD = ("var x : int = 0; var p : bool = false; var q : bool = false; "
              "step s0 { } step s1 { } trans T : s0 -> s1 when {}; init s0;")


@pytest.mark.parametrize("text, message", [
    ("var x : int = 0; var x : bool = false; step s0 { } init s0;",
     "variable 'x' declared twice"),
    (_BAD_GUARD.replace("{}", "!x"), "'!' needs a bool operand"),
    (_BAD_GUARD.replace("{}", "p < q"), "'<' orders int operands only"),
    (_BAD_GUARD.replace("{}", "p = x"), "'=' compares mixed types"),
    (_BAD_GUARD.replace("{}", "x + 1"), "guard of 'T' is not boolean"),
    ("var x : int = true; step s0 { } init s0;",
     "1:9: initializer of int 'x' must be an integer literal"),
    ("var p : bool = 0; step s0 { } init s0;",
     "1:9: initializer of bool 'p' must be a boolean literal"),
    ("step s0 { } step s0 { } init s0;",
     "DuplicateStep: step 's0' defined twice [s0]"),
    ("step s0 { } step s1 { } trans T : s0 -> s1; trans T : s1 -> s0; "
     "init s0;", "DuplicateTransition: transition 'T' defined twice [T]"),
    ("step s0 { } trans T : s7 -> s0; init s0;",
     "DanglingSource: transition 'T' reads missing step 's7' [T]"),
    ("step s0 { } step s1 { } trans T : s0 -> s1; "
     "trans s1__u : s1 -> s0; init s0;",
     "ReservedTransitionId: transition 's1__u' takes the id reserved for "
     "the self-loop of step 's1' [s1__u]"),
    ("step s0 { } init {s0, s3};",
     "UnknownInitialStep: initial step 's3' does not exist [s3]"),
])
def test_front_end_error_messages(text, message):
    """Each parse, type or structure error with its exact message."""
    try:
        prog = parse_sfc(text)
    except SfcError as exc:
        got = str(exc)
    else:
        got = "; ".join(str(d) for d in validate_sfc(prog))
    assert got == message


def test_dangling_target_diagnostic():
    p = parse_sfc("var b : bool = false; step s0 { } "
                  "trans T : s0 -> missing; init s0;")
    codes = [d.code for d in validate_sfc(p)]
    assert "DanglingTarget" in codes


def test_unreachable_step_diagnostic():
    p = parse_sfc("step s0 { } step lost { } init s0;")
    codes = [d.code for d in validate_sfc(p)]
    assert codes == ["UnreachableStep"]
    # oracle: reachability via direct graph search agrees
    assert "lost" not in _reachable(p)


def _reachable(p):
    reach = set(p.initial_steps)
    changed = True
    while changed:
        changed = False
        for tr in p.transitions:
            if tr.sources <= reach and not tr.targets <= reach:
                reach |= tr.targets
                changed = True
    return reach


def test_qualifier_order_preserved():
    text = """
    var x : int = 0;
    step s0 {
      exit E { x := 3; }
      entry A { x := 1; }
      active B { x := 2; }
    }
    init s0;
    """
    p = parse_sfc(text)
    blocks = p.steps[0].blocks
    assert [b.qualifier for b in blocks] == ["exit", "entry", "active"]
    # execution order follows entry -> active -> exit regardless
    updates = translate(p).place_map()["s0"].updates
    assert [rhs.value for _, rhs in updates] == [1, 2, 3]
    assert parse_sfc(pretty_print(p)) == p


def test_roundtrip_corpus(pick_place_v0, pick_place_v1, pick_place_split):
    for prog in (pick_place_v0, pick_place_v1, pick_place_split):
        assert parse_sfc(pretty_print(prog)) == prog


def test_roundtrip_generated_benchmarks():
    from plccontain.benchmarks import CLASSES, gen_bench

    for cls in CLASSES:
        v0, v1 = gen_bench(cls, seed=11, certify=False)
        assert parse_sfc(pretty_print(v0)) == v0
        assert parse_sfc(pretty_print(v1)) == v1


def test_flow_is_bipartite(pick_place_v1):
    # arcs only ever connect steps to transitions: encoded by construction,
    # every endpoint of every transition is a step id
    step_ids = {s.id for s in pick_place_v1.steps}
    trans_ids = {t.id for t in pick_place_v1.transitions}
    assert not step_ids & trans_ids
    for tr in pick_place_v1.transitions:
        assert tr.sources <= step_ids
        assert tr.targets <= step_ids


def test_unicode_operators_accepted():
    p = parse_sfc("var x : int = 0; step s0 { } step s1 { } "
                  "trans T : s0 -> s1 when ¬(x ≥ 1) ∧ x ≠ 5; init s0;")
    guard = p.transitions[0].guard
    assert expr_to_str(guard) == "!(x >= 1) && x != 5"


def test_negate_unwraps_double_negation():
    g = Unary("!", Binary("<", VarRef("I"), VarRef("Fixer")))
    assert negate(g) == Binary("<", VarRef("I"), VarRef("Fixer"))


# -- expression round-trip property ----------------------------------------

_INT_ENV = {"x": "int", "y": "int", "p": "bool", "q": "bool"}


def _exprs(depth):
    ints = st.one_of(
        st.integers(0, 9).map(IntLit),
        st.sampled_from(["x", "y"]).map(VarRef))
    bools = st.one_of(
        st.booleans().map(BoolLit),
        st.sampled_from(["p", "q"]).map(VarRef))
    if depth == 0:
        return ints, bools
    sub_i, sub_b = _exprs(depth - 1)
    ints2 = st.one_of(
        sub_i,
        st.tuples(st.sampled_from("+-*/"), sub_i, sub_i).map(
            lambda t: Binary(t[0], t[1], t[2])),
        sub_i.map(lambda e: Unary("-", e)))
    bools2 = st.one_of(
        sub_b,
        st.tuples(st.sampled_from(["&&", "||"]), sub_b, sub_b).map(
            lambda t: Binary(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]),
                  sub_i, sub_i).map(lambda t: Binary(t[0], t[1], t[2])),
        sub_b.map(lambda e: Unary("!", e)))
    return ints2, bools2


@settings(max_examples=200, deadline=None)
@given(_exprs(3)[1])
def test_expr_print_parse_roundtrip(expr):
    infer_type(expr, _INT_ENV)
    text = ("var x : int = 0; var y : int = 0; var p : bool = false; "
            f"var q : bool = false; step s0 {{ }} step s1 {{ }} "
            f"trans T : s0 -> s1 when {expr_to_str(expr)}; init s0;")
    parsed = parse_sfc(text)
    assert parsed.transitions[0].guard == expr
