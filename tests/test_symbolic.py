import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from plccontain import symbolic as sy
from plccontain.sfc_core import Binary, BoolLit, IntLit, Unary, VarRef

ENV = {"x": "int", "y": "int", "z": "int", "a": "int", "b": "int",
       "I": "int", "J": "int", "Fixer": "int",
       "p": "bool", "q": "bool", "r": "bool",
       "L1": "bool", "C1": "bool", "S": "bool"}


def norm(e):
    return sy.normalize(e, ENV)


def V(n):
    return VarRef(n)


# ---------------------------------------------------------------------------
# normalize


def test_commutativity():
    assert norm(Binary("+", V("x"), V("y"))) == \
        norm(Binary("+", V("y"), V("x")))


def test_constant_multiplication_forms():
    assert norm(Binary("*", V("a"), IntLit(10))) == \
        norm(Binary("*", IntLit(10), V("a")))


def test_contradiction_is_false():
    e = Binary("&&", V("p"), Unary("!", V("p")))
    assert sy.is_false(norm(e))


def test_a_times_ten_vs_sum_form():
    e1 = norm(Binary("*", V("a"), IntLit(10)))
    e2 = norm(Binary("+", V("a"), Binary("*", IntLit(9), V("a"))))
    assert sy.expr_equiv(e1, e2)
    rng = random.Random(42)
    for _ in range(100):  # random-point oracle
        s = {"a": rng.randint(-1000, 1000)}
        assert sy.eval_int(e1, s) == sy.eval_int(e2, s) == s["a"] * 10


def test_gt_zero_equals_ge_one():
    gt = norm(Binary(">", V("x"), IntLit(0)))
    ge = norm(Binary(">=", V("x"), IntLit(1)))
    assert sy.expr_equiv(gt, ge)
    for x in range(-3, 4):  # truth-row oracle over a window
        assert sy.eval_bool(gt, {"x": x}) == (x > 0)
        assert sy.eval_bool(ge, {"x": x}) == (x >= 1)


def test_division_stays_opaque():
    e = norm(Binary("/", V("x"), IntLit(3)))
    assert "div(x, 3)" in sy.int_to_str(e)
    # but exact multiples fold
    exact = norm(Binary("/", Binary("*", V("x"), IntLit(10)), IntLit(10)))
    assert exact == norm(V("x"))


def test_division_truncates_toward_zero():
    e = norm(Binary("/", V("x"), IntLit(2)))
    assert sy.eval_int(e, {"x": -3}) == -1
    assert sy.tdiv(-7, 2) == -3 and sy.tdiv(7, -2) == -3


def test_int_div_folds():
    assert norm(Binary("/", IntLit(7), IntLit(-2))) == sy.int_const(-3)
    assert sy.int_to_str(norm(Binary("/", V("x"), IntLit(-2)))) == \
        "div(-x, 2)"
    assert norm(Binary("/", V("x"), IntLit(1))) == norm(V("x"))


def test_bool_equality_matches_eval_expr():
    """Boolean ``=`` and ``!=`` agree with the reference evaluator on every
    assignment, a comparison operand included."""
    from itertools import product

    from plccontain.petri_net import eval_expr

    below = Binary("<", V("x"), IntLit(1))
    for op, right in product(("=", "!="), (V("q"), below)):
        e = Binary(op, V("p"), right)
        form = norm(e)
        for p, q, x in product((False, True), (False, True), (0, 1)):
            state = {"p": p, "q": q, "x": x}
            assert sy.eval_bool(form, state) == eval_expr(e, state)
    assert sy.bool_to_str(norm(Binary("=", V("p"), V("q")))) == \
        "(!p & !q) | (p & q)"


def test_kind_mismatch():
    with pytest.raises(sy.KindMismatch):
        sy.expr_equiv(norm(V("x")), norm(V("p")))


def _sum(names):
    e = V(names[0])
    for n in names[1:]:
        e = Binary("+", e, V(n))
    return e


def test_normalization_overflow():
    # 65 x 65 distinct products: 4,225 monomials, past the fixed cap
    xs = [f"x{i}" for i in range(65)]
    ys = [f"y{i}" for i in range(65)]
    env = dict.fromkeys(xs + ys, "int")
    big = Binary("*", _sum(xs), _sum(ys))
    with pytest.raises(sy.NormalizationOverflow,
                       match="^product of 65 and 65 terms exceeds the "
                             "4096-monomial cap$"):
        sy.normalize(big, env)
    assert len(sy.normalize(Binary("*", _sum(xs[:64]), _sum(ys[:64])),
                            env).terms) == 4096
    half = [sy.IntNorm(tuple((((f"{v}{i}", 1),), 1) for i in range(2100)))
            for v in "xy"]
    with pytest.raises(sy.NormalizationOverflow,
                       match="^4200 monomials exceed the 4096-monomial cap$"):
        sy.int_add(*half)


# ---------------------------------------------------------------------------
# equivalence soundness / completeness properties


_bool_exprs = st.deferred(lambda: st.one_of(
    st.booleans().map(BoolLit),
    st.sampled_from(["p", "q", "r"]).map(VarRef),
    st.tuples(st.sampled_from(["&&", "||"]), _bool_exprs, _bool_exprs).map(
        lambda t: Binary(*t)),
    _bool_exprs.map(lambda e: Unary("!", e)),
))


@settings(max_examples=150, deadline=None)
@given(_bool_exprs, _bool_exprs)
def test_bool_completeness_within_bound(e1, e2):
    """Within the atom bound, expr_equiv agrees exactly with exhaustive
    truth tables over the free boolean variables."""
    n1, n2 = norm(e1), norm(e2)
    tables_equal = all(
        sy.eval_bool(n1, s) == sy.eval_bool(n2, s)
        for s in _all_assignments(["p", "q", "r"]))
    assert sy.expr_equiv(n1, n2) == tables_equal


def _all_assignments(names):
    out = []
    for mask in range(1 << len(names)):
        out.append({n: bool(mask & (1 << i)) for i, n in enumerate(names)})
    return out


_int_exprs = st.deferred(lambda: st.one_of(
    st.integers(-4, 4).map(IntLit),
    st.sampled_from(["x", "y", "z"]).map(VarRef),
    st.tuples(st.sampled_from(["+", "-", "*"]), _int_exprs, _int_exprs).map(
        lambda t: Binary(*t)),
    _int_exprs.map(lambda e: Unary("-", e)),
))


@settings(max_examples=150, deadline=None)
@given(_int_exprs, _int_exprs, st.integers(0, 2 ** 31))
def test_equiv_soundness_on_random_points(e1, e2, seed):
    """Whenever expr_equiv says yes, evaluation agrees on random states."""
    n1, n2 = norm(e1), norm(e2)
    if sy.expr_equiv(n1, n2):
        rng = random.Random(seed)
        for _ in range(25):
            s = {v: rng.randint(-50, 50) for v in ("x", "y", "z")}
            assert sy.eval_int(n1, s) == sy.eval_int(n2, s)


# ---------------------------------------------------------------------------
# guard sequences


def _seq(*exprs):
    return sy.guard_seq([norm(e) for e in exprs])


L1, C1, S = V("L1"), V("C1"), V("S")
NC1 = Unary("!", V("C1"))


def test_guard_seq_equiv_basic():
    a = _seq(L1, C1, NC1)
    assert sy.guard_seq_equiv(a, _seq(L1, C1, NC1))
    assert sy.guard_seq_equiv((), ())


def test_guard_seq_uncollapsible_common_entry():
    # S kept when common: lengths differ, not equivalent
    a = _seq(L1, C1, S, NC1)
    b = _seq(L1, C1, NC1)
    assert not sy.guard_seq_equiv(a, b)


def test_guard_seq_subsumes():
    full = _seq(L1, C1, NC1)
    assert sy.guard_seq_subsumes(_seq(L1), full)
    assert not sy.guard_seq_subsumes(full, _seq(L1))
    assert not sy.guard_seq_subsumes(_seq(V("p")), _seq(V("q"), V("p")))


def test_subsumption_antisymmetry_is_equivalence():
    seqs = [_seq(L1), _seq(L1, C1), _seq(L1, BoolLit(True), C1),
            _seq(L1, C1, NC1)]
    for a in seqs:
        for b in seqs:
            both = sy.guard_seq_subsumes(a, b) and sy.guard_seq_subsumes(b, a)
            assert both == sy.guard_seq_equiv(a, b)


# ---------------------------------------------------------------------------
# drop_uncommon


def test_drop_uncommon_guard_entry():
    seq = _seq(L1, C1, S, NC1)
    dropped = sy.drop_uncommon_guard_seq(seq, frozenset(["L1", "C1"]), [])
    assert sy.guard_seq_to_str(dropped) == "L1 ~> C1 ~> true ~> !C1"
    assert sy.guard_seq_to_str(sy.collapse(dropped)) == "L1 ~> C1 ~> !C1"


def test_drop_uncommon_transform_entry():
    t = sy.make_transform({"WasteBin1": sy.BTRUE})
    out = sy.drop_uncommon_transform(t, frozenset(["WasteBin"]), [])
    assert out.is_empty()


def test_drop_uncommon_renames_eta_v_pairs():
    t = sy.make_transform(
        {"J": sy.int_add(sy.int_var("J"), sy.int_const(1))})
    out = sy.drop_uncommon_transform(t, frozenset(["I"]), [("I", "J")])
    assert out.get("I") == sy.int_add(sy.int_var("I"), sy.int_const(1))


def test_drop_uncommon_renames_inside_guards():
    """Each renamed name becomes a variable of its own kind: an int inside
    a comparison atom is renamed, not projected away."""
    env = {"J": "int", "n": "int", "Q": "bool"}
    below = Binary("<", V("J"), V("n"))
    seq = (sy.normalize(below, env),)
    out = sy.drop_uncommon_guard_seq(seq, frozenset({"n"}), [("I", "J")])
    assert sy.guard_seq_to_str(out) == "(I - n <= -1)"
    seq = (sy.normalize(Binary("&&", V("Q"), below), env),)
    out = sy.drop_uncommon_guard_seq(seq, frozenset({"n"}),
                                     [("I", "J"), ("P", "Q")])
    assert sy.guard_seq_to_str(out) == "P & (I - n <= -1)"


def test_drop_uncommon_idempotent():
    seq = _seq(L1, Binary("&&", S, C1), NC1)
    common = frozenset(["L1", "C1"])
    once = sy.drop_uncommon_guard_seq(seq, common, [])
    twice = sy.drop_uncommon_guard_seq(once, common, [])
    assert once == twice
    t = sy.make_transform({"WasteBin1": sy.BTRUE,
                           "I": sy.int_const(0)})
    common_t = frozenset(["I"])
    once_t = sy.drop_uncommon_transform(t, common_t, [])
    assert once_t == sy.drop_uncommon_transform(once_t, common_t, [])


def test_drop_collision_with_equal_rhs_collapses():
    t = sy.make_transform({
        "I": sy.int_const(0),
        "J": sy.int_const(0),
    })
    out = sy.drop_uncommon_transform(t, frozenset(["I"]), [("I", "J")])
    assert out.consistent
    assert out.get("I") == sy.int_const(0)


def test_drop_collision_with_different_rhs_is_inconsistent():
    t = sy.make_transform({
        "I": sy.int_const(0),
        "J": sy.int_const(5),
    })
    out = sy.drop_uncommon_transform(t, frozenset(["I"]), [("I", "J")])
    assert not out.consistent
    assert not sy.transforms_equal(out, out)


# ---------------------------------------------------------------------------
# compose


def test_compose_identity():
    t = sy.make_transform({"x": sy.int_add(sy.int_var("x"), sy.int_const(2))})
    assert sy.compose(sy.EMPTY_TRANSFORM, t) == t
    assert sy.compose(t, sy.EMPTY_TRANSFORM) == t


def test_compose_disjoint_targets():
    t1 = sy.make_transform({"a": sy.int_mul(sy.int_var("a"),
                                            sy.int_const(10))})
    t2 = sy.make_transform({"b": sy.int_div(sy.int_var("b"),
                                            sy.int_const(10)),
                            "I": sy.int_add(sy.int_var("I"),
                                            sy.int_const(1))})
    out = sy.compose(t1, t2)
    assert out.targets() == frozenset(["a", "b", "I"])
    assert out.get("a") == sy.int_mul(sy.int_var("a"), sy.int_const(10))


def test_compose_sequential_substitution():
    t = sy.make_transform({"x": sy.int_add(sy.int_var("x"), sy.int_const(1))})
    out = sy.compose(t, t)
    assert out.get("x") == sy.int_add(sy.int_var("x"), sy.int_const(2))
    rng = random.Random(7)
    for _ in range(50):
        x = rng.randint(-99, 99)
        assert sy.eval_int(out.get("x"), {"x": x}) == x + 2


def test_compose_associative():
    rng = random.Random(3)

    def rand_t():
        return sy.make_transform({
            v: sy.int_add(sy.int_mul(sy.int_var(v),
                                     sy.int_const(rng.randint(1, 3))),
                          sy.int_const(rng.randint(-2, 2)))
            for v in rng.sample(["x", "y", "z"], 2)})

    for _ in range(25):
        t1, t2, t3 = rand_t(), rand_t(), rand_t()
        left = sy.compose(sy.compose(t1, t2), t3)
        right = sy.compose(t1, sy.compose(t2, t3))
        assert set(left.targets()) == set(right.targets())
        for v in left.targets():
            assert sy.expr_equiv(left.get(v), right.get(v))


# ---------------------------------------------------------------------------
# substitution


def _binary(ops, sub):
    return st.tuples(st.sampled_from(ops), sub, sub).map(lambda t: Binary(*t))


_polys = st.recursive(
    st.one_of(st.integers(-3, 3).map(IntLit),
              st.sampled_from(["x", "y"]).map(VarRef)),
    lambda sub: _binary(["+", "-", "*"], sub), max_leaves=4)

_guards = st.recursive(
    st.one_of(st.sampled_from(["p", "q", "r"]).map(VarRef),
              _binary(["<", "<=", ">", ">=", "=", "!="], _polys)),
    lambda sub: st.one_of(_binary(["&&", "||"], sub),
                          sub.map(lambda e: Unary("!", e))),
    max_leaves=4)

_states = st.fixed_dictionaries({
    "x": st.integers(-4, 4), "y": st.integers(-4, 4),
    "p": st.booleans(), "q": st.booleans(), "r": st.booleans()})


@settings(max_examples=200, deadline=None)
@given(_guards,
       st.dictionaries(st.sampled_from(["p", "q", "r"]), _guards),
       st.dictionaries(st.sampled_from(["x", "y"]), _polys),
       _states)
def test_bool_substitute_evaluates_like_the_substituted_state(
        e, bool_repl, int_repl, state):
    """Substituting into a form and evaluating at s agrees with evaluating
    the form at s', where each substituted name holds its replacement's
    value at s."""
    bn = norm(e)
    mapping = {n: norm(r) for n, r in {**bool_repl, **int_repl}.items()}
    out = sy.bool_substitute(bn, mapping)
    primed = dict(state)
    primed.update((n, sy.eval_norm(r, state)) for n, r in mapping.items())
    assert sy.eval_bool(out, state) == sy.eval_bool(bn, primed)


# ---------------------------------------------------------------------------
# serialization


def test_serialization_shapes():
    assert sy.int_to_str(norm(Binary("*", V("a"), IntLit(10)))) == "10*a"
    assert sy.bool_to_str(norm(V("L1"))) == "L1"
    assert sy.bool_to_str(sy.bnot(norm(V("C1")))) == "!C1"
    seq = _seq(L1, C1, NC1)
    assert sy.guard_seq_to_str(seq) == "L1 ~> C1 ~> !C1"
    t = sy.make_transform({"a": sy.int_mul(sy.int_var("a"),
                                           sy.int_const(10))})
    assert sy.transform_to_str(t) == "{a := 10*a}"


def test_overflow_beyond_bool_bound():
    e = Binary("||", V("p"), Binary("&&", V("q"), V("r")))
    with pytest.raises(sy.NormalizationOverflow, match="3 boolean atoms "
                       "exceed bound 2"):
        sy.normalize(e, ENV, sy.NormSettings(bool_bound=2))
    n = sy.normalize(e, ENV, sy.NormSettings(bool_bound=3))
    for s in _all_assignments(["p", "q", "r"]):
        assert sy.eval_bool(n, s) == (s["p"] or (s["q"] and s["r"]))
