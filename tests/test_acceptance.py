"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured evidence (run pytest -s to watch them)."""

import random
import time

import pytest

from plccontain import symbolic as sy
from plccontain.benchmarks import CLASSES, gen_bench
from plccontain.containment import containment_checker
from plccontain.mutation import MutationInapplicable, MutationSpec, mutate
from plccontain.oracle import confirm_equivalent
from plccontain.path_engine import (concatenate, merge, path_constructor,
                                    static_cut_points)
from plccontain.petri_net import (compute_all_concur_trans, initial_marking,
                                  successor_marking, translate)
from plccontain.report import build_report, render_json
from plccontain.sfc_core import parse_sfc, pretty_print

from conftest import PICK_PLACE_FOUT, SPLIT_FOUT

F_IN = {"s0": "s0"}


def _report(criterion: str, detail: str) -> None:
    print(f"\n[ACCEPTANCE] PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. Pick-and-Place reproduction


def test_criterion_1_pick_and_place(nets, covers):
    start = time.time()
    n0, n1 = nets
    c0, c1 = covers
    assert len(c0.paths) == 8, "original cover has 8 paths"
    assert len(c1.paths) == 12, "upgraded cover has 12 paths"
    a1 = c0.by_id()["a1"]
    assert sy.guard_seq_to_str(a1.guard_seq) == "L1 ~> C1 ~> !C1"
    verdict = containment_checker(n0, n1, dict(F_IN),
                                  dict(PICK_PLACE_FOUT))
    assert verdict.code == "N0_IN_N1"
    assert verdict.ledger.unmatched0 == ()
    assert [p for p, _ in verdict.ledger.unmatched1] == ["b12"]
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report("criterion 1",
            f"covers 8/12, verdict N0_IN_N1, sole unmatched b12, "
            f"R(a1) = 'L1 ~> C1 ~> !C1' in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. counter-net cut-points and 7-path cover


def test_criterion_2_counter_net(counter_net):
    start = time.time()
    assert static_cut_points(counter_net) == frozenset(["p1", "p7", "p10"])
    cover = path_constructor(counter_net, prefix="f")
    groups = {p.trans_seq for p in cover.paths}
    expected = {
        (frozenset(["t1"]), frozenset(["t2"]), frozenset(["t4"])),
        (frozenset(["t1"]), frozenset(["t3"]), frozenset(["t5"])),
        (frozenset(["t6"]),), (frozenset(["t7"]),), (frozenset(["t8"]),),
        (frozenset(["t9"]),), (frozenset(["t10"]),),
    }
    assert len(cover.paths) == 7 and groups == expected
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report("criterion 2",
            f"static cut-points {{p1,p7,p10}}, 7-path cover with the "
            f"expected groupings in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. worked-example micro-checks


def test_criterion_3_micro_checks(nets, covers):
    n0, n1 = nets
    c0, c1 = covers
    by0, by1 = c0.by_id(), c1.by_id()

    # (a) extending the first upgraded path through its successor and
    # dropping the uncommon safety sensor yields the original condition
    ext = concatenate(by1["b1"], by1["b2"])
    common = frozenset(v.name for v in n0.vars) & \
        frozenset(v.name for v in n1.vars)
    dropped = sy.collapse(sy.drop_uncommon_guard_seq(ext.guard_seq,
                                                     common, []))
    assert sy.guard_seq_to_str(dropped) == "L1 ~> C1 ~> !C1"

    # (b) concatenating the loop-entry hop with the loop body gives the
    # scaling transformation {a := a*10, b := b/10, I := I+1}
    env = n0.var_env()
    from plccontain.sfc_core import Binary, IntLit, VarRef

    a34 = concatenate(by0["a3"], by0["a4"])
    expect = sy.make_transform({
        "a": sy.normalize(Binary("*", VarRef("a"), IntLit(10)), env),
        "b": sy.normalize(Binary("/", VarRef("b"), IntLit(10)), env),
        "I": sy.normalize(Binary("+", VarRef("I"), IntLit(1)), env)})
    assert sy.transforms_equal(a34.transform, expect)

    # (c) the two parallel scaling-loop bodies merge, and the merged path
    # is equivalent to the original loop round-trip (body followed by the
    # loop-back hop)
    beta_m = merge([by1["b5"], by1["b6"]], c1)
    alpha_e = concatenate(by0["a4"], by0["a5"])
    verdict = containment_checker(n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))
    from plccontain.containment import path_equiv

    assert path_equiv(alpha_e, beta_m, verdict.correspondences, n0, n1)
    _report("criterion 3",
            "b1.b2 drops S to 'L1 ~> C1 ~> !C1'; a3.a4 transform is "
            "{a := a*10, b := b/10, I := I+1}; body merge b5 v b6 is "
            "path-equivalent to the loop round trip")


# ---------------------------------------------------------------------------
# 4. soundness suite at desk scale


PAIRS_PER_CLASS = 200


@pytest.mark.slow
def test_criterion_4_soundness_suite():
    start = time.time()
    confirmed = 0
    contained = {c: 0 for c in CLASSES}
    for cls in CLASSES:
        for seed in range(PAIRS_PER_CLASS):
            # generation certifies oracle equivalence (both directions)
            v0, v1 = gen_bench(cls, seed=seed)
            n0, n1 = translate(v0), translate(v1)
            verdict = containment_checker(n0, n1)
            assert verdict.code in ("EQUIVALENT", "N0_IN_N1"), \
                f"{cls}/{seed}: {verdict.code}"
            contained[cls] += 1
            confirmed += 1
    elapsed = time.time() - start
    assert elapsed < 600, f"budget exceeded: {elapsed:.0f}s"
    _report("criterion 4",
            f"{confirmed} oracle-certified pairs "
            f"({PAIRS_PER_CLASS} per class) all got containment or "
            f"equivalence verdicts, zero false positives, in "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. mutation-kill suite


MUTATION_PLAN = [  # fault type -> benchmark classes, per the fault model
    ("type1", ("medium", "simple")),
    ("type2", ("complex", "basic")),
    ("type3", ("medium", "complex")),
]
MUTANTS_PER_COMBO = 8


def test_criterion_5_mutation_kill():
    start = time.time()
    killed = 0
    type1_medium_degrees = []
    for kind, classes in MUTATION_PLAN:
        for cls in classes:
            produced = 0
            for seed in range(40):
                if produced >= MUTANTS_PER_COMBO:
                    break
                v0, _ = gen_bench(cls, seed=seed, certify=False)
                try:
                    mutant = mutate(v0, MutationSpec(kind, seed=seed))
                except MutationInapplicable:
                    continue
                produced += 1
                n0, nm = translate(v0), translate(mutant)
                verdict = containment_checker(n0, nm)
                assert verdict.code == "MAY_NOT_BE_EQUIVALENT", \
                    f"{kind}/{cls}/{seed}: {verdict.code}"
                assert verdict.ledger.unmatched0 and \
                    verdict.ledger.unmatched1
                killed += 1
                if kind == "type1" and cls == "medium":
                    type1_medium_degrees.append(
                        1 - float(verdict.bisim_degree))
            assert produced >= 5, f"too few {kind} sites in {cls}"
    mean_degree = sum(type1_medium_degrees) / len(type1_medium_degrees)
    assert 0.10 <= mean_degree <= 0.30, \
        f"type1/medium 1-BisimDegree {mean_degree:.1%} outside 10-30%"
    elapsed = time.time() - start
    _report("criterion 5",
            f"{killed} mutants all reported non-contained with both "
            f"unmatched sets non-empty; type1/medium mean 1-BisimDegree "
            f"= {mean_degree:.1%} (within 10-30%), in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. known-limitation negative test


def test_criterion_6_limitation(nets, pick_place_split):
    n0, _ = nets
    n2 = translate(pick_place_split)
    ok, _ = confirm_equivalent(n0, n2, dict(SPLIT_FOUT))
    assert ok, "the split variant is behaviorally equivalent"
    verdict = containment_checker(n0, n2, dict(F_IN), dict(SPLIT_FOUT))
    assert verdict.code == "MAY_NOT_BE_EQUIVALENT"
    non_bisim = 1 - float(verdict.bisim_degree)
    assert non_bisim > 0.5
    _report("criterion 6",
            f"loop-split variant: oracle confirms functional equality, "
            f"checker reports MAY_NOT_BE_EQUIVALENT with 1-BisimDegree = "
            f"{non_bisim:.1%} (> 50%)")


# ---------------------------------------------------------------------------
# 7. invariant suites


def test_criterion_7_invariants(nets, counter_net):
    n0, n1 = nets
    # 1-safety, determinism, tick monotonicity on desk-scale nets
    grids = [
        (n0, [{"L1": l1, "Fixer": f} for l1 in (False, True)
              for f in range(4)]),
        (n1, [{"L1": True, "S": s, "Fixer": f} for s in (False, True)
              for f in range(4)]),
        (counter_net, [{"n": k} for k in range(4)]),
    ]
    for net, states in grids:
        for st in states:
            m = initial_marking(net, st)
            for _ in range(200):
                sets = compute_all_concur_trans(net, m)
                if not sets:
                    break
                assert len(sets) == 1
                fired = next(iter(sets))
                m2 = successor_marking(net, m, fired)
                assert m2.tick == m.tick + 1
                m = m2
                if fired & net.synchronizing_ids():
                    break

    # normalization completeness against truth tables (bounded)
    env = {"p": "bool", "q": "bool", "r": "bool"}
    rng = random.Random(99)
    from plccontain.sfc_core import Binary, BoolLit, Unary, VarRef

    def rand_bool(depth):
        if depth == 0:
            return rng.choice([VarRef("p"), VarRef("q"), VarRef("r"),
                               BoolLit(True), BoolLit(False)])
        op = rng.choice(["&&", "||", "!"])
        if op == "!":
            return Unary("!", rand_bool(depth - 1))
        return Binary(op, rand_bool(depth - 1), rand_bool(depth - 1))

    assignments = [
        {n: bool(mask & (1 << i)) for i, n in enumerate(("p", "q", "r"))}
        for mask in range(8)]
    for _ in range(300):
        e1, e2 = rand_bool(3), rand_bool(3)
        n1_, n2_ = sy.normalize(e1, env), sy.normalize(e2, env)
        table_eq = all(sy.eval_bool(n1_, a) == sy.eval_bool(n2_, a)
                       for a in assignments)
        assert sy.expr_equiv(n1_, n2_) == table_eq

    # compose associativity on random transforms
    for _ in range(40):
        def rand_t():
            return sy.make_transform({
                v: sy.int_add(sy.int_mul(sy.int_var(v),
                                         sy.int_const(rng.randint(1, 3))),
                              sy.int_const(rng.randint(-3, 3)))
                for v in rng.sample(["x", "y", "z", "w"], 2)})

        t1, t2, t3 = rand_t(), rand_t(), rand_t()
        left = sy.compose(sy.compose(t1, t2), t3)
        right = sy.compose(t1, sy.compose(t2, t3))
        assert set(left.targets()) == set(right.targets())
        for v in left.targets():
            assert sy.expr_equiv(left.get(v), right.get(v))

    # round trips and reproducible report bytes
    for path in ("pick_and_place_v0", "pick_and_place_v1",
                 "pick_and_place_split"):
        import pathlib

        text = (pathlib.Path(__file__).resolve().parent.parent / "corpus" /
                f"{path}.sfc").read_text()
        prog = parse_sfc(text)
        assert parse_sfc(pretty_print(prog)) == prog
    one = render_json(build_report(containment_checker(
        n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))))
    two = render_json(build_report(containment_checker(
        n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))))
    assert one.encode("utf-8") == two.encode("utf-8")
    _report("criterion 7",
            "1-safety/determinism/tick monotonicity on desk nets; bool "
            "normalization complete vs truth tables; compose associative; "
            "parse/print round-trips; report bytes reproducible")
