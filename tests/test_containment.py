import time
from fractions import Fraction

import pytest

from plccontain.containment import (ConfigError, Correspondences,
                                    EquivLedger, bisim_degree,
                                    compare_paths, containment_checker,
                                    default_correspondences,
                                    path_equiv, prepare_for_extension,
                                    prepare_for_merging, select_candidates,
                                    validate_bijections)
from plccontain.benchmarks import gen_bench
from plccontain.oracle import confirm_containment, confirm_equivalent
from plccontain.path_engine import concatenate
from plccontain.petri_net import translate
from plccontain.report import build_report, render_text

from conftest import PICK_PLACE_FOUT, SPLIT_FOUT

F_IN = {"s0": "s0"}


@pytest.fixture(scope="module")
def verdict(nets):
    n0, n1 = nets
    return containment_checker(n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))


# ---------------------------------------------------------------------------
# path_equiv


def test_alpha1_equiv_extended_b1_b2(nets, covers, verdict):
    n0, n1 = nets
    c0, c1 = covers
    by0, by1 = c0.by_id(), c1.by_id()
    ext = concatenate(by1["b1"], by1["b2"])
    assert path_equiv(by0["a1"], ext, verdict.correspondences, n0, n1)


def test_alpha2_equiv_b3_under_eta_v(nets, covers):
    """I of the original corresponds to J of the upgrade: with that pair
    seeded, the init paths are equivalent."""
    n0, n1 = nets
    c0, c1 = covers
    corr = Correspondences(
        dict(F_IN), dict(PICK_PLACE_FOUT),
        eta_p={("s3", "s3")},
        eta_v=[("I", "J")],
        v0_vars=frozenset(v.name for v in n0.vars),
        v1_vars=frozenset(v.name for v in n1.vars))
    assert path_equiv(c0.by_id()["a2"], c1.by_id()["b3"], corr, n0, n1)


def test_path_equiv_reflexive(nets, covers):
    n0, _ = nets
    c0, _ = covers
    corr = Correspondences(
        {p: p for p in n0.initial_marking},
        {p: p for p in n0.out_ports()},
        eta_p={(p.id, p.id) for p in n0.places},
        v0_vars=frozenset(v.name for v in n0.vars),
        v1_vars=frozenset(v.name for v in n0.vars))
    for path in c0.paths:
        assert path_equiv(path, path, corr, n0, n0)


def test_compare_reports_tick_clause(nets, covers, verdict):
    n0, n1 = nets
    c0, c1 = covers
    by0, by1 = c0.by_id(), c1.by_id()
    res = compare_paths(by0["a1"], by1["b1"], verdict.correspondences,
                        n0, n1)
    assert not res.ok
    assert res.clause == "condition mismatch"


# ---------------------------------------------------------------------------
# candidate selection


def test_select_candidates_initial(nets, covers):
    n0, n1 = nets
    c0, c1 = covers
    corr = Correspondences(
        dict(F_IN), dict(PICK_PLACE_FOUT),
        v0_vars=frozenset(v.name for v in n0.vars),
        v1_vars=frozenset(v.name for v in n1.vars))
    cands = select_candidates(c0.by_id()["a1"], c1.paths, corr)
    assert [p.id for p in cands] == ["b1"]


def test_select_candidates_empty_without_correspondence(nets, covers):
    n0, n1 = nets
    c0, c1 = covers
    corr = Correspondences(
        dict(F_IN), dict(PICK_PLACE_FOUT),
        v0_vars=frozenset(v.name for v in n0.vars),
        v1_vars=frozenset(v.name for v in n1.vars))
    # a4 starts at the loop head, unknown until earlier paths match
    assert select_candidates(c0.by_id()["a4"], c1.paths, corr) == []


def test_select_candidates_loop_region(nets, covers, verdict):
    c0, c1 = covers
    corr = verdict.correspondences
    cands = select_candidates(c0.by_id()["a4"], c1.paths, corr)
    assert {p.id for p in cands} >= {"b5", "b6", "b9"}


# ---------------------------------------------------------------------------
# extension


def test_prepare_for_extension_products(covers):
    _, c1 = covers
    by = c1.by_id()
    seen = set()
    products = prepare_for_extension(by["b1"], list(c1.paths), seen)
    ids = {p.id for p in products}
    assert "b1.b2" in ids
    assert "b1.b12" in ids  # the redirect is also a structural post-path
    again = prepare_for_extension(by["b1"], list(c1.paths), seen)
    assert again == []  # seen-set prevents duplicates


def test_prepare_for_extension_dead_end(covers):
    c0, _ = covers
    by = c0.by_id()
    # a8 ends at the waste out-port: no post-paths in the cover
    assert prepare_for_extension(by["a8"], list(c0.paths), set()) == []


# ---------------------------------------------------------------------------
# merging


def test_prepare_for_merging_pair(nets, covers):
    _, c1 = covers
    by = c1.by_id()
    image = frozenset(["s6", "s9"])
    merged = next(prepare_for_merging([by["b5"], by["b6"]], image, c1),
                  None)
    assert merged is not None
    assert merged.pre_places == frozenset(["s6", "s9"])


def test_prepare_for_merging_disjoint_ancestry(covers):
    c0, _ = covers
    by = c0.by_id()
    image = frozenset(["s3", "s5"])
    assert next(prepare_for_merging([by["a2"], by["a7"]], image, c0),
                None) is None


def _divergence(k: int, first: int) -> str:
    """s0 with k exits Ti : s0 -> si when x = i; si sets y (to `first` in
    s1, to i elsewhere) and returns to s0."""
    lines = ["var x : int = 0;", "var y : int = 0;", "step s0 { }"]
    for i in range(1, k + 1):
        y = first if i == 1 else i
        lines += [f"step s{i} {{ entry A{i} {{ y := {y}; }} }}",
                  f"trans T{i} : s0 -> s{i} when x = {i};",
                  f"trans R{i} : s{i} -> s0;"]
    return "\n".join(lines + ["init s0;"])


def test_wide_divergence_merges_only_partitions():
    """Each path leaving s0 has 30 candidates, all with the pre-place s0,
    so no group of two or more partitions the image {s0} and no merge is
    tried; trying every subset of two or more would call `merge` 2^30 - 31
    times."""
    from plccontain.sfc_core import parse_sfc

    n0, n1 = (translate(parse_sfc(_divergence(30, first)))
              for first in (1, 99))
    start = time.perf_counter()
    v = containment_checker(n0, n1)
    assert time.perf_counter() - start < 1.0
    assert v.code == "MAY_NOT_BE_EQUIVALENT"
    assert [pid for pid, _ in v.ledger.unmatched1] == ["b1"]


# ---------------------------------------------------------------------------
# the checker


def test_pick_and_place_verdict(verdict):
    assert verdict.code == "N0_IN_N1"
    assert verdict.ledger.unmatched0 == ()
    assert [pid for pid, _ in verdict.ledger.unmatched1] == ["b12"]
    assert verdict.bisim_degree == Fraction(8, 9)
    pair_ids = [(a.id, b.id) for a, b in verdict.ledger.pairs]
    assert ("a1", "b1.b2") in pair_ids
    assert ("a4", "(b5 v b6)") in pair_ids
    assert ("a5", "(b7 v b8)") in pair_ids


@pytest.mark.parametrize("seed", range(6))
def test_swapped_upgrade_pair_is_n1_in_n0(seed):
    # the upgrade writes a variable the original lacks, so with the
    # upgrade as N0 only N1 ⊑ N0 holds
    v0, v1 = gen_bench("simple", seed, certify=False)
    n0, n1 = translate(v1), translate(v0)
    verdict = containment_checker(n0, n1)
    assert verdict.code == "N1_IN_N0"
    assert build_report(verdict)["verdict_line"] == \
        "VERDICT: N1 ⊑ N0 and N0 ⊄ N1"
    inverse = {b: a for a, b in verdict.correspondences.f_out.items()}
    ok, counterexample = confirm_containment(n1, n0, inverse)
    assert ok, counterexample


def test_reflexive_equivalence(nets):
    for net in nets:
        v = containment_checker(net, net)
        assert v.code == "EQUIVALENT"
        assert v.bisim_degree == 1


def test_mutant_not_contained(pick_place_v0, nets):
    from plccontain.mutation import MutationSpec, mutate

    n0, _ = nets
    mutant = mutate(pick_place_v0, MutationSpec("type1", seed=2))
    nm = translate(mutant)
    v = containment_checker(n0, nm)
    assert v.code == "MAY_NOT_BE_EQUIVALENT"
    assert v.ledger.unmatched0 and v.ledger.unmatched1


def test_split_variant_not_established(nets, pick_place_split):
    n0, _ = nets
    n2 = translate(pick_place_split)
    v = containment_checker(n0, n2, dict(F_IN), dict(SPLIT_FOUT))
    assert v.code == "MAY_NOT_BE_EQUIVALENT"
    assert 1 - float(v.bisim_degree) > 0.5


def test_verdict_emptiness_law(verdict, nets):
    led = verdict.ledger
    assert (verdict.code == "N0_IN_N1") == \
        (not led.unmatched0 and bool(led.unmatched1))
    n0, _ = nets
    v_eq = containment_checker(n0, n0)
    assert (v_eq.code == "EQUIVALENT") == \
        (not v_eq.ledger.unmatched0 and not v_eq.ledger.unmatched1)


RENAMED = """
var {v} : int = 0;
var x : int = 0;
step s0 {{ }}
step s1 {{ entry Step {{ {v} := {v} + 2; x := x + {v}; }} }}
step s2 {{ entry Big {{ x := 0; }} }}
trans t1 : s0 -> s1;
trans t2 : s1 -> s0 when {v} < 6;
trans t3 : s1 -> s2 when !({v} < 6);
trans t4 : s2 -> s0;
init s0;
"""


def _renamed_nets():
    from plccontain.sfc_core import parse_sfc

    return tuple(translate(parse_sfc(RENAMED.format(v=v))) for v in "IJ")


def test_eta_v_proposed_on_renamed_counter():
    """The upgrade renames the counter I to J: the proposer pairs them in
    the direction of the check, and the guards over the counter are
    compared under that renaming. The oracle confirms the pair."""
    n_i, n_j = _renamed_nets()
    for n0, n1, eta_v in ((n_i, n_j, [("I", "J")]),
                          (n_j, n_i, [("J", "I")])):
        v = containment_checker(n0, n1)
        assert v.code == "EQUIVALENT"
        assert v.correspondences.eta_v == eta_v
    f_out = {p: p for p in n_i.out_ports()}
    assert confirm_equivalent(n_i, n_j, f_out) == (True, None)


def test_text_report_lists_eta_v_pairs():
    n_i, n_j = _renamed_nets()
    txt = render_text(build_report(containment_checker(n_i, n_j)))
    assert "  I (N0) ~ J (N1)" in txt.splitlines()


def test_default_correspondences_need_equal_counts():
    from plccontain.sfc_core import parse_sfc

    single = translate(parse_sfc("step s0 { } init s0;"))
    pair = translate(parse_sfc("step s0 { } step s1 { } init {s0, s1};"))
    with pytest.raises(ConfigError, match="initial places"):
        default_correspondences(single, pair)
    with pytest.raises(ConfigError, match="out-ports"):
        default_correspondences(single, _renamed_nets()[0])


def test_eta_v_injectivity(nets, pick_place_v0):
    from plccontain.benchmarks import gen_bench

    for cls_seed in (("medium", 1), ("complex", 2)):
        v0, v1 = gen_bench(*cls_seed, certify=False)
        v = containment_checker(translate(v0), translate(v1))
        firsts = [a for a, _ in v.correspondences.eta_v]
        seconds = [b for _, b in v.correspondences.eta_v]
        assert len(firsts) == len(set(firsts))
        assert len(seconds) == len(set(seconds))


def test_checker_deterministic(nets):
    from plccontain.report import build_report, render_json

    n0, n1 = nets
    one = render_json(build_report(
        containment_checker(n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))))
    two = render_json(build_report(
        containment_checker(n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))))
    assert one == two


def test_config_errors(nets):
    n0, n1 = nets
    with pytest.raises(ConfigError):
        validate_bijections(n0, n1, {"s0": "s0"}, {"s4": "s4"})
    with pytest.raises(ConfigError):
        containment_checker(n0, n1, {"nope": "s0"}, dict(PICK_PLACE_FOUT))


def test_bisim_degree_definition():
    led = EquivLedger([("x", "y")] * 3, (("a", "c"),),
                      (("b", "c"), ("d", "c")))
    assert bisim_degree(led) == Fraction(3, 6)
    assert bisim_degree(EquivLedger([], (), ())) == 1
