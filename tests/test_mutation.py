import pytest

from plccontain.benchmarks import gen_bench
from plccontain.containment import containment_checker
from plccontain.mutation import (MutationInapplicable, MutationSpec,
                                 SelectorNotFound, mutate)
from plccontain.oracle import confirm_equivalent
from plccontain.petri_net import translate
from plccontain.sfc_core import parse_sfc, pretty_print, validate_sfc


def test_type1_moves_one_assignment(pick_place_v0):
    mutant = mutate(pick_place_v0, MutationSpec("type1", seed=0))
    assert validate_sfc(mutant) == []
    base = {s.id: sum(len(b.body) for b in s.blocks)
            for s in pick_place_v0.steps}
    after = {s.id: sum(len(b.body) for b in s.blocks)
             for s in mutant.steps}
    gained = [s for s in base if after[s] == base[s] + 1]
    lost = [s for s in base if after[s] == base[s] - 1]
    assert len(gained) == 1 and len(lost) == 1
    # the receiving step is a bifurcation step
    sources = {}
    for tr in pick_place_v0.transitions:
        for s in tr.sources:
            sources.setdefault(s, []).append(tr.id)
    assert len(sources[gained[0]]) > 1


def test_type2_duplicates_down_one_branch(pick_place_v0):
    mutant = mutate(pick_place_v0, MutationSpec("type2", seed=0))
    assert validate_sfc(mutant) == []
    n0, nm = translate(pick_place_v0), translate(mutant)
    assert not confirm_equivalent(n0, nm, {p: p for p in n0.out_ports()})[0]


SCALING_LOOP = """
var Fixer : int = 0;
var I : int = 0;
var a : int = 1;
var b : int = 0;
step s0 { }
step head { }
step body { entry Scale { a := a * 10; b := b + a; I := I + 1; } }
step done { }
trans T1 : s0 -> head when Fixer > 0;
trans T2 : head -> body when I < Fixer;
trans T3 : body -> head;
trans T4 : head -> done when !(I < Fixer);
trans T5 : done -> s0;
trans T6 : s0 -> done when !(Fixer > 0);
init s0;
"""


def test_type3_swaps_dependent_pair():
    """The loop body carries a read-after-write chain (b reads the a just
    scaled); type3 swaps it and the behavior changes."""
    prog = parse_sfc(SCALING_LOOP)
    mutant = mutate(prog, MutationSpec("type3", seed=0))
    assert validate_sfc(mutant) == []
    body = next(s for s in mutant.steps if s.id == "body").blocks[0].body
    original = next(s for s in prog.steps if s.id == "body").blocks[0].body
    assert body != original
    assert sorted(v for v, _ in body) == ["I", "a", "b"]
    n0, nm = translate(prog), translate(mutant)
    assert not confirm_equivalent(n0, nm, {p: p for p in n0.out_ports()})[0]


def test_type3_inapplicable_on_independent_body(pick_place_v0):
    # the Pick-and-Place scaling statements are pairwise independent, so
    # no swap can introduce false data locality
    with pytest.raises(MutationInapplicable):
        mutate(pick_place_v0, MutationSpec("type3", seed=0))


def test_unknown_kind():
    with pytest.raises(SelectorNotFound):
        mutate(parse_sfc("step s0 { } init s0;"),
               MutationSpec("type9", seed=0))


def test_selector_not_found(pick_place_v0):
    with pytest.raises(SelectorNotFound):
        mutate(pick_place_v0, MutationSpec("type1", seed=0,
                                           target_step="s0"))


def test_inapplicable_on_straight_line():
    prog = parse_sfc("""
    var x : int = 0;
    step s0 { entry A { x := 1; } }
    step s1 { }
    trans T1 : s0 -> s1;
    trans T2 : s1 -> s0;
    init s0;
    """)
    with pytest.raises(MutationInapplicable):
        mutate(prog, MutationSpec("type1", seed=0))


def test_seeded_determinism(pick_place_v0):
    a = pretty_print(mutate(pick_place_v0, MutationSpec("type1", seed=9)))
    b = pretty_print(mutate(pick_place_v0, MutationSpec("type1", seed=9)))
    assert a.encode() == b.encode()


@pytest.mark.parametrize("kind,cls", [
    ("type1", "medium"), ("type1", "simple"),
    ("type2", "complex"), ("type2", "basic"),
    ("type3", "medium"), ("type3", "complex"),
])
def test_mutation_kill(kind, cls):
    """Every emitted mutant is flagged non-contained by the checker and
    certified behaviorally different by the oracle."""
    v0, _ = gen_bench(cls, seed=5, certify=False)
    try:
        mutant = mutate(v0, MutationSpec(kind, seed=5))
    except MutationInapplicable:
        pytest.skip(f"no certified {kind} site in this {cls} program")
    n0, nm = translate(v0), translate(mutant)
    assert not confirm_equivalent(n0, nm, {p: p for p in n0.out_ports()})[0]
    verdict = containment_checker(n0, nm)
    assert verdict.code == "MAY_NOT_BE_EQUIVALENT"
    assert verdict.ledger.unmatched0 and verdict.ledger.unmatched1
