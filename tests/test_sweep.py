"""Differential sweep of ROADMAP item 1: each containment verdict the
checker gives on a mutant against the other, unmutated version of a
generated pair is checked against the simulation oracle."""

from plccontain.benchmarks import CLASSES, gen_bench
from plccontain.containment import (containment_checker,
                                    default_correspondences)
from plccontain.mutation import (MUTATION_KINDS, MutationInapplicable,
                                 MutationSpec, mutate)
from plccontain.oracle import confirm_containment
from plccontain.petri_net import translate

SEEDS = range(10)

# Verdicts the oracle refutes through ROADMAP item 1(a): a prefix is
# consumed after only one of its continuations was matched. All are medium
# EQUIVALENT verdicts; the change that fixes (a) shrinks this list.
REFUTED_BY_1A = {
    "medium/0/type1/upgrade", "medium/0/type2/original",
    "medium/0/type2/upgrade", "medium/1/type1/upgrade",
    "medium/1/type2/original", "medium/1/type2/upgrade",
    "medium/2/type2/original", "medium/2/type2/upgrade",
    "medium/3/type1/original", "medium/3/type1/upgrade",
    "medium/3/type2/original", "medium/3/type2/upgrade",
    "medium/5/type2/original", "medium/5/type2/upgrade",
    "medium/6/type1/original", "medium/6/type1/upgrade",
    "medium/7/type2/original", "medium/7/type2/upgrade",
    "medium/8/type2/original", "medium/8/type2/upgrade",
    "medium/9/type2/original", "medium/9/type2/upgrade",
}

# the containment directions each verdict claims
CLAIMS = {"EQUIVALENT": ("n0_in_n1", "n1_in_n0"), "N0_IN_N1": ("n0_in_n1",),
          "N1_IN_N0": ("n1_in_n0",), "MAY_NOT_BE_EQUIVALENT": ()}


def _mutant_pairs():
    """(key, n0, n1): a mutant of the upgrade checked as N1 against the
    original, and a mutant of the original checked as N0 against the
    upgrade, for every class, seed and mutation kind."""
    for cls in CLASSES:
        for seed in SEEDS:
            v0, v1 = gen_bench(cls, seed, certify=False)
            for kind in MUTATION_KINDS:
                for target, base in (("upgrade", v1), ("original", v0)):
                    try:
                        mutant = mutate(base, MutationSpec(kind, 0),
                                        certify=False)
                    except MutationInapplicable:
                        continue
                    old, new = (v0, mutant) if target == "upgrade" \
                        else (mutant, v1)
                    yield (f"{cls}/{seed}/{kind}/{target}", translate(old),
                           translate(new))


def test_mutant_sweep_against_oracle():
    refuted, renamed_common = {}, {}
    for key, n0, n1 in _mutant_pairs():
        f_in, f_out = default_correspondences(n0, n1)
        verdict = containment_checker(n0, n1, f_in, f_out)
        corr = verdict.correspondences
        shared = [pair for pair in corr.eta_v if set(pair) & corr.common]
        if shared:
            renamed_common[key] = shared
        back = {b: a for a, b in f_out.items()}
        directions = {"n0_in_n1": (n0, n1, f_out), "n1_in_n0": (n1, n0, back)}
        if not all(confirm_containment(*directions[d])[0]
                   for d in CLAIMS[verdict.code]):
            refuted[key] = verdict.code
    # a variable both models declare is never renamed
    assert renamed_common == {}
    assert refuted == dict.fromkeys(REFUTED_BY_1A, "EQUIVALENT")
