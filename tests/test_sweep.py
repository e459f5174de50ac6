"""Differential sweep of ROADMAP item 1: each containment verdict the
checker gives on a mutant against the other, unmutated version of a
generated pair is checked against the simulation oracle."""

from collections import Counter

import pytest

from plccontain import oracle
from plccontain.benchmarks import CLASSES, gen_bench
from plccontain.containment import (containment_checker,
                                    default_correspondences)
from plccontain.mutation import (MUTATION_KINDS, MutationInapplicable,
                                 MutationSpec, mutate)
from plccontain.oracle import confirm_containment, run_outcome
from plccontain.petri_net import translate

from conftest import check_ledger

# (seeds, mutation counts) of the narrow sweep, in Tier-1, and of the
# wide one, about 45 s
SWEEPS = {"narrow": (range(10), (0,)), "wide": (range(30), (0, 1, 2))}

# the containment directions each verdict claims
CLAIMS = {"EQUIVALENT": ("n0_in_n1", "n1_in_n0"), "N0_IN_N1": ("n0_in_n1",),
          "N1_IN_N0": ("n1_in_n0",), "MAY_NOT_BE_EQUIVALENT": ()}


def _mutant_pairs(seeds, ms):
    """(key, n0, n1): a mutant of the upgrade checked as N1 against the
    original, and a mutant of the original checked as N0 against the
    upgrade, for every class, seed, mutation kind and mutation count."""
    for cls in CLASSES:
        for seed in seeds:
            v0, v1 = gen_bench(cls, seed, certify=False)
            for kind in MUTATION_KINDS:
                for m in ms:
                    for target, base in (("upgrade", v1), ("original", v0)):
                        try:
                            mutant = mutate(base, MutationSpec(kind, m),
                                            certify=False)
                        except MutationInapplicable:
                            continue
                        old, new = (v0, mutant) if target == "upgrade" \
                            else (mutant, v1)
                        yield (f"{cls}/{seed}/{kind}/{m}/{target}",
                               translate(old), translate(new))


@pytest.mark.parametrize("sweep", [
    "narrow", pytest.param("wide", marks=pytest.mark.slow)])
def test_mutant_sweep_against_oracle(sweep, monkeypatch):
    # a run that stops on fuel is skipped as "no computation to contain",
    # so it could hide a refutation: count them. Each outcome the run
    # trees give must also be the one a fresh run gives.
    stops = Counter()
    outcome = oracle._RunTree.outcome

    def counted(tree, valuation):
        out = outcome(tree, valuation)
        assert out == run_outcome(tree.net, valuation, tree.common), \
            valuation
        stops[getattr(out, "stopped", "invalid")] += 1
        return out

    monkeypatch.setattr(oracle._RunTree, "outcome", counted)
    refuted, renamed_common = {}, {}
    for key, n0, n1 in _mutant_pairs(*SWEEPS[sweep]):
        f_in, f_out = default_correspondences(n0, n1)
        verdict = containment_checker(n0, n1, f_in, f_out)
        check_ledger(verdict)
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
    assert refuted == {}
    assert stops["sync"] and stops["fuel"] == 0
