import json
import pathlib

import pytest

from plccontain.benchmarks import gen_bench
from plccontain.containment import containment_checker
from plccontain.mutation import MutationSpec, mutate
from plccontain.petri_net import translate
from plccontain.report import build_report, render_json, render_text

from conftest import PICK_PLACE_FOUT

F_IN = {"s0": "s0"}
SCHEMA = (pathlib.Path(__file__).resolve().parent.parent / "docs" /
          "report.schema.json")


@pytest.fixture(scope="module")
def report(nets):
    n0, n1 = nets
    return build_report(containment_checker(n0, n1, dict(F_IN),
                                            dict(PICK_PLACE_FOUT)))


@pytest.fixture(scope="module")
def equal_report(nets):
    n0, _ = nets
    return build_report(containment_checker(n0, n0))


@pytest.fixture(scope="module")
def retracted_report():
    """basic seed 0 against its type1 mutant: resolve fails b3 and a5, so
    the pairs (a3, b3) and (a5, b5) leave the ledger."""
    v0, _ = gen_bench("basic", 0, certify=False)
    mutant = mutate(v0, MutationSpec("type1", 0), certify=False)
    return build_report(containment_checker(translate(v0),
                                            translate(mutant)))


def test_text_leads_with_verdict(report):
    txt = render_text(report)
    assert txt.splitlines()[0] == "VERDICT: N0 ⊑ N1 and N1 ⊄ N0"
    assert "VERDICT: N0 ⊑ N1" in txt


def test_text_attributes_unmatched_to_safety_branch(report):
    txt = render_text(report)
    section = txt.split("== unmatched paths of N1 ==")[1]
    assert "b12" in section
    # the redirect path runs through the breach step s15 into s13
    assert "s15" in section and "s13" in section


def test_text_equivalent_is_single_section(equal_report):
    txt = render_text(equal_report)
    assert "== unmatched" not in txt
    assert "every path of each model has an equivalent partner" in txt


def test_text_mutant_has_both_sections(pick_place_v0, nets):
    from plccontain.mutation import MutationSpec, mutate
    from plccontain.petri_net import translate

    n0, _ = nets
    mutant = mutate(pick_place_v0, MutationSpec("type2", seed=4))
    rep = build_report(containment_checker(n0, translate(mutant)))
    txt = render_text(rep)
    assert "== unmatched paths of N0 ==" in txt
    assert "== unmatched paths of N1 ==" in txt
    clauses = {d["clause"] for d in rep["unmatched_n0_detail"]}
    allowed = {"condition mismatch", "transform mismatch", "place mismatch",
               "no candidate"}
    assert clauses <= allowed


def test_json_fields(report):
    doc = json.loads(render_json(report))
    assert doc["verdict"] == "N0_IN_N1"
    assert doc["unmatched_n1"] == ["b12"]
    assert doc["unmatched_n0"] == []
    assert doc["bisim_degree"] == "8/9"
    assert abs(doc["bisim_degree_decimal"] - 8 / 9) < 1e-12
    assert doc["schema_version"] == 1
    ids = {p["id"] for p in doc["paths_n0"]}
    for pair in doc["matched"]:
        for part in pair["n0"]["parts"]:
            assert part in ids


def test_text_json_agree(report):
    txt = render_text(report)
    doc = json.loads(render_json(report))
    assert doc["verdict_line"] in txt
    assert f"bisim degree: {doc['bisim_degree']}" in txt
    assert str(len(doc["matched"])) in txt


def test_report_bytes_deterministic(nets):
    n0, n1 = nets
    a = render_json(build_report(
        containment_checker(n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))))
    b = render_json(build_report(
        containment_checker(n0, n1, dict(F_IN), dict(PICK_PLACE_FOUT))))
    assert a.encode() == b.encode()


def test_dropped_pair_parts_take_its_clause(retracted_report):
    # a3 and b5 were matched before their pairs left the ledger, so they
    # read the clause that failed their partner, not "no candidate"
    doc = retracted_report
    assert doc["verdict"] == "MAY_NOT_BE_EQUIVALENT"
    matched = {(m["n0"]["id"], m["n1"]["id"]) for m in doc["matched"]}
    assert not matched & {("a3", "b3"), ("a5", "b5")}
    clause0 = {d["id"]: d["clause"] for d in doc["unmatched_n0_detail"]}
    clause1 = {d["id"]: d["clause"] for d in doc["unmatched_n1_detail"]}
    assert clause0["a3"] == clause1["b3"] == "condition mismatch"
    assert clause0["a5"] == clause1["b5"] == "condition mismatch"


def test_json_matches_schema(report, retracted_report):
    from jsonschema import Draft7Validator

    schema = json.loads(SCHEMA.read_text())
    Draft7Validator.check_schema(schema)
    validator = Draft7Validator(schema)
    for rep in (report, retracted_report):
        doc = json.loads(render_json(rep))
        assert [e.message for e in validator.iter_errors(doc)] == []
    # the whole document is checked, down to each clause
    bad = json.loads(render_json(retracted_report))
    bad["unmatched_n0_detail"][0]["clause"] = "no reason"
    assert not validator.is_valid(bad)
