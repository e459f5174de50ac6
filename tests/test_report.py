import json

import pytest

from plccontain.containment import containment_checker
from plccontain.report import build_report, render_json, render_text

from conftest import PICK_PLACE_FOUT

F_IN = {"s0": "s0"}


@pytest.fixture(scope="module")
def report(nets):
    n0, n1 = nets
    return build_report(containment_checker(n0, n1, dict(F_IN),
                                            dict(PICK_PLACE_FOUT)))


@pytest.fixture(scope="module")
def equal_report(nets):
    n0, _ = nets
    return build_report(containment_checker(n0, n0))


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
    allowed = {"condition mismatch", "transform mismatch", "tick mismatch",
               "place mismatch", "no candidate"}
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


def test_json_matches_schema(report):
    import pathlib

    schema_path = (pathlib.Path(__file__).resolve().parent.parent /
                   "docs" / "report.schema.json")
    schema = json.loads(schema_path.read_text())
    doc = json.loads(render_json(report))
    for key, spec in schema["properties"].items():
        assert key in doc
        kind = spec["type"]
        value = doc[key]
        if kind == "string":
            assert isinstance(value, str)
        elif kind == "number":
            assert isinstance(value, (int, float))
        elif kind == "integer":
            assert isinstance(value, int)
        elif kind == "array":
            assert isinstance(value, list)
        elif kind == "object":
            assert isinstance(value, dict)
    assert set(schema["required"]) <= set(doc)
