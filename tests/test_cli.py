import json
import pathlib

import pytest

from plccontain import cli
from plccontain.cli import CheckConfig, main, parse_map_file
from plccontain.containment import ConfigError
from plccontain.path_engine import TrackerLimitExceeded
from plccontain.sfc_core import pretty_print

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
V0 = str(CORPUS / "pick_and_place_v0.sfc")
V1 = str(CORPUS / "pick_and_place_v1.sfc")
MAP = str(CORPUS / "pick_and_place.map")


def test_check_containment_exit_zero(tmp_path, capsys):
    rc = main(["check", V0, V1, "--map", MAP, "--out", str(tmp_path)])
    assert rc == 0
    assert "VERDICT: N0 ⊑ N1" in capsys.readouterr().out
    txt = (tmp_path / "report.txt").read_text()
    assert "VERDICT: N0 ⊑ N1" in txt
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdict"] == "N0_IN_N1"
    assert doc["unmatched_n1"] == ["b12"]


def test_check_same_file_equivalent(tmp_path):
    rc = main(["check", V0, V0, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdict"] == "EQUIVALENT"


def test_check_mutant_exit_two(tmp_path):
    rc = main(["mutate", V0, "--kind", "type2", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    mutant = next(tmp_path.glob("*_type2_s3.sfc"))
    rc = main(["check", V0, str(mutant), "--out", str(tmp_path / "rep")])
    assert rc == 2


def test_check_missing_file_exit_one(tmp_path):
    rc = main(["check", V0, str(tmp_path / "nope.sfc"),
               "--out", str(tmp_path)])
    assert rc == 1


def _error_lines(err: str) -> list:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_check_missing_map_exit_one(tmp_path, capsys):
    missing = tmp_path / "missing.map"
    rc = main(["check", V0, V1, "--map", str(missing),
               "--out", str(tmp_path)])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(missing) in lines[0]


def test_paths_long_straight_chain(tmp_path, capsys, chain):
    chart = tmp_path / "straight.sfc"
    chart.write_text(pretty_print(chain("straight", 2000)))
    assert main(["paths", str(chart)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 1 and len(doc[0]["rounds"]) == 2002


def test_tracker_limit_exit_one(monkeypatch, capsys):
    def over_limit(*_args, **_kwargs):
        raise TrackerLimitExceeded("backward walk exceeded 16 steps")

    monkeypatch.setattr(cli, "path_constructor", over_limit)
    assert main(["paths", V0]) == 1
    lines = _error_lines(capsys.readouterr().err)
    assert lines == ["error: backward walk exceeded 16 steps"]


def test_empty_program_is_an_error(tmp_path):
    empty = tmp_path / "empty.sfc"
    empty.write_text("")
    assert main(["paths", str(empty)]) == 1
    assert main(["translate", str(empty)]) == 1
    assert main(["check", V0, str(empty), "--out", str(tmp_path)]) == 1


def test_check_bad_map_exit_one(tmp_path):
    bad = tmp_path / "bad.map"
    bad.write_text("in s0 = s0\n")  # out-ports missing
    rc = main(["check", V0, V1, "--map", str(bad), "--out", str(tmp_path)])
    assert rc == 1


def test_translate_json(capsys):
    rc = main(["translate", V0])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["places"]) == 11 and len(doc["transitions"]) == 14


def test_paths_json(capsys):
    rc = main(["paths", V0])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 8


def test_gen_bench_files(tmp_path, capsys):
    rc = main(["gen-bench", "--cls", "basic", "--seed", "7",
               "--out", str(tmp_path)])
    assert rc == 0
    from plccontain.sfc_core import parse_sfc

    for name in ("basic_s7_v0.sfc", "basic_s7_v1.sfc"):
        prog = parse_sfc((tmp_path / name).read_text())
        assert prog.steps


def test_parse_map_file():
    f_in, f_out, eta = parse_map_file(
        "// comment\nin s0 = s0\nout s8 = s12\nvar I = J\n")
    assert f_in == {"s0": "s0"}
    assert f_out == {"s8": "s12"}
    assert eta == [("I", "J")]
    with pytest.raises(ConfigError):
        parse_map_file("through s0 = s1\n")
    with pytest.raises(ConfigError):
        parse_map_file("in s0 s1\n")


def test_check_config_defaults():
    cfg = CheckConfig("a.sfc", "b.sfc")
    assert cfg.bool_bound == 16
    assert cfg.monomial_cap == 4096
    assert cfg.fuel == 10_000
    assert cfg.int_window == (0, 3)
    assert cfg.settings().bool_bound == 16
