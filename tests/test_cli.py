import json
import pathlib

import pytest
from conftest import INITIAL_CONFLICT, JOIN_CONFLICT

from plccontain import cli
from plccontain.benchmarks import gen_bench
from plccontain.cli import CheckConfig, main, parse_map_file
from plccontain.containment import ConfigError
from plccontain.path_engine import TrackerLimitExceeded
from plccontain.sfc_core import MAX_EXPR_DEPTH, pretty_print

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
    lines = err.splitlines()
    assert all(line.startswith("error:") for line in lines)
    return lines


def test_check_missing_map_exit_one(tmp_path, capsys):
    missing = tmp_path / "missing.map"
    rc = main(["check", V0, V1, "--map", str(missing),
               "--out", str(tmp_path)])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(missing) in lines[0]


def test_check_non_utf8_chart_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.sfc"
    bad.write_bytes(b"var x : int = 0;\xff\n")
    rc = main(["check", str(bad), str(bad), "--out", str(tmp_path)])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(bad) in lines[0]


def test_check_non_utf8_map_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_bytes(b"in s0 = s0 // \xff\n")
    rc = main(["check", V0, V1, "--map", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(bad) in lines[0]


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


def test_undeclared_variable_has_no_made_up_position(tmp_path, capsys):
    chart = tmp_path / "undeclared.sfc"
    chart.write_text("var x : int = 0; step s0 { entry A { x := z + 1; } } "
                     "init s0;")
    assert main(["paths", str(chart)]) == 1
    lines = _error_lines(capsys.readouterr().err)
    assert lines == [f"error: {chart}: undeclared variable 'z'"]
    assert "0:0" not in lines[0]


def test_check_invalid_sfc_exit_one(tmp_path, capsys):
    chart = tmp_path / "dangling.sfc"
    chart.write_text("step s0 { } trans T1 : s7 -> s0; init s0;")
    assert main(["check", str(chart), str(chart),
                 "--out", str(tmp_path / "r")]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {chart}: invalid SFC: DanglingSource: transition 'T1' "
        "reads missing step 's7' [T1]"]


def test_check_swapped_upgrade_pair_exit_zero(tmp_path, capsys):
    v0, v1 = gen_bench("simple", 0, certify=False)
    old, new = tmp_path / "v1.sfc", tmp_path / "v0.sfc"
    old.write_text(pretty_print(v1))
    new.write_text(pretty_print(v0))
    assert main(["check", str(old), str(new),
                 "--out", str(tmp_path / "r")]) == 0
    assert "VERDICT: N1 ⊑ N0 and N0 ⊄ N1" in capsys.readouterr().out


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
    assert cfg.settings().bool_bound == 16


def _write_chart(path, decls, assign, guard="") -> str:
    when = f" when {guard}" if guard else ""
    path.write_text(f"""{decls}
var z : int = 0;
step s0 {{ }}
step s1 {{ entry W {{ z := {assign}; }} }}
trans T1 : s0 -> s1{when};
trans T2 : s1 -> s0;
init s0;
""")
    return str(path)


def test_monomial_overflow_exit_one(tmp_path, capsys):
    names = [f"{v}{i}" for v in "xy" for i in range(65)]
    decls = "\n".join(f"var {n} : int = 0;" for n in names)
    sums = [" + ".join(names[:65]), " + ".join(names[65:])]
    chart = _write_chart(tmp_path / "c.sfc", decls,
                         f"({sums[0]}) * ({sums[1]})")
    assert main(["check", chart, chart, "--out", str(tmp_path)]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: product of 65 and 65 terms exceeds the 4096-monomial cap"]


def test_bool_bound_overflow_exit_one(tmp_path, capsys):
    decls = "\n".join(f"var {n} : bool = false;" for n in "abc")
    chart = _write_chart(tmp_path / "g.sfc", decls, "1", "a && b && c")
    out = str(tmp_path / "r")
    assert main(["check", chart, chart, "--out", out,
                 "--bool-bound", "2"]) == 1
    assert main(["paths", chart, "--bool-bound", "2"]) == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 2 and lines[0] == lines[1]
    assert "3 boolean atoms exceed bound 2" in lines[0]
    assert "--bool-bound" in lines[0]
    assert main(["check", chart, chart, "--out", out]) == 0
    assert "N0 ≡ N1" in capsys.readouterr().out


@pytest.mark.parametrize("window", ["3", "3..1", "", "a..3", "0..1..2"])
@pytest.mark.parametrize("command", [["gen-bench", "--cls", "basic"],
                                     ["mutate", V0, "--kind", "type1"]])
def test_bad_int_window_exit_one(tmp_path, capsys, command, window):
    rc = main(command + ["--int-window", window, "--out", str(tmp_path)])
    assert rc == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and "--int-window" in lines[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["translate", V0, "--out", "x"],
    ["translate", V0, "--bool-bound", "1"],
    ["check", V0, V1, "--fuel", "1"],
    ["check", V0, V1, "--int-window", "0..3"],
    ["paths", V0, "--out", "x"],
])
def test_unread_flags_are_rejected(argv, capsys):
    assert main(argv) == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1
    assert lines[0].startswith("error: unrecognized arguments: ")


@pytest.mark.parametrize("command", [
    ["check", V0, V1, "--out", "{file}/sub"],
    ["gen-bench", "--cls", "basic", "--seed", "1", "--out", "{file}"],
    ["mutate", V0, "--kind", "type1", "--out", "{file}"],
])
def test_output_dir_is_a_file_exit_one(tmp_path, capsys, command):
    blocker = tmp_path / "f"
    blocker.touch()
    argv = [arg.replace("{file}", str(blocker)) for arg in command]
    assert main(argv) == 1
    lines = _error_lines(capsys.readouterr().err)
    assert len(lines) == 1 and str(blocker) in lines[0]


def test_mutate_division_by_zero_exit_one(tmp_path, capsys):
    chart = tmp_path / "div.sfc"
    chart.write_text("""var g : bool = false;
var x : int = 0;
var y : int = 0;
step s0 { }
step s1 { entry Div { y := 1; x := 1 / x; } }
step s2 { entry A { y := y + 1; } }
step s3 { entry B { y := y + 2; } }
trans T1 : s0 -> s1;
trans T2 : s1 -> s2 when g;
trans T3 : s1 -> s3 when !g;
trans T4 : s2 -> s0;
trans T5 : s3 -> s0;
init s0;
""")
    rc = main(["mutate", str(chart), "--kind", "type1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: division by zero in 1 / x"]


def test_check_deeply_parenthesized_chart(tmp_path, capsys):
    chart = _write_chart(tmp_path / "deep.sfc", "",
                         "(" * 400 + "z + 1" + ")" * 400)
    rc = main(["check", chart, chart, "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "N0 ≡ N1" in capsys.readouterr().out
    doc = json.loads((tmp_path / "r" / "report.json").read_text())
    assert doc["verdict"] == "EQUIVALENT"


def test_gen_bench_oracle_budget_exit_one(tmp_path, capsys):
    rc = main(["gen-bench", "--cls", "basic", "--seed", "1",
               "--int-window", "0..100000", "--out", str(tmp_path)])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: 800008 input valuations exceed the oracle's limit of 200000"]


def test_mutate_oracle_budget_exit_one(tmp_path, capsys):
    # nine integer inputs and one boolean input: 4**9 * 2 valuations
    ints = [f"i{k}" for k in range(9)]
    chart = tmp_path / "wide.sfc"
    chart.write_text("var g : bool = false;\n" + "".join(
        f"var {n} : int = 0;\n" for n in ints) + f"""var y : int = 0;
step s0 {{ }}
step s1 {{ }}
step s2 {{ entry A {{ y := {' + '.join(ints)}; }} }}
step s3 {{ entry B {{ y := 2; }} }}
trans T1 : s0 -> s1;
trans T2 : s1 -> s2 when g;
trans T3 : s1 -> s3 when !g;
trans T4 : s2 -> s0;
trans T5 : s3 -> s0;
init s0;
""")
    rc = main(["mutate", str(chart), "--kind", "type1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert _error_lines(capsys.readouterr().err) == [
        "error: 524288 input valuations exceed the oracle's limit of 200000"]


def test_round_write_conflict_exit_one(tmp_path, capsys):
    chart = tmp_path / "join.sfc"
    chart.write_text(JOIN_CONFLICT)
    assert main(["check", str(chart), str(chart),
                 "--out", str(tmp_path / "r")]) == 1
    assert main(["paths", str(chart)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _error_lines(captured.err) == [
        "error: places 's2' and 's9' both write 'x'"] * 2


def test_self_loop_id_clash_exit_one(tmp_path, capsys):
    # s1's active block gives it the self-loop s1__u: a transition with
    # that id would make two transitions of one id
    chart = tmp_path / "clash.sfc"
    chart.write_text("var x : int = 0;\n"
                     "step s0 { }\n"
                     "step s1 { active A { x := x + 1; } }\n"
                     "trans T0 : s0 -> s1 when x = 0;\n"
                     "trans s1__u : s1 -> s0 when x > 2;\n"
                     "init s0;\n")
    assert main(["check", str(chart), str(chart),
                 "--out", str(tmp_path / "r")]) == 1
    assert main(["paths", str(chart)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _error_lines(captured.err) == [
        f"error: {chart}: invalid SFC: ReservedTransitionId: transition "
        "'s1__u' takes the id reserved for the self-loop of step 's1' "
        "[s1__u]"] * 2


def test_mutate_initial_write_conflict(tmp_path, capsys):
    # every run of the chart is invalid, which the oracle counts as a
    # difference, so the first type-1 site is certified
    chart = tmp_path / "init.sfc"
    chart.write_text(INITIAL_CONFLICT)
    rc = main(["mutate", str(chart), "--kind", "type1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert len(list((tmp_path / "out").glob("init_type1_s0.sfc"))) == 1


def _deep_chart(rhs: str) -> str:
    """A chart whose branch step s1 sets z to ``rhs`` on entry and has an
    active block, so that its exit guards also form a self-loop guard."""
    return ("var x : int = 0; var y : int = 0; var z : int = 0; "
            "var g : bool = false;\nstep s0 { }\n"
            f"step s1 {{ entry A1 {{ z := {rhs}; }} "
            "active A2 { y := y + 1; } }\n"
            "step s2 { entry A3 { y := z; } }\nstep s3 { }\n"
            "trans T0 : s0 -> s1;\ntrans T1 : s1 -> s2 when g;\n"
            "trans T2 : s1 -> s3 when !g;\ntrans T3 : s2 -> s0;\n"
            "trans T4 : s3 -> s0;\ninit s0;\n")


@pytest.mark.parametrize("rhs, where", [
    (" + ".join(["x"] * 2000), "3:2025"),  # the operator after 500 terms
    ("(" * 1200 + "x" + ")" * 1200, "3:527"),  # the 501st parenthesis
], ids=["sum", "parentheses"])
def test_too_deep_expression_is_one_error(tmp_path, capsys, rhs, where):
    chart = tmp_path / "deep.sfc"
    chart.write_text(_deep_chart(rhs))
    assert main(["check", str(chart), str(chart),
                 "--out", str(tmp_path / "r")]) == 1
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {chart}: {where}: expression nested deeper than "
        f"{MAX_EXPR_DEPTH} levels"]


@pytest.mark.parametrize("rhs", [
    " + ".join(["x"] * MAX_EXPR_DEPTH),
    "(" * (MAX_EXPR_DEPTH - 1) + "x" + ")" * (MAX_EXPR_DEPTH - 1),
    "-" * (MAX_EXPR_DEPTH - 1) + "x",
], ids=["sum", "parentheses", "negations"])
def test_expression_at_the_depth_limit_runs(tmp_path, rhs):
    """Every walker, and the oracle's compiled closures, handle an
    expression MAX_EXPR_DEPTH levels deep."""
    chart = tmp_path / "deep.sfc"
    chart.write_text(_deep_chart(rhs))
    assert main(["check", str(chart), str(chart),
                 "--out", str(tmp_path / "r")]) == 0
    # the oracle certifies the mutant against the chart
    assert main(["mutate", str(chart), "--kind", "type2",
                 "--out", str(tmp_path / "m")]) == 0
