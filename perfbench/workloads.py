"""The benchmark's workloads: which stored inputs one pass runs, how one
operation calls the program, how the traced variant calls each layer, and
how every output is checked.

An operation returns what the user would get back. ``check`` returns
``"ok"`` or ``"refuted"`` (a verdict the recorded oracle answers refute: a
counted failure) and raises ``WrongOutput`` for any other wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from plccontain import cli, oracle
from plccontain.containment import containment_checker
from plccontain.path_engine import cover_to_json, path_constructor
from plccontain.petri_net import InvalidModel, simulate, translate
from plccontain.report import build_report, render_json, render_text
from plccontain.sfc_core import parse_sfc, validate_sfc

# check-classes draws two pairs per class and run from the pool of four
# per class (gen.py). oracle-certify runs the first two of each class on
# every seed: the confirmed pairs take most of its pass, and one pair's
# confirmation can take 40% longer than another's of the same class.
CHECK_DRAW = 2
ORACLE_PAIRS = 2
# cover-chains draws two of the four variants of each chart size, so that
# the median operation is the mean of two charts of one size, not
# whichever size a single draw puts in the middle
CHAIN_DRAW = 2

# seconds one pass takes in a fast stretch of the reference machine (see
# README.md); a run of --seconds makes round(seconds / PASS_SECONDS) passes
PASS_SECONDS = {"check-classes": 6.0, "cover-chains": 4.5,
                "oracle-certify": 4.0}

CLAIMS = {"EQUIVALENT": ("n0_in_n1", "n1_in_n0"),
          "N0_IN_N1": ("n0_in_n1",), "N1_IN_N0": ("n1_in_n0",),
          "MAY_NOT_BE_EQUIVALENT": ()}


class WrongOutput(Exception):
    pass


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    traced: Callable[["Tracer"], object]
    check: Callable[[object], str]
    # work counts of one traced call, filled by ``traced``
    counts: dict = field(default_factory=dict)
    # paths in the last checked output, as the user's document shows them
    paths: int = 0


class Tracer:
    """In-memory spans: (name, start, end, parent index, operation id)."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.op_id = ""

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _quiet(fn, *args):
    """Run ``fn`` with its standard output captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _per_class(entries: list, pick) -> list:
    out = []
    for cls in ("basic", "simple", "medium", "complex"):
        out += pick([e for e in entries if e["class"] == cls])
    return out


def _traced_load(tr: Tracer, op: Op, text: str, validate: bool = True):
    """Parse (and validate, as ``cli`` does) and translate one chart."""
    prog = tr.call("sfc_core.parse_sfc", parse_sfc, text)
    if validate:
        diags = tr.call("sfc_core.validate_sfc", validate_sfc, prog)
        if diags:
            raise WrongOutput(f"{op.id}: invalid stored input: {diags[0]}")
    op.counts["sfc_core.elements"] += len(prog.steps) + len(prog.transitions)
    net = tr.call("petri_net.translate", translate, prog)
    op.counts["petri_net.places"] += len(net.places)
    op.counts["petri_net.transitions"] += len(net.transitions)
    return net


COUNT_NAMES = ("sfc_core.elements", "petri_net.places",
               "petri_net.transitions", "path_engine.paths",
               "containment.matched_pairs", "containment.extended_pairs",
               "containment.merged_pairs", "containment.unmatched_paths",
               "report.bytes", "oracle.valuations")


def _fresh_counts(op: Op) -> None:
    op.counts = dict.fromkeys(COUNT_NAMES, 0)


# ---------------------------------------------------------------------------
# check-classes: one in-process ``plccontain check OLD NEW [--map]``


def _check_op(inputs: Path, out: Path, entry: dict, schema) -> Op:
    old, new = inputs / entry["old"], inputs / entry["new"]
    map_path = inputs / entry["map"] if entry.get("map") else None
    out_dir = out / "reports" / entry["id"]
    argv = ["check", str(old), str(new), "--out", str(out_dir)]
    if map_path:
        argv += ["--map", str(map_path)]

    def run():
        code, _stdout = _quiet(cli.main, argv)
        return code

    def traced(tr: Tracer):
        _fresh_counts(op)
        cfg = cli.CheckConfig(str(old), str(new),
                              map_path=str(map_path or ""),
                              out_dir=str(out_dir))
        n0 = _traced_load(tr, op, _read(old))
        n1 = _traced_load(tr, op, _read(new))
        f_in = f_out = None
        hints = []
        if map_path:
            f_in, f_out, hints = cli.parse_map_file(_read(map_path))
        settings = cfg.settings()
        c0 = tr.call("path_engine.path_constructor", path_constructor, n0,
                     prefix="a", settings=settings)
        c1 = tr.call("path_engine.path_constructor", path_constructor, n1,
                     prefix="b", settings=settings)
        op.counts["path_engine.paths"] += len(c0.paths) + len(c1.paths)
        verdict = tr.call("containment.containment_checker",
                          containment_checker, n0, n1, f_in, f_out,
                          settings=settings, cover0=c0, cover1=c1,
                          eta_v_hints=hints)
        led = verdict.ledger
        op.counts["containment.matched_pairs"] += len(led.pairs)
        op.counts["containment.extended_pairs"] += sum(
            1 for a, b in led.pairs if "." in a.id or "." in b.id)
        op.counts["containment.merged_pairs"] += sum(
            1 for a, b in led.pairs if " v " in a.id or " v " in b.id)
        op.counts["containment.unmatched_paths"] += \
            len(led.unmatched0) + len(led.unmatched1)
        report = tr.call("report.build_report", build_report, verdict)
        text = tr.call("report.render_text", render_text, report)
        doc = tr.call("report.render_json", render_json, report)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(text, encoding="utf-8")
        (out_dir / "report.json").write_text(doc, encoding="utf-8")
        op.counts["report.bytes"] += len(text.encode()) + len(doc.encode())
        return 0 if verdict.code != "MAY_NOT_BE_EQUIVALENT" else 2

    def check(code) -> str:
        try:
            doc = json.loads(_read(out_dir / "report.json"))
            text = _read(out_dir / "report.txt")
        except (OSError, ValueError) as exc:
            raise WrongOutput(f"{entry['id']}: no readable report: {exc}")
        # the next pass must write its own reports to be checked
        (out_dir / "report.json").unlink()
        (out_dir / "report.txt").unlink()
        errors = sorted(schema.iter_errors(doc), key=str)
        if errors:
            raise WrongOutput(f"{entry['id']}: report.json breaks the "
                              f"schema: {errors[0].message}")
        verdict = doc["verdict"]
        if code != (2 if verdict == "MAY_NOT_BE_EQUIVALENT" else 0):
            raise WrongOutput(f"{entry['id']}: exit {code} for {verdict}")
        if text.splitlines()[0] != doc["verdict_line"]:
            raise WrongOutput(f"{entry['id']}: report.txt and report.json "
                              f"disagree on the verdict")
        expect = entry.get("expect_verdict")
        if expect and verdict != expect:
            raise WrongOutput(f"{entry['id']}: {verdict}, the paper "
                              f"reports {expect}")
        op.paths = len(doc["paths_n0"]) + len(doc["paths_n1"])
        refuted = [d for d in CLAIMS[verdict] if not entry["oracle"][d]]
        if not refuted:
            return "ok"
        # the known fault (ROADMAP item 1) shows on mutants of the upgrade
        # only; a refuted verdict anywhere else is a new wrong output
        if entry.get("base") == "upgrade":
            return "refuted"
        raise WrongOutput(f"{entry['id']}: {verdict} claims "
                          f"{', '.join(refuted)}, which the oracle refutes")

    op = Op(entry["id"], run, traced, check)
    return op


def check_classes(manifest: dict, inputs: Path, out: Path,
                  rng: random.Random, schema) -> list:
    drawn = _per_class(manifest["pairs"],
                       lambda pool: rng.sample(pool, CHECK_DRAW))
    entries = drawn + manifest["corpus"] + manifest["mutants"]
    return [_check_op(inputs, out, e, schema) for e in entries]


# ---------------------------------------------------------------------------
# cover-chains: one in-process ``plccontain paths FILE``


_TRANS = re.compile(r"^trans (\S+) : (.+?) -> (.+?)(?: when .*)?;$",
                    re.MULTILINE)
_INIT = re.compile(r"^init (\S+);$", re.MULTILINE)


def _non_sync_transitions(text: str) -> set:
    """Transition ids of a stored chart that do not return to the initial
    step, read from the SFC text itself."""
    init = _INIT.search(text).group(1)
    return {tid for tid, _src, dst in _TRANS.findall(text) if dst != init}


def _paths_op(inputs: Path, entry: dict) -> Op:
    path = inputs / entry["file"]
    text = _read(path)
    must_cover = _non_sync_transitions(text)

    def run():
        return _quiet(cli.main, ["paths", str(path)])

    def traced(tr: Tracer):
        _fresh_counts(op)
        net = _traced_load(tr, op, _read(path))
        cover = tr.call("path_engine.path_constructor", path_constructor,
                        net, settings=cli.CheckConfig("", "").settings())
        op.counts["path_engine.paths"] += len(cover.paths)
        doc = tr.call("path_engine.cover_to_json", cover_to_json, cover)
        op.counts["report.bytes"] += len(doc.encode())
        return 0, doc

    def check(result) -> str:
        code, stdout = result
        if code != 0:
            raise WrongOutput(f"{entry['id']}: exit {code}")
        paths = json.loads(stdout)
        if len(paths) != entry["expected_paths"]:
            raise WrongOutput(f"{entry['id']}: {len(paths)} paths, "
                              f"expected {entry['expected_paths']}")
        on_paths = {t for p in paths for rnd in p["rounds"] for t in rnd}
        missing = must_cover - on_paths
        if missing:
            raise WrongOutput(f"{entry['id']}: transitions on no path: "
                              f"{sorted(missing)[:5]}")
        op.paths = len(paths)
        return "ok"

    op = Op(entry["id"], run, traced, check)
    return op


def cover_chains(manifest: dict, inputs: Path, out: Path,
                 rng: random.Random, schema) -> list:
    specs = {}
    for e in manifest["chains"]:
        specs.setdefault((e["shape"], e["k"]), []).append(e)
    return [_paths_op(inputs, e)
            for _key, variants in sorted(specs.items())
            for e in rng.sample(variants, CHAIN_DRAW)]


# ---------------------------------------------------------------------------
# oracle-certify: parse and translate a pair, then confirm_equivalent


def _outcome(net, inputs: dict, f_out: dict, common: frozenset):
    """What one run shows at the end: the out-ports reached (in the
    upgrade's names) and the common-variable state there."""
    names = {v.name for v in net.vars}
    trace = simulate(net, fuel=oracle.ORACLE_FUEL,
                     state={k: v for k, v in inputs.items() if k in names})
    if isinstance(trace, InvalidModel):
        return ("invalid", trace.reason)
    if trace.stopped != "sync":
        return (trace.stopped,)
    fired = trace.rounds[-1].fired & net.synchronizing_ids()
    ports = frozenset(f_out.get(p, p) for t in fired
                      for p in net.pre_places(t))
    state = trace.state_before_last()
    return ("sync", ports, tuple(sorted((k, state[k]) for k in common)))


def _valuations(n0, n1, window) -> int:
    env = {**n0.var_env(), **n1.var_env()}
    total = 1
    for name in set(oracle.input_vars(n0)) | set(oracle.input_vars(n1)):
        total *= 2 if env[name] == "bool" else window[1] - window[0] + 1
    return total


def _oracle_op(inputs: Path, entry: dict, expect_equal: bool,
               window) -> Op:
    old, new = inputs / entry["old"], inputs / entry["new"]
    f_out = dict(entry["oracle"]["f_out"])

    def run():
        n0 = translate(parse_sfc(_read(old)))
        n1 = translate(parse_sfc(_read(new)))
        ok, ce = oracle.confirm_equivalent(n0, n1, f_out, window)
        return ok, ce, n0, n1

    def traced(tr: Tracer):
        _fresh_counts(op)
        n0 = _traced_load(tr, op, _read(old), validate=False)
        n1 = _traced_load(tr, op, _read(new), validate=False)
        ok, ce = tr.call("oracle.confirm_equivalent",
                         oracle.confirm_equivalent, n0, n1, f_out, window)
        op.counts["oracle.valuations"] += _valuations(n0, n1, window)
        return ok, ce, n0, n1

    def check(result) -> str:
        ok, ce, n0, n1 = result
        if expect_equal:
            if not ok:
                raise WrongOutput(f"{entry['id']}: certified pair refuted "
                                  f"at {ce and ce.get('inputs')}")
            return "ok"
        if ok:
            raise WrongOutput(f"{entry['id']}: mutant confirmed equivalent")
        common = frozenset(v.name for v in n0.vars) & \
            frozenset(v.name for v in n1.vars)
        got0 = _outcome(n0, ce["inputs"], f_out, common)
        got1 = _outcome(n1, ce["inputs"], {}, common)
        if got0 == got1:
            raise WrongOutput(f"{entry['id']}: counterexample "
                              f"{ce['inputs']} replays alike on both nets")
        return "ok"

    op = Op(entry["id"], run, traced, check)
    return op


def oracle_certify(manifest: dict, inputs: Path, out: Path,
                   rng: random.Random, schema) -> list:
    window = tuple(manifest["window"])
    ops = [_oracle_op(inputs, e, True, window)
           for e in _per_class(manifest["pairs"],
                               lambda pool: pool[:ORACLE_PAIRS])]
    ops += [_oracle_op(inputs, e, False, window)
            for e in manifest["mutants"] if e["base"] == "original"]
    return ops


def originals(manifest: dict, inputs: Path, ops: list) -> list:
    """Stored originals of the pairs and mutants one oracle pass uses."""
    by_id = {e["id"]: e for e in manifest["pairs"] + manifest["mutants"]}
    return sorted({inputs / by_id[op.id]["old"] for op in ops})


def self_equivalence(path: Path, window) -> bool:
    """``confirm_equivalent(n, n)``: a net must be equivalent to itself."""
    net = translate(parse_sfc(_read(path)))
    ok, _ = oracle.confirm_equivalent(
        net, net, {p: p for p in net.out_ports()}, window)
    return ok


WORKLOADS = {
    "check-classes": check_classes,
    "cover-chains": cover_chains,
    "oracle-certify": oracle_certify,
}
