"""Command-line driver.

Subcommands:

* ``check OLD NEW``   — containment check, writes text/JSON reports
* ``translate FILE``  — dump the translated Petri net as JSON
* ``paths FILE``      — dump the path cover as JSON
* ``mutate FILE``     — emit a seeded faulty upgrade
* ``gen-bench``       — emit a certified (original, upgrade) pair

Exit codes for ``check``: 0 when the verdict is EQUIVALENT or a
containment, 2 for MAY_NOT_BE_EQUIVALENT, 1 on any error. Log level comes
from the PLCCONTAIN_LOG environment variable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path as FsPath

from .benchmarks import CLASSES, GenerationRetryExceeded, gen_bench
from .containment import ConfigError, containment_checker
from .mutation import (MutationInapplicable, MutationSpec, SelectorNotFound,
                       mutate)
from .oracle import DEFAULT_WINDOW
from .path_engine import (TrackerLimitExceeded, cover_to_json,
                          path_constructor)
from .petri_net import net_to_json, translate
from .report import build_report, render_json, render_text
from .sfc_core import SfcError, parse_sfc, pretty_print, validate_sfc
from .symbolic import NormSettings

log = logging.getLogger("plccontain")


@dataclass
class CheckConfig:
    old_path: str
    new_path: str
    map_path: str = ""
    bool_bound: int = 16
    monomial_cap: int = 4096
    fuel: int = 10_000
    out_format: str = "both"  # text | json | both
    int_window: tuple = DEFAULT_WINDOW
    out_dir: str = "."

    def settings(self) -> NormSettings:
        return NormSettings(self.bool_bound, self.monomial_cap)


def parse_map_file(text: str):
    """Correspondence map: lines ``in p = p'``, ``out p = p'`` and
    optional ``var v = v'`` hints; ``//`` comments."""
    f_in, f_out, eta_v = {}, {}, []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("//")[0].strip()
        if not line:
            continue
        parts = line.replace("=", " = ").split()
        if len(parts) != 4 or parts[2] != "=":
            raise ConfigError(f"map line {lineno}: expected "
                              f"'in|out|var NAME = NAME', got {raw!r}")
        kind, left, _, right = parts
        if kind == "in":
            f_in[left] = right
        elif kind == "out":
            f_out[left] = right
        elif kind == "var":
            eta_v.append((left, right))
        else:
            raise ConfigError(f"map line {lineno}: unknown kind {kind!r}")
    return f_in, f_out, eta_v


def _read_text(path: str) -> str:
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_program(path: str):
    text = _read_text(path)
    try:
        prog = parse_sfc(text)
    except SfcError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    diags = validate_sfc(prog)
    if diags:
        msgs = "; ".join(str(d) for d in diags)
        raise ConfigError(f"{path}: invalid SFC: {msgs}")
    return prog


def cmd_check(cfg: CheckConfig) -> int:
    prog0 = _load_program(cfg.old_path)
    prog1 = _load_program(cfg.new_path)
    n0, n1 = translate(prog0), translate(prog1)
    f_in = f_out = None
    hints = []
    if cfg.map_path:
        f_in, f_out, hints = parse_map_file(_read_text(cfg.map_path))
    verdict = containment_checker(n0, n1, f_in, f_out,
                                  settings=cfg.settings(),
                                  eta_v_hints=hints)
    report = build_report(verdict)
    out = FsPath(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.out_format in ("text", "both"):
        (out / "report.txt").write_text(render_text(report),
                                        encoding="utf-8")
    if cfg.out_format in ("json", "both"):
        (out / "report.json").write_text(render_json(report),
                                         encoding="utf-8")
    print(report.verdict_line)
    print(f"bisim degree: {report.bisim_degree}")
    return 0 if verdict.code != "MAY_NOT_BE_EQUIVALENT" else 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plccontain",
        description="Containment checking for SFC upgrades via Petri nets")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--fuel", type=int, default=10_000)
        p.add_argument("--bool-bound", type=int, default=16)
        p.add_argument("--int-window", default="0..3",
                       help="integer input window LO..HI")

    p = sub.add_parser("check", help="containment check OLD vs NEW")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--map", default="", help="correspondence map file")
    p.add_argument("--format", choices=("text", "json", "both"),
                   default="both")
    common(p)

    p = sub.add_parser("translate", help="dump the Petri net as JSON")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("paths", help="dump the path cover as JSON")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("mutate", help="emit a faulty upgrade")
    p.add_argument("file")
    p.add_argument("--kind", choices=("type1", "type2", "type3"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", default="", help="restrict to a step id")
    common(p)

    p = sub.add_parser("gen-bench", help="emit a certified benchmark pair")
    p.add_argument("--cls", choices=CLASSES, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    return ap


def _window(text: str) -> tuple:
    lo, _, hi = text.partition("..")
    return (int(lo), int(hi))


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("PLCCONTAIN_LOG", "WARNING").upper())
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            cfg = CheckConfig(args.old, args.new, map_path=args.map,
                              bool_bound=args.bool_bound, fuel=args.fuel,
                              out_format=args.format,
                              int_window=_window(args.int_window),
                              out_dir=args.out)
            return cmd_check(cfg)
        if args.command == "translate":
            prog = _load_program(args.file)
            sys.stdout.write(net_to_json(translate(prog)))
            return 0
        if args.command == "paths":
            prog = _load_program(args.file)
            cover = path_constructor(
                translate(prog),
                settings=NormSettings(args.bool_bound))
            sys.stdout.write(cover_to_json(cover))
            return 0
        if args.command == "mutate":
            prog = _load_program(args.file)
            spec = MutationSpec(args.kind, args.seed, args.target)
            mutant = mutate(prog, spec, window=_window(args.int_window))
            out = FsPath(args.out)
            out.mkdir(parents=True, exist_ok=True)
            stem = FsPath(args.file).stem
            target = out / f"{stem}_{args.kind}_s{args.seed}.sfc"
            target.write_text(pretty_print(mutant), encoding="utf-8")
            print(target)
            return 0
        if args.command == "gen-bench":
            v0, v1 = gen_bench(args.cls, args.seed,
                               window=_window(args.int_window))
            out = FsPath(args.out)
            out.mkdir(parents=True, exist_ok=True)
            p0 = out / f"{args.cls}_s{args.seed}_v0.sfc"
            p1 = out / f"{args.cls}_s{args.seed}_v1.sfc"
            p0.write_text(pretty_print(v0), encoding="utf-8")
            p1.write_text(pretty_print(v1), encoding="utf-8")
            print(p0)
            print(p1)
            return 0
    except (ConfigError, SfcError, SelectorNotFound, MutationInapplicable,
            GenerationRetryExceeded, TrackerLimitExceeded) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
