"""Command-line driver.

Subcommands and the flags each one reads:

* ``check OLD NEW``   — containment check, writes text/JSON reports;
  ``--map``, ``--format``, ``--out``, ``--bool-bound``
* ``translate FILE``  — dump the translated Petri net as JSON
* ``paths FILE``      — dump the path cover as JSON; ``--bool-bound``
* ``mutate FILE``     — emit a seeded faulty upgrade; ``--kind``,
  ``--seed``, ``--target``, ``--out``, ``--int-window``
* ``gen-bench``       — emit a certified (original, upgrade) pair;
  ``--cls``, ``--seed``, ``--out``, ``--int-window``

Exit codes: 0 on success (for ``check``, a verdict of EQUIVALENT or a
containment), 2 only for ``check``'s MAY_NOT_BE_EQUIVALENT verdict, 1 on
any error, usage errors included. Every error ends in one ``error:`` line
on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path as FsPath

from ._util import PlcError
from .benchmarks import CLASSES, gen_bench
from .containment import VERDICT_MAY_NOT, ConfigError, containment_checker
from .mutation import MutationSpec, mutate
from .oracle import DEFAULT_WINDOW
from .path_engine import cover_to_json, path_constructor
from .petri_net import net_to_json, translate
from .report import build_report, render_json, render_text
from .sfc_core import SfcError, parse_sfc, pretty_print, validate_sfc
from .symbolic import DEFAULT_BOOL_BOUND, NormSettings


@dataclass
class CheckConfig:
    old_path: str
    new_path: str
    map_path: str = ""
    bool_bound: int = DEFAULT_BOOL_BOUND
    out_format: str = "both"  # text | json | both
    out_dir: str = "."

    def settings(self) -> NormSettings:
        return NormSettings(self.bool_bound)


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _write_files(out_dir: str, files: dict) -> list:
    """Write ``{name: text}`` into ``out_dir``, creating it; returns the
    paths written."""
    out = FsPath(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{out_dir}: {exc}") from exc
    return [out / name for name in files]


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
    files = {}
    if cfg.out_format in ("text", "both"):
        files["report.txt"] = render_text(report)
    if cfg.out_format in ("json", "both"):
        files["report.json"] = render_json(report)
    _write_files(cfg.out_dir, files)
    print(report["verdict_line"])
    print(f"bisim degree: {report['bisim_degree']}")
    return 0 if verdict.code != VERDICT_MAY_NOT else 2


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a ConfigError (one ``error:`` line, exit 1)
    instead of argparse's usage text and exit 2; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="plccontain",
        description="Containment checking for SFC upgrades via Petri nets")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="containment check OLD vs NEW")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--map", default="", help="correspondence map file")
    p.add_argument("--format", choices=("text", "json", "both"),
                   default="both")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--bool-bound", type=int, default=DEFAULT_BOOL_BOUND,
                   help="most boolean atoms in one canonical form")

    p = sub.add_parser("translate", help="dump the Petri net as JSON")
    p.add_argument("file")

    p = sub.add_parser("paths", help="dump the path cover as JSON")
    p.add_argument("file")
    p.add_argument("--bool-bound", type=int, default=DEFAULT_BOOL_BOUND,
                   help="most boolean atoms in one canonical form")

    p = sub.add_parser("mutate", help="emit a faulty upgrade")
    p.add_argument("file")
    p.add_argument("--kind", choices=("type1", "type2", "type3"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", default="", help="restrict to a step id")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--int-window", default="{}..{}".format(*DEFAULT_WINDOW),
                   help="integer input window LO..HI")

    p = sub.add_parser("gen-bench", help="emit a certified benchmark pair")
    p.add_argument("--cls", choices=CLASSES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--int-window", default="{}..{}".format(*DEFAULT_WINDOW),
                   help="integer input window LO..HI")
    return ap


def _window(text: str) -> tuple:
    bad = ConfigError(f"--int-window {text!r}: expected LO..HI with "
                      f"integers LO <= HI")
    try:
        lo, hi = (int(part) for part in text.split(".."))
    except ValueError:
        raise bad from None
    if lo > hi:
        raise bad
    return lo, hi


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "check":
            cfg = CheckConfig(args.old, args.new, map_path=args.map,
                              bool_bound=args.bool_bound,
                              out_format=args.format, out_dir=args.out)
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
            name = f"{FsPath(args.file).stem}_{args.kind}_s{args.seed}.sfc"
            print(*_write_files(args.out, {name: pretty_print(mutant)}))
            return 0
        if args.command == "gen-bench":
            v0, v1 = gen_bench(args.cls, args.seed,
                               window=_window(args.int_window))
            stem = f"{args.cls}_s{args.seed}"
            files = {f"{stem}_v0.sfc": pretty_print(v0),
                     f"{stem}_v1.sfc": pretty_print(v1)}
            print(*_write_files(args.out, files), sep="\n")
            return 0
    except PlcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
