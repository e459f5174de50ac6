#!/usr/bin/env python3
"""Golden digests of path covers and containment reports.

For every chart of a fixed set (the Pick-and-Place corpus and the
uncertified generator pairs of seeds 0-49 of basic, simple and medium and
0-14 of complex), record sha256 digests of `cover_to_json`, of the sorted
execution cut-points and of the sorted markings the tracker saw.

For every pair of a second set, record sha256 digests of `render_json`
and `render_text` of the containment report. The pairs are the two corpus
pairs and, for the uncertified generator pairs of seeds 0-9 of each
class, the original against the upgrade and the original against each
uncertified mutant (every kind, of the original and of the upgrade).

`tests/test_cover_golden.py` recomputes both and compares, so a change
that alters any cover or any report shows up byte for byte.

    python3 scripts/cover_golden.py [OUT]   # default tests/cover_golden.json

Run it on a known-good tree: the digests it writes are the reference.
They pin bytes, not correctness.
"""

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plccontain._util import natural_key  # noqa: E402
from plccontain.benchmarks import CLASSES, gen_bench  # noqa: E402
from plccontain.cli import parse_map_file  # noqa: E402
from plccontain.containment import containment_checker  # noqa: E402
from plccontain.mutation import (MUTATION_KINDS, MutationInapplicable,  # noqa: E402
                                 MutationSpec, mutate)
from plccontain.path_engine import cover_to_json, path_constructor  # noqa: E402
from plccontain.petri_net import translate  # noqa: E402
from plccontain.report import build_report, render_json, render_text  # noqa: E402
from plccontain.sfc_core import parse_sfc  # noqa: E402

SEEDS = {"basic": range(50), "simple": range(50), "medium": range(50),
         "complex": range(15)}
GROUPS = ("corpus",) + tuple(SEEDS)
REPORT_SEEDS = range(10)
REPORT_GROUPS = ("corpus",) + CLASSES
SPLIT_FOUT = {"s4": "s4", "s8": "s8", "s10": "s10"}


def charts(group: str):
    """(name, SfcProgram) for every chart of one group, in order."""
    if group == "corpus":
        for path in sorted((ROOT / "corpus").glob("*.sfc")):
            yield f"corpus/{path.name}", parse_sfc(path.read_text("utf-8"))
        return
    for seed in SEEDS[group]:
        v0, v1 = gen_bench(group, seed, certify=False)
        yield f"{group}/{seed}/v0", v0
        yield f"{group}/{seed}/v1", v1


def report_pairs(group: str):
    """(name, old, new, f_in, f_out) for every report pair of one group;
    f_in and f_out are None where the default correspondences apply."""
    if group == "corpus":
        def load(name):
            return parse_sfc((ROOT / "corpus" / name).read_text("utf-8"))
        v0 = load("pick_and_place_v0.sfc")
        f_in, f_out, _ = parse_map_file(
            (ROOT / "corpus" / "pick_and_place.map").read_text("utf-8"))
        yield ("report/corpus/pick_and_place", v0,
               load("pick_and_place_v1.sfc"), f_in, f_out)
        yield ("report/corpus/pick_and_place_split", v0,
               load("pick_and_place_split.sfc"), {"s0": "s0"}, SPLIT_FOUT)
        return
    for seed in REPORT_SEEDS:
        v0, v1 = gen_bench(group, seed, certify=False)
        stem = f"report/{group}/{seed}"
        yield f"{stem}/upgrade", v0, v1, None, None
        for base_name, base in (("original", v0), ("upgrade", v1)):
            for kind in MUTATION_KINDS:
                try:
                    mutant = mutate(base, MutationSpec(kind, seed),
                                    certify=False)
                except MutationInapplicable:
                    continue
                yield f"{stem}/{base_name}_{kind}", v0, mutant, None, None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(prog) -> dict:
    cover = path_constructor(translate(prog))
    pts = sorted(cover.cut_points.execution_pts, key=natural_key)
    marks = sorted(",".join(sorted(m, key=natural_key))
                   for m in cover.markings)
    return {"cover": _sha(cover_to_json(cover)),
            "execution_pts": _sha("\n".join(pts)),
            "markings": _sha("\n".join(marks))}


def report_digests(old, new, f_in, f_out) -> dict:
    report = build_report(containment_checker(translate(old), translate(new),
                                              f_in, f_out))
    return {"json": _sha(render_json(report)),
            "text": _sha(render_text(report)),
            "verdict": report["verdict"]}


def report_doc(group: str) -> dict:
    return {name: report_digests(*pair)
            for name, *pair in report_pairs(group)}


def main():
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 \
        else ROOT / "tests" / "cover_golden.json"
    doc = {name: digests(prog)
           for group in GROUPS for name, prog in charts(group)}
    n_charts = len(doc)
    for group in REPORT_GROUPS:
        doc.update(report_doc(group))
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"{n_charts} charts, {len(doc) - n_charts} report pairs -> {out}")


if __name__ == "__main__":
    main()
