#!/usr/bin/env python3
"""Golden digests of path covers.

For every chart of a fixed set (the Pick-and-Place corpus and the
uncertified generator pairs of seeds 0-49 of basic, simple and medium and
0-14 of complex), record sha256 digests of `cover_to_json`, of the sorted
execution cut-points and of the sorted markings the tracker saw.
`tests/test_cover_golden.py` recomputes them and compares, so a change to
the path engine that alters any cover shows up byte for byte.

    python3 scripts/cover_golden.py [OUT]   # default tests/cover_golden.json

Run it on a known-good tree: the digests it writes are the reference.
"""

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plccontain._util import natural_key  # noqa: E402
from plccontain.benchmarks import gen_bench  # noqa: E402
from plccontain.path_engine import cover_to_json, path_constructor  # noqa: E402
from plccontain.petri_net import translate  # noqa: E402
from plccontain.sfc_core import parse_sfc  # noqa: E402

SEEDS = {"basic": range(50), "simple": range(50), "medium": range(50),
         "complex": range(15)}
GROUPS = ("corpus",) + tuple(SEEDS)


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


def main():
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 \
        else ROOT / "tests" / "cover_golden.json"
    doc = {name: digests(prog)
           for group in GROUPS for name, prog in charts(group)}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"{len(doc)} charts -> {out}")


if __name__ == "__main__":
    main()
