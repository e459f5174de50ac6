#!/usr/bin/env python3
"""End-to-end demo on the Pick-and-Place pair.

Parses both controller versions, shows the translated net sizes and path
covers, runs the containment check with the shipped correspondence map,
and prints the full text report.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "src"))

from plccontain.cli import parse_map_file
from plccontain.containment import containment_checker
from plccontain.path_engine import path_constructor, path_to_dict
from plccontain.petri_net import translate
from plccontain.report import build_report, render_text
from plccontain.sfc_core import parse_sfc

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def main():
    v0 = parse_sfc((CORPUS / "pick_and_place_v0.sfc").read_text())
    v1 = parse_sfc((CORPUS / "pick_and_place_v1.sfc").read_text())
    n0, n1 = translate(v0), translate(v1)
    print(f"original: {len(n0.places)} places, {len(n0.transitions)} "
          f"transitions")
    print(f"upgrade:  {len(n1.places)} places, {len(n1.transitions)} "
          f"transitions")
    c0 = path_constructor(n0, prefix="a")
    c1 = path_constructor(n1, prefix="b")
    print(f"path covers: {len(c0.paths)} original, {len(c1.paths)} upgrade")
    for cover in (c0, c1):
        for p in cover.paths:
            d = path_to_dict(p)
            rounds = " . ".join("{" + ",".join(r) + "}" for r in d["rounds"])
            print(f"  {d['id']}: {rounds} | R = {d['R']} | r = {d['r']}")
    f_in, f_out, hints = parse_map_file(
        (CORPUS / "pick_and_place.map").read_text())
    t0 = time.time()
    verdict = containment_checker(n0, n1, f_in, f_out,
                                  cover0=c0, cover1=c1, eta_v_hints=hints)
    print(f"\ncheck time: {time.time() - t0:.3f}s\n")
    print(render_text(build_report(verdict)))


if __name__ == "__main__":
    main()
