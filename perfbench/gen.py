#!/usr/bin/env python3
"""Make the stored inputs of the benchmark from one seed.

    python3 perfbench/gen.py [--seed 2026]

Writes SFC text only, plus the corpus correspondence map and a
``manifest.json`` that lists every input together with the answers of the
simulation oracle (``oracle.confirm_containment``, independent of the
checker) for each containment direction. ``run.py`` reads nothing else, so
a later change to the generator or the mutator cannot change a workload;
rerunning this command with the same seed rewrites the same files.

* ``pairs/``   certified (original, upgrade) pairs, a pool per class drawn
               from generator seeds picked by ``--seed``
* ``bases/``   the originals and upgrades of generator seeds 0-2 (basic,
               simple, medium) that the mutants are made from
* ``mutants/`` type1-3 mutants of those originals and upgrades
* ``corpus/``  a copy of the Pick-and-Place pairs and map
* ``chains/``  charts of k sequential branches, k sequential loops and
               straight chains, written by this file's own emitter
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from plccontain.benchmarks import CLASSES, gen_bench  # noqa: E402
from plccontain.cli import parse_map_file  # noqa: E402
from plccontain.containment import default_correspondences  # noqa: E402
from plccontain.mutation import (MUTATION_KINDS, MutationInapplicable,  # noqa: E402
                                 MutationSpec, mutate)
from plccontain.oracle import (DEFAULT_WINDOW, confirm_containment,  # noqa: E402
                               input_vars)
from plccontain.petri_net import translate  # noqa: E402
from plccontain.sfc_core import parse_sfc, pretty_print  # noqa: E402

DEFAULT_SEED = 2026
POOL_PER_CLASS = 4
MUTANT_CLASSES = ("basic", "simple", "medium")
MUTANT_GEN_SEEDS = (0, 1, 2)
BRANCH_KS = (2, 4, 6, 8, 10, 12)
LOOP_KS = (2, 4, 6, 8, 10)
STRAIGHT_NS = (200, 400, 600, 800)
CHAIN_VARIANTS = 4
# (id, original, upgrade, map, verdict the paper reports). The split
# rewrite keeps the original's out-ports, so it gets an identity map.
CORPUS_PAIRS = (
    ("pick_and_place", "pick_and_place_v0.sfc", "pick_and_place_v1.sfc",
     "pick_and_place.map", "N0_IN_N1"),
    ("pick_and_place_split", "pick_and_place_v0.sfc",
     "pick_and_place_split.sfc", "pick_and_place_split.map", None),
)
SPLIT_MAP = """// Identity correspondence for the split rewrite of the original.
in s0 = s0
out s4 = s4
out s8 = s8
out s10 = s10
"""


def oracle_answers(old_text: str, new_text: str, f_out=None) -> dict:
    """Both containment directions by exhaustive joint simulation, under
    the out-port pairing ``check`` uses: the map's, else natural order."""
    n0 = translate(parse_sfc(old_text))
    n1 = translate(parse_sfc(new_text))
    if f_out is None:
        _f_in, f_out = default_correspondences(n0, n1)
    fwd, _ = confirm_containment(n0, n1, f_out, DEFAULT_WINDOW)
    back, _ = confirm_containment(n1, n0, {b: a for a, b in f_out.items()},
                                  DEFAULT_WINDOW)
    return {"f_out": sorted(f_out.items()), "n0_in_n1": fwd,
            "n1_in_n0": back}


def own_inputs_only(text: str) -> bool:
    """True when every oracle input of the chart is a declared input
    (``start``, ``g*``, ``i*``, ``gate*``). A state variable that no step
    writes becomes one more oracle input and multiplies the pair's
    valuations by the window size, so such pairs are left out of the pool
    to keep the cost of one class even across draws."""
    names = input_vars(translate(parse_sfc(text)))
    return all(n == "start" or n[0] in "gi" for n in names)


def write(out: Path, rel: str, text: str) -> str:
    target = out / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return rel


# ---------------------------------------------------------------------------
# certified pairs and mutants


def make_pool(out: Path, rng: random.Random) -> list:
    entries = []
    for cls in CLASSES:
        taken = 0
        for gen_seed in rng.sample(range(100, 10_000), 40):
            if taken == POOL_PER_CLASS:
                break
            v0, v1 = gen_bench(cls, gen_seed)
            t0, t1 = pretty_print(v0), pretty_print(v1)
            if not (own_inputs_only(t0) and own_inputs_only(t1)):
                continue
            stem = f"pairs/{cls}_g{gen_seed}"
            entries.append({
                "id": f"{cls}_g{gen_seed}", "class": cls,
                "gen_seed": gen_seed,
                "old": write(out, f"{stem}_v0.sfc", t0),
                "new": write(out, f"{stem}_v1.sfc", t1),
                "oracle": oracle_answers(t0, t1),
            })
            taken += 1
            print(f"pair {cls} g{gen_seed}", flush=True)
        if taken < POOL_PER_CLASS:
            raise SystemExit(f"too few {cls} pairs pass the input filter")
    return entries


def make_mutants(out: Path) -> list:
    entries = []
    for cls in MUTANT_CLASSES:
        for gen_seed in MUTANT_GEN_SEEDS:
            v0, v1 = gen_bench(cls, gen_seed)
            stem = f"bases/{cls}_g{gen_seed}"
            t0 = pretty_print(v0)
            old = write(out, f"{stem}_v0.sfc", t0)
            write(out, f"{stem}_v1.sfc", pretty_print(v1))
            for base_name, base in (("original", v0), ("upgrade", v1)):
                for kind in MUTATION_KINDS:
                    try:
                        mutant = mutate(base, MutationSpec(kind, gen_seed))
                    except MutationInapplicable:
                        continue
                    mid = f"{cls}_g{gen_seed}_{base_name}_{kind}"
                    tm = pretty_print(mutant)
                    new = write(out, f"mutants/{mid}.sfc", tm)
                    entries.append({
                        "id": mid, "class": cls, "gen_seed": gen_seed,
                        "base": base_name, "kind": kind,
                        "old": old, "new": new,
                        "oracle": oracle_answers(t0, tm),
                    })
                    print(f"mutant {mid}", flush=True)
    return entries


def copy_corpus(out: Path) -> list:
    src = ROOT / "corpus"
    for name in ("pick_and_place_v0.sfc", "pick_and_place_v1.sfc",
                 "pick_and_place_split.sfc", "pick_and_place.map"):
        write(out, f"corpus/{name}", (src / name).read_text(encoding="utf-8"))
    write(out, "corpus/pick_and_place_split.map", SPLIT_MAP)
    entries = []
    for cid, old, new, map_name, expect in CORPUS_PAIRS:
        t0, t1, map_text = ((out / "corpus" / f).read_text(encoding="utf-8")
                            for f in (old, new, map_name))
        _f_in, f_out, _hints = parse_map_file(map_text)
        entries.append({
            "id": cid, "old": f"corpus/{old}", "new": f"corpus/{new}",
            "map": f"corpus/{map_name}", "expect_verdict": expect,
            "oracle": oracle_answers(t0, t1, f_out),
        })
    return entries


# ---------------------------------------------------------------------------
# chains: the benchmark's own SFC text emitter


class ChainWriter:
    """Emits an SFC chart in the layout ``benchmarks.render`` uses: an idle
    step ``s0`` waiting on ``start``, the segments, an end step, and the
    synchronising transition back to ``s0``."""

    N_INTS = 4
    N_GUARDS = 4

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.steps = []
        self.trans = []
        self.counters = []

    def step(self, assigns=()) -> str:
        sid = f"s{len(self.steps)}"
        self.steps.append((sid, list(assigns)))
        return sid

    def link(self, src: str, dst: str, guard: str = "") -> None:
        self.trans.append((f"Tr{len(self.trans) + 1}", src, dst, guard))

    def assign(self):
        rng = self.rng
        x = f"x{rng.randrange(self.N_INTS)}"
        kind = rng.randrange(4)
        if kind == 0:
            return (x, f"{x} + {rng.randint(1, 3)}")
        if kind == 1:
            return (x, f"{x} * {rng.randint(2, 3)}")
        if kind == 2:
            return (x, f"{x} + i0")
        return (x, f"{x} - {rng.randint(1, 2)}")

    def guard(self) -> str:
        g = f"g{self.rng.randrange(self.N_GUARDS)}"
        return g if self.rng.random() < 0.5 else f"!{g}"

    def branch(self, prev: str) -> str:
        fork = self.step([self.assign()])
        self.link(prev, fork)
        join = self.step()
        arm_a = self.step([self.assign()])
        guard = self.guard()
        self.link(fork, arm_a, guard)
        self.link(arm_a, join)
        arm_b = self.step([self.assign()])
        self.link(fork, arm_b, f"!({guard})")
        self.link(arm_b, join)
        return join

    def loop(self, prev: str) -> str:
        c = f"c{len(self.counters)}"
        self.counters.append(c)
        bound = self.rng.randint(1, 3)
        init = self.step([(c, "0")])
        self.link(prev, init)
        head = self.step()
        self.link(init, head)
        body = self.step([self.assign(), (c, f"{c} + 1")])
        self.link(head, body, f"{c} < {bound}")
        self.link(body, head)
        after = self.step()
        self.link(head, after, f"!({c} < {bound})")
        return after

    def straight(self, prev: str) -> str:
        nxt = self.step([self.assign()])
        self.link(prev, nxt)
        return nxt

    def render(self, segment, count: int) -> str:
        idle = self.step()
        prev = self.step([("cycle", "true")])
        self.link(idle, prev, "start")
        for _ in range(count):
            prev = segment(prev)
        end = self.step()
        self.link(prev, end)
        self.link(end, idle)
        lines = ["var start : bool = true;", "var cycle : bool = false;"]
        lines += [f"var x{i} : int = {self.rng.randint(0, 2)};"
                  for i in range(self.N_INTS)]
        lines.append("var i0 : int = 0;")
        lines += [f"var g{i} : bool = false;" for i in range(self.N_GUARDS)]
        lines += [f"var {c} : int = 0;" for c in self.counters]
        for sid, assigns in self.steps:
            if not assigns:
                lines.append(f"step {sid} {{ }}")
                continue
            body = " ".join(f"{v} := {e};" for v, e in assigns)
            lines.append(f"step {sid} {{ entry A{sid[1:]} {{ {body} }} }}")
        for tid, src, dst, guard in self.trans:
            when = f" when {guard}" if guard else ""
            lines.append(f"trans {tid} : {src} -> {dst}{when};")
        lines.append(f"init {idle};")
        return "\n".join(lines) + "\n"


CHAIN_SHAPES = (
    ("branch", BRANCH_KS, lambda k: 2 * k + 1),
    ("loop", LOOP_KS, lambda k: 4 * k + 1),
    ("straight", STRAIGHT_NS, lambda k: 1),
)


def make_chains(out: Path, rng: random.Random) -> list:
    entries = []
    for shape, sizes, expected in CHAIN_SHAPES:
        for k in sizes:
            for variant in range(CHAIN_VARIANTS):
                writer = ChainWriter(random.Random(rng.getrandbits(32)))
                text = writer.render(getattr(writer, shape), k)
                cid = f"{shape}_k{k}_v{variant}"
                entries.append({
                    "id": cid, "shape": shape, "k": k, "variant": variant,
                    "file": write(out, f"chains/{cid}.sfc", text),
                    "expected_paths": expected(k),
                })
    return entries


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    out = HERE / "inputs"
    if out.exists():
        shutil.rmtree(out)
    rng = random.Random(args.seed)
    chains = make_chains(out, rng)
    manifest = {
        "seed": args.seed,
        "window": list(DEFAULT_WINDOW),
        "corpus": copy_corpus(out),
        "pairs": make_pool(out, rng),
        "mutants": make_mutants(out),
        "chains": chains,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
