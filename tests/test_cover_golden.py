"""Path covers stay byte-identical to the recorded digests, and cover
construction scales polynomially in sequential branches and loops."""

import importlib.util
import json
import pathlib
import time

import pytest

from plccontain.path_engine import cover_to_json, path_constructor
from plccontain.petri_net import translate
from plccontain.sfc_core import parse_sfc

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "cover_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "cover_golden", ROOT / "scripts" / "cover_golden.py")
cover_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cover_golden)


@pytest.mark.parametrize("group", cover_golden.GROUPS)
def test_cover_digests(group):
    charts = list(cover_golden.charts(group))
    assert charts
    wrong = [name for name, prog in charts
             if cover_golden.digests(prog) != GOLDEN[name]]
    assert not wrong


def test_golden_set_is_complete():
    corpus = {name for name, _ in cover_golden.charts("corpus")}
    generated = {f"{cls}/{seed}/{v}"
                 for cls, seeds in cover_golden.SEEDS.items()
                 for seed in seeds for v in ("v0", "v1")}
    assert corpus | generated == set(GOLDEN)


@pytest.mark.parametrize("kind,k,expect", [("branch", 20, 41),
                                           ("loop", 14, 57)])
def test_cover_scales_in_sequential_segments(chain, kind, k, expect):
    net = translate(chain(kind, k))
    t0 = time.perf_counter()
    cover = path_constructor(net)
    elapsed = time.perf_counter() - t0
    assert len(cover.paths) == expect
    assert elapsed < 2.0


def test_long_straight_chain_covers(chain):
    cover = path_constructor(translate(chain("straight", 5000)))
    assert len(cover.paths) == 1
    assert len(cover.paths[0].trans_seq) == 5002


def _diamonds(d: int) -> str:
    """d simultaneous divergences in a row, each rejoined at once."""
    lines = ["var x : int = 0;", "step s0 { }", f"step a{d} {{ }}",
             "trans Tstart : s0 -> a0;", f"trans Tend : a{d} -> s0;",
             "init s0;"]
    for i in range(d):
        lines += [f"step a{i} {{ }}",
                  f"step b{i} {{ entry B{i} {{ x := x + 1; }} }}",
                  f"step c{i} {{ }}",
                  f"trans T{i} : a{i} -> {{b{i}, c{i}}};",
                  f"trans U{i} : {{b{i}, c{i}}} -> a{i + 1};"]
    return "\n".join(lines)


def test_backward_walk_visits_each_firing_once():
    # every join doubles the routes back to the start; a walk that
    # followed each route would take 2^30 steps
    cover = path_constructor(translate(parse_sfc(_diamonds(30))))
    assert len(cover.paths) == 1
    path = cover.paths[0]
    assert len(path.trans_seq) == 61
    assert "{x := x + 30}" in cover_to_json(cover)
