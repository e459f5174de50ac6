import json
import random

import pytest
from conftest import (JOIN_CONFLICT, PICK_PLACE_FOUT, SHARED_ARMS_N0,
                      SHARED_ARMS_N1, SPLIT_FOUT)

from plccontain import containment
from plccontain._util import PlcError
from plccontain import symbolic as sy
from plccontain.benchmarks import CLASSES, gen_bench
from plccontain.containment import compare_paths
from plccontain.path_engine import (NotComposable, NotMergeable, concatenate,
                                    _Tracker, cover_to_json, cycle_places,
                                    merge, path_constructor,
                                    static_cut_points)
from plccontain.petri_net import (InvalidModel, Marking, Place,
                                  PnTransition, PetriNet, WriteConflict,
                                  enabled_transitions, initial_marking,
                                  simulate, successor_marking)
from plccontain.sfc_core import (TRUE, Binary, IntLit, VarRef, parse_sfc,
                                 validate_sfc)
from plccontain.petri_net import translate


# ---------------------------------------------------------------------------
# static cut-points


def test_counter_net_static_cut_points(counter_net):
    assert static_cut_points(counter_net) == frozenset(["p1", "p7", "p10"])


def test_chain_cut_points():
    # acyclic chain p -> t -> q with q the out-port
    net = PetriNet(
        (Place("p", frozenset(), (), (), ()),
         Place("q", frozenset(), (), (), ())),
        (),
        (PnTransition("t"), PnTransition("ts", TRUE, True)),
        frozenset({("p", "t"), ("q", "ts")}),
        frozenset({("t", "q"), ("ts", "p")}),
        frozenset(["p"]))
    assert static_cut_points(net) == frozenset(["p", "q"])


def test_self_loop_place_is_back_edge_target():
    prog = parse_sfc("""
    var I : int = 0;
    step s0 { }
    step lp { active A { I := I + 1; } }
    step out { }
    trans T1 : s0 -> lp;
    trans T2 : lp -> out when !(I < 2);
    trans T3 : out -> s0;
    init s0;
    """)
    net = translate(prog)
    assert "lp" in static_cut_points(net)
    assert "lp" in cycle_places(net)


def test_loop_entries_ignore_synchronizing_transitions():
    # Ts only closes the scan cycle: y is entered from s0 and from s1 but
    # lies on no loop, so it is neither a loop entry nor a cycle place
    net = translate(parse_sfc("""
    step s0 { }
    step s1 { }
    step y { }
    step z { }
    step w { }
    trans Ta : s0 -> y;
    trans Tb : y -> z;
    trans Ts : z -> {s0, s1};
    trans Tq : s1 -> w;
    trans Tr : w -> y;
    init {s0, s1};
    """))
    assert static_cut_points(net) == frozenset(["s0", "s1", "z"])
    assert cycle_places(net) == frozenset()


# ---------------------------------------------------------------------------
# covers


def test_counter_net_cover_groupings(counter_net):
    cover = path_constructor(counter_net, prefix="f")
    assert len(cover.paths) == 7
    groups = {p.trans_seq for p in cover.paths}
    expect = {
        (frozenset(["t1"]), frozenset(["t2"]), frozenset(["t4"])),
        (frozenset(["t1"]), frozenset(["t3"]), frozenset(["t5"])),
        (frozenset(["t6"]),),
        (frozenset(["t7"]),),
        (frozenset(["t8"]),),
        (frozenset(["t9"]),),
        (frozenset(["t10"]),),
    }
    assert groups == expect
    assert cover.cut_points.static_pts == frozenset(["p1", "p7", "p10"])
    assert cover.cut_points.execution_pts == \
        frozenset(["p6", "p8", "p9", "p11"])


def test_pick_place_cover_sizes(covers):
    c0, c1 = covers
    assert len(c0.paths) == 8
    assert len(c1.paths) == 12
    assert [p.id for p in c0.paths] == [f"a{i}" for i in range(1, 9)]
    assert [p.id for p in c1.paths] == [f"b{i}" for i in range(1, 13)]


def test_pick_place_alpha1(covers):
    c0, _ = covers
    a1 = c0.by_id()["a1"]
    assert sy.guard_seq_to_str(a1.guard_seq) == "L1 ~> C1 ~> !C1"
    assert a1.pre_places == frozenset(["s0"])
    assert a1.post_places == frozenset(["s3"])


def test_pick_place_execution_points(covers, nets):
    # the parallel thread interiors and the join target get promoted
    _, c1 = covers
    assert c1.cut_points.execution_pts == frozenset(["s7", "s8", "s10"])


def test_straight_line_no_execution_points():
    prog = parse_sfc("""
    var b : bool = false;
    step s0 { } step s1 { entry A { b := true; } } step s2 { }
    trans T1 : s0 -> s1;
    trans T2 : s1 -> s2;
    trans T3 : s2 -> s0;
    init s0;
    """)
    cover = path_constructor(translate(prog))
    assert cover.cut_points.execution_pts == frozenset()
    assert len(cover.paths) == 1


def test_tick_coherence_and_guard_lengths(covers, counter_net):
    extra = path_constructor(counter_net, prefix="f")
    for cover in (*covers, extra):
        for p in cover.paths:
            assert len(p.guard_seq) == len(p.trans_seq)
            assert p.last_tick == p.start_tick + len(p.trans_seq) - 1


def test_cover_deterministic(nets):
    n0, _ = nets
    one = cover_to_json(path_constructor(n0, prefix="a"))
    two = cover_to_json(path_constructor(n0, prefix="a"))
    assert one == two


# arm B waits at b1 while arm A branches on g and re-joins at a4, so the
# memo keys below the branch need cones several firings deep: computing
# one first computes its missing feeds and then reuses their cached cones
MEMO_ROUTES = """
var start : bool = false;
var g : bool = false;
var x : int = 0;
var z : int = 0;
step s0 { }
step a0 { entry A0 { x := 1; } }
step a1 { }
step a2 { }
step a3 { entry A3 { x := x + 1; } }
step a4 { entry A4 { x := x * 2; } }
step b0 { entry B0 { z := 0; } }
step b1 { entry B1 { z := z + 1; } }
step j { }
trans T0 : s0 -> {a0, b0} when start;
trans Ta1 : a0 -> a1;
trans Ta2 : a1 -> a2;
trans Ta3 : a2 -> a3 when g;
trans Ta4 : a2 -> a4 when !g;
trans Ta5 : a3 -> a4;
trans Tb1 : b0 -> b1;
trans Tj : {a4, b1} -> j;
trans Tk : j -> s0;
init s0;
"""


def test_memoised_cover_equals_full_walk(monkeypatch, pick_place_v0,
                                         pick_place_v1, pick_place_split):
    """Skipping subtrees whose memo key repeats changes nothing: with a
    fresh, never-repeating key the tracker walks every branch, and the
    cover, cut-points and markings come out the same."""
    progs = [parse_sfc(MEMO_ROUTES), pick_place_v0, pick_place_v1,
             pick_place_split]
    progs += [v for cls in CLASSES for v in gen_bench(cls, 0, certify=False)]
    nets = [translate(prog) for prog in progs]
    memoised = [_cover_outcome(net) for net in nets]
    monkeypatch.setattr(_Tracker, "_tokens", lambda *_: object())
    assert [_cover_outcome(net) for net in nets] == memoised


def test_paths_are_walked_once_after_the_fixpoint(monkeypatch, pick_place_v0,
                                                  pick_place_v1,
                                                  pick_place_split):
    """Tracking passes only find cut-points: every backward walk starts
    after the last pass ends, and no production is walked twice."""
    events = []
    run, walk = _Tracker.run, _Tracker._walk_back

    def spy_run(self, cps):
        events.append("pass")
        run(self, cps)
        events.append("end")

    def spy_walk(self, target, *args):
        events.append(target)
        return walk(self, target, *args)

    monkeypatch.setattr(_Tracker, "run", spy_run)
    monkeypatch.setattr(_Tracker, "_walk_back", spy_walk)
    progs = [pick_place_v0, pick_place_v1, pick_place_split]
    progs += [v for cls in CLASSES for v in gen_bench(cls, 0, certify=False)]
    for prog in progs:
        events.clear()
        path_constructor(translate(prog))
        last_end = len(events) - events[::-1].index("end")
        walks = events[last_end:]
        assert walks and len(set(walks)) == len(walks)
        assert all(isinstance(e, str) for e in events[:last_end])


def _cover_outcome(net):
    """The cover, cut-points and markings, or the error that stopped the
    cover."""
    try:
        cover = path_constructor(net)
    except PlcError as exc:
        return type(exc).__name__, str(exc)
    return cover_to_json(cover), cover.cut_points, cover.markings


_GUARDS = ("true", "x < 2", "x = 1", "!(x = 1)", "b", "!b")
_UPDATES = ("x := x + 1;", "x := 0;", "b := !b;", "y := x;")


def random_chart(seed: int) -> str:
    """A seeded random chart: 3-9 steps, each block qualifier on a step
    with chance 0.3, n - 1 to 2n transitions with one or two sources and
    targets, and s0 initial. Many are invalid (an unreachable step)."""
    rng = random.Random(seed)
    steps = [f"s{i}" for i in range(rng.randint(3, 9))]
    lines = ["var x : int = 0; var y : int = 0; var b : bool = false;"]
    for s in steps:
        blocks = "".join(
            f" {q} {q[0].upper()}{s} {{ {rng.choice(_UPDATES)} }}"
            for q in ("entry", "active", "exit") if rng.random() < 0.3)
        lines.append(f"step {s} {{{blocks} }}")
    for i in range(rng.randint(len(steps) - 1, 2 * len(steps))):
        src, tgt = (", ".join(rng.sample(steps, rng.randint(1, 2)))
                    for _ in range(2))
        lines.append(f"trans T{i} : {{{src}}} -> {{{tgt}}} "
                     f"when {rng.choice(_GUARDS)};")
    return "\n".join(lines + ["init s0;"]) + "\n"


@pytest.mark.parametrize("seeds", [
    range(300), pytest.param(range(1000), marks=pytest.mark.slow)],
    ids=["narrow", "wide"])
def test_memoised_cover_equals_full_walk_on_random_charts(monkeypatch,
                                                          seeds):
    """The memo's differential test on the valid charts among seeded
    random ones (about one in six)."""
    progs = [parse_sfc(random_chart(seed)) for seed in seeds]
    nets = [translate(prog) for prog in progs if not validate_sfc(prog)]
    memoised = [_cover_outcome(net) for net in nets]
    monkeypatch.setattr(_Tracker, "_tokens", lambda *_: object())
    assert [_cover_outcome(net) for net in nets] == memoised


# ---------------------------------------------------------------------------
# concatenation


def test_concatenate_transform_composition(covers):
    c0, _ = covers
    by = c0.by_id()
    ext = concatenate(by["a3"], by["a4"])
    env = {"a": "int", "b": "int", "I": "int", "Fixer": "int"}
    expect = sy.make_transform({
        "a": sy.normalize(Binary("*", VarRef("a"), IntLit(10)), env),
        "b": sy.normalize(Binary("/", VarRef("b"), IntLit(10)), env),
        "I": sy.normalize(Binary("+", VarRef("I"), IntLit(1)), env),
    })
    assert sy.transforms_equal(ext.transform, expect)
    assert ext.pre_places == by["a3"].pre_places
    assert ext.post_places == by["a4"].post_places
    assert ext.parts == ("a3", "a4")


def test_concatenate_identity_round(covers):
    c0, _ = covers
    by = c0.by_id()
    ext = concatenate(by["a6"], by["a7"])  # empty transform then collect
    assert sy.transforms_equal(
        sy.compose(by["a6"].transform, by["a7"].transform), ext.transform)


def test_concatenate_rejects_gap(covers):
    c0, _ = covers
    by = c0.by_id()
    with pytest.raises(NotComposable):
        concatenate(by["a1"], by["a4"])  # a4 does not start at a1's end


def test_concatenate_composability_rule(covers):
    """b composes after a when its pre-places are non-empty and inside a's
    post-places and it starts the tick after a ends."""
    from dataclasses import replace

    c0, _ = covers
    by = c0.by_id()
    a, b = by["a3"], by["a4"]
    assert concatenate(a, b).pre_places == a.pre_places
    late = replace(b, start_tick=b.start_tick + 1)
    with pytest.raises(NotComposable, match="tick gap"):
        concatenate(a, late)
    for pre in (frozenset(), b.pre_places | {"elsewhere"}):
        with pytest.raises(NotComposable, match="does not start where"):
            concatenate(a, replace(b, pre_places=pre))


# ---------------------------------------------------------------------------
# merging


def test_merge_loop_bodies(covers):
    _, c1 = covers
    by = c1.by_id()
    m = merge([by["b5"], by["b6"]], c1)
    assert m.pre_places == frozenset(["s6", "s9"])
    assert m.trans_seq == (frozenset(["Tr6", "Tr9"]),)
    assert m.transform.targets() == frozenset(["I", "J", "a", "b"])


def test_merge_singleton(covers):
    _, c1 = covers
    by = c1.by_id()
    assert merge([by["b5"]], c1) == by["b5"]


def test_merge_rejects_sequential_paths(covers):
    c0, _ = covers
    by = c0.by_id()
    with pytest.raises(NotMergeable):
        merge([by["a2"], by["a4"]], c0)  # never co-marked


THREE_THREAD = """
var x : int = 0; var y : int = 0; var z : int = 0;
var c1 : int = 0; var c2 : int = 0; var c3 : int = 0;
step s0 { }
step h1 { }
step w1 { entry A { x := x + 1; c1 := c1 + 1; } }
step h2 { }
step w2 { entry B { y := y + 1; c2 := c2 + 1; } }
step h3 { }
step w3 { entry C { z := z + 1; c3 := c3 + 1; } }
step done { }
trans T1 : s0 -> {h1, h2, h3};
trans T2 : h1 -> w1 when c1 < 2;
trans T3 : w1 -> h1;
trans T4 : h2 -> w2 when c2 < 2;
trans T5 : w2 -> h2;
trans T6 : h3 -> w3 when c3 < 2;
trans T7 : w3 -> h3;
trans T8 : {h1, h2, h3} -> done when !(c1 < 2) && !(c2 < 2) && !(c3 < 2);
trans T9 : done -> s0;
init s0;
"""


def test_three_way_fork_merge():
    net = translate(parse_sfc(THREE_THREAD))
    cover = path_constructor(net, prefix="q")
    bodies = [p for p in cover.paths
              if p.trans_seq in [(frozenset(["T2"]),), (frozenset(["T4"]),),
                                 (frozenset(["T6"]),)]]
    assert len(bodies) == 3
    merged = merge(bodies, cover)
    assert merged.pre_places == frozenset(["h1", "h2", "h3"])
    assert merged.trans_seq == (frozenset(["T2", "T4", "T6"]),)
    assert merged.transform.targets() == \
        frozenset(["x", "y", "z", "c1", "c2", "c3"])
    # replay: fire the merged round from the co-marked heads
    m = initial_marking(net)
    m = successor_marking(net, m, {"T1"})
    m2 = successor_marking(net, m, merged.trans_seq[0])
    assert m2.marked == frozenset(["w1", "w2", "w3"])
    for var in ("x", "y", "z"):
        assert m2.state[var] == 1


# ---------------------------------------------------------------------------
# trace decomposition (cover soundness at desk scale)


def _decomposes(rounds, paths):
    """Can the fired-set sequence be tiled by cover paths running in
    parallel? Union semantics: parallel fork paths may overlap on the
    round that spawned them, so starters can be added even when the round
    is already covered."""
    seqs = sorted({p.trans_seq for p in paths},
                  key=lambda s: (-len(s), sorted(map(sorted, s))))
    seen = set()

    def advance(k, inflight):
        key = (k, inflight)
        if key in seen:
            return False
        seen.add(key)
        if k == len(rounds):
            return not inflight
        target = rounds[k]
        nxt = [seqs[i][pos] for i, pos in inflight]
        if any(not step <= target for step in nxt):
            return False
        covered = frozenset().union(*nxt) if nxt else frozenset()
        starters = [i for i, s in enumerate(seqs) if s[0] <= target]

        def pick(idx, chosen, covered):
            if idx == len(starters):
                if covered != target:
                    return False
                stepped = [(i, pos + 1) for i, pos in inflight
                           if pos + 1 < len(seqs[i])] + \
                          [(i, 1) for i in chosen if len(seqs[i]) > 1]
                return advance(k + 1, tuple(sorted(stepped)))
            i = starters[idx]
            # start this path here (at most once per round per shape)
            if pick(idx + 1, chosen + [i], covered | seqs[i][0]):
                return True
            return pick(idx + 1, chosen, covered)

        return pick(0, [], covered)

    return advance(0, ())


def test_trace_decomposition(nets, counter_net, covers):
    n0, n1 = nets
    c0, c1 = covers
    cases = [
        (n0, c0, {"L1": True, "Fixer": 2, "a": 5, "b": 300}),
        (n0, c0, {"L1": True, "Fixer": 0}),
        (n1, c1, {"L1": True, "S": True, "Fixer": 2, "a": 5, "b": 300}),
        (counter_net, path_constructor(counter_net, prefix="f"), {"n": 3}),
    ]
    for net, cover, state in cases:
        tr = simulate(net, fuel=500, state=state)
        rounds = [r.fired for r in tr.rounds
                  if not (r.fired & net.synchronizing_ids())]
        assert _decomposes(rounds, cover.paths), (state, rounds)


# ---------------------------------------------------------------------------
# replay consistency


def test_round_write_conflict_matches_simulate():
    # the path builder and the simulator name the places in one order
    net = translate(parse_sfc(JOIN_CONFLICT))
    invalid = simulate(net)
    assert isinstance(invalid, InvalidModel) and invalid.tick == 0
    with pytest.raises(WriteConflict) as exc:
        path_constructor(net)
    assert str(exc.value) == invalid.reason


def _replayed_paths(net, paths) -> int:
    """Replay each of `paths` concretely through `successor_marking` from
    the first of 100 seeded random states that enables all of its rounds,
    and check every variable against `eval_norm` of the path's transform.
    Returns how many paths were replayed."""
    rng = random.Random(5)
    checked = 0
    for path in paths:
        for _ in range(100):
            state = {v.name: (rng.randint(0, 3) if v.kind == "int"
                              else rng.random() < 0.5) for v in net.vars}
            m = Marking(path.pre_places, dict(state), 0)
            feasible = True
            for te in path.trans_seq:
                if not te <= enabled_transitions(net, m):
                    feasible = False
                    break
                m = successor_marking(net, m, te)
            if not feasible:
                continue
            checked += 1
            for v in net.vars:
                rhs = path.transform.get(v.name)
                expect = state[v.name] if rhs is None \
                    else sy.eval_norm(rhs, state)
                assert m.state[v.name] == expect, (path.id, v.name)
            break
    return checked


def test_replay_reproduces_transform(covers, nets):
    charts = list(zip(nets, covers))
    for cls in CLASSES:
        for seed in range(3):
            for prog in gen_bench(cls, seed, certify=False):
                net = translate(prog)
                charts.append((net, path_constructor(net)))
    for net, cover in charts:
        # a path may need a state the random draws miss, but few do
        assert _replayed_paths(net, cover.paths) >= len(cover.paths) - 1


def test_replay_every_compared_path(monkeypatch, nets, pick_place_split):
    """Every path the matcher compares, extended and merged ones included,
    replays to its transform, on the corpus pairs, the shared-arms pair
    and generated pairs."""
    compared = {}  # net id -> (net, {path id: path})

    def spy(alpha, beta, corr, n0, n1, settings=sy.DEFAULT_SETTINGS):
        for net, path in ((n0, alpha), (n1, beta)):
            compared.setdefault(id(net), (net, {}))[1][path.id] = path
        return compare_paths(alpha, beta, corr, n0, n1, settings)

    monkeypatch.setattr(containment, "compare_paths", spy)
    n0, n1 = nets
    f_in = {"s0": "s0"}
    pairs = [(n0, n1, f_in, PICK_PLACE_FOUT),
             (n0, translate(pick_place_split), f_in, SPLIT_FOUT),
             (translate(parse_sfc(SHARED_ARMS_N0)),
              translate(parse_sfc(SHARED_ARMS_N1)), None, None)]
    for cls in CLASSES:
        for seed in range(3):
            v0, v1 = gen_bench(cls, seed, certify=False)
            pairs.append((translate(v0), translate(v1), None, None))
    for a, b, f_in, f_out in pairs:
        containment.containment_checker(a, b, f_in, f_out)
    for net, paths in compared.values():
        paths = list(paths.values())
        assert _replayed_paths(net, paths) >= len(paths) - 1


def test_merged_arm_reads_the_other_arms_write():
    """Arm B reads x one round after arm A wrote it: the merged path runs
    its rounds as the simulator does, so y ends at the incremented x."""
    net = translate(parse_sfc(SHARED_ARMS_N1))
    cover = path_constructor(net, prefix="b")
    by = cover.by_id()
    merged = merge([by["b2"], concatenate(by["b3"], by["b5"])], cover)
    assert merged.trans_seq == (frozenset(["Tai", "Tbi"]),
                                frozenset(["Tb1"]))
    assert merged.parts == ("b2", "b3", "b5")
    assert _replayed_paths(net, [merged]) == 1
    env = net.var_env()
    assert merged.transform.get("y") == sy.normalize(
        Binary("+", VarRef("x"), IntLit(1)), env)


# ---------------------------------------------------------------------------
# dump


def test_cover_json_fields(covers):
    c0, _ = covers
    doc = json.loads(cover_to_json(c0))
    assert len(doc) == 8
    assert sorted(doc[0]) == ["R", "id", "last_tick", "post_places",
                              "pre_places", "r", "rounds", "start_tick"]
