"""Cut-point discovery, path construction, and the path algebra.

Paths run from cut-points to cut-points without intermediary ones. Loops
are those of the place graph without synchronizing transitions, found by
one depth-first search: a loop entry is the target of an edge back into
the search path, and a place on a loop lies on a directed cycle. Static
cut-points are the initially marked places, places with several
post-transitions, loop entries, and out-ports. Execution cut-points
are added during a structural token-tracking pass: whenever the marking
reached after a firing round touches a known cut-point or a place on a
loop, leaves a loop, or holds tokens produced at different ticks, every
place of that marking becomes a cut-point and one path per marked place is
reconstructed backward through the producers of its tokens. Tracking
explores every alternative maximal firing set, traverses each loop once (a
transition never fires twice on one branch), and never fires
synchronizing transitions. Passes repeat until the cut-point set
stabilizes.

Tracking is a depth-first walk on an explicit stack, memoised on local
state. Below every node with two or more structural sets, each child is
keyed by
  * its marking, with, for each marked place, the producer's tick
    relative to the current round and the interned id of the place's
    backward cone (the firings a backward walk from it covers, down to the
    cut-points);
  * the transitions fired on this branch that can still become enabled:
    non-synchronizing ones whose pre-places lie in the forward closure of
    the marking.
A child whose key was already explored in this pass is skipped with its
subtree. The key fixes all the subtree does: the sets it fires (marking and
the relevant fired transitions), its cut-point hits (marking and tick
differences) and its backward walks, which leave the subtree only through
the producers of the marked places. In the final pass the cut-point set
stays constant, so a skipped subtree could only rediscover records already
found (whose tick stamps the first discovery fixes), markings already seen
and no new cut-points: the cover equals that of the full walk. In earlier
passes a skip can only delay a cut-point to a later pass. The hit test is
monotone in the cut-point set, and a pass that adds nothing is a fixpoint
of the full walk, so the passes end at the same set. Keys are checked only
below branching nodes, where two routes can meet, and cone ids are interned
only for keys, so straight runs pay nothing.

Each path carries its execution condition (one normalized guard entry per
round, conjoined over simultaneous transitions), its data transformation
(composed place updates), and its tick stamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from ._util import PlcError, natural_key
from .petri_net import (PetriNet, WriteConflict, _commit_blocks,
                        _fire_structure, _maximal_disjoint_sets)
from .symbolic import (DEFAULT_SETTINGS, EMPTY_TRANSFORM, NormSettings,
                       StateTransform, band, compose, guard_seq,
                       guard_seq_to_str, make_transform, normalize,
                       transform_to_str, BTRUE)


class NotComposable(Exception):
    pass


class NotMergeable(Exception):
    pass


# ---------------------------------------------------------------------------
# cut-points


@dataclass(frozen=True)
class CutPoints:
    static_pts: frozenset
    execution_pts: frozenset


class _PlaceGraph:
    """The place graph without synchronizing transitions and one
    depth-first search of it. Roots are the initial places, then every
    other place, in natural order; successors come in natural order of
    transition, then of place. The search finds the loop entries, the
    targets of edges back into the search path, and, by Tarjan's
    algorithm, the cycle places: components with more than one place, or
    with a self-loop. `statics` adds the loop entries to the initial
    places, the places with several post-transitions and the out-ports."""

    def __init__(self, net: PetriNet):
        maps = net._maps()
        sync, post = maps["sync"], maps["post_p"]
        self.post_tr = {p: tuple(sorted(ts - sync, key=natural_key))
                        for p, ts in maps["post_t"].items()}
        self.succ = succ = {
            p: tuple(q for t in ts for q in sorted(post[t], key=natural_key))
            for p, ts in self.post_tr.items()}
        init = net.initial_marking
        roots = sorted(init, key=natural_key) + sorted(
            (p for p in succ if p not in init), key=natural_key)
        index, low = {}, {}
        work, on_path, comp, in_comp = [], set(), [], set()
        entries, cycles = set(), set()

        def enter(p):
            index[p] = low[p] = len(index)
            on_path.add(p)
            comp.append(p)
            in_comp.add(p)
            work.append((p, iter(succ[p])))

        for root in roots:
            if root not in index:
                enter(root)
            while work:
                v, it = work[-1]
                for w in it:
                    if w in on_path:
                        entries.add(w)
                    if w not in index:
                        enter(w)
                        break
                    if w in in_comp:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    on_path.discard(v)
                    if work:
                        u = work[-1][0]
                        low[u] = min(low[u], low[v])
                    if low[v] == index[v]:
                        scc = set()
                        while v not in scc:
                            scc.add(comp.pop())
                        in_comp -= scc
                        if len(scc) > 1 or v in succ[v]:
                            cycles |= scc
        self.cycles = frozenset(cycles)
        self.statics = frozenset(
            init | entries | net.out_ports()
            | {p for p, ts in maps["post_t"].items() if len(ts) > 1})


def static_cut_points(net: PetriNet) -> frozenset:
    """Initial places, places with several post-transitions (synchronizing
    ones included), loop entries and out-ports. A loop entry is the target
    of an edge back into the path of one depth-first search of the place
    graph without synchronizing transitions (``_PlaceGraph``)."""
    return _PlaceGraph(net).statics


def cycle_places(net: PetriNet) -> frozenset:
    """Places on a directed cycle of the place graph without synchronizing
    transitions, from the same search as ``static_cut_points``."""
    return _PlaceGraph(net).cycles


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class Path:
    id: str
    trans_seq: tuple  # tuple of frozensets, one per round
    pre_places: frozenset
    post_places: frozenset
    guard_seq: tuple  # one BoolNorm per round
    transform: StateTransform
    start_tick: int
    last_tick: int
    parts: tuple = ()  # original cover-path ids composing this path

    def describe(self) -> str:
        seq = " . ".join("{" + ",".join(sorted(s, key=natural_key)) + "}"
                         for s in self.trans_seq)
        return (f"{self.id}: {seq} | R = {guard_seq_to_str(self.guard_seq)}"
                f" | r = {transform_to_str(self.transform)}")


@dataclass(frozen=True)
class PathCover:
    paths: tuple
    cut_points: CutPoints
    markings: frozenset  # markings seen while tracking (for parallelism)

    def by_id(self) -> dict:
        return {p.id: p for p in self.paths}


# ---------------------------------------------------------------------------
# structural token tracking


class TrackerLimitExceeded(PlcError):
    """A backward walk outgrew its step bound; finishing it early would
    have truncated the path it was building."""


class _Prod:
    """One firing of one transition: its tick and, per pre-place in
    natural order, the production that put the consumed token there
    (None for an initial token). `cone` caches the interned id of the
    backward cone, filled in only where a memo key needs it."""

    __slots__ = ("t", "tick", "feeds", "cone")

    def __init__(self, t: str, tick: int, feeds: tuple):
        self.t = t
        self.tick = tick
        self.feeds = feeds
        self.cone = None


class _Tracker:
    def __init__(self, net: PetriNet, graph: _PlaceGraph):
        self.net = net
        self.cycles, self.succ = graph.cycles, graph.succ
        self.post_tr = graph.post_tr
        maps = net._maps()
        self.pre, self.post = maps["pre_p"], maps["post_p"]
        self.pre_sorted = {t: tuple(sorted(ps, key=natural_key))
                           for t, ps in self.pre.items()}
        self.unsync = tuple(t.id for t in net.transitions
                            if not t.is_synchronizing)
        self.sourceless = tuple(t for t in self.unsync if not self.pre[t])
        self.live_cache = {}  # marking -> transitions it can still enable
        # pre- and post-places, tagged apart: two transitions conflict when
        # they share a pre-place or a post-place
        self.footprint = {t: frozenset([("i", p) for p in self.pre[t]]
                                       + [("o", p) for p in self.post[t]])
                          for t in self.pre}

    def run(self, cps: set):
        """One tracking pass; grows `cps` in place."""
        self.cps = cps
        self.records = {}  # key -> (start tick, last tick), in discovery order
        self.cones = {}  # cone signature -> interned id
        m0 = self.net.initial_marking
        self.markings = {m0}
        fired = set()  # transitions fired on the current branch
        seen = set()  # memo keys of the subtrees explored in this pass
        sets = self._structural_sets(m0, fired)
        # frame: [sets left (reversed), marking, producers, te, branching];
        # the frame at stack depth d was reached after d rounds, so the
        # round fired from it gets tick d
        stack = [[sets[::-1], m0, {}, frozenset(), len(sets) > 1]]
        while stack:
            left, marked, producers, arrived_by, branching = stack[-1]
            if not left:
                stack.pop()
                fired -= arrived_by
                continue
            te = left.pop()
            tick = len(stack) - 1
            consumed = frozenset().union(*[self.pre[t] for t in te])
            new_marked = frozenset(
                (marked - consumed)
                | frozenset().union(*[self.post[t] for t in te]))
            producers2 = {p: prod for p, prod in producers.items()
                          if p not in consumed}
            for t in sorted(te, key=natural_key):
                prod = _Prod(t, tick, tuple((r, producers.get(r))
                                            for r in self.pre_sorted[t]))
                for p in self.post[t]:
                    producers2[p] = prod
            fired |= te
            if branching:
                key = (self._tokens(new_marked, producers2, tick + 1),
                       frozenset(fired.intersection(self._live(new_marked))))
                if key in seen:
                    fired -= te
                    continue
                seen.add(key)
            self.markings.add(new_marked)
            self._mark_and_build(new_marked, te, producers2, tick + 1)
            sets = self._structural_sets(new_marked, fired)
            stack.append([sets[::-1], new_marked, producers2, te,
                          len(sets) > 1])

    def _structural_sets(self, marked: frozenset, fired: set) -> list:
        """Maximal sets of structurally firable fresh transitions: pre-places
        marked, pairwise disjoint pre- and post-places."""
        cands = {t for p in marked for t in self.post_tr[p]
                 if t not in fired and self.pre[t] <= marked}
        cands.update(t for t in self.sourceless if t not in fired)
        sets = _maximal_disjoint_sets(sorted(cands, key=natural_key),
                                      self.footprint)
        return sorted(sets, key=lambda s: tuple(sorted(natural_key(t)
                                                       for t in s)))

    # memo key --------------------------------------------------------------

    def _tokens(self, marked: frozenset, producers: dict, depth: int):
        """Each marked place with its producer's tick relative to `depth`
        and the interned id of its backward cone."""
        toks = []
        for p in marked:
            prod = producers.get(p)
            toks.append((p,) if prod is None
                        else (p, depth - prod.tick, self._cone(prod)))
        return frozenset(toks)

    def _cone(self, prod: _Prod) -> int:
        """Interned id of the cone a backward walk from `prod` covers: its
        transition and, per pre-place off the cut-points, the feeding
        production's tick offset and cone (or the initial token)."""
        stack = [prod]
        while stack:
            top = stack[-1]
            if top.cone is not None:
                stack.pop()
                continue
            missing = [src for r, src in top.feeds
                       if src is not None and src.cone is None
                       and r not in self.cps]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            sig = (top.t,) + tuple(
                (r,) if src is None else (r, top.tick - src.tick, src.cone)
                for r, src in top.feeds if r not in self.cps)
            top.cone = self.cones.setdefault(sig, len(self.cones))
        return prod.cone

    def _live(self, marked: frozenset) -> frozenset:
        """Non-synchronizing transitions whose pre-places all lie in the
        forward closure of `marked`: the only ones that can still become
        enabled below this marking."""
        live = self.live_cache.get(marked)
        if live is None:
            reach = set(marked)
            todo = list(marked)
            while todo:
                for q in self.succ[todo.pop()]:
                    if q not in reach:
                        reach.add(q)
                        todo.append(q)
            live = frozenset(t for t in self.unsync if self.pre[t] <= reach)
            self.live_cache[marked] = live
        return live

    # cut-points and paths --------------------------------------------------

    def _mark_and_build(self, marking, te, producers, depth):
        cycles = self.cycles
        ticks = {producers[p].tick if p in producers else None
                 for p in marking}  # None: an initial token
        if not (marking & self.cps or marking & cycles
                # tokens produced at different ticks coexist
                or len(ticks) > 1
                # firing left a loop
                or any(self.pre[t] & cycles and not self.post[t] <= cycles
                       for t in te)):
            return
        self.cps |= marking
        for p in sorted(marking, key=natural_key):
            if p in producers:
                self._build_backward(producers[p], depth)

    def _build_backward(self, target: _Prod, depth: int):
        """Walk producer cones back to the nearest cut-points. Each
        production is visited once (rounds and pre-places are sets), so
        the walk takes at most one step per firing in the history; the
        bound below only guards that invariant."""
        rounds = {}
        pre = set()
        frontier = [target]
        visited = {target}
        limit = depth * len(self.net.places) + 16
        while frontier:
            prod = frontier.pop()
            rounds.setdefault(prod.tick, set()).add(prod.t)
            for r, src in prod.feeds:
                if r in self.cps or src is None:
                    pre.add(r)
                elif src not in visited:
                    visited.add(src)
                    frontier.append(src)
            if len(visited) > limit:
                raise TrackerLimitExceeded(
                    f"backward walk from {target.t!r} at tick {target.tick} "
                    f"exceeded {limit} steps")
        ordered = sorted(rounds)
        trans_seq = tuple(frozenset(rounds[k]) for k in ordered)
        post = frozenset().union(*[self.post[t] for t in trans_seq[-1]])
        # tick stamps come from the first traversal that discovers the
        # route; later branches (e.g. zero-iteration loop exits) reuse it
        self.records.setdefault((trans_seq, frozenset(pre), post),
                                (ordered[0], ordered[-1]))


def _place_writes(settings: NormSettings, updates, env: dict) -> dict:
    """One place's update sequence, normalized and composed into its final
    writes: the symbolic form of ``petri_net._run_updates``."""
    acc = EMPTY_TRANSFORM
    for var, rhs in updates:
        acc = compose(acc, make_transform({var: normalize(rhs, env,
                                                          settings)}),
                      settings)
    return dict(acc.entries)


def _finish_path(net: PetriNet, env: dict, key, ticks, pid: str,
                 settings: NormSettings) -> Path:
    """Run the path's rounds symbolically as the simulator runs them: each
    round conjoins its guards, and its newly marked places, in
    ``_fire_structure``'s order and with the sequence each one runs,
    commit their writes through ``_commit_blocks``."""
    trans_seq, pre, post = key
    start, last = ticks
    maps = net._maps()
    tm, pm = maps["trans_map"], maps["place_map"]
    guards = []
    transform = EMPTY_TRANSFORM
    for te in trans_seq:
        g = BTRUE
        for t in sorted(te, key=natural_key):
            g = band(g, normalize(tm[t].guard, env, settings), settings)
        guards.append(g)
        _, newly = _fire_structure(maps, frozenset(), te)
        writes = {}
        _commit_blocks([(p, partial(_place_writes, settings,
                                    pm[p].marked_updates(loop)))
                        for p, loop in newly], env, writes)
        transform = compose(transform, make_transform(writes), settings)
    return Path(pid, trans_seq, pre, post, guard_seq(guards), transform,
                start, last, parts=(pid,))


def path_constructor(net: PetriNet, prefix: str = "p",
                     settings: NormSettings = DEFAULT_SETTINGS) -> PathCover:
    """Build the path cover by repeated token-tracking passes until the
    cut-point set stabilizes; paths come from the final pass only. A pass
    that changes the set adds a place to it, so there are at most
    ``len(net.places) + 1`` passes."""
    graph = _PlaceGraph(net)
    cps = set(graph.statics)
    tracker = _Tracker(net, graph)
    before = None
    while cps != before:
        before = set(cps)
        tracker.run(cps)
    env = net.var_env()
    paths = [_finish_path(net, env, key, ticks, f"{prefix}{i}", settings)
             for i, (key, ticks) in enumerate(tracker.records.items(), 1)]
    return PathCover(tuple(paths),
                     CutPoints(graph.statics, frozenset(cps) - graph.statics),
                     frozenset(tracker.markings))


# ---------------------------------------------------------------------------
# path algebra


def concatenate(a: Path, b: Path,
                settings: NormSettings = DEFAULT_SETTINGS) -> Path:
    """Sequential composition a.b: b's pre-places are non-empty and lie
    inside a's post-places, and b starts the tick after a ends. Guard
    entries stay per-round, data transformations compose by
    substitution."""
    if b.start_tick != a.last_tick + 1:
        raise NotComposable(
            f"tick gap between {a.id} (ends {a.last_tick}) and "
            f"{b.id} (starts {b.start_tick})")
    if not b.pre_places or not b.pre_places <= a.post_places:
        raise NotComposable(f"{b.id} does not start where {a.id} ends")
    return Path(
        f"{a.id}.{b.id}",
        a.trans_seq + b.trans_seq,
        a.pre_places,
        b.post_places,
        guard_seq(a.guard_seq + b.guard_seq),
        compose(a.transform, b.transform, settings),
        a.start_tick,
        b.last_tick,
        parts=a.parts + b.parts,
    )


def merge(paths, cover: PathCover,
          settings: NormSettings = DEFAULT_SETTINGS) -> Path:
    """Fuse parallelizable paths: their pre-places are pairwise disjoint
    and were co-marked during tracking. Rounds align by absolute tick,
    guards conjoin, transforms union disjointly."""
    paths = sorted(paths, key=lambda p: natural_key(p.id))
    if not paths:
        raise NotMergeable("nothing to merge")
    if len(paths) == 1:
        return paths[0]
    all_pre = set()
    for p in paths:
        if all_pre & p.pre_places:
            raise NotMergeable("pre-place sets overlap")
        all_pre |= p.pre_places
    if not any(all_pre <= m for m in cover.markings):
        raise NotMergeable("pre-places were never co-marked")

    lo = min(p.start_tick for p in paths)
    hi = max(p.last_tick for p in paths)
    rounds = []
    guards = []
    transform_entries = {}
    writers = {}
    for tick in range(lo, hi + 1):
        te = set()
        g = BTRUE
        for p in paths:
            idx = tick - p.start_tick
            if 0 <= idx < len(p.trans_seq):
                te |= p.trans_seq[idx]
                g = band(g, p.guard_seq[idx], settings)
        rounds.append(frozenset(te))
        guards.append(g)
    for p in paths:
        for k, v in p.transform.entries:
            if k in transform_entries and writers[k] != p.id and \
                    transform_entries[k] != v:
                raise WriteConflict(
                    f"paths {writers[k]!r} and {p.id!r} both write {k!r}")
            transform_entries[k] = v
            writers[k] = p.id

    return Path(
        "(" + " v ".join(p.id for p in paths) + ")",
        tuple(rounds),
        frozenset(all_pre),
        frozenset().union(*[p.post_places for p in paths]),
        guard_seq(guards),
        make_transform(transform_entries),
        lo,
        hi,
        parts=sum((p.parts for p in paths), ()),
    )


# ---------------------------------------------------------------------------
# dump


def path_to_dict(p: Path) -> dict:
    """A path's JSON entry, as ``cover_to_json`` writes it; the report's
    path entries add ``parts`` and ``steps``."""
    return {
        "R": guard_seq_to_str(p.guard_seq),
        "id": p.id,
        "last_tick": p.last_tick,
        "post_places": sorted(p.post_places, key=natural_key),
        "pre_places": sorted(p.pre_places, key=natural_key),
        "r": transform_to_str(p.transform),
        "rounds": [sorted(s, key=natural_key) for s in p.trans_seq],
        "start_tick": p.start_tick,
    }


def cover_to_json(cover: PathCover) -> str:
    return json.dumps([path_to_dict(p) for p in cover.paths], indent=2,
                      sort_keys=True) + "\n"
