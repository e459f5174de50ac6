"""Cut-point discovery, path construction, and the path algebra.

Paths run from cut-points to cut-points without intermediary ones. Static
cut-points are the initially marked places, places with several
post-transitions, back-edge targets, and out-ports. Execution cut-points
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

from ._util import natural_key
from .petri_net import PetriNet, WriteConflict
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

    @property
    def all(self) -> frozenset:
        return self.static_pts | self.execution_pts


def _successor_places(net: PetriNet, pid: str):
    """(transition, place) successors of a place, deterministically ordered."""
    out = []
    for t in sorted(net.post_transitions(pid), key=natural_key):
        for q in sorted(net.post_places(t), key=natural_key):
            out.append((t, q))
    return out


def static_cut_points(net: PetriNet) -> frozenset:
    """Initial places, multi-post places, back-edge targets, out-ports."""
    pts = set(net.initial_marking)
    for p in net.places:
        if len(net.post_transitions(p.id)) > 1:
            pts.add(p.id)
    pts |= _back_edge_targets(net)
    pts |= net.out_ports()
    return frozenset(pts)


def _back_edge_targets(net: PetriNet) -> frozenset:
    """DFS over the place graph with a fixed ordering; targets of edges
    into the active stack are loop-entry places."""
    targets = set()
    color = {}  # 0 unvisited (absent), 1 on stack, 2 done
    roots = sorted(net.initial_marking, key=natural_key)
    roots += [p.id for p in sorted(net.places, key=lambda p: natural_key(p.id))
              if p.id not in net.initial_marking]

    for r in roots:
        if r in color:
            continue
        color[r] = 1
        stack = [(r, iter(_successor_places(net, r)))]
        while stack:
            pid, succ = stack[-1]
            for _t, q in succ:
                c = color.get(q, 0)
                if c == 1:
                    targets.add(q)
                elif c == 0:
                    color[q] = 1
                    stack.append((q, iter(_successor_places(net, q))))
                    break
            else:
                color[pid] = 2
                stack.pop()
    return frozenset(targets)


def cycle_places(net: PetriNet) -> frozenset:
    """Places on a directed cycle, ignoring synchronizing transitions: the
    members of non-trivial strongly connected components (Tarjan) and
    places with a self-loop."""
    sync = net.synchronizing_ids()
    succ = {}
    for p in net.places:
        nxt = set()
        for t in net.post_transitions(p.id):
            if t not in sync:
                nxt |= net.post_places(t)
        succ[p.id] = nxt
    index, low = {}, {}
    stack, on_stack = [], set()
    on_cycle = set()
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    if len(comp) > 1 or v in succ[v]:
                        on_cycle.update(comp)
    return frozenset(on_cycle)


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

    def rounds(self) -> int:
        return len(self.trans_seq)

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
    source: str = ""

    def by_id(self) -> dict:
        return {p.id: p for p in self.paths}


# ---------------------------------------------------------------------------
# structural token tracking


class TrackerLimitExceeded(Exception):
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
    def __init__(self, net: PetriNet):
        self.net = net
        self.cycles = cycle_places(net)
        maps = net._maps()
        sync = maps["sync"]
        self.pre, self.post = maps["pre_p"], maps["post_p"]
        self.pre_sorted = {t: tuple(sorted(ps, key=natural_key))
                           for t, ps in self.pre.items()}
        self.post_tr = {p: tuple(t for t in ts if t not in sync)
                        for p, ts in maps["post_t"].items()}
        self.unsync = tuple(t.id for t in net.transitions
                            if t.id not in sync)
        self.sourceless = tuple(t for t in self.unsync if not self.pre[t])
        self.live_cache = {}  # marking -> transitions it can still enable

    def run(self, cps: set):
        """One tracking pass; grows `cps` in place."""
        self.cps = cps
        self.records = {}  # key -> discovery index
        self.record_list = []
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
        return self.record_list

    def _structural_sets(self, marked: frozenset, fired: set) -> list:
        """Maximal sets of structurally firable fresh transitions: pre-places
        marked, pairwise disjoint pre- and post-places."""
        pre_all, post_all = self.pre, self.post
        cands = {t for p in marked for t in self.post_tr[p]
                 if t not in fired and pre_all[t] <= marked}
        cands.update(t for t in self.sourceless if t not in fired)
        if not cands:
            return []
        cands = sorted(cands, key=natural_key)
        pre = {t: pre_all[t] for t in cands}
        post = {t: post_all[t] for t in cands}
        sets = set()

        def rec(chosen, used_pre, used_post, rest):
            extended = False
            for i, t in enumerate(rest):
                if not (pre[t] & used_pre) and not (post[t] & used_post):
                    extended = True
                    rec(chosen + [t], used_pre | pre[t], used_post | post[t],
                        rest[i + 1:])
            if not extended and chosen:
                cand = frozenset(chosen)
                if all((pre[t] & used_pre) or (post[t] & used_post)
                       for t in cands if t not in cand):
                    sets.add(cand)

        rec([], frozenset(), frozenset(), cands)
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
                for t in self.post_tr[todo.pop()]:
                    for q in self.post[t]:
                        if q not in reach:
                            reach.add(q)
                            todo.append(q)
            live = frozenset(t for t in self.unsync if self.pre[t] <= reach)
            self.live_cache[marked] = live
        return live

    # cut-points and paths --------------------------------------------------

    def _mark_and_build(self, marking, te, producers, depth):
        hit = bool(marking & self.cps)
        hit = hit or bool(marking & self.cycles)
        ticks = {producers[p].tick for p in marking if p in producers}
        if len(ticks) > 1 or (ticks and any(p not in producers
                                            for p in marking)):
            hit = True  # tokens produced at different ticks coexist
        for t in te:
            if self.pre[t] & self.cycles and \
                    not self.post[t] <= self.cycles:
                hit = True  # firing left a loop
        if not hit:
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
        key = (trans_seq, frozenset(pre), post)
        if key not in self.records:
            self.records[key] = (len(self.record_list), ordered[0],
                                 ordered[-1])
            self.record_list.append(key + (ordered[0], ordered[-1]))


def _round_guard(net: PetriNet, env: dict, te: frozenset,
                 settings: NormSettings):
    g = BTRUE
    tm = net.transition_map()
    for t in sorted(te, key=natural_key):
        g = band(g, normalize(tm[t].guard, env, settings), settings)
    return g


def _round_transform(net: PetriNet, env: dict, te: frozenset,
                     settings: NormSettings) -> StateTransform:
    pm = net.place_map()
    merged = {}
    writers = {}
    for t in sorted(te, key=natural_key):
        for p in sorted(net.post_places(t), key=natural_key):
            place = pm[p]
            ups = place.on_self_loop if net.self_loop_of(p) == t \
                else place.on_mark
            acc = EMPTY_TRANSFORM
            for var, rhs in ups:
                acc = compose(acc,
                              make_transform({var: normalize(rhs, env,
                                                             settings)}),
                              settings)
            for k, v in acc.entries:
                if k in merged and writers[k] != p:
                    raise WriteConflict(
                        f"places {writers[k]!r} and {p!r} both write {k!r}")
                merged[k] = v
                writers[k] = p
    return make_transform(merged)


def _finish_path(net: PetriNet, env: dict, key, pid: str,
                 settings: NormSettings) -> Path:
    trans_seq, pre, post, start, last = key
    guards = []
    transform = EMPTY_TRANSFORM
    for te in trans_seq:
        guards.append(_round_guard(net, env, te, settings))
        transform = compose(transform,
                            _round_transform(net, env, te, settings),
                            settings)
    return Path(pid, trans_seq, pre, post, guard_seq(guards), transform,
                start, last, parts=(pid,))


def path_constructor(net: PetriNet, prefix: str = "p",
                     settings: NormSettings = DEFAULT_SETTINGS) -> PathCover:
    """Build the path cover by repeated token-tracking passes until the
    cut-point set stabilizes; paths come from the final pass only."""
    statics = static_cut_points(net)
    cps = set(statics)
    tracker = _Tracker(net)
    for _ in range(len(net.places) + 2):
        before = set(cps)
        tracker.run(cps)
        if cps == before:
            break
    env = net.var_env()
    paths = []
    for i, key in enumerate(tracker.record_list):
        paths.append(_finish_path(net, env, key, f"{prefix}{i + 1}",
                                  settings))
    return PathCover(tuple(paths),
                     CutPoints(statics, frozenset(cps) - statics),
                     frozenset(tracker.markings), source=prefix)


# ---------------------------------------------------------------------------
# path algebra


def concatenate(a: Path, b: Path,
                settings: NormSettings = DEFAULT_SETTINGS) -> Path:
    """Sequential composition a.b; guard entries stay per-round, data
    transformations compose by substitution."""
    if not (b.pre_places & a.post_places):
        raise NotComposable(f"{b.id} does not start where {a.id} ends")
    if b.start_tick != a.last_tick + 1:
        raise NotComposable(
            f"tick gap between {a.id} (ends {a.last_tick}) and "
            f"{b.id} (starts {b.start_tick})")
    return Path(
        f"{a.id}.{b.id}",
        a.trans_seq + b.trans_seq,
        a.pre_places | (b.pre_places - a.post_places),
        b.post_places,
        guard_seq(a.guard_seq + b.guard_seq),
        compose(a.transform, b.transform, settings),
        a.start_tick,
        b.last_tick,
        parts=a.parts + b.parts,
    )


def merge(paths, cover: PathCover,
          settings: NormSettings = DEFAULT_SETTINGS) -> Path:
    """Fuse parallelizable paths sharing a common feeding transition (or
    whose sources were co-marked during tracking); rounds align by absolute
    tick, guards conjoin, transforms union disjointly."""
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
    if not _parallelizable(paths, cover):
        raise NotMergeable("no common feeding transition or co-marking")

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


def _parallelizable(paths, cover: PathCover) -> bool:
    net_markings = cover.markings
    union_pre = frozenset().union(*[p.pre_places for p in paths])
    if any(union_pre <= m for m in net_markings):
        return True
    return False


# ---------------------------------------------------------------------------
# dump


def cover_to_json(cover: PathCover) -> str:
    doc = []
    for p in cover.paths:
        doc.append({
            "R": guard_seq_to_str(p.guard_seq),
            "id": p.id,
            "last_tick": p.last_tick,
            "pre_places": sorted(p.pre_places, key=natural_key),
            "post_places": sorted(p.post_places, key=natural_key),
            "r": transform_to_str(p.transform),
            "rounds": [sorted(s, key=natural_key) for s in p.trans_seq],
            "start_tick": p.start_tick,
        })
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
