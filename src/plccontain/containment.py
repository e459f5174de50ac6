"""The containment checker: candidate selection, path comparison, path
extension, path merging, correspondence bookkeeping, verdicts.

Two paths are equivalent when their source places correspond, their
execution conditions and data transformations agree after uncommon
variables are removed (with eta_v renaming). Agreeing conditions are
equal sequences of non-trivial guard rounds, so the two paths also
consume the same number of effective ticks. The matching loop compares
each unmatched N0 path with its candidates and tries four moves in this
order: *match* an equivalent candidate; *merge* parallel candidates
spawned together when places or transforms differ; *extend* the side
whose conditions are a prefix of the other's through its post-paths;
and, only once a whole pass moved nothing, *resolve* one non-equivalent
pair into the unmatched sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from ._util import PlcError, natural_key
from .path_engine import (NotComposable, NotMergeable, Path, PathCover,
                          concatenate, merge, path_constructor)
from .petri_net import PetriNet, WriteConflict
from .symbolic import (DEFAULT_SETTINGS, NormSettings,
                       drop_uncommon_guard_seq, drop_uncommon_transform,
                       effective_len, guard_seq_equiv, guard_seq_subsumes,
                       transforms_equal)


class ConfigError(PlcError):
    pass


# ---------------------------------------------------------------------------
# correspondences


@dataclass
class Correspondences:
    f_in: dict  # initial place of N0 -> initial place of N1
    f_out: dict  # out-port of N0 -> out-port of N1
    eta_p: set = field(default_factory=set)  # (p0, p1) pairs
    eta_t: set = field(default_factory=set)  # (t0, t1) pairs
    eta_v: list = field(default_factory=list)  # (v0 name, v1 name) pairs
    v0_vars: frozenset = frozenset()
    v1_vars: frozenset = frozenset()

    @property
    def common(self) -> frozenset:
        return self.v0_vars & self.v1_vars

    def place_image(self, places) -> frozenset:
        rel = self.eta_p | set(self.f_in.items())
        out = set()
        for p in places:
            out |= {q for (a, q) in rel if a == p}
        return frozenset(out)

    def paired_v0(self) -> frozenset:
        return frozenset(a for a, _ in self.eta_v)

    def paired_v1(self) -> frozenset:
        return frozenset(b for _, b in self.eta_v)


def default_correspondences(n0: PetriNet, n1: PetriNet) -> tuple:
    """Pair initial places and out-ports in natural order; raises when the
    counts differ (the user must then supply a map)."""
    in0 = sorted(n0.initial_marking, key=natural_key)
    in1 = sorted(n1.initial_marking, key=natural_key)
    out0 = sorted(n0.out_ports(), key=natural_key)
    out1 = sorted(n1.out_ports(), key=natural_key)
    if len(in0) != len(in1):
        raise ConfigError("initial places do not pair up; provide f_in")
    if len(out0) != len(out1):
        raise ConfigError("out-ports do not pair up; provide f_out")
    return dict(zip(in0, in1)), dict(zip(out0, out1))


def validate_bijections(n0: PetriNet, n1: PetriNet, f_in: dict,
                        f_out: dict) -> None:
    if set(f_in) != set(n0.initial_marking) or \
            set(f_in.values()) != set(n1.initial_marking) or \
            len(set(f_in.values())) != len(f_in):
        raise ConfigError("f_in is not a bijection over initial places")
    if set(f_out) != set(n0.out_ports()) or \
            set(f_out.values()) != set(n1.out_ports()) or \
            len(set(f_out.values())) != len(f_out):
        raise ConfigError("f_out is not a bijection over out-ports")


# ---------------------------------------------------------------------------
# path comparison


CLAUSE_CONDITION = "condition mismatch"
CLAUSE_TRANSFORM = "transform mismatch"
CLAUSE_PLACES = "place mismatch"
CLAUSE_NO_CANDIDATE = "no candidate"


@dataclass
class CompareResult:
    ok: bool
    clause: str = ""
    new_pairs: tuple = ()
    r_alpha: object = None
    r_beta: object = None
    seq_alpha: tuple = ()
    seq_beta: tuple = ()
    pre_ok: bool = False  # source places corresponded (failure is post-side)


def _propose_eta_v(alpha: Path, beta: Path, corr: Correspondences,
                   settings: NormSettings) -> tuple:
    """Pair each upgrade-exclusive target of beta, the first time it is
    encountered, with an original-exclusive target of alpha whose transform
    entry lines up under the renaming. A variable that both models declare
    is never renamed."""
    pairs = list(corr.eta_v)
    taken0 = set(corr.paired_v0())
    only0 = corr.v0_vars - corr.v1_vars
    only1 = corr.v1_vars - corr.v0_vars
    for v in sorted(beta.transform.targets() & only1 - corr.paired_v1()):
        for cand in sorted(alpha.transform.targets() & only0 - taken0):
            trial = pairs + [(cand, v)]
            ra = drop_uncommon_transform(alpha.transform, corr.common, trial,
                                         settings)
            rb = drop_uncommon_transform(beta.transform, corr.common, trial,
                                         settings)
            if ra.consistent and rb.consistent and \
                    ra.get(cand) is not None and ra.get(cand) == rb.get(cand):
                pairs.append((cand, v))
                taken0.add(cand)
                break
    return tuple(pairs[len(corr.eta_v):])


def _compare_with(alpha: Path, beta: Path, corr: Correspondences,
                  n0: PetriNet, n1: PetriNet, new_pairs: tuple,
                  settings: NormSettings) -> CompareResult:
    common = corr.common
    eta = list(corr.eta_v) + list(new_pairs)
    # the canonical side of a pair is the N0 name: rename N1 reads/writes;
    # the N0 side only needs its own model-exclusive names dropped
    eta_alpha = [(a, a) for a, _ in eta]

    seq_a = drop_uncommon_guard_seq(alpha.guard_seq, common, eta_alpha,
                                    settings)
    seq_b = drop_uncommon_guard_seq(beta.guard_seq, common, eta, settings)
    r_a = drop_uncommon_transform(alpha.transform, common, eta_alpha,
                                  settings)
    r_b = drop_uncommon_transform(beta.transform, common, eta, settings)

    res = CompareResult(False, new_pairs=new_pairs, r_alpha=r_a, r_beta=r_b,
                        seq_alpha=seq_a, seq_beta=seq_b)
    image = corr.place_image(alpha.pre_places)
    res.pre_ok = bool(image) and beta.pre_places == image
    if not res.pre_ok or \
            {corr.f_out.get(p) for p in alpha.post_places & n0.out_ports()} \
            != set(beta.post_places & n1.out_ports()):
        res.clause = CLAUSE_PLACES
    elif not guard_seq_equiv(seq_a, seq_b):
        res.clause = CLAUSE_CONDITION
    elif not transforms_equal(r_a, r_b):
        res.clause = CLAUSE_TRANSFORM
    else:
        res.ok = True
    return res


def compare_paths(alpha: Path, beta: Path, corr: Correspondences,
                  n0: PetriNet, n1: PetriNet,
                  settings: NormSettings = DEFAULT_SETTINGS) -> CompareResult:
    """Compare under the committed correspondences; fresh eta_v pairs are
    proposed only when dropping alone leaves a transform mismatch (a
    renamed variable), never redundantly."""
    res = _compare_with(alpha, beta, corr, n0, n1, (), settings)
    if res.ok or res.clause != CLAUSE_TRANSFORM:
        return res
    new_pairs = _propose_eta_v(alpha, beta, corr, settings)
    if not new_pairs:
        return res
    repaired = _compare_with(alpha, beta, corr, n0, n1, new_pairs, settings)
    return repaired if repaired.ok else res


def path_equiv(alpha: Path, beta: Path, corr: Correspondences,
               n0: PetriNet, n1: PetriNet,
               settings: NormSettings = DEFAULT_SETTINGS) -> bool:
    """Path equivalence under the current correspondences: sources
    correspond, conditions (and so effective tick counts) and
    transformations agree after uncommon variables are removed."""
    return compare_paths(alpha, beta, corr, n0, n1, settings).ok


def _by_id(path: Path):
    return natural_key(path.id)


def select_candidates(alpha: Path, pool, corr: Correspondences) -> list:
    """Paths whose pre-places fall inside the eta_p/f_in image of alpha's
    pre-places, in path-id order."""
    image = corr.place_image(alpha.pre_places)
    if not image:
        return []
    return sorted((b for b in pool if b.pre_places and
                   b.pre_places <= image), key=_by_id)


# ---------------------------------------------------------------------------
# extension and merging


def prepare_for_extension(gamma: Path, pool, seen: set,
                          settings: NormSettings = DEFAULT_SETTINGS) -> list:
    """Concatenate gamma with each post-path that starts inside its
    post-places at the next tick; returns the fresh extended paths."""
    products = []
    for nxt in sorted(pool, key=_by_id):
        if nxt.id == gamma.id:
            continue
        if not nxt.pre_places or not nxt.pre_places <= gamma.post_places:
            continue
        if nxt.start_tick != gamma.last_tick + 1:
            continue
        try:
            ext = concatenate(gamma, nxt, settings)
        except (NotComposable, WriteConflict):
            continue
        key = (ext.trans_seq, ext.pre_places, ext.post_places)
        if key in seen:
            continue
        seen.add(key)
        products.append(ext)
    return products


# the extensions a failed comparison may ask for, in the order they are
# tried: (side, condition, consumes the grown path); side 0 is alpha,
# side 1 is beta
_EXTENSIONS = ((0, "shorter", True), (1, "shorter", True),
               (0, "empty r", True), (1, "empty r", True),
               (1, "shift", False), (0, "shift", False))


def _extension_moves(alpha: Path, beta: Path, res: CompareResult) -> list:
    """(side, consumes) of each extension the comparison asks for. Only a
    side whose conditions are a prefix of the other's grows. A shorter
    side, or one that transforms nothing, cannot match as is, so its grown
    path is consumed; a transform mismatch, or a place mismatch past
    corresponding sources, may just be a shifted chunk boundary, so that
    extension leaves the grown path in its pool for fault attribution."""
    paths = (alpha, beta)
    seqs = (res.seq_alpha, res.seq_beta)
    prefix = (guard_seq_subsumes(seqs[0], seqs[1]),
              guard_seq_subsumes(seqs[1], seqs[0]))
    shift = res.clause == CLAUSE_TRANSFORM or \
        (res.clause == CLAUSE_PLACES and res.pre_ok)

    def wanted(side, cond):
        other = 1 - side
        if cond == "shorter":
            return effective_len(seqs[side]) < effective_len(seqs[other]) \
                or paths[side].last_tick < paths[other].last_tick
        if cond == "empty r":
            return (res.r_alpha, res.r_beta)[side].is_empty()
        return shift

    return [(side, consumes) for side, cond, consumes in _EXTENSIONS
            if prefix[side] and wanted(side, cond)]


def prepare_for_merging(candidates, cover: PathCover,
                        settings: NormSettings = DEFAULT_SETTINGS):
    """Yield the merges of parallel candidates: subsets by size ascending,
    then in id order, whose pre-places are disjoint and that merge."""
    cands = sorted(candidates, key=_by_id)
    for size in range(2, len(cands) + 1):
        for group in combinations(cands, size):
            pre_sets = [p.pre_places for p in group]
            union = frozenset().union(*pre_sets)
            if sum(len(s) for s in pre_sets) != len(union):
                continue
            try:
                merged = merge(list(group), cover, settings)
            except (NotMergeable, WriteConflict):
                continue
            yield merged


# ---------------------------------------------------------------------------
# checker


VERDICT_EQUIVALENT = "EQUIVALENT"
VERDICT_N0_IN_N1 = "N0_IN_N1"
VERDICT_N1_IN_N0 = "N1_IN_N0"
VERDICT_MAY_NOT = "MAY_NOT_BE_EQUIVALENT"


@dataclass
class EquivLedger:
    pairs: list  # (alpha Path, beta Path) with alpha ~ beta
    unmatched0: tuple  # (original id, failing clause)
    unmatched1: tuple


@dataclass
class Verdict:
    code: str
    ledger: EquivLedger
    correspondences: Correspondences
    bisim_degree: Fraction
    cover0: PathCover
    cover1: PathCover
    net0: PetriNet = None
    net1: PetriNet = None


def bisim_degree(ledger: EquivLedger) -> Fraction:
    matched = len(ledger.pairs)
    total = matched + len(ledger.unmatched0) + len(ledger.unmatched1)
    if total == 0:
        return Fraction(1)
    return Fraction(matched, total)


def _phi_common(net: PetriNet, pid: str, corr: Correspondences,
                rename: dict) -> frozenset:
    """Common-variable write set of a place, with eta_v names canonicalized."""
    writes = net.place_map()[pid].vars
    mapped = frozenset(rename.get(v, v) for v in writes)
    return mapped & (corr.common | corr.paired_v0())


def _bind_posts(alpha: Path, beta: Path, corr: Correspondences,
                n0: PetriNet, n1: PetriNet) -> None:
    """Record the transition and place correspondences of a matched pair. A singleton end pairs with every opposite place
    (one place may correspond to several parallel ones); multi-place ends
    pair by write signature in deterministic order."""
    last_a, last_b = alpha.trans_seq[-1], beta.trans_seq[-1]
    for ta in sorted(last_a, key=natural_key):
        for tb in sorted(last_b, key=natural_key):
            corr.eta_t.add((ta, tb))
    posts_a = sorted(alpha.post_places, key=natural_key)
    posts_b = sorted(beta.post_places, key=natural_key)
    if len(posts_a) == 1 or len(posts_b) == 1:
        for p in posts_a:
            for q in posts_b:
                corr.eta_p.add((p, q))
        return
    ren = {v1: v0 for v0, v1 in corr.eta_v}
    used = set()
    for p in posts_a:
        sig = _phi_common(n0, p, corr, {})
        for q in posts_b:
            if q in used:
                continue
            if _phi_common(n1, q, corr, ren) == sig:
                corr.eta_p.add((p, q))
                used.add(q)
                break


def containment_checker(n0: PetriNet, n1: PetriNet, f_in: dict = None,
                        f_out: dict = None,
                        settings: NormSettings = DEFAULT_SETTINGS,
                        cover0: PathCover = None,
                        cover1: PathCover = None,
                        eta_v_hints=()) -> Verdict:
    """Run the matching loop over both path covers and map the unmatched
    sets to one of the four verdicts.

    The loop ends: every move removes a path from the pools or adds an
    extension whose key was never seen, and an extension only appends
    paths that start one tick after it ends, so the cover's tick stamps
    bound how far it can grow and how many keys there are."""
    if f_in is None or f_out is None:
        auto_in, auto_out = default_correspondences(n0, n1)
        f_in = f_in or auto_in
        f_out = f_out or auto_out
    validate_bijections(n0, n1, f_in, f_out)

    cover0 = cover0 or path_constructor(n0, prefix="a", settings=settings)
    cover1 = cover1 or path_constructor(n1, prefix="b", settings=settings)
    corr = Correspondences(
        dict(f_in), dict(f_out),
        eta_v=list(eta_v_hints),
        v0_vars=frozenset(v.name for v in n0.vars),
        v1_vars=frozenset(v.name for v in n1.vars))

    pi0 = list(cover0.paths)
    pi1 = list(cover1.paths)
    pairs = []
    consumed0, consumed1 = set(), set()
    failures0, failures1 = {}, {}
    seen_ext = set()

    def compare_all(alpha):
        return [(beta, compare_paths(alpha, beta, corr, n0, n1, settings))
                for beta in select_candidates(alpha, pi1, corr)]

    def commit(alpha, beta, res, covered):
        corr.eta_v.extend(res.new_pairs)
        _bind_posts(alpha, beta, corr, n0, n1)
        pairs.append((alpha, beta))
        consumed0.update(alpha.parts)
        consumed1.update(beta.parts)
        pi0.remove(alpha)
        for b in covered:
            pi1.remove(b)

    def match(alpha, results) -> bool:
        for beta, res in results:
            if res.ok:
                commit(alpha, beta, res, [beta])
                return True
        return False

    def merge(alpha, results) -> bool:
        if not any(r.clause in (CLAUSE_PLACES, CLAUSE_TRANSFORM)
                   for _, r in results):
            return False
        for merged in prepare_for_merging([b for b, _ in results], cover1,
                                          settings):
            res = compare_paths(alpha, merged, corr, n0, n1, settings)
            if res.ok:
                parts = set(merged.parts)
                commit(alpha, merged, res,
                       [b for b in pi1 if set(b.parts) <= parts])
                return True
        return False

    def extend(alpha, results) -> bool:
        for beta, res in results:
            for side, consumes in _extension_moves(alpha, beta, res):
                gamma, pool = ((alpha, pi0), (beta, pi1))[side]
                products = prepare_for_extension(gamma, pool, seen_ext,
                                                 settings)
                if products:
                    if consumes:
                        pool.remove(gamma)
                    pool.extend(products)
                    return True
        return False

    def resolve(alpha, results) -> None:
        # the pair keeps its structural place correspondence, so that
        # downstream paths remain comparable (fault locality)
        beta, res = next(
            ((b, r) for b, r in results
             if r.clause in (CLAUSE_CONDITION, CLAUSE_TRANSFORM)),
            results[0])
        for oid in alpha.parts:
            failures0.setdefault(oid, res.clause)
        pi0.remove(alpha)
        if res.clause != CLAUSE_PLACES:
            for oid in beta.parts:
                failures1.setdefault(oid, res.clause)
            _bind_posts(alpha, beta, corr, n0, n1)
            pi1.remove(beta)

    while True:
        progress = False
        stuck = None  # the first alpha with candidates, and their results
        for alpha in sorted(pi0, key=_by_id):
            results = compare_all(alpha)
            if match(alpha, results) or merge(alpha, results) or \
                    extend(alpha, results):
                progress = True
            elif results and stuck is None:
                stuck = (alpha, results)
        if progress:
            continue
        if stuck is None:
            break
        # a pass that moved nothing changed no state, so its results stand
        resolve(*stuck)

    unmatched0 = tuple(
        (p.id, failures0.get(p.id, CLAUSE_NO_CANDIDATE))
        for p in cover0.paths if p.id not in consumed0)
    unmatched1 = tuple(
        (p.id, failures1.get(p.id, CLAUSE_NO_CANDIDATE))
        for p in cover1.paths if p.id not in consumed1)
    ledger = EquivLedger(pairs, unmatched0, unmatched1)

    if not unmatched0 and not unmatched1:
        code = VERDICT_EQUIVALENT
    elif not unmatched0:
        code = VERDICT_N0_IN_N1
    elif not unmatched1:
        code = VERDICT_N1_IN_N0
    else:
        code = VERDICT_MAY_NOT
    return Verdict(code, ledger, corr, bisim_degree(ledger), cover0,
                   cover1, n0, n1)
