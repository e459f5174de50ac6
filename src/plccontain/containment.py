"""The containment checker: candidate selection, path comparison, path
extension, path merging, correspondence bookkeeping, verdicts.

Two paths are equivalent when their source places correspond, their
execution conditions and data transformations agree after uncommon
variables are removed (with eta_v renaming), and they consume the same
number of effective ticks. Comparison failures drive the repair moves:
prefix-shaped condition mismatches extend the shorter path through its
post-paths; place-coverage or transform mismatches against parallel
siblings merge candidate paths that were spawned together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from ._util import natural_key
from .path_engine import (NotComposable, NotMergeable, Path, PathCover,
                          concatenate, merge, path_constructor)
from .petri_net import PetriNet, WriteConflict
from .symbolic import (DEFAULT_SETTINGS, NormSettings,
                       drop_uncommon_guard_seq, drop_uncommon_transform,
                       effective_len, guard_seq_equiv, guard_seq_subsumes,
                       transforms_equal)


class ConfigError(Exception):
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


def identity_correspondences(net: PetriNet) -> tuple:
    f_in = {p: p for p in net.initial_marking}
    f_out = {p: p for p in net.out_ports()}
    return f_in, f_out


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
CLAUSE_TICK = "tick mismatch"
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
    """Pair model-exclusive variables whose transform entries line up, the
    first time they are encountered."""
    pairs = list(corr.eta_v)
    taken0 = set(corr.paired_v0())
    taken1 = set(corr.paired_v1())
    common = corr.common

    def try_side(side_beta: bool):
        if side_beta:
            fresh = [v for v in sorted(beta.transform.targets())
                     if v in corr.v1_vars - corr.v0_vars
                     and v not in taken1]
            host = alpha.transform
        else:
            fresh = [v for v in sorted(alpha.transform.targets())
                     if v in corr.v0_vars - corr.v1_vars
                     and v not in taken0]
            host = beta.transform
        for v in fresh:
            for cand in sorted(host.targets()):
                if side_beta and (cand not in corr.v0_vars
                                  or cand in taken0):
                    continue
                if not side_beta and (cand not in corr.v1_vars
                                      or cand in taken1):
                    continue
                pair = (cand, v) if side_beta else (v, cand)
                trial = pairs + [pair]
                ra = drop_uncommon_transform(alpha.transform, common, trial,
                                             settings)
                rb = drop_uncommon_transform(beta.transform, common, trial,
                                             settings)
                key = pair[0]
                if ra.consistent and rb.consistent and \
                        ra.get(key) is not None and \
                        ra.get(key) == rb.get(key):
                    pairs.append(pair)
                    taken0.add(pair[0])
                    taken1.add(pair[1])
                    break

    try_side(True)
    try_side(False)
    return tuple(p for p in pairs if p not in corr.eta_v)


def _compare_with(alpha: Path, beta: Path, corr: Correspondences,
                  n0: PetriNet, n1: PetriNet, new_pairs: tuple,
                  settings: NormSettings) -> CompareResult:
    common = corr.common
    eta = list(corr.eta_v) + list(new_pairs)
    # the canonical side of a pair is the N0 name: rename N1 reads/writes;
    # the N0 side only needs its own model-exclusive names dropped
    eta_beta = eta
    eta_alpha = [(a, a) for a, _ in eta]

    seq_a = drop_uncommon_guard_seq(alpha.guard_seq, common, eta_alpha,
                                    settings)
    seq_b = drop_uncommon_guard_seq(beta.guard_seq, common, eta_beta,
                                    settings)
    r_a = drop_uncommon_transform(alpha.transform, common, eta_alpha,
                                  settings)
    r_b = drop_uncommon_transform(beta.transform, common, eta_beta, settings)

    res = CompareResult(False, new_pairs=new_pairs, r_alpha=r_a, r_beta=r_b,
                        seq_alpha=seq_a, seq_beta=seq_b)

    image = corr.place_image(alpha.pre_places)
    if not image or beta.pre_places != image:
        res.clause = CLAUSE_PLACES
        return res
    res.pre_ok = True
    outs0 = alpha.post_places & n0.out_ports()
    outs1 = beta.post_places & n1.out_ports()
    if {corr.f_out.get(p) for p in outs0} != set(outs1):
        res.clause = CLAUSE_PLACES
        return res
    if not guard_seq_equiv(seq_a, seq_b):
        res.clause = CLAUSE_CONDITION
        return res
    if not transforms_equal(r_a, r_b):
        res.clause = CLAUSE_TRANSFORM
        return res
    if effective_len(seq_a) != effective_len(seq_b):
        res.clause = CLAUSE_TICK
        return res
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
    correspond, conditions and transformations agree after uncommon
    variables are removed, effective tick counts match."""
    return compare_paths(alpha, beta, corr, n0, n1, settings).ok


def select_candidates(alpha: Path, pool, corr: Correspondences) -> list:
    """Paths whose pre-places fall inside the eta_p/f_in image of alpha's
    pre-places, in path-id order."""
    image = corr.place_image(alpha.pre_places)
    if not image:
        return []
    return sorted((b for b in pool if b.pre_places and
                   b.pre_places <= image),
                  key=lambda p: natural_key(p.id))


# ---------------------------------------------------------------------------
# extension and merging


def prepare_for_extension(gamma: Path, pool, seen: set,
                          settings: NormSettings = DEFAULT_SETTINGS) -> list:
    """Concatenate gamma with each post-path that starts inside its
    post-places at the next tick; returns the fresh extended paths."""
    products = []
    for nxt in sorted(pool, key=lambda p: natural_key(p.id)):
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


def prepare_for_merging(candidates, cover: PathCover,
                        settings: NormSettings = DEFAULT_SETTINGS,
                        accept=None):
    """Search subsets (size ascending, id order) of parallel candidates for
    a merge the caller accepts; None when no merge point exists."""
    cands = sorted(candidates, key=lambda p: natural_key(p.id))
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
            if accept is None or accept(merged):
                return merged
    return None


# ---------------------------------------------------------------------------
# checker


VERDICT_EQUIVALENT = "EQUIVALENT"
VERDICT_N0_IN_N1 = "N0_IN_N1"
VERDICT_N1_IN_N0 = "N1_IN_N0"
VERDICT_MAY_NOT = "MAY_NOT_BE_EQUIVALENT"


@dataclass
class EquivLedger:
    pairs: list  # (alpha Path, beta Path) with alpha ~ beta
    matched0: tuple  # original N0 path ids consumed by matches
    matched1: tuple
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

    @property
    def contained_forward(self) -> bool:
        return self.code in (VERDICT_EQUIVALENT, VERDICT_N0_IN_N1)


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
                n0: PetriNet, n1: PetriNet,
                settings: NormSettings) -> None:
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
    sets to one of the four verdicts."""
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

    def commit(alpha, beta, res):
        corr.eta_v.extend(res.new_pairs)
        _bind_posts(alpha, beta, corr, n0, n1, settings)
        pairs.append((alpha, beta))
        consumed0.update(alpha.parts)
        consumed1.update(beta.parts)

    max_passes = (len(pi0) + len(pi1) + 4) ** 2
    for _ in range(max_passes):
        progress = False
        for alpha in sorted(pi0, key=lambda p: natural_key(p.id)):
            candidates = select_candidates(alpha, pi1, corr)
            if not candidates:
                continue
            results = [(beta, compare_paths(alpha, beta, corr, n0, n1,
                                            settings))
                       for beta in candidates]
            matched = next(((b, r) for b, r in results if r.ok), None)
            if matched:
                beta, res = matched
                commit(alpha, beta, res)
                pi0.remove(alpha)
                pi1.remove(beta)
                progress = True
                continue

            # merge parallel siblings when conditions line up but places
            # or transforms do not
            if any(r.clause in (CLAUSE_PLACES, CLAUSE_TRANSFORM, CLAUSE_TICK)
                   for _, r in results):
                holder = {}

                def accept(candidate_merge):
                    res = compare_paths(alpha, candidate_merge, corr, n0, n1,
                                        settings)
                    if res.ok:
                        holder["res"] = res
                    return res.ok

                merged = prepare_for_merging(candidates, cover1, settings,
                                             accept)
                if merged is not None:
                    commit(alpha, merged, holder["res"])
                    pi0.remove(alpha)
                    for b in list(pi1):
                        if set(b.parts) <= set(merged.parts):
                            pi1.remove(b)
                    progress = True
                    continue

            # extension: grow the prefix-shaped side toward the out-ports.
            # Strict prefixes consume the grown path (it cannot match as
            # is); equal-length transform mismatches may just be a shifted
            # chunk boundary, so those extensions are speculative and the
            # original stays in the pool for fault attribution.
            acted = False
            for beta, res in results:
                sa, sb = res.seq_alpha, res.seq_beta
                prefix_ab = guard_seq_subsumes(sa, sb)
                prefix_ba = guard_seq_subsumes(sb, sa)
                moves = []
                if prefix_ab and (effective_len(sa) < effective_len(sb)
                                  or alpha.last_tick < beta.last_tick):
                    moves.append(("alpha", True))
                if prefix_ba and (effective_len(sb) < effective_len(sa)
                                  or beta.last_tick < alpha.last_tick):
                    moves.append(("beta", True))
                if prefix_ab and res.r_alpha.is_empty():
                    moves.append(("alpha", True))
                if prefix_ba and res.r_beta.is_empty():
                    moves.append(("beta", True))
                boundary_shift = res.clause == CLAUSE_TRANSFORM or \
                    (res.clause == CLAUSE_PLACES and res.pre_ok)
                if boundary_shift:
                    if prefix_ba:
                        moves.append(("beta", False))
                    if prefix_ab:
                        moves.append(("alpha", False))
                for side, destructive in moves:
                    if side == "alpha":
                        products = prepare_for_extension(alpha, pi0,
                                                         seen_ext, settings)
                        if products:
                            if destructive:
                                pi0.remove(alpha)
                            pi0.extend(products)
                            acted = True
                    else:
                        products = prepare_for_extension(beta, pi1,
                                                         seen_ext, settings)
                        if products:
                            if destructive:
                                pi1.remove(beta)
                            pi1.extend(products)
                            acted = True
                    if acted:
                        progress = True
                        break
                if acted:
                    break
            if acted:
                continue
        if not progress:
            # resolution sweep: route one non-equivalent pair to the
            # unmatched sets, keeping its structural place correspondence
            # so that downstream paths remain comparable (fault locality)
            for alpha in sorted(pi0, key=lambda p: natural_key(p.id)):
                candidates = select_candidates(alpha, pi1, corr)
                if not candidates:
                    continue
                results = [(b, compare_paths(alpha, b, corr, n0, n1,
                                             settings))
                           for b in candidates]
                beta, res = next(
                    ((b, r) for b, r in results
                     if r.clause in (CLAUSE_CONDITION, CLAUSE_TRANSFORM,
                                     CLAUSE_TICK)),
                    results[0])
                for oid in alpha.parts:
                    failures0.setdefault(oid, res.clause)
                pi0.remove(alpha)
                if res.clause != CLAUSE_PLACES:
                    for oid in beta.parts:
                        failures1.setdefault(oid, res.clause)
                    _bind_posts(alpha, beta, corr, n0, n1, settings)
                    pi1.remove(beta)
                progress = True
                break
        if not progress:
            break

    unmatched0 = tuple(
        (p.id, failures0.get(p.id, CLAUSE_NO_CANDIDATE))
        for p in cover0.paths if p.id not in consumed0)
    unmatched1 = tuple(
        (p.id, failures1.get(p.id, CLAUSE_NO_CANDIDATE))
        for p in cover1.paths if p.id not in consumed1)
    ledger = EquivLedger(
        pairs,
        tuple(sorted(consumed0, key=natural_key)),
        tuple(sorted(consumed1, key=natural_key)),
        unmatched0, unmatched1)

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
