"""Synthetic benchmark generator.

Produces (original, upgrade) SFC pairs in four complexity classes:

* basic   — ~20 statements, one loop, two branches
* simple  — ~40 statements, a one-level nested loop, three branches
* medium  — ~60 statements, a two-level nested loop plus three
            data-independent loops
* complex — ~90 statements, several independent loops and two-level
            branch nesting

Programs are built from a shape (a list of segment descriptors) that both
versions share; the upgrade rewrites the shape with semantics-preserving
transformations: uncommon-variable addition, loop parallelization via
simultaneous divergence, code motion across independent statements, and
step splitting. Every emitted pair is certified equivalent by the
exhaustive simulation oracle; seeds are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ._util import PlcError, natural_key
from .oracle import DEFAULT_WINDOW, confirm_equivalent
from .petri_net import translate
from .sfc_core import (ActionBlock, Binary, BoolLit, Expr, IntLit,
                       SfcProgram, SfcTransition, Step, TRUE, Unary, VarDecl,
                       VarRef, validate_sfc)

CLASSES = ("basic", "simple", "medium", "complex")
GEN_RETRIES = 8  # shapes drawn per seed before generation gives up


class GenerationRetryExceeded(PlcError):
    pass


# ---------------------------------------------------------------------------
# shape model


@dataclass
class Straight:
    assigns: list  # list of (var, Expr)
    split: bool = False  # upgrade may split this step in two


@dataclass
class BranchSeg:
    guard: Expr
    pre: list  # assignments on the bifurcation step
    arm_a: list
    arm_b: list
    nested_guard: Expr = None  # when set, arm A branches again
    arm_a2: list = field(default_factory=list)


@dataclass
class LoopSeg:
    counter: str
    bound: int
    group_a: list  # independent statement group, may be parallelized
    group_b: list
    parallel: str = ""  # upgrade: fresh counter name for the split thread


@dataclass
class NestedLoopSeg:
    outer_counter: str
    outer_bound: int
    inner_counter: str
    inner_bound: int
    inner_body: list
    outer_tail: list


@dataclass
class RefineSeg:
    """Upgrade-only: a branch on a fresh input that rejoins immediately;
    the detour arm latches an uncommon flag. Behavior on common variables
    is unchanged, but the chain gains a cut-point, exercising path
    extension in the checker."""

    guard_var: str
    flag_var: str


@dataclass
class Shape:
    vars: list  # VarDecl list
    segments: list
    aux_writes: list = field(default_factory=list)  # (var, Expr) upgrades


# ---------------------------------------------------------------------------
# rendering a shape into an SfcProgram


class _Builder:
    def __init__(self):
        self.steps = []
        self.transitions = []
        self._tr = 0

    def step(self, assigns=()) -> str:
        sid = f"s{len(self.steps)}"
        blocks = ()
        if assigns:
            blocks = (ActionBlock(f"A{len(self.steps)}", "entry",
                                  tuple(assigns)),)
        self.steps.append(Step(sid, blocks))
        return sid

    def trans(self, sources, targets, guard=TRUE) -> str:
        self._tr += 1
        tid = f"Tr{self._tr}"
        if isinstance(sources, str):
            sources = [sources]
        if isinstance(targets, str):
            targets = [targets]
        self.transitions.append(SfcTransition(tid, frozenset(sources),
                                              frozenset(targets), guard))
        return tid


def render(shape: Shape) -> SfcProgram:
    b = _Builder()
    start = b.step()  # idle step, waits for the start input
    prev = b.step([("cycle", BoolLit(True))])
    b.trans(start, prev, VarRef("start"))

    for seg in shape.segments:
        if isinstance(seg, Straight):
            nxt = b.step(seg.assigns)
            b.trans(prev, nxt)
            prev = nxt
        elif isinstance(seg, BranchSeg):
            fork = b.step(seg.pre)
            b.trans(prev, fork)
            join = b.step()
            if seg.nested_guard is None:
                arm_a = b.step(seg.arm_a)
                b.trans(fork, arm_a, seg.guard)
                b.trans(arm_a, join)
            else:
                sub = b.step()
                b.trans(fork, sub, seg.guard)
                arm_a = b.step(seg.arm_a)
                arm_a2 = b.step(seg.arm_a2)
                b.trans(sub, arm_a, seg.nested_guard)
                b.trans(sub, arm_a2, Unary("!", seg.nested_guard))
                b.trans(arm_a, join)
                b.trans(arm_a2, join)
            arm_b = b.step(seg.arm_b)
            b.trans(fork, arm_b, Unary("!", seg.guard))
            b.trans(arm_b, join)
            prev = join
        elif isinstance(seg, LoopSeg):
            c = seg.counter
            enter = Binary("<", VarRef(c), IntLit(seg.bound))
            if not seg.parallel:
                init = b.step([(c, IntLit(0))])
                b.trans(prev, init)
                head = b.step()
                b.trans(init, head)
                body = b.step(list(seg.group_a) + list(seg.group_b)
                              + [(c, Binary("+", VarRef(c), IntLit(1)))])
                b.trans(head, body, enter)
                b.trans(body, head)
                after = b.step()
                b.trans(head, after, Unary("!", enter))
                prev = after
            else:
                c2 = seg.parallel
                enter2 = Binary("<", VarRef(c2), IntLit(seg.bound))
                init = b.step([(c, IntLit(0)), (c2, IntLit(0))])
                b.trans(prev, init)
                head_a = b.step()
                head_b = b.step()
                b.trans(init, [head_a, head_b])
                body_a = b.step(list(seg.group_a)
                                + [(c, Binary("+", VarRef(c), IntLit(1)))])
                body_b = b.step(list(seg.group_b)
                                + [(c2, Binary("+", VarRef(c2), IntLit(1)))])
                b.trans(head_a, body_a, enter)
                b.trans(body_a, head_a)
                b.trans(head_b, body_b, enter2)
                b.trans(body_b, head_b)
                after = b.step()
                b.trans([head_a, head_b], after,
                        Binary("&&", Unary("!", enter), Unary("!", enter2)))
                prev = after
        elif isinstance(seg, RefineSeg):
            gate = b.step()
            b.trans(prev, gate)
            join = b.step()
            b.trans(gate, join, VarRef(seg.guard_var))
            detour = b.step([(seg.flag_var, BoolLit(True))])
            b.trans(gate, detour, Unary("!", VarRef(seg.guard_var)))
            b.trans(detour, join)
            prev = join
        elif isinstance(seg, NestedLoopSeg):
            co, ci = seg.outer_counter, seg.inner_counter
            outer_enter = Binary("<", VarRef(co), IntLit(seg.outer_bound))
            inner_enter = Binary("<", VarRef(ci), IntLit(seg.inner_bound))
            init = b.step([(co, IntLit(0))])
            b.trans(prev, init)
            outer_head = b.step()
            b.trans(init, outer_head)
            inner_init = b.step([(ci, IntLit(0))])
            b.trans(outer_head, inner_init, outer_enter)
            inner_head = b.step()
            b.trans(inner_init, inner_head)
            inner_body = b.step(list(seg.inner_body)
                                + [(ci, Binary("+", VarRef(ci), IntLit(1)))])
            b.trans(inner_head, inner_body, inner_enter)
            b.trans(inner_body, inner_head)
            tail = b.step(list(seg.outer_tail)
                          + [(co, Binary("+", VarRef(co), IntLit(1)))])
            b.trans(inner_head, tail, Unary("!", inner_enter))
            b.trans(tail, outer_head)
            after = b.step()
            b.trans(outer_head, after, Unary("!", outer_enter))
            prev = after
        else:
            raise TypeError(f"unknown segment {seg!r}")

    if shape.aux_writes:
        aux = b.step(list(shape.aux_writes))
        b.trans(prev, aux)
        prev = aux
    end = b.step()
    b.trans(prev, end)
    b.trans(end, "s0")  # synchronizing transition back to the idle step
    return SfcProgram(tuple(shape.vars), tuple(b.steps),
                      tuple(b.transitions), frozenset(["s0"]))


# ---------------------------------------------------------------------------
# random statement material


class _Pool:
    def __init__(self, rng: random.Random, n_ints: int, n_bools: int,
                 n_int_inputs: int, n_bool_inputs: int):
        self.rng = rng
        self.ints = [f"x{i}" for i in range(n_ints)]
        self.bools = [f"f{i}" for i in range(n_bools)]
        self.int_inputs = [f"i{i}" for i in range(n_int_inputs)]
        self.bool_inputs = [f"g{i}" for i in range(n_bool_inputs)]
        self.counters = []

    def decls(self) -> list:
        out = [VarDecl("start", "bool", BoolLit(True)),
               VarDecl("cycle", "bool", BoolLit(False))]
        for n in self.ints:
            out.append(VarDecl(n, "int", IntLit(self.rng.randint(0, 2))))
        for n in self.bools:
            out.append(VarDecl(n, "bool", BoolLit(False)))
        for n in self.int_inputs:
            out.append(VarDecl(n, "int", IntLit(0)))
        for n in self.bool_inputs:
            out.append(VarDecl(n, "bool", BoolLit(False)))
        for n in self.counters:
            out.append(VarDecl(n, "int", IntLit(0)))
        return out

    def counter(self) -> str:
        name = f"c{len(self.counters)}"
        self.counters.append(name)
        return name

    def int_expr(self, target: str, readable=None) -> Expr:
        rng = self.rng
        readable = list(readable) if readable is not None else self.ints
        kind = rng.randrange(6)
        if kind == 0:
            return Binary("+", VarRef(target), IntLit(rng.randint(1, 3)))
        if kind == 1:
            return Binary("*", VarRef(target), IntLit(rng.randint(2, 3)))
        if kind == 2:
            other = rng.choice(readable + self.int_inputs)
            return Binary("+", VarRef(target), VarRef(other))
        if kind == 3:
            return Binary("-", VarRef(target), IntLit(rng.randint(1, 2)))
        if kind == 4:
            return Binary("/", VarRef(target), IntLit(rng.randint(2, 3)))
        other = rng.choice(self.int_inputs) if self.int_inputs else target
        return Binary("+", VarRef(other), IntLit(rng.randint(0, 2)))

    def assign_int(self, among=None):
        # reads stay inside the group so independent groups remain
        # genuinely independent (parallelization-safe)
        target = self.rng.choice(among or self.ints)
        return (target, self.int_expr(target, readable=among))

    def assign_bool(self):
        target = self.rng.choice(self.bools)
        kind = self.rng.randrange(3)
        if kind == 0:
            return (target, BoolLit(True))
        if kind == 1:
            return (target, BoolLit(False))
        src = self.rng.choice(self.bool_inputs + self.bools)
        return (target, VarRef(src))

    def assigns(self, n: int, among=None) -> list:
        from .sfc_core import expr_vars

        out = []
        for _ in range(n):
            if among is None and self.bools and self.rng.random() < 0.25:
                out.append(self.assign_bool())
            else:
                out.append(self.assign_int(among))
        # every group visibly advances state: at least one assignment reads
        # its own target, so no chunk boundary can swallow the group while
        # leaving the composed transform unchanged
        if out and not any(v in expr_vars(e) for v, e in out):
            target = self.rng.choice(among or self.ints)
            out[0] = (target, Binary("+", VarRef(target),
                                     IntLit(self.rng.randint(1, 3))))
        return out

    def guard(self) -> Expr:
        rng = self.rng
        if self.bool_inputs and rng.random() < 0.6:
            g = VarRef(rng.choice(self.bool_inputs))
            return g if rng.random() < 0.5 else Unary("!", g)
        if self.int_inputs:
            return Binary(rng.choice([">", "<=", ">="]),
                          VarRef(rng.choice(self.int_inputs)),
                          IntLit(rng.randint(0, 2)))
        return VarRef(rng.choice(self.bools))


# ---------------------------------------------------------------------------
# class recipes


def _split_ints(pool: _Pool):
    half = max(1, len(pool.ints) // 2)
    return pool.ints[:half], pool.ints[half:]


def _loop_seg(pool: _Pool, per_group: int) -> LoopSeg:
    ints_a, ints_b = _split_ints(pool)
    return LoopSeg(pool.counter(), pool.rng.randint(1, 3),
                   pool.assigns(per_group, among=ints_a),
                   pool.assigns(per_group, among=ints_b or ints_a))


def _shape(cls: str, rng: random.Random) -> Shape:
    if cls == "basic":
        pool = _Pool(rng, 3, 2, 1, 2)
        segments = [
            Straight(pool.assigns(3), split=True),
            BranchSeg(pool.guard(), pool.assigns(1), pool.assigns(2),
                      pool.assigns(2)),
            _loop_seg(pool, 2),
            BranchSeg(pool.guard(), pool.assigns(1), pool.assigns(2),
                      pool.assigns(2)),
            Straight(pool.assigns(2)),
        ]
    elif cls == "simple":
        pool = _Pool(rng, 4, 2, 1, 2)
        segments = [
            Straight(pool.assigns(4), split=True),
            BranchSeg(pool.guard(), pool.assigns(1), pool.assigns(2),
                      pool.assigns(2)),
            NestedLoopSeg(pool.counter(), rng.randint(1, 2), pool.counter(),
                          rng.randint(1, 3), pool.assigns(3),
                          pool.assigns(2)),
            BranchSeg(pool.guard(), pool.assigns(1), pool.assigns(2),
                      pool.assigns(2)),
            _loop_seg(pool, 2),
            BranchSeg(pool.guard(), pool.assigns(1), pool.assigns(2),
                      pool.assigns(2)),
            Straight(pool.assigns(3), split=True),
        ]
    elif cls == "medium":
        pool = _Pool(rng, 6, 2, 2, 2)
        segments = [
            Straight(pool.assigns(4), split=True),
            BranchSeg(pool.guard(), pool.assigns(2), pool.assigns(2),
                      pool.assigns(2)),
            NestedLoopSeg(pool.counter(), rng.randint(1, 2), pool.counter(),
                          rng.randint(1, 3), pool.assigns(4),
                          pool.assigns(3)),
            _loop_seg(pool, 3),
            _loop_seg(pool, 3),
            _loop_seg(pool, 3),
            BranchSeg(pool.guard(), pool.assigns(2), pool.assigns(3),
                      pool.assigns(3)),
            Straight(pool.assigns(5), split=True),
        ]
    elif cls == "complex":
        pool = _Pool(rng, 8, 3, 2, 3)
        segments = [
            Straight(pool.assigns(6), split=True),
            BranchSeg(pool.guard(), pool.assigns(2), pool.assigns(3),
                      pool.assigns(3), nested_guard=pool.guard(),
                      arm_a2=pool.assigns(2)),
            NestedLoopSeg(pool.counter(), rng.randint(1, 2), pool.counter(),
                          rng.randint(1, 3), pool.assigns(4),
                          pool.assigns(3)),
            _loop_seg(pool, 3),
            Straight(pool.assigns(6), split=True),
            _loop_seg(pool, 3),
            BranchSeg(pool.guard(), pool.assigns(2), pool.assigns(3),
                      pool.assigns(3), nested_guard=pool.guard(),
                      arm_a2=pool.assigns(3)),
            _loop_seg(pool, 3),
            Straight(pool.assigns(7), split=True),
            _loop_seg(pool, 2),
            Straight(pool.assigns(6), split=True),
        ]
    else:
        raise ValueError(f"unknown benchmark class {cls!r}")
    return Shape(pool.decls(), segments), pool


def statement_count(prog: SfcProgram) -> int:
    return sum(len(blk.body) for s in prog.steps for blk in s.blocks)


# ---------------------------------------------------------------------------
# upgrade transformations (semantics preserving)


def _upgrade(shape: Shape, pool: _Pool, cls: str,
             rng: random.Random) -> Shape:
    segments = [replace(s) if not isinstance(s, (Straight,))
                else Straight(list(s.assigns), s.split)
                for s in shape.segments]
    upgraded = Shape(list(shape.vars), segments, list(shape.aux_writes))

    def code_motion():
        cands = [s for s in upgraded.segments if isinstance(s, Straight)
                 and len(s.assigns) >= 2]
        rng.shuffle(cands)
        for seg in cands:
            for i in range(len(seg.assigns) - 1):
                (v1, e1), (v2, e2) = seg.assigns[i], seg.assigns[i + 1]
                from .sfc_core import expr_vars
                if v1 != v2 and v1 not in expr_vars(e2) \
                        and v2 not in expr_vars(e1):
                    seg.assigns[i], seg.assigns[i + 1] = \
                        seg.assigns[i + 1], seg.assigns[i]
                    return True
        return False

    def split_step():
        from .sfc_core import expr_vars

        def valid_cuts(seg):
            # the trailing piece must visibly change state (some assignment
            # reads its own target), otherwise a chunk ending before the
            # split could coincide with one ending after it and derail the
            # checker's boundary alignment
            out = []
            for cut in range(1, len(seg.assigns)):
                tail = seg.assigns[cut:]
                if any(v in expr_vars(e) for v, e in tail):
                    out.append(cut)
            return out

        cands = [(s, valid_cuts(s)) for s in upgraded.segments
                 if isinstance(s, Straight) and s.split
                 and len(s.assigns) >= 2]
        cands = [(s, cuts) for s, cuts in cands if cuts]
        if not cands:
            return False
        seg, cuts = rng.choice(cands)
        cut = cuts[len(cuts) // 2]
        idx = upgraded.segments.index(seg)
        upgraded.segments[idx:idx + 1] = [
            Straight(seg.assigns[:cut]), Straight(seg.assigns[cut:])]
        return True

    def add_uncommon():
        name = f"aux{sum(1 for v in upgraded.vars if v.name.startswith('aux'))}"
        upgraded.vars.append(VarDecl(name, "int", IntLit(0)))
        upgraded.aux_writes.append(
            (name, Binary("+", VarRef(name), IntLit(rng.randint(1, 3)))))
        return True

    def parallelize():
        from .sfc_core import expr_vars

        def independent(seg):
            wa = {v for v, _ in seg.group_a}
            wb = {v for v, _ in seg.group_b}
            ra = set().union(*[expr_vars(e) for _, e in seg.group_a]) \
                if seg.group_a else set()
            rb = set().union(*[expr_vars(e) for _, e in seg.group_b]) \
                if seg.group_b else set()
            return not (wa & wb or wa & rb or wb & ra)

        loops = [s for s in upgraded.segments if isinstance(s, LoopSeg)
                 and not s.parallel and s.group_a and s.group_b
                 and independent(s)]
        if not loops:
            return False
        seg = rng.choice(loops)
        fresh = f"{seg.counter}p"
        upgraded.vars.append(VarDecl(fresh, "int", IntLit(0)))
        seg.parallel = fresh
        return True

    def guard_refine():
        count = sum(1 for s in upgraded.segments
                    if isinstance(s, RefineSeg))
        gname = f"gate{count}"
        fname = f"latch{count}"
        upgraded.vars.append(VarDecl(gname, "bool", BoolLit(True)))
        upgraded.vars.append(VarDecl(fname, "bool", BoolLit(False)))
        spots = [i for i, s in enumerate(upgraded.segments)
                 if isinstance(s, Straight)]
        if not spots:
            return False
        upgraded.segments.insert(rng.choice(spots) + 1,
                                 RefineSeg(gname, fname))
        return True

    plans = {
        "basic": [code_motion, add_uncommon],
        "simple": [split_step, guard_refine, add_uncommon, code_motion],
        "medium": [parallelize, add_uncommon],
        "complex": [parallelize, guard_refine, split_step, code_motion],
    }
    applied = 0
    for move in plans[cls]:
        if move():
            applied += 1
    if applied == 0:
        add_uncommon()
    return upgraded


# ---------------------------------------------------------------------------
# entry point


def gen_bench(cls: str, seed: int, certify: bool = True,
              window=DEFAULT_WINDOW):
    """Deterministically generate an (original, upgrade) pair of the given
    class; the pair is oracle-certified equivalent before emission."""
    if cls not in CLASSES:
        raise ValueError(f"unknown benchmark class {cls!r}")
    for attempt in range(GEN_RETRIES):
        rng = random.Random(seed * 1009 + attempt)
        shape, pool = _shape(cls, rng)
        v0 = render(shape)
        upgraded = _upgrade(shape, pool, cls, rng)
        v1 = render(upgraded)
        if validate_sfc(v0) or validate_sfc(v1):
            continue
        if not certify:
            return v0, v1
        n0, n1 = translate(v0), translate(v1)
        outs0 = sorted(n0.out_ports(), key=natural_key)
        outs1 = sorted(n1.out_ports(), key=natural_key)
        if len(outs0) != len(outs1):
            continue
        f_out = dict(zip(outs0, outs1))
        ok, _ = confirm_equivalent(n0, n1, f_out, window)
        if ok:
            return v0, v1
    raise GenerationRetryExceeded(
        f"could not certify a {cls} pair for seed {seed}")
