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
from functools import reduce

from ._util import PlcError
from .containment import ConfigError, default_correspondences
from .oracle import DEFAULT_WINDOW, confirm_equivalent
from .petri_net import translate
from .sfc_core import (ActionBlock, Binary, BoolLit, Expr, IntLit,
                       SfcProgram, SfcTransition, Step, TRUE, Unary, VarDecl,
                       VarRef, expr_vars, validate_sfc)

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


def _inc(counter: str):
    return (counter, Binary("+", VarRef(counter), IntLit(1)))


class _Builder:
    """Steps and transitions are numbered separately, each in creation
    order."""

    def __init__(self):
        self.steps = []
        self.transitions = []

    def step(self, assigns=()) -> str:
        sid = f"s{len(self.steps)}"
        blocks = ()
        if assigns:
            blocks = (ActionBlock(f"A{len(self.steps)}", "entry",
                                  tuple(assigns)),)
        self.steps.append(Step(sid, blocks))
        return sid

    def trans(self, sources, targets, guard=TRUE) -> None:
        if isinstance(sources, str):
            sources = [sources]
        if isinstance(targets, str):
            targets = [targets]
        self.transitions.append(SfcTransition(
            f"Tr{len(self.transitions) + 1}", frozenset(sources),
            frozenset(targets), guard))

    def then(self, prev, assigns=(), guard=TRUE) -> str:
        """A new step entered from ``prev`` when ``guard`` holds."""
        sid = self.step(assigns)
        self.trans(prev, sid, guard)
        return sid

    def loop(self, head: str, counter: str, bound: int, body) -> Expr:
        """The body of a counted loop at ``head``: ``body`` then
        ``counter := counter + 1``, entered while ``counter < bound`` and
        back to ``head``; returns the exit guard."""
        enter = Binary("<", VarRef(counter), IntLit(bound))
        self.trans(self.then(head, list(body) + [_inc(counter)], enter), head)
        return Unary("!", enter)


def render(shape: Shape) -> SfcProgram:
    b = _Builder()
    start = b.step()  # idle step, waits for the start input
    prev = b.then(start, [("cycle", BoolLit(True))], VarRef("start"))

    for seg in shape.segments:
        if isinstance(seg, Straight):
            prev = b.then(prev, seg.assigns)
        elif isinstance(seg, BranchSeg):
            fork = b.then(prev, seg.pre)
            join = b.step()
            if seg.nested_guard is None:
                arms = [(fork, seg.guard, seg.arm_a)]
            else:
                sub = b.then(fork, (), seg.guard)
                arms = [(sub, seg.nested_guard, seg.arm_a),
                        (sub, Unary("!", seg.nested_guard), seg.arm_a2)]
            # every arm's entry, then every arm's exit to the join
            for end in [b.then(src, body, g) for src, g, body in arms]:
                b.trans(end, join)
            b.trans(b.then(fork, seg.arm_b, Unary("!", seg.guard)), join)
            prev = join
        elif isinstance(seg, LoopSeg):
            # a parallelized loop runs its two groups as two threads
            if seg.parallel:
                threads = [(seg.counter, seg.group_a),
                           (seg.parallel, seg.group_b)]
            else:
                threads = [(seg.counter, seg.group_a + seg.group_b)]
            init = b.then(prev, [(c, IntLit(0)) for c, _ in threads])
            heads = [b.step() for _ in threads]
            b.trans(init, heads)
            exits = [b.loop(head, c, seg.bound, body)
                     for head, (c, body) in zip(heads, threads)]
            prev = b.then(heads, (), reduce(
                lambda x, y: Binary("&&", x, y), exits))
        elif isinstance(seg, RefineSeg):
            gate = b.then(prev)
            join = b.step()
            b.trans(gate, join, VarRef(seg.guard_var))
            detour = b.then(gate, [(seg.flag_var, BoolLit(True))],
                            Unary("!", VarRef(seg.guard_var)))
            b.trans(detour, join)
            prev = join
        elif isinstance(seg, NestedLoopSeg):
            co, ci = seg.outer_counter, seg.inner_counter
            outer_enter = Binary("<", VarRef(co), IntLit(seg.outer_bound))
            outer_head = b.then(b.then(prev, [(co, IntLit(0))]))
            inner_head = b.then(b.then(outer_head, [(ci, IntLit(0))],
                                       outer_enter))
            inner_exit = b.loop(inner_head, ci, seg.inner_bound,
                                seg.inner_body)
            tail = b.then(inner_head, list(seg.outer_tail) + [_inc(co)],
                          inner_exit)
            b.trans(tail, outer_head)
            prev = b.then(outer_head, (), Unary("!", outer_enter))
        else:
            raise TypeError(f"unknown segment {seg!r}")

    if shape.aux_writes:
        prev = b.then(prev, shape.aux_writes)
    b.trans(b.then(prev), "s0")  # synchronizing transition back to idle
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

    # segments, each drawing its material in field order

    def straight(self, n: int, split: bool = False) -> Straight:
        return Straight(self.assigns(n), split)

    def branch(self, pre: int, a: int, b: int, a2: int = 0) -> BranchSeg:
        """A branch; with ``a2`` set, arm A branches again."""
        seg = BranchSeg(self.guard(), self.assigns(pre), self.assigns(a),
                        self.assigns(b))
        if a2:
            seg.nested_guard = self.guard()
            seg.arm_a2 = self.assigns(a2)
        return seg

    def loop(self, per_group: int) -> LoopSeg:
        """A loop whose two groups write disjoint halves of the ints."""
        half = max(1, len(self.ints) // 2)
        ints_a, ints_b = self.ints[:half], self.ints[half:]
        return LoopSeg(self.counter(), self.rng.randint(1, 3),
                       self.assigns(per_group, among=ints_a),
                       self.assigns(per_group, among=ints_b or ints_a))

    def nested_loop(self, inner: int, tail: int) -> NestedLoopSeg:
        return NestedLoopSeg(self.counter(), self.rng.randint(1, 2),
                             self.counter(), self.rng.randint(1, 3),
                             self.assigns(inner), self.assigns(tail))


# ---------------------------------------------------------------------------
# class recipes


def _shape(cls: str, rng: random.Random) -> Shape:
    if cls == "basic":
        p = _Pool(rng, 3, 2, 1, 2)
        segments = [p.straight(3, split=True), p.branch(1, 2, 2), p.loop(2),
                    p.branch(1, 2, 2), p.straight(2)]
    elif cls == "simple":
        p = _Pool(rng, 4, 2, 1, 2)
        segments = [p.straight(4, split=True), p.branch(1, 2, 2),
                    p.nested_loop(3, 2), p.branch(1, 2, 2), p.loop(2),
                    p.branch(1, 2, 2), p.straight(3, split=True)]
    elif cls == "medium":
        p = _Pool(rng, 6, 2, 2, 2)
        segments = [p.straight(4, split=True), p.branch(2, 2, 2),
                    p.nested_loop(4, 3), p.loop(3), p.loop(3), p.loop(3),
                    p.branch(2, 3, 3), p.straight(5, split=True)]
    elif cls == "complex":
        p = _Pool(rng, 8, 3, 2, 3)
        segments = [p.straight(6, split=True), p.branch(2, 3, 3, a2=2),
                    p.nested_loop(4, 3), p.loop(3), p.straight(6, split=True),
                    p.loop(3), p.branch(2, 3, 3, a2=3), p.loop(3),
                    p.straight(7, split=True), p.loop(2),
                    p.straight(6, split=True)]
    else:
        raise ValueError(f"unknown benchmark class {cls!r}")
    return Shape(p.decls(), segments)


def statement_count(prog: SfcProgram) -> int:
    return sum(len(blk.body) for s in prog.steps for blk in s.blocks)


# ---------------------------------------------------------------------------
# upgrade transformations (semantics preserving)


def _upgrade(shape: Shape, cls: str, rng: random.Random) -> Shape:
    segments = [Straight(list(s.assigns), s.split) if isinstance(s, Straight)
                else replace(s) for s in shape.segments]
    upgraded = Shape(list(shape.vars), segments, list(shape.aux_writes))

    def code_motion():
        cands = [s for s in upgraded.segments if isinstance(s, Straight)
                 and len(s.assigns) >= 2]
        rng.shuffle(cands)
        for seg in cands:
            for i in range(len(seg.assigns) - 1):
                (v1, e1), (v2, e2) = seg.assigns[i], seg.assigns[i + 1]
                if v1 != v2 and v1 not in expr_vars(e2) \
                        and v2 not in expr_vars(e1):
                    seg.assigns[i], seg.assigns[i + 1] = \
                        seg.assigns[i + 1], seg.assigns[i]
                    return

    def split_step():
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
            return
        seg, cuts = rng.choice(cands)
        cut = cuts[len(cuts) // 2]
        idx = upgraded.segments.index(seg)
        upgraded.segments[idx:idx + 1] = [
            Straight(seg.assigns[:cut]), Straight(seg.assigns[cut:])]

    def add_uncommon():
        name = f"aux{sum(1 for v in upgraded.vars if v.name.startswith('aux'))}"
        upgraded.vars.append(VarDecl(name, "int", IntLit(0)))
        upgraded.aux_writes.append(
            (name, Binary("+", VarRef(name), IntLit(rng.randint(1, 3)))))

    def parallelize():
        def independent(seg):
            wa = {v for v, _ in seg.group_a}
            wb = {v for v, _ in seg.group_b}
            ra = set().union(*[expr_vars(e) for _, e in seg.group_a])
            rb = set().union(*[expr_vars(e) for _, e in seg.group_b])
            return not (wa & wb or wa & rb or wb & ra)

        loops = [s for s in upgraded.segments if isinstance(s, LoopSeg)
                 and not s.parallel and s.group_a and s.group_b
                 and independent(s)]
        if not loops:
            return
        seg = rng.choice(loops)
        fresh = f"{seg.counter}p"
        upgraded.vars.append(VarDecl(fresh, "int", IntLit(0)))
        seg.parallel = fresh

    def guard_refine():
        # every class has Straight segments to place the branch after
        count = sum(1 for s in upgraded.segments
                    if isinstance(s, RefineSeg))
        gname = f"gate{count}"
        fname = f"latch{count}"
        upgraded.vars.append(VarDecl(gname, "bool", BoolLit(True)))
        upgraded.vars.append(VarDecl(fname, "bool", BoolLit(False)))
        spots = [i for i, s in enumerate(upgraded.segments)
                 if isinstance(s, Straight)]
        upgraded.segments.insert(rng.choice(spots) + 1,
                                 RefineSeg(gname, fname))

    # each plan holds a move that always applies: add_uncommon or
    # guard_refine
    plans = {
        "basic": [code_motion, add_uncommon],
        "simple": [split_step, guard_refine, add_uncommon, code_motion],
        "medium": [parallelize, add_uncommon],
        "complex": [parallelize, guard_refine, split_step, code_motion],
    }
    for move in plans[cls]:
        move()
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
        shape = _shape(cls, rng)
        v0 = render(shape)
        v1 = render(_upgrade(shape, cls, rng))
        if validate_sfc(v0) or validate_sfc(v1):
            continue
        if not certify:
            return v0, v1
        n0, n1 = translate(v0), translate(v1)
        try:
            _f_in, f_out = default_correspondences(n0, n1)
        except ConfigError:
            continue
        ok, _ = confirm_equivalent(n0, n1, f_out, window)
        if ok:
            return v0, v1
    raise GenerationRetryExceeded(
        f"could not certify a {cls} pair for seed {seed}")
