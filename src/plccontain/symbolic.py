"""Canonical normal forms for guard and update expressions.

Integers normalize to multivariate polynomials with integer coefficients;
truncating division is kept as an opaque atom (no rewriting of ``(x*10)/10``
unless the divisor is a constant dividing every coefficient exactly).
Booleans normalize to the set of satisfying rows over their canonicalized
atoms (bool variables and integer comparisons). Combining two forms whose
atoms together exceed a configurable bound raises NormalizationOverflow,
as does a polynomial past the fixed monomial cap.

Equal canonical forms serialize to identical strings, which is what the
containment checker compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._util import PlcError
from .sfc_core import Binary, BoolLit, Expr, IntLit, Unary, VarRef

DEFAULT_BOOL_BOUND = 16
DEFAULT_MONOMIAL_CAP = 4096


class KindMismatch(Exception):
    pass


class NormalizationOverflow(PlcError):
    pass


@dataclass(frozen=True)
class NormSettings:
    bool_bound: int = DEFAULT_BOOL_BOUND


DEFAULT_SETTINGS = NormSettings()


def tdiv(a: int, b: int) -> int:
    """Integer division truncating toward zero (IEC semantics)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntNorm:
    """Canonical polynomial: sorted tuple of (monomial, coefficient).

    A monomial is a sorted tuple of (atom, exponent); an atom is a variable
    name or a DivAtom. Zero coefficients are never stored; the zero
    polynomial has no terms.
    """

    terms: tuple

    @property
    def kind(self) -> str:
        return "int"

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and self.terms[0][0] == ())

    def const_value(self) -> int:
        if not self.terms:
            return 0
        return self.terms[0][1]

    def __str__(self):
        return int_to_str(self)


@dataclass(frozen=True)
class DivAtom:
    num: IntNorm
    den: IntNorm


def _atom_key(atom) -> tuple:
    if isinstance(atom, str):
        return ("v", atom)
    return ("w", int_to_str(atom.num), int_to_str(atom.den))


def _mono_key(mono) -> tuple:
    return tuple(( _atom_key(a), e) for a, e in mono)


def _mk_poly(mapping: dict) -> IntNorm:
    items = [(m, c) for m, c in mapping.items() if c != 0]
    if len(items) > DEFAULT_MONOMIAL_CAP:
        raise NormalizationOverflow(
            f"{len(items)} monomials exceed the "
            f"{DEFAULT_MONOMIAL_CAP}-monomial cap")
    # constant monomial () sorts after named monomials
    items.sort(key=lambda mc: (mc[0] == (), _mono_key(mc[0])))
    return IntNorm(tuple(items))


def int_const(c: int) -> IntNorm:
    return IntNorm((((), c),)) if c else IntNorm(())


def int_var(name: str) -> IntNorm:
    return IntNorm(((((name, 1),), 1),))


def int_add(a: IntNorm, b: IntNorm) -> IntNorm:
    acc = dict(a.terms)
    for m, c in b.terms:
        acc[m] = acc.get(m, 0) + c
    return _mk_poly(acc)


def int_neg(a: IntNorm) -> IntNorm:
    return IntNorm(tuple((m, -c) for m, c in a.terms))


def int_sub(a: IntNorm, b: IntNorm) -> IntNorm:
    return int_add(a, int_neg(b))


def _mono_mul(m1, m2) -> tuple:
    acc = {}
    for a, e in m1:
        acc[a] = acc.get(a, 0) + e
    for a, e in m2:
        acc[a] = acc.get(a, 0) + e
    return tuple(sorted(acc.items(), key=lambda ae: _atom_key(ae[0])))


def int_mul(a: IntNorm, b: IntNorm) -> IntNorm:
    acc = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
            if len(acc) > DEFAULT_MONOMIAL_CAP:
                raise NormalizationOverflow(
                    f"product of {len(a.terms)} and {len(b.terms)} terms "
                    f"exceeds the {DEFAULT_MONOMIAL_CAP}-monomial cap")
    return _mk_poly(acc)


def int_div(a: IntNorm, b: IntNorm) -> IntNorm:
    """Truncating division; opaque unless it folds exactly."""
    if b.is_const():
        d = b.const_value()
        if d != 0:
            if a.is_const():
                return int_const(tdiv(a.const_value(), d))
            if d < 0:
                return int_div(int_neg(a), int_const(-d))
            if d == 1:
                return a
            if all(c % d == 0 for _, c in a.terms):
                return IntNorm(tuple((m, c // d) for m, c in a.terms))
    return _mk_poly({((DivAtom(a, b), 1),): 1})


def int_vars(p: IntNorm) -> frozenset:
    out = set()
    for m, _ in p.terms:
        for atom, _e in m:
            if isinstance(atom, str):
                out.add(atom)
            else:
                out |= int_vars(atom.num) | int_vars(atom.den)
    return frozenset(out)


def int_substitute(p: IntNorm, mapping: dict) -> IntNorm:
    """Replace variable atoms by polynomials; mapping: name -> IntNorm."""
    if mapping.keys().isdisjoint(int_vars(p)):
        return p
    acc = int_const(0)
    for m, c in p.terms:
        term = int_const(c)
        for atom, e in m:
            if isinstance(atom, str):
                repl = mapping.get(atom, int_var(atom))
            else:
                repl = int_div(int_substitute(atom.num, mapping),
                               int_substitute(atom.den, mapping))
            for _ in range(e):
                term = int_mul(term, repl)
        acc = int_add(acc, term)
    return acc


def _mono_to_str(mono, coeff: int) -> str:
    if not mono:
        return str(coeff)
    parts = []
    for atom, e in mono:
        base = atom if isinstance(atom, str) else \
            f"div({int_to_str(atom.num)}, {int_to_str(atom.den)})"
        parts.append(base if e == 1 else f"{base}^{e}")
    body = "*".join(parts)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def int_to_str(p: IntNorm) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for i, (m, c) in enumerate(p.terms):
        s = _mono_to_str(m, c)
        if i == 0:
            pieces.append(s)
        elif s.startswith("-"):
            pieces.append(f"- {s[1:]}")
        else:
            pieces.append(f"+ {s}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# boolean atoms


@dataclass(frozen=True)
class BVar:
    name: str


@dataclass(frozen=True)
class Lez:
    """poly <= 0 over the integers."""

    poly: IntNorm


@dataclass(frozen=True)
class Eqz:
    """poly = 0 over the integers."""

    poly: IntNorm


def _batom_key(atom) -> tuple:
    if isinstance(atom, BVar):
        return ("b", atom.name)
    if isinstance(atom, Lez):
        return ("l", int_to_str(atom.poly))
    return ("e", int_to_str(atom.poly))


def _split_const(p: IntNorm):
    """Return (non-constant part, constant)."""
    const = 0
    rest = []
    for m, c in p.terms:
        if m == ():
            const = c
        else:
            rest.append((m, c))
    return IntNorm(tuple(rest)), const


def _poly_gcd(terms) -> int:
    g = 0
    for _, c in terms:
        g = math.gcd(g, abs(c))
    return g or 1


def mk_lez(p: IntNorm):
    """Canonical p <= 0 atom, or a bool when it folds."""
    rest, const = _split_const(p)
    if not rest.terms:
        return const <= 0
    g = _poly_gcd(rest.terms)
    # g*q + const <= 0  <=>  q <= floor(-const / g) over the integers
    bound = (-const) // g
    q = IntNorm(tuple((m, c // g) for m, c in rest.terms))
    tightened = int_add(q, int_const(-bound))
    return Lez(tightened)


def mk_eqz(p: IntNorm):
    rest, const = _split_const(p)
    if not rest.terms:
        return const == 0
    g = _poly_gcd(rest.terms)
    if const % g != 0:
        return False  # g*q = -const unsatisfiable over the integers
    q_terms = tuple((m, c // g) for m, c in rest.terms)
    c0 = const // g
    if q_terms[0][1] < 0:
        q_terms = tuple((m, -c) for m, c in q_terms)
        c0 = -c0
    return Eqz(int_add(IntNorm(q_terms), int_const(c0)))


def batom_vars(atom) -> frozenset:
    if isinstance(atom, BVar):
        return frozenset([atom.name])
    return int_vars(atom.poly)


def batom_to_str(atom) -> str:
    if isinstance(atom, BVar):
        return atom.name
    rest, const = _split_const(atom.poly)
    if isinstance(atom, Eqz):
        return f"{int_to_str(rest)} = {-const}"
    if all(c < 0 for _, c in rest.terms):
        return f"{int_to_str(int_neg(rest))} >= {const}"
    return f"{int_to_str(rest)} <= {-const}"


# ---------------------------------------------------------------------------
# boolean normal form


@dataclass(frozen=True)
class BoolNorm:
    """Satisfying assignments over a sorted atom tuple.

    ``rows`` holds bitmasks over ``atoms`` (bit i set means atoms[i] is
    true). Zero atoms encode constants: rows == {0} is True,
    rows == frozenset() is False.
    """

    atoms: tuple = ()
    rows: frozenset = frozenset()

    @property
    def kind(self) -> str:
        return "bool"

    def __str__(self):
        return bool_to_str(self)


BTRUE = BoolNorm((), frozenset([0]))
BFALSE = BoolNorm((), frozenset())


def _rows_canonical(atoms: tuple, rows) -> BoolNorm:
    """Drop inessential atoms, which also folds constants. Whether an atom
    is essential depends only on the function, so one pass from the top
    bit down finds them all, and a drop never renumbers a bit to come."""
    atoms = list(atoms)
    for i in reversed(range(len(atoms))):
        bit = 1 << i
        lo = {r for r in rows if not r & bit}
        if lo == {r & ~bit for r in rows if r & bit}:
            # atom i never affects the outcome; project it away
            rows = {_drop_bit(r, i) for r in lo}
            del atoms[i]
    if not atoms:
        return BTRUE if rows else BFALSE
    return BoolNorm(tuple(atoms), frozenset(rows))


def _drop_bit(mask: int, i: int) -> int:
    low = mask & ((1 << i) - 1)
    high = (mask >> (i + 1)) << i
    return low | high


def _from_atom(atom) -> BoolNorm:
    if atom is True:
        return BTRUE
    if atom is False:
        return BFALSE
    return BoolNorm((atom,), frozenset([1]))


def _combine(op, parts, settings: NormSettings = DEFAULT_SETTINGS
             ) -> BoolNorm:
    """The form of ``op`` over ``parts``: every assignment to the union of
    their atoms is enumerated once, and ``op`` maps the list of the parts'
    truth values under it to one."""
    union = sorted(frozenset().union(*(p.atoms for p in parts)),
                   key=_batom_key)
    if len(union) > settings.bool_bound:
        raise NormalizationOverflow(
            f"{len(union)} boolean atoms exceed bound "
            f"{settings.bool_bound} (--bool-bound raises it)")
    index = {atom: i for i, atom in enumerate(union)}
    # each part's atoms as (bit in the union's mask, bit in its own rows)
    bits = [[(1 << index[a], 1 << j) for j, a in enumerate(p.atoms)]
            for p in parts]
    rows = set()
    for mask in range(1 << len(union)):
        values = [sum(own for u, own in part_bits if mask & u) in p.rows
                  for p, part_bits in zip(parts, bits)]
        if op(values):
            rows.add(mask)
    return _rows_canonical(tuple(union), rows)


def band(a: BoolNorm, b: BoolNorm,
         settings: NormSettings = DEFAULT_SETTINGS) -> BoolNorm:
    if a == BFALSE or b == BFALSE:
        return BFALSE
    if a == BTRUE:
        return b
    if b == BTRUE:
        return a
    return _combine(all, (a, b), settings)


def bor(a: BoolNorm, b: BoolNorm,
        settings: NormSettings = DEFAULT_SETTINGS) -> BoolNorm:
    if a == BTRUE or b == BTRUE:
        return BTRUE
    if a == BFALSE:
        return b
    if b == BFALSE:
        return a
    return _combine(any, (a, b), settings)


def bnot(a: BoolNorm) -> BoolNorm:
    return _rows_canonical(a.atoms,
                           frozenset(range(1 << len(a.atoms))) - a.rows)


# ---------------------------------------------------------------------------
# normalization of expressions


_ARITH = {"+": int_add, "-": int_sub, "*": int_mul, "/": int_div}
_LOGIC = {"&&": band, "||": bor}
# a OP b  <=>  lhs - rhs + offset <= 0, with b on the left when swapped
_ORDER = {"<": (False, 1), "<=": (False, 0), ">": (True, 1), ">=": (True, 0)}


def normalize(e: Expr, env: dict,
              settings: NormSettings = DEFAULT_SETTINGS):
    """Normalize a well-typed expression; env maps names to 'int'/'bool'.
    A subterm's kind is the kind of its normal form."""
    if isinstance(e, IntLit):
        return int_const(e.value)
    if isinstance(e, BoolLit):
        return BTRUE if e.value else BFALSE
    if isinstance(e, VarRef):
        return int_var(e.name) if env[e.name] == "int" \
            else _from_atom(BVar(e.name))
    if isinstance(e, Unary) and e.op in ("-", "!"):
        a = normalize(e.operand, env, settings)
        return int_neg(a) if e.op == "-" else bnot(a)
    if isinstance(e, Binary):
        a = normalize(e.left, env, settings)
        b = normalize(e.right, env, settings)
        if e.op in _ARITH:
            return _ARITH[e.op](a, b)
        if e.op in _LOGIC:
            return _LOGIC[e.op](a, b, settings)
        if e.op in _ORDER:
            swap, offset = _ORDER[e.op]
            diff = int_sub(b, a) if swap else int_sub(a, b)
            return _from_atom(mk_lez(
                int_add(diff, int_const(offset)) if offset else diff))
        if e.op in ("=", "!="):
            if isinstance(a, BoolNorm):
                same = bor(band(a, b, settings),
                           band(bnot(a), bnot(b), settings), settings)
            else:
                same = _from_atom(mk_eqz(int_sub(a, b)))
            return same if e.op == "=" else bnot(same)
    raise KindMismatch(f"cannot normalize {e!r}")


def expr_equiv(a, b) -> bool:
    """Byte-level equality of canonical forms."""
    if a.kind != b.kind:
        raise KindMismatch(f"cannot compare {a.kind} with {b.kind}")
    return a == b


def is_true(bn: BoolNorm) -> bool:
    return bn == BTRUE


def is_false(bn: BoolNorm) -> bool:
    return bn == BFALSE


def bool_vars(bn: BoolNorm) -> frozenset:
    out = frozenset()
    for a in bn.atoms:
        out |= batom_vars(a)
    return out


def bool_substitute(bn: BoolNorm, mapping: dict,
                    settings: NormSettings = DEFAULT_SETTINGS) -> BoolNorm:
    """mapping: name -> NormExpr (IntNorm for int vars, BoolNorm for bool)."""
    if mapping.keys().isdisjoint(bool_vars(bn)):
        return bn
    int_map = {k: v for k, v in mapping.items() if isinstance(v, IntNorm)}

    def sub_atom(atom) -> BoolNorm:
        if isinstance(atom, BVar):
            repl = mapping.get(atom.name)
            if repl is None:
                return _from_atom(atom)
            if not isinstance(repl, BoolNorm):
                raise KindMismatch(f"{atom.name} substituted with an int")
            return repl
        poly = int_substitute(atom.poly, int_map)
        made = mk_lez(poly) if isinstance(atom, Lez) else mk_eqz(poly)
        return _from_atom(made)

    def holds(values) -> bool:
        return sum(1 << i for i, v in enumerate(values) if v) in bn.rows

    return _combine(holds, [sub_atom(a) for a in bn.atoms], settings)


def bool_project(bn: BoolNorm, names: frozenset) -> BoolNorm:
    """Existentially eliminate every atom whose variables meet ``names``."""
    atoms = list(bn.atoms)
    rows = bn.rows
    for i in reversed(range(len(atoms))):
        if batom_vars(atoms[i]) & names:
            rows = {_drop_bit(r, i) for r in rows}
            del atoms[i]
    return _rows_canonical(tuple(atoms), rows)


def bool_to_str(bn: BoolNorm) -> str:
    if bn == BTRUE:
        return "true"
    if bn == BFALSE:
        return "false"

    def lit(i, positive):
        s = batom_to_str(bn.atoms[i])
        if positive:
            return s if isinstance(bn.atoms[i], BVar) else f"({s})"
        return f"!{s}" if isinstance(bn.atoms[i], BVar) else f"!({s})"

    disjuncts = []
    for mask in sorted(bn.rows):
        lits = [lit(i, bool(mask & (1 << i))) for i in range(len(bn.atoms))]
        body = " & ".join(lits)
        disjuncts.append(f"({body})" if len(lits) > 1 and len(bn.rows) > 1
                         else body)
    return " | ".join(disjuncts)


def norm_to_str(n) -> str:
    return int_to_str(n) if isinstance(n, IntNorm) else bool_to_str(n)


def eval_int(p: IntNorm, state: dict) -> int:
    """Evaluate a canonical polynomial on a concrete state."""
    total = 0
    for mono, coeff in p.terms:
        term = coeff
        for atom, e in mono:
            if isinstance(atom, str):
                base = state[atom]
            else:
                den = eval_int(atom.den, state)
                if den == 0:
                    raise ZeroDivisionError("division by zero in DivAtom")
                base = tdiv(eval_int(atom.num, state), den)
            term *= base ** e
        total += term
    return total


def eval_bool(bn: BoolNorm, state: dict) -> bool:
    """Evaluate a boolean normal form on a concrete state."""

    def atom_val(atom) -> bool:
        if isinstance(atom, BVar):
            return bool(state[atom.name])
        v = eval_int(atom.poly, state)
        return v <= 0 if isinstance(atom, Lez) else v == 0

    mask = 0
    for i, a in enumerate(bn.atoms):
        if atom_val(a):
            mask |= 1 << i
    return mask in bn.rows


def eval_norm(n, state: dict):
    return eval_int(n, state) if isinstance(n, IntNorm) \
        else eval_bool(n, state)


# ---------------------------------------------------------------------------
# guard sequences (g1 ~> g2 ~> ...)

GuardSeq = tuple  # tuple of BoolNorm


def guard_seq(entries) -> GuardSeq:
    entries = tuple(entries)
    if any(is_false(e) for e in entries):
        return (BFALSE,)  # canonical infeasible sequence
    return entries


def collapse(seq: GuardSeq) -> GuardSeq:
    """Delete canonical-True entries (alignment rule for comparisons)."""
    return tuple(e for e in seq if not is_true(e))


def effective_len(seq: GuardSeq) -> int:
    """Number of non-trivial guard rounds; the tick measure that picks
    the shorter path to extend."""
    return len(collapse(seq))


def guard_seq_equiv(a: GuardSeq, b: GuardSeq) -> bool:
    return collapse(a) == collapse(b)


def guard_seq_subsumes(a: GuardSeq, b: GuardSeq) -> bool:
    """Prefix subsumption: a needs extension to possibly equal b."""
    ca = collapse(a)
    return ca == collapse(b)[:len(ca)]


def guard_seq_to_str(seq: GuardSeq) -> str:
    return " ~> ".join(bool_to_str(e) for e in seq)


# ---------------------------------------------------------------------------
# state transforms


def _is_identity(name: str, value) -> bool:
    if isinstance(value, IntNorm):
        return value == int_var(name)
    return value == _from_atom(BVar(name))


@dataclass(frozen=True)
class StateTransform:
    """Map variable -> normalized RHS over the pre-state; identities elided.

    ``consistent`` is cleared when a variable renaming collapses two
    entries with different right-hand sides; such a transform compares
    unequal to everything.
    """

    entries: tuple  # sorted tuple of (name, NormExpr)
    consistent: bool = True

    def get(self, name: str):
        for k, v in self.entries:
            if k == name:
                return v
        return None

    def targets(self) -> frozenset:
        return frozenset(k for k, _ in self.entries)

    def is_empty(self) -> bool:
        return not self.entries and self.consistent

    def __str__(self):
        return transform_to_str(self)


EMPTY_TRANSFORM = StateTransform(())


def make_transform(mapping: dict, consistent: bool = True) -> StateTransform:
    items = [(k, v) for k, v in mapping.items() if not _is_identity(k, v)]
    items.sort(key=lambda kv: kv[0])
    return StateTransform(tuple(items), consistent)


def compose(t1: StateTransform, t2: StateTransform,
            settings: NormSettings = DEFAULT_SETTINGS) -> StateTransform:
    """Apply t1 first, then t2; result maps pre-state to final state."""
    if not (t1.consistent and t2.consistent):
        return StateTransform((), False)
    sub = {k: v for k, v in t1.entries}
    out = dict(sub)
    for k, v in t2.entries:
        if isinstance(v, IntNorm):
            out[k] = int_substitute(v, {n: e for n, e in sub.items()
                                        if isinstance(e, IntNorm)})
        else:
            out[k] = bool_substitute(v, sub, settings)
    return make_transform(out)


def transforms_equal(a: StateTransform, b: StateTransform) -> bool:
    if not (a.consistent and b.consistent):
        return False
    return a.entries == b.entries


def transform_to_str(t: StateTransform) -> str:
    if not t.consistent:
        return "{<inconsistent>}"
    body = ", ".join(f"{k} := {norm_to_str(v)}" for k, v in t.entries)
    return "{" + body + "}"


# ---------------------------------------------------------------------------
# uncommon-variable removal (with eta_v renaming)


def rename_map(eta_v) -> dict:
    """eta_v pairs (canonical, other) -> substitution other -> canonical."""
    return {other: canon for canon, other in eta_v if other != canon}


def _rename_norm(v, ren: dict, settings: NormSettings) -> object:
    if not ren:
        return v
    if isinstance(v, IntNorm):
        return int_substitute(v, {o: int_var(c) for o, c in ren.items()})
    return bool_substitute(v, {o: _from_atom(BVar(c)) for o, c in ren.items()},
                           settings)


def drop_uncommon_guard_seq(seq: GuardSeq, common: frozenset, eta_v,
                            settings: NormSettings = DEFAULT_SETTINGS
                            ) -> GuardSeq:
    """Rename eta_v-matched variables to the canonical side, then replace
    literals over remaining uncommon variables with True (projection)."""
    ren = rename_map(eta_v)
    keep = frozenset(common) | frozenset(canon for canon, _ in eta_v)
    out = []
    for entry in seq:
        e = _rename_norm(entry, ren, settings)
        foreign = bool_vars(e) - keep
        if foreign:
            e = bool_project(e, foreign)
        out.append(e)
    return guard_seq(out)


def drop_uncommon_transform(t: StateTransform, common: frozenset, eta_v,
                            settings: NormSettings = DEFAULT_SETTINGS
                            ) -> StateTransform:
    """Rename matched variables, delete entries targeting uncommon ones."""
    if not t.consistent:
        return t
    ren = rename_map(eta_v)
    keep = frozenset(common) | frozenset(canon for canon, _ in eta_v)
    out = {}
    consistent = True
    for k, v in t.entries:
        k2 = ren.get(k, k)
        if k2 not in keep:
            continue
        v2 = _rename_norm(v, ren, settings)
        if k2 in out and out[k2] != v2:
            consistent = False
        out[k2] = v2
    return make_transform(out, consistent)
