"""SFC abstract syntax, text-format parser, validator and printer.

An SFC program is a bipartite graph of steps and guarded transitions.
Each step owns an ordered list of action blocks tagged with a qualifier
(entry / active / exit); blocks hold assignment sequences over int and
bool variables.

Text format (one program per file, ``//`` comments, UTF-8):

    var Fixer : int = 0;
    step s0 { entry A0 { WAIT := true; } }
    trans Tr1 : s0 -> s1 when L1;
    trans TrF : {s4} -> {s6, s9} when Fixer > 0;
    init s0;

Expressions, loosest binding first; ``and``/``or``/``not`` spell
``&&``/``||``/``!``:

    ||                       left-associative
    &&                       left-associative
    !                        prefix over a comparison-level operand, after
                             which only ``&&``/``||`` may follow
    < <= = != >= >           comparisons; they do not chain
    + -                      left-associative
    * /                      left-associative
    -                        prefix (unary minus)
    atoms                    integer, true, false, variable, ( expression )
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._util import PlcError

# ---------------------------------------------------------------------------
# errors


class SfcError(PlcError):
    """Base class for SFC front-end failures."""


class SfcSyntaxError(SfcError):
    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        msg = f"{line}:{col}: expected {expected}"
        if found:
            msg += f", found {found!r}"
        super().__init__(msg)


class SfcTypeError(SfcError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


class ExprTooDeep(SfcError):
    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: expression nested deeper than "
                         f"{MAX_EXPR_DEPTH} levels")


class UndeclaredVariable(SfcError):
    def __init__(self, name: str, line: int = 0, col: int = 0):
        self.name = name
        self.line = line
        self.col = col
        msg = f"undeclared variable {name!r}"
        super().__init__(f"{line}:{col}: {msg}" if line else msg)


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class VarRef(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / < <= = != >= > && ||
    left: Expr
    right: Expr


TRUE = BoolLit(True)
FALSE = BoolLit(False)

_CMP_OPS = {"<", "<=", "=", "!=", ">=", ">"}
_ARITH_OPS = {"+", "-", "*", "/"}
_BOOL_OPS = {"&&", "||"}


def expr_vars(e: Expr) -> frozenset:
    """Free variable names of an expression."""
    if isinstance(e, VarRef):
        return frozenset([e.name])
    if isinstance(e, Unary):
        return expr_vars(e.operand)
    if isinstance(e, Binary):
        return expr_vars(e.left) | expr_vars(e.right)
    return frozenset()


def infer_type(e: Expr, env: dict) -> str:
    """Return 'int' or 'bool'; raise on ill-typed trees or unknown names."""
    if isinstance(e, IntLit):
        return "int"
    if isinstance(e, BoolLit):
        return "bool"
    if isinstance(e, VarRef):
        if e.name not in env:
            raise UndeclaredVariable(e.name)
        return env[e.name]
    if isinstance(e, Unary):
        t = infer_type(e.operand, env)
        if e.op == "-":
            if t != "int":
                raise SfcTypeError("unary '-' needs an int operand")
            return "int"
        if e.op == "!":
            if t != "bool":
                raise SfcTypeError("'!' needs a bool operand")
            return "bool"
        raise SfcTypeError(f"unknown unary operator {e.op!r}")
    if isinstance(e, Binary):
        lt = infer_type(e.left, env)
        rt = infer_type(e.right, env)
        if e.op in _ARITH_OPS:
            if lt != "int" or rt != "int":
                raise SfcTypeError(f"'{e.op}' needs int operands")
            return "int"
        if e.op in _BOOL_OPS:
            if lt != "bool" or rt != "bool":
                raise SfcTypeError(f"'{e.op}' needs bool operands")
            return "bool"
        if e.op in _CMP_OPS:
            if lt != rt:
                raise SfcTypeError(f"'{e.op}' compares mixed types")
            if e.op not in ("=", "!=") and lt != "int":
                raise SfcTypeError(f"'{e.op}' orders int operands only")
            return "bool"
        raise SfcTypeError(f"unknown operator {e.op!r}")
    raise SfcTypeError(f"unknown expression node {type(e).__name__}")


def negate(e: Expr) -> Expr:
    """Logical negation with double-negation unwrapping."""
    if isinstance(e, Unary) and e.op == "!":
        return e.operand
    if isinstance(e, BoolLit):
        return BoolLit(not e.value)
    return Unary("!", e)


# ---------------------------------------------------------------------------
# program AST


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str  # "int" | "bool"
    initial: Expr  # IntLit or BoolLit matching kind


@dataclass(frozen=True)
class ActionBlock:
    action_name: str
    qualifier: str  # entry | active | exit
    body: tuple  # ordered tuple of (var_name, Expr)


@dataclass(frozen=True)
class Step:
    id: str
    blocks: tuple  # tuple of ActionBlock


@dataclass(frozen=True)
class SfcTransition:
    id: str
    sources: frozenset
    targets: frozenset
    guard: Expr = TRUE


@dataclass(frozen=True)
class SfcProgram:
    vars: tuple  # tuple of VarDecl
    steps: tuple  # tuple of Step
    transitions: tuple  # tuple of SfcTransition
    initial_steps: frozenset

    def var_env(self) -> dict:
        return {v.name: v.kind for v in self.vars}

    def step_map(self) -> dict:
        return {s.id: s for s in self.steps}

    def outgoing(self) -> dict:
        """Step id -> the transitions leaving it, in program order."""
        out = {}
        for tr in self.transitions:
            for src in tr.sources:
                out.setdefault(src, []).append(tr)
        return out


QUALIFIER_ORDER = ("entry", "active", "exit")


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9']*)
  | (?P<op>:=|->|<=|>=|!=|<>|&&|\|\||==|[{}():;,=<>!+\-*/]|¬|∧|∨|≤|≥|≠)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_OP_CANON = {
    "¬": "!",
    "∧": "&&",
    "∨": "||",
    "≤": "<=",
    "≥": ">=",
    "≠": "!=",
    "<>": "!=",
    "==": "=",
}


@dataclass
class _Tok:
    kind: str  # num | name | op | eof
    text: str
    pos: int  # source offset; line and column are derived only for errors


def _line_col(text: str, pos: int) -> tuple:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _lex(text: str):
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise SfcSyntaxError(*_line_col(text, m.start()), "a token",
                                 m.group())
        if kind != "ws" and kind != "comment":
            raw = m.group()
            toks.append(_Tok(kind, _OP_CANON.get(raw, raw), m.start()))
    toks.append(_Tok("eof", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# parser

_KEYWORDS = {"var", "step", "trans", "init", "when", "int", "bool", "true",
             "false", "entry", "active", "exit", "not", "and", "or"}

# binding strength of every operator, read by both the parser and the
# printer; "u-" is unary minus
_PRECEDENCE = {"||": 1, "&&": 2, "!": 3, "<": 4, "<=": 4, "=": 4, "!=": 4,
               ">=": 4, ">": 4, "+": 5, "-": 5, "*": 6, "/": 6, "u-": 7}
_SPELLING = {"and": "&&", "or": "||", "not": "!"}
_PREFIX = {"!": "!", "-": "u-"}  # prefix operator -> its precedence key
_BINARY_OPS = _ARITH_OPS | _CMP_OPS | _BOOL_OPS
# Most levels an expression may nest, counting each operator and each pair
# of parentheses. Every walker of the tree (the parser, ``infer_type``,
# ``expr_vars``, ``expr_to_str``, ``eval_expr``, ``symbolic.normalize``,
# ``compile_expr`` and the closures it builds) takes one Python frame per
# level, so this leaves them and their callers half of Python's default
# recursion limit of 1,000 frames.
MAX_EXPR_DEPTH = 500


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0
        self.height = 0  # height of the expression parse_expr returned

    def at(self, t: _Tok) -> tuple:
        """Line and column of a token."""
        return _line_col(self.text, t.pos)

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text:
            raise SfcSyntaxError(*self.at(t), repr(text), t.text)
        return self.next()

    def expect_name(self) -> _Tok:
        t = self.peek()
        if t.kind != "name" or t.text in _KEYWORDS:
            raise SfcSyntaxError(*self.at(t), "an identifier", t.text)
        return self.next()

    def parse_expr(self, min_prec: int = 0, level: int = 1) -> Expr:
        """Precedence climbing over _PRECEDENCE, reading operators that
        bind at least ``min_prec``. A binary operator's right operand binds
        tighter than it. An operator may follow an operand of a comparison
        or a prefix operator only if it binds looser than that operator,
        and of any other operator only if it binds no tighter.

        The expression sits ``level`` levels deep; its own height is left
        in ``self.height``. Past MAX_EXPR_DEPTH levels, from the top or
        down the longest branch, it raises ExprTooDeep."""
        t = self.next()
        if level > MAX_EXPR_DEPTH:
            raise ExprTooDeep(*self.at(t))
        op = _SPELLING.get(t.text, t.text)
        ceiling = _PRECEDENCE["u-"]
        height = 1
        if op in _PREFIX and _PRECEDENCE[_PREFIX[op]] >= min_prec:
            ceiling = _PRECEDENCE[_PREFIX[op]]
            left = Unary(op, self.parse_expr(ceiling, level + 1))
            height += self.height
        elif op == "(":
            left = self.parse_expr(0, level + 1)
            height += self.height
            self.expect(")")
        elif t.kind == "num":
            left = IntLit(int(t.text))
        elif t.text in ("true", "false"):
            left = TRUE if t.text == "true" else FALSE
        elif t.kind == "name" and t.text not in _KEYWORDS:
            left = VarRef(t.text)
        else:
            raise SfcSyntaxError(*self.at(t), "an expression", t.text)
        while True:
            op = self.peek().text
            op = _SPELLING.get(op, op)
            if op not in _BINARY_OPS or \
                    not min_prec <= _PRECEDENCE[op] < ceiling:
                self.height = height
                return left
            t = self.next()
            prec = _PRECEDENCE[op]
            ceiling = prec if op in _CMP_OPS else prec + 1
            left = Binary(op, left, self.parse_expr(prec + 1, level + 1))
            height = max(height, self.height) + 1
            if level + height - 1 > MAX_EXPR_DEPTH:
                raise ExprTooDeep(*self.at(t))

    # -- program ------------------------------------------------------------

    def parse_name_set(self) -> frozenset:
        if self.peek().text == "{":
            self.next()
            names = [self.expect_name().text]
            while self.peek().text == ",":
                self.next()
                names.append(self.expect_name().text)
            self.expect("}")
            return frozenset(names)
        return frozenset([self.expect_name().text])

    def parse_program(self) -> SfcProgram:
        vars_, steps, transitions = [], [], []
        initial = None
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "var":
                vars_.append(self._var_decl())
            elif t.text == "step":
                steps.append(self._step())
            elif t.text == "trans":
                transitions.append(self._transition())
            elif t.text == "init":
                self.next()
                initial = self.parse_name_set()
                self.expect(";")
            else:
                raise SfcSyntaxError(
                    *self.at(t), "'var', 'step', 'trans' or 'init'", t.text)
        if initial is None:
            t = self.peek()
            raise SfcSyntaxError(*self.at(t), "an 'init' declaration")
        prog = SfcProgram(tuple(vars_), tuple(steps), tuple(transitions),
                          initial)
        _typecheck(prog)
        return prog

    def _var_decl(self) -> VarDecl:
        self.expect("var")
        name = self.expect_name().text
        self.expect(":")
        t = self.peek()
        if t.text not in ("int", "bool"):
            raise SfcSyntaxError(*self.at(t), "'int' or 'bool'", t.text)
        kind = self.next().text
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        if kind == "int" and not isinstance(init, IntLit):
            if isinstance(init, Unary) and init.op == "-" and \
                    isinstance(init.operand, IntLit):
                init = IntLit(-init.operand.value)
            else:
                raise SfcTypeError(f"initializer of int {name!r} must be an "
                                   "integer literal", *self.at(t))
        if kind == "bool" and not isinstance(init, BoolLit):
            raise SfcTypeError(f"initializer of bool {name!r} must be a "
                               "boolean literal", *self.at(t))
        return VarDecl(name, kind, init)

    def _step(self) -> Step:
        self.expect("step")
        sid = self.expect_name().text
        self.expect("{")
        blocks = []
        while self.peek().text != "}":
            t = self.peek()
            if t.text not in QUALIFIER_ORDER:
                raise SfcSyntaxError(
                    *self.at(t), "'entry', 'active' or 'exit'", t.text)
            qual = self.next().text
            aname = self.expect_name().text
            self.expect("{")
            body = []
            while self.peek().text != "}":
                var = self.expect_name()
                self.expect(":=")
                rhs = self.parse_expr()
                self.expect(";")
                body.append((var.text, rhs))
            self.expect("}")
            blocks.append(ActionBlock(aname, qual, tuple(body)))
        self.expect("}")
        return Step(sid, tuple(blocks))

    def _transition(self) -> SfcTransition:
        self.expect("trans")
        tid = self.expect_name().text
        self.expect(":")
        sources = self.parse_name_set()
        self.expect("->")
        targets = self.parse_name_set()
        guard = TRUE
        if self.peek().text == "when":
            self.next()
            guard = self.parse_expr()
        self.expect(";")
        return SfcTransition(tid, sources, targets, guard)


def _typecheck(prog: SfcProgram) -> None:
    env = prog.var_env()
    seen = set()
    for v in prog.vars:
        if v.name in seen:
            raise SfcTypeError(f"variable {v.name!r} declared twice")
        seen.add(v.name)
    for step in prog.steps:
        for blk in step.blocks:
            for var, rhs in blk.body:
                if var not in env:
                    raise UndeclaredVariable(var)
                if infer_type(rhs, env) != env[var]:
                    raise SfcTypeError(
                        f"assignment to {var!r} in step {step.id!r} has the "
                        "wrong type")
    for tr in prog.transitions:
        if infer_type(tr.guard, env) != "bool":
            raise SfcTypeError(f"guard of {tr.id!r} is not boolean")


def parse_sfc(text: str) -> SfcProgram:
    """Parse an SFC document; raises SfcSyntaxError / SfcTypeError /
    UndeclaredVariable with positions on malformed input."""
    return _Parser(text).parse_program()


# ---------------------------------------------------------------------------
# validation


def self_loop_id(step_id: str) -> str:
    """Id of the transition ``translate`` loops on a step with an active
    body; no SFC transition may take it."""
    return f"{step_id}__u"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    where: str = ""

    def __str__(self):
        loc = f" [{self.where}]" if self.where else ""
        return f"{self.code}: {self.message}{loc}"


def validate_sfc(prog: SfcProgram) -> list:
    """Structural well-formedness; empty list means the program is valid."""
    diags = []
    step_ids = {s.id for s in prog.steps}
    seen = set()
    for s in prog.steps:
        if s.id in seen:
            diags.append(Diagnostic("DuplicateStep",
                                    f"step {s.id!r} defined twice", s.id))
        seen.add(s.id)
    self_loops = {self_loop_id(s.id): s.id for s in prog.steps}
    seen_t = set()
    for tr in prog.transitions:
        if tr.id in seen_t:
            diags.append(Diagnostic("DuplicateTransition",
                                    f"transition {tr.id!r} defined twice",
                                    tr.id))
        seen_t.add(tr.id)
        if tr.id in self_loops:
            diags.append(Diagnostic(
                "ReservedTransitionId",
                f"transition {tr.id!r} takes the id reserved for the "
                f"self-loop of step {self_loops[tr.id]!r}", tr.id))
        for src in sorted(tr.sources):
            if src not in step_ids:
                diags.append(Diagnostic(
                    "DanglingSource",
                    f"transition {tr.id!r} reads missing step {src!r}",
                    tr.id))
        for tgt in sorted(tr.targets):
            if tgt not in step_ids:
                diags.append(Diagnostic(
                    "DanglingTarget",
                    f"transition {tr.id!r} targets missing step {tgt!r}",
                    tr.id))
    for sid in sorted(prog.initial_steps):
        if sid not in step_ids:
            diags.append(Diagnostic("UnknownInitialStep",
                                    f"initial step {sid!r} does not exist",
                                    sid))
    # reachability over the flow relation
    reach = set(prog.initial_steps & step_ids)
    frontier = list(reach)
    by_source = prog.outgoing()
    while frontier:
        sid = frontier.pop()
        for tr in by_source.get(sid, ()):
            if tr.sources <= reach:
                for tgt in tr.targets:
                    if tgt in step_ids and tgt not in reach:
                        reach.add(tgt)
                        frontier.append(tgt)
    for s in prog.steps:
        if s.id not in reach:
            diags.append(Diagnostic("UnreachableStep",
                                    f"step {s.id!r} unreachable from init",
                                    s.id))
    return diags


# ---------------------------------------------------------------------------
# printing (canonical text; parse(pretty_print(p)) round-trips)

def expr_to_str(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Unary):
        prec = _PRECEDENCE["u-" if e.op == "-" else e.op]
        # '!' parenthesizes comparisons for readability: !(x >= 1)
        inner_prec = 5 if e.op == "!" else prec
        inner = expr_to_str(e.operand, inner_prec)
        s = f"{e.op}{inner}"
        return f"({s})" if prec < parent_prec else s
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        left = expr_to_str(e.left, prec)
        # +1 on the right: -, /, and comparisons do not associate
        right = expr_to_str(e.right, prec + 1)
        s = f"{left} {e.op} {right}"
        return f"({s})" if prec < parent_prec else s
    raise ValueError(f"cannot print {e!r}")


def _name_set_to_str(names: frozenset) -> str:
    ordered = sorted(names)
    if len(ordered) == 1:
        return ordered[0]
    return "{" + ", ".join(ordered) + "}"


def pretty_print(prog: SfcProgram) -> str:
    out = []
    for v in prog.vars:
        out.append(f"var {v.name} : {v.kind} = {expr_to_str(v.initial)};")
    for s in prog.steps:
        if not s.blocks:
            out.append(f"step {s.id} {{ }}")
            continue
        out.append(f"step {s.id} {{")
        for blk in s.blocks:
            out.append(f"  {blk.qualifier} {blk.action_name} {{")
            for var, rhs in blk.body:
                out.append(f"    {var} := {expr_to_str(rhs)};")
            out.append("  }")
        out.append("}")
    for tr in prog.transitions:
        line = (f"trans {tr.id} : {_name_set_to_str(tr.sources)} -> "
                f"{_name_set_to_str(tr.targets)}")
        if tr.guard != TRUE:
            line += f" when {expr_to_str(tr.guard)}"
        out.append(line + ";")
    out.append(f"init {_name_set_to_str(prog.initial_steps)};")
    return "\n".join(out) + "\n"
