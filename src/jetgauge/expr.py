"""Closed-form scalar expressions over named variables.

Grammar (verbatim contract):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' number)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Identifiers are [a-zA-Z][a-zA-Z0-9_]*; the callable functions are sin, cos,
exp, log, sqrt and neg; '^' takes a constant numeric exponent.  The tree
is lifted exactly as parsed, with no rewriting.  Note the grammar places
unary minus inside 'base', so a leading '-x^2' parses as (-x)^2.

Lifting replaces every variable by its truncated Taylor series and replays
the tree on series, which yields exact derivatives of any composite up to
the truncation order.  An ExprMap compiles its trees once into a flat tape
(Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13) and replays
it on one base point or on a block of them; each point of a block gets the
float operations, in the same order, that it gets alone.  There is no
other evaluator: a value is the order-0 coefficient of a lift, on a point
or a block, so values and derivatives share one set of domain rules.
Polynomial data held as coefficients is a PolyMap instead, never a tree:
its jet is a binomial shift of the coefficients, with no tape.
"""

from __future__ import annotations

import functools
import math
import re
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import series
from ._multiindex import (MultiIndexContext, context, derivative_rows,
                          poly_shift)
from .series import DomainError

__all__ = [
    "DomainError", "ParseError", "Expr", "Num", "Var", "Bin", "Pow", "Call",
    "Neg", "ExprMap", "TaylorMap", "PolyMap", "parse_expr", "constant",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "neg")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Expr:
    """Base node; subclasses are frozen dataclasses."""

    def variables(self) -> set[str]:
        # an explicit stack: a long sum is a tree too deep to recurse on
        out: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                out.add(node.name)
            else:
                stack.extend(node.children())
        return out

    def children(self) -> tuple["Expr", ...]:
        return ()

    # Programmatic construction sugar used by the higher modules.
    def __add__(self, other):
        return Bin("+", self, as_expr(other))

    def __radd__(self, other):
        return Bin("+", as_expr(other), self)

    def __sub__(self, other):
        return Bin("-", self, as_expr(other))

    def __rsub__(self, other):
        return Bin("-", as_expr(other), self)

    def __mul__(self, other):
        return Bin("*", self, as_expr(other))

    def __rmul__(self, other):
        return Bin("*", as_expr(other), self)

    def __truediv__(self, other):
        return Bin("/", self, as_expr(other))

    def __rtruediv__(self, other):
        return Bin("/", as_expr(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, exponent):
        return Pow(self, float(exponent))


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    return constant(float(value))


def constant(value: float) -> Expr:
    if not math.isfinite(value):
        raise ValueError(f"non-finite constant {value}")
    if value < 0:
        return Neg(Num(-value))
    return Num(float(value))


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def children(self):
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def children(self):
        return (self.base,)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def children(self):
        return (self.arg,)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def children(self):
        return (self.arg,)


_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _parse_error(text: str, message: str, offset: int) -> ParseError:
    """A ParseError at a character offset of text, by line and column.

    Tokens keep only their offset: the position is worked out here, for the
    one token that fails, not for every token read.
    """
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise _parse_error(text, f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, declared: Sequence[str] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.declared = None if declared is None else set(declared)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token) -> ParseError:
        return _parse_error(self.text, message, tok.offset)

    def expect(self, text: str) -> _Token:
        tok = self.advance()
        if tok.text != text:
            shown = tok.text or "end of input"
            raise self.error(f"expected {text!r}, found {shown!r}", tok)
        return tok

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = Bin(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.peek().text == "^":
            self.advance()
            tok = self.advance()
            if tok.kind != "num":
                raise self.error("exponent must be a numeric literal", tok)
            node = Pow(node, float(tok.text))
        return node

    def parse_base(self) -> Expr:
        tok = self.advance()
        if tok.text == "-":
            return Neg(self.parse_base())
        if tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            if self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise self.error(f"unknown function {tok.text!r}", tok)
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return Neg(arg) if tok.text == "neg" else Call(tok.text, arg)
            if self.declared is not None and tok.text not in self.declared:
                raise self.error(f"undeclared variable {tok.text!r}", tok)
            return Var(tok.text)
        shown = tok.text or "end of input"
        raise self.error(f"unexpected {shown!r}", tok)


def parse_expr(text: str, variables: Sequence[str] | None = None) -> Expr:
    parser = _Parser(text, variables)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise parser.error(f"trailing input {tok.text!r}", tok)
    return node


@dataclass(frozen=True)
class TaylorMap:
    """Taylor coefficients of a vector map around a base point.

    coeffs[k, r] multiplies (x - base)^mu(r); raw derivatives are the same
    table scaled by mu!.  A block lift around bases of shape (..., nvars)
    carries the same leading axes, with a stacked PolyMap's broadcast
    against them: coeffs[..., k, r].
    """

    variables: tuple[str, ...]
    base: np.ndarray
    order: int
    coeffs: np.ndarray

    @property
    def ctx(self) -> MultiIndexContext:
        return context(len(self.variables), self.order)

    @property
    def nin(self) -> int:
        return len(self.variables)

    def raw(self, component: int, mu):
        """A float, or an array over the batch axes of a block lift."""
        ctx = self.ctx
        pos = ctx.pos(mu)
        out = self.coeffs[..., component, pos] * ctx.factorial[pos]
        return float(out) if out.ndim == 0 else out

    def derivative(self, k: int) -> np.ndarray:
        """Every raw k-th derivative, (..., nout) + (nin,) * k, symmetric in
        its last k axes: entry [..., c, a1, ..., ak] is
        d^k f_c / dx_a1 ... dx_ak.  A fresh C-contiguous array."""
        if not 1 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside 1..{self.order}")
        rows, fac = derivative_rows(self.nin, k)
        # coeffs[..., rows] would come out strided, and the einsum and
        # matmul kernels callers then run give other bits on such a layout
        return np.take(self.coeffs, rows, axis=-1) * fac

    def value(self) -> np.ndarray:
        return self.coeffs[..., 0].copy()

    def jacobian(self) -> np.ndarray:
        return self.coeffs[..., 1 : 1 + self.nin].copy()


@dataclass(frozen=True)
class PolyMap:
    """Vector polynomial map: coeffs[..., k, b] multiplies x^beta for row b
    of exponent_rows(nvars, degree).  Leading axes of coeffs stack maps,
    and they broadcast against the leading axes of the points lifted.  Its
    jet is a binomial shift of the coefficients, exact linear algebra with
    no tape."""

    variables: tuple[str, ...]
    degree: int
    coeffs: np.ndarray

    @classmethod
    def stack(cls, maps: Sequence["PolyMap"]) -> "PolyMap":
        """Maps over one variable tuple and degree as one map of coeffs
        (K, 1, nout, count): it lifts points (M, nvars), or points
        (K, M, nvars) one block per map, to (K, M, nout, count)."""
        return cls(maps[0].variables, maps[0].degree,
                   np.stack([f.coeffs for f in maps])[:, None])

    def __len__(self) -> int:
        return self.coeffs.shape[-2]

    def eval(self, points) -> np.ndarray:
        """Values at one point (nvars,) or a block (..., nvars): the
        order-0 coefficients of the lift."""
        return self.taylor_lift(points, 0).value()

    def taylor_lift(self, base, order: int) -> TaylorMap:
        """Lift around one point or a block (..., nvars), one power table
        and one contraction for every map of a stack; each point of a
        block gets the bits it gets alone.  Only the monomials with a
        nonzero coefficient in some map are shifted."""
        base = np.asarray(base, dtype=float)
        if base.ndim == 0 or base.shape[-1] != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} base values")
        shift = poly_shift(len(self.variables), self.degree, base, order,
                           self._support)
        return TaylorMap(self.variables, base, order, np.einsum(
            "...kb,...bw->...kw", self.coeffs[..., self._support], shift))

    @functools.cached_property
    def _support(self) -> tuple[int, ...]:
        """The monomial rows with a nonzero coefficient."""
        rows = self.coeffs.reshape(-1, self.coeffs.shape[-1]).any(axis=0)
        return tuple(np.flatnonzero(rows).tolist())


def _random_poly(rng: np.random.Generator, names: tuple[str, ...],
                 monomials: tuple[tuple[str, ...], ...], scale: float,
                 affine: np.ndarray) -> PolyMap:
    """affine plus random monomial terms, one component per row of affine.

    A monomial lists its factors, so ("x1", "x1") is x1^2.  Each component
    draws rng.uniform(-1, 1) * scale for its monomials in turn; affine
    (nout, 1 + len(names)) holds the constant and linear coefficients,
    which are the first slots of the graded basis.
    """
    degree = max(map(len, monomials))
    ctx = context(len(names), degree)
    slots = [ctx.pos([mono.count(v) for v in names]) for mono in monomials]
    coeffs = np.zeros((len(affine), ctx.count))
    coeffs[:, :len(names) + 1] = affine
    for row in coeffs:
        row[slots] += rng.uniform(-1.0, 1.0, size=len(monomials)) * scale
    return PolyMap(names, degree, coeffs)


def _compile(variables: Sequence[str], exprs: Sequence[Expr]):
    """Flatten expression trees into a tape in lift evaluation order.

    Each entry is (kind, payload, child slots).  Beside the tape come the
    slots of the outputs and, per entry, the slots last read there, which
    a lift may drop so that a block holds only the live series.  A node met
    again, by object identity or by kind, payload and child slots, reuses
    its slot, so a repeated subtree is lifted once.  Keys never touch
    Expr.__hash__, which recurses through the whole subtree on every call,
    and Num payloads are keyed by their bit pattern, so 0.0 and -0.0 keep
    separate slots.
    """
    index = {name: k for k, name in enumerate(variables)}
    tape: list[tuple] = []
    by_id: dict[int, int] = {}
    by_key: dict[tuple, int] = {}

    def emit(node: Expr, kids: tuple[int, ...]) -> None:
        if isinstance(node, Bin):
            key, entry = (node.op, kids), (node.op, None, kids)
        elif isinstance(node, Num):
            key = ("num", struct.pack("<d", node.value))
            entry = ("num", node.value, ())
        elif isinstance(node, Var):
            key = entry = ("var", index[node.name], ())
        elif isinstance(node, Pow):
            key = ("^", struct.pack("<d", node.exponent), kids)
            entry = ("^", node.exponent, kids)
        elif isinstance(node, Call) and node.func != "neg":
            key = entry = ("call", node.func, kids)
        elif isinstance(node, (Call, Neg)):
            key, entry = ("neg", kids), ("neg", None, kids)
        else:
            raise TypeError(f"cannot compile {type(node).__name__}")
        slot = by_key.get(key)
        if slot is None:
            slot = by_key[key] = len(tape)
            tape.append(entry)
        by_id[id(node)] = slot

    # a recursive walk's order, children left to right before their
    # parent, from an explicit stack: a long sum is too deep to recurse on.
    # The bottom entry stands for the list of outputs; a leaf is emitted
    # as soon as it is met.
    stack = [(None, exprs, iter(exprs))]
    while stack:
        node, kids, todo = stack[-1]
        for kid in todo:
            if id(kid) not in by_id:
                grand = kid.children()
                if not grand:
                    emit(kid, ())
                    continue
                stack.append((kid, grand, iter(grand)))
                break
        else:
            stack.pop()
            if stack:
                emit(node, tuple(map(by_id.__getitem__, map(id, kids))))
    outputs = tuple(by_id[id(e)] for e in exprs)
    last_read = {kid: e for e, (_, _, kids) in enumerate(tape) for kid in kids}
    dead: list[list[int]] = [[] for _ in tape]
    for slot, e in last_read.items():
        if slot not in outputs:
            dead[e].append(slot)
    return tuple(tape), outputs, tuple(map(tuple, dead))


class ExprMap:
    """Ordered list of expressions over a declared variable tuple."""

    def __init__(self, variables: Sequence[str], exprs: Sequence[Expr]):
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        self.variables = tuple(variables)
        self.exprs = tuple(exprs)
        declared = set(self.variables)
        for e in self.exprs:
            loose = e.variables() - declared
            if loose:
                raise ValueError(f"undeclared variables {sorted(loose)}")

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "ExprMap":
        parser = _Parser(text, variables)
        exprs = [parser.parse_expr()]
        while parser.peek().text == ",":
            parser.advance()
            exprs.append(parser.parse_expr())
        tok = parser.peek()
        if tok.kind != "end":
            raise parser.error(f"trailing input {tok.text!r}", tok)
        return cls(variables, exprs)

    @classmethod
    def identity(cls, variables: Sequence[str]) -> "ExprMap":
        """The map sending each variable to itself."""
        return cls(variables, [Var(v) for v in variables])

    def __len__(self) -> int:
        return len(self.exprs)

    def __iter__(self) -> Iterator[Expr]:
        return iter(self.exprs)

    def eval(self, points) -> np.ndarray:
        """Values at one point (nvars,) or a block (..., nvars): the
        order-0 coefficients of the lift, so a value obeys the lift's
        domain rules and an overflow gives inf."""
        return self.taylor_lift(points, 0).value()

    @functools.cached_property
    def _tape(self):
        return _compile(self.variables, self.exprs)

    @functools.cached_property
    def degree(self) -> int | None:
        """Total polynomial degree, or None when some component is not a
        polynomial: it holds a call, a negative or non-integer power, or a
        division by a non-constant.  One pass over the tape, so a long sum
        needs no recursion."""
        tape, outputs, _ = self._tape
        degs: list[int | None] = []
        for kind, payload, kids in tape:
            sub = [degs[k] for k in kids]
            if None in sub or kind == "call":
                deg = None
            elif kind == "num":
                deg = 0
            elif kind == "var":
                deg = 1
            elif kind == "*":
                deg = sub[0] + sub[1]
            elif kind == "/":
                deg = sub[0] if sub[1] == 0 else None
            elif kind == "^":
                whole = float(payload).is_integer() and payload >= 0
                deg = sub[0] * int(payload) if whole else None
            else:                             # + - neg
                deg = max(sub)
            degs.append(deg)
        out = [degs[slot] for slot in outputs]
        return None if None in out else max(out, default=0)

    def taylor_lift(self, base, order: int) -> TaylorMap:
        """Lift around one base point, or a block of shape (..., nvars).

        A block runs the tape once on stacked series; every point gets the
        bits it gets alone.  A point outside the domain raises the
        DomainError that lifting point by point raises first.
        """
        base = np.asarray(base, dtype=float)
        if base.ndim == 0 or base.shape[-1] != len(self.variables):
            raise ValueError(f"expected {len(self.variables)} base values")
        ctx = context(len(self.variables), order)
        try:
            coeffs = self._run(ctx, base)
        except DomainError:
            # The block stops at the first failing slot, which need not be
            # where the first point fails; replay point by point to raise
            # the error that the first failing point meets.
            for point in base.reshape(-1, base.shape[-1])[:-1]:
                self._run(ctx, point)
            raise
        return TaylorMap(self.variables, base, order, coeffs)

    def _run(self, ctx: MultiIndexContext, base: np.ndarray) -> np.ndarray:
        tape, outputs, dead = self._tape
        vals: list[np.ndarray | None] = []
        for (kind, payload, kids), done in zip(tape, dead):
            if kind == "*":
                out = series.mul(ctx, vals[kids[0]], vals[kids[1]])
            elif kind == "+":
                out = vals[kids[0]] + vals[kids[1]]
            elif kind == "var":
                out = series.coordinate(ctx, payload, base[..., payload])
            elif kind == "num":
                out = series.const(ctx, payload)
            elif kind == "-":
                out = vals[kids[0]] - vals[kids[1]]
            elif kind == "^":
                out = series.powc(ctx, vals[kids[0]], payload)
            elif kind == "call":
                out = series.analytic(ctx, payload, vals[kids[0]])
            elif kind == "neg":
                out = -vals[kids[0]]
            else:
                out = series.div(ctx, vals[kids[0]], vals[kids[1]])
            vals.append(out)
            for slot in done:
                vals[slot] = None
        # Assignment broadcasts constant outputs, which carry no batch axes.
        coeffs = np.empty(base.shape[:-1] + (len(outputs), ctx.count))
        for k, slot in enumerate(outputs):
            coeffs[..., k, :] = vals[slot]
        return coeffs
