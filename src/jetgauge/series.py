"""Truncated multivariate Taylor series arithmetic.

A series is a plain float64 array of coefficients over a MultiIndexContext,
in Taylor scaling: f(x) = sum_mu a[mu] (x - x0)^mu.  There is one kernel,
in NumPy; nothing is compiled.  Products accumulate over the context's
(i, j, k) product table in table order, so results are deterministic.
Every operation also takes leading batch axes, one series per point, and
gives each point the bits it would get alone.
"""

from __future__ import annotations

import math

import numpy as np

from ._multiindex import MultiIndexContext, raised_rows

__all__ = [
    "DomainError", "InverseSolveError", "const", "coordinate", "mul",
    "compose_univariate", "analytic", "div", "powc", "dvar", "spencer",
]


class DomainError(ArithmeticError):
    """Evaluation left the real domain (division by zero, log of a
    nonpositive value, sqrt of a negative, zero to a negative power)."""


class InverseSolveError(RuntimeError):
    """The point inversion of f(., x) failed to converge."""


def const(ctx: MultiIndexContext, value) -> np.ndarray:
    """Constant series; an array value gives one series per entry."""
    out = np.zeros(getattr(value, "shape", ()) + (ctx.count,))
    out[..., 0] = value
    return out


def coordinate(ctx: MultiIndexContext, var: int, base_value) -> np.ndarray:
    """Series of the coordinate function x_var around the base point(s)."""
    out = const(ctx, base_value)
    if ctx.order >= 1:
        out[..., 1 + var] = 1.0
    return out


def _gather(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a[..., index]: take is quicker up to a few dozen series, fancy
    indexing beyond; both copy the same values."""
    return a.take(index, -1) if a.size <= 32 * a.shape[-1] else a[..., index]


def mul(ctx: MultiIndexContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product over any leading batch axes of a and b, which broadcast.

    np.bincount adds its weights one at a time, in index order, onto
    zeros, so every coefficient starts at 0.0 and gains its products in
    table order.  On a batch the flat index runs through the series in C
    order and through the table within each one, so each series gets the
    sums it gets alone.  At order 0 the one product onto +0.0 is that
    sum, with the same broadcasting.
    """
    if ctx.count == 1:
        return a * b + 0.0
    if a.ndim == 1 and b.ndim == 1:
        # One series, as in a one-point lift: skip the batch bookkeeping.
        return np.bincount(ctx.mul_k, a[ctx.mul_i] * b[ctx.mul_j],
                           minlength=ctx.count)
    prods = _gather(a, ctx.mul_i) * _gather(b, ctx.mul_j)
    nbatch = prods.size // ctx.mul_k.size
    if nbatch == 0:
        # bincount of no weights returns int64 zeros; an empty block stays float
        return np.zeros(prods.shape[:-1] + (ctx.count,))
    out = np.bincount(ctx.flat_mul_k(nbatch), prods.reshape(-1),
                      minlength=nbatch * ctx.count)
    return out.reshape(prods.shape[:-1] + (ctx.count,))


def compose_univariate(ctx: MultiIndexContext, ladder: np.ndarray,
                       a: np.ndarray) -> np.ndarray:
    """sum_r ladder[r] * (a - a[0])^r by Horner; ladder[r] = g^(r)(a0)/r!.

    Both may carry leading batch axes, ladder as (..., order + 1).  The
    transposes reach the constant terms of a batch with the same cheap
    indexing as one series."""
    h = a.copy()
    h.T[0] = 0.0
    terms = ladder.T                  # one row per power, batch axes reversed
    out = const(ctx, terms[-1].T)
    for r in range(len(terms) - 2, -1, -1):
        out = mul(ctx, out, h)
        out.T[0] += terms[r]
    return out


def _real_binom(alpha: float, r: int) -> float:
    num = 1.0
    for s in range(r):
        num *= alpha - s
    return num / math.factorial(r)


def _ladder(name: str, c0: float, order: int) -> list[float]:
    # sin and cos loop over Python ints, several times quicker than numpy
    # integers and the same bits.  The powers below keep numpy integers, so
    # that an overflow gives inf, not Python's OverflowError.
    ks = range(order + 1)
    r = np.arange(order + 1)
    if name == "sin":
        return [math.sin(c0 + k * math.pi / 2) / math.factorial(k) for k in ks]
    if name == "cos":
        return [math.cos(c0 + k * math.pi / 2) / math.factorial(k) for k in ks]
    if name == "log":
        if c0 <= 0.0:
            raise DomainError(f"log of nonpositive value {c0}")
        out = [math.log(c0)]
        out += [(-1.0) ** (k + 1) / (k * c0**k) for k in r[1:]]
        return out
    if name == "sqrt":
        if c0 < 0.0:
            raise DomainError(f"sqrt of negative value {c0}")
        if c0 == 0.0:
            raise DomainError("sqrt is not smooth at 0; cannot expand")
        return [_real_binom(0.5, k) * c0 ** (0.5 - k) for k in r]
    if name == "recip":
        if c0 == 0.0:
            raise DomainError("division by a series with zero constant term")
        return [(-1.0) ** k / c0 ** (k + 1) for k in r]
    raise ValueError(f"unknown analytic function {name!r}")


def _power_ladder(alpha: float, c0: float, order: int) -> list[float]:
    if c0 <= 0.0:
        raise DomainError(f"{c0} raised to non-integer power {alpha}")
    return [_real_binom(alpha, r) * c0 ** (alpha - r) for r in range(order + 1)]


def _ladders(build, key, a: np.ndarray, order: int) -> np.ndarray:
    """The ladders at the constant term c of each series in a, as one
    block (..., order + 1).

    exp is one np.exp over the block, divided by the factorials: numpy's
    dispatched loop, SIMD where the CPU has it and not libm's math.exp,
    whose lanes work each value alone, so each gets the bits of a block of
    one.  Every other key is build(key, c, order), a list, for each value
    in batch order, so a DomainError names the first failing point: libm's
    math.sin and math.cos, or Python arithmetic on c.
    """
    c0 = a[..., 0]
    if key == "exp":
        return np.exp(c0)[..., None] / np.array(
            [math.factorial(k) for k in range(order + 1)])
    rows = [build(key, c, order) for c in c0.ravel().tolist()]
    return np.array(rows).reshape(c0.shape + (order + 1,))


def analytic(ctx: MultiIndexContext, name: str, a: np.ndarray) -> np.ndarray:
    ladder = _ladders(_ladder, name, a, ctx.order)
    return compose_univariate(ctx, ladder, a)


def div(ctx: MultiIndexContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return mul(ctx, a, analytic(ctx, "recip", b))


def powc(ctx: MultiIndexContext, a: np.ndarray, alpha: float) -> np.ndarray:
    """a ** alpha with constant real exponent."""
    if float(alpha).is_integer():
        k = int(alpha)
        if k >= 0:
            out = const(ctx, 1.0)
            for _ in range(k):
                out = mul(ctx, out, a)
            return out
        if (a.T[0] == 0.0).any():
            raise DomainError("zero raised to a negative power")
        return powc(ctx, analytic(ctx, "recip", a), -k)
    ladder = _ladders(_power_ladder, alpha, a, ctx.order)
    return compose_univariate(ctx, ladder, a)


def dvar(ctx: MultiIndexContext, a: np.ndarray, var: int) -> np.ndarray:
    """Derivative in Taylor scaling, over any leading batch axes of a, by
    one gather of the raised rows; the top rows stay 0.0, so it is
    trustworthy only through order ctx.order - 1, and callers lift one
    order higher than they consume."""
    up = raised_rows(ctx.nvars, ctx.order)[var]
    out = np.zeros(a.shape[:-1] + (ctx.count,))
    out[..., :len(up)] = _gather(a, up) * (ctx.midx[:len(up), var] + 1.0)
    return out


def spencer(ctx_x: MultiIndexContext, tab: np.ndarray, q: int) -> np.ndarray:
    """Spencer operator (D xi)^k_{mu,i} = d_i xi^k_mu - xi^k_{mu+e_i}.

    tab (..., ncomp, rows_{q+1}, ctx_x.count) holds the raw slots of a
    section of order q + 1 as x-series; the result (..., n, ncomp, rows_q,
    count_{x-1}) holds D in each direction i through x-order
    ctx_x.order - 1, the most the derivative leaves valid."""
    up = raised_rows(ctx_x.nvars, q + 1)
    keep = ctx_x.count_up_to(ctx_x.order - 1)
    low = tab[..., :up.shape[1], :]
    return np.stack([dvar(ctx_x, low, i)[..., :keep] - tab[..., up[i], :keep]
                     for i in range(ctx_x.nvars)], axis=-4)
