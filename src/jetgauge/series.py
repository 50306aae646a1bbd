"""Truncated multivariate Taylor series arithmetic.

A series is a plain float64 array of coefficients over a MultiIndexContext,
in Taylor scaling: f(x) = sum_mu a[mu] (x - x0)^mu.  There is one kernel,
in NumPy; nothing is compiled.  Products accumulate over the context's
(i, j, k) product table in table order, so results are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from ._multiindex import MultiIndexContext, context


class DomainError(ArithmeticError):
    """Evaluation left the real domain (division by zero, log of a
    nonpositive value, sqrt of a negative, zero to a negative power)."""


def zeros(ctx: MultiIndexContext) -> np.ndarray:
    return np.zeros(ctx.count)


def const(ctx: MultiIndexContext, value: float) -> np.ndarray:
    out = np.zeros(ctx.count)
    out[0] = value
    return out


def coordinate(ctx: MultiIndexContext, var: int, base_value: float) -> np.ndarray:
    """Series of the coordinate function x_var around the base point."""
    out = np.zeros(ctx.count)
    out[0] = base_value
    if ctx.order >= 1:
        out[1 + var] = 1.0
    return out


def mul(ctx: MultiIndexContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.add.at applies repeated indices in element order: table order.
    out = np.zeros(ctx.count)
    np.add.at(out, ctx.mul_k, a[ctx.mul_i] * b[ctx.mul_j])
    return out


def compose_univariate(ctx: MultiIndexContext, ladder: np.ndarray,
                       a: np.ndarray) -> np.ndarray:
    """sum_r ladder[r] * (a - a[0])^r by Horner; ladder[r] = g^(r)(a0)/r!."""
    h = a.copy()
    h[0] = 0.0
    out = const(ctx, ladder[-1])
    for r in range(len(ladder) - 2, -1, -1):
        out = mul(ctx, out, h)
        out[0] += ladder[r]
    return out


def _real_binom(alpha: float, r: int) -> float:
    num = 1.0
    for s in range(r):
        num *= alpha - s
    return num / math.factorial(r)


def _ladder(name: str, c0: float, order: int) -> np.ndarray:
    r = np.arange(order + 1)
    if name == "exp":
        return np.exp(c0) / np.array([math.factorial(k) for k in r])
    if name == "sin":
        return np.array([math.sin(c0 + k * math.pi / 2) / math.factorial(k) for k in r])
    if name == "cos":
        return np.array([math.cos(c0 + k * math.pi / 2) / math.factorial(k) for k in r])
    if name == "log":
        if c0 <= 0.0:
            raise DomainError(f"log of nonpositive value {c0}")
        out = [math.log(c0)]
        out += [(-1.0) ** (k + 1) / (k * c0**k) for k in r[1:]]
        return np.array(out)
    if name == "sqrt":
        if c0 < 0.0:
            raise DomainError(f"sqrt of negative value {c0}")
        if c0 == 0.0:
            raise DomainError("sqrt is not smooth at 0; cannot expand")
        return np.array([_real_binom(0.5, k) * c0 ** (0.5 - k) for k in r])
    if name == "recip":
        if c0 == 0.0:
            raise DomainError("division by a series with zero constant term")
        return np.array([(-1.0) ** k / c0 ** (k + 1) for k in r])
    raise ValueError(f"unknown analytic function {name!r}")


def analytic(ctx: MultiIndexContext, name: str, a: np.ndarray) -> np.ndarray:
    return compose_univariate(ctx, _ladder(name, float(a[0]), ctx.order), a)


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
        if a[0] == 0.0:
            raise DomainError("zero raised to a negative power")
        return powc(ctx, analytic(ctx, "recip", a), -k)
    c0 = float(a[0])
    if c0 <= 0.0:
        raise DomainError(f"{c0} raised to non-integer power {alpha}")
    ladder = np.array([_real_binom(alpha, r) * c0 ** (alpha - r)
                       for r in range(ctx.order + 1)])
    return compose_univariate(ctx, ladder, a)


def dvar(ctx: MultiIndexContext, a: np.ndarray, var: int) -> np.ndarray:
    """Derivative in Taylor scaling, over any leading batch axes of a.
    The result is trustworthy only through order ctx.order - 1; callers
    lift one order higher than they consume."""
    out = np.zeros(a.shape[:-1] + (ctx.count,))
    for row in range(ctx.count):
        src = ctx.shifted(row, var)
        if src >= 0:
            out[..., row] = a[..., src] * (ctx.midx[row][var] + 1)
    return out


def truncate(ctx_hi: MultiIndexContext, a: np.ndarray, order: int) -> np.ndarray:
    """Drop to a lower order; rows are a prefix in the graded ordering."""
    ctx_lo = context(ctx_hi.nvars, order)
    return a[..., : ctx_lo.count].copy()


def raw_from_taylor(ctx: MultiIndexContext, a: np.ndarray) -> np.ndarray:
    return a * ctx.factorial


def taylor_from_raw(ctx: MultiIndexContext, a: np.ndarray) -> np.ndarray:
    return a / ctx.factorial
