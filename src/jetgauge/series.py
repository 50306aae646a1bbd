"""Truncated multivariate Taylor series arithmetic.

A series is a plain float64 array of coefficients over a MultiIndexContext,
in Taylor scaling: f(x) = sum_mu a[mu] (x - x0)^mu.  The multiply and
substitute kernels come compiled when the extension built, with a pure
NumPy twin selected as fallback; JETGAUGE_PURE=1 forces the fallback.
Both kernels accumulate in the same order, so results are bitwise equal.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ._multiindex import MultiIndexContext, context

if os.environ.get("JETGAUGE_PURE"):
    from . import _series_py as _kernel
else:
    try:
        from . import _series_cy as _kernel  # type: ignore[attr-defined]
    except ImportError:
        from . import _series_py as _kernel


class DomainError(ArithmeticError):
    """Evaluation left the real domain (division by zero, log of a
    nonpositive value, sqrt of a negative, zero to a negative power)."""


def kernel_name() -> str:
    return _kernel.KERNEL_NAME


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
    out = np.zeros(ctx.count)
    _kernel.mul_acc(ctx.mul_i, ctx.mul_j, ctx.mul_k, a, b, out)
    return out


def mul_acc(ctx: MultiIndexContext, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    _kernel.mul_acc(ctx.mul_i, ctx.mul_j, ctx.mul_k, a, b, out)


# Parent decomposition per context: monomial mu = (mu - e_t) * x_t with t the
# first variable of positive exponent.  Cached on first use.
_parent_cache: dict = {}


def _parents(ctx: MultiIndexContext):
    key = (ctx.nvars, ctx.order)
    hit = _parent_cache.get(key)
    if hit is not None:
        return hit
    pvar = np.zeros(ctx.count, dtype=np.int64)
    prow = np.zeros(ctx.count, dtype=np.int64)
    for row in range(1, ctx.count):
        mu = ctx.midx[row].copy()
        t = int(np.nonzero(mu)[0][0])
        mu[t] -= 1
        pvar[row] = t
        prow[row] = ctx.pos(mu)
    _parent_cache[key] = (pvar, prow)
    return pvar, prow


def substitute(ctx_out: MultiIndexContext, ctx_in: MultiIndexContext,
               coeffs: np.ndarray, devs: np.ndarray) -> np.ndarray:
    """Truncated composition: outer coefficients over ctx_in, inner deviation
    series (zero constant term, one per inner variable) over ctx_out."""
    if devs.shape != (ctx_in.nvars, ctx_out.count):
        raise ValueError("deviation block has the wrong shape")
    if np.any(devs[:, 0] != 0.0):
        raise ValueError("inner series must have zero constant term")
    coeffs = np.atleast_2d(coeffs)
    out = np.zeros((coeffs.shape[0], ctx_out.count))
    pvar, prow = _parents(ctx_in)
    _kernel.substitute_acc(ctx_out.mul_i, ctx_out.mul_j, ctx_out.mul_k,
                           pvar, prow, coeffs, devs, out)
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
