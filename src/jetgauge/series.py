"""Truncated multivariate Taylor series arithmetic.

A series is a plain float64 array of coefficients over a MultiIndexContext,
in Taylor scaling: f(x) = sum_mu a[mu] (x - x0)^mu.  There is one kernel,
in NumPy; nothing is compiled.  Products accumulate over the context's
(i, j, k) product table in table order, so results are deterministic.
Every operation also takes leading batch axes, one series per point, and
gives each point the bits it would get alone.
An ExprMap lift derives each tape slot's support once per context and
runs each product on the table cut to its operands' supports; a lift that
meets inf or NaN runs again on the full tables (ExprMap.taylor_lift).
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


def _ladder(key, c: np.ndarray, order: int) -> np.ndarray:
    """The ladders g^(k)(c)/k!, k = 0..order, at each constant term of the
    block c, as (..., order + 1); key names g or is a real exponent alpha,
    g(x) = x ** alpha.  Each value gets the bits of a block of one:

    * exp alone keeps numpy's loop, one np.exp over the block, as it always
      has: its SIMD lanes work each value alone, and math.exp would move
      report bits (it differs from the AVX-512 np.exp on some values).
    * sin, cos and log's constant term are libm's math.sin(c + k pi/2) and
      math.log(c), one value at a time: np.log follows CPU dispatch, and
      on AVX-512 differs from math.log on some values; numpy's trig loops
      promise no more.  A non-finite c gives them NaN, not math's error.
    * recip and log's higher terms are block powers c ** k, one scalar
      integer exponent per call; an exponent array moves bits.
    * sqrt is alpha = 0.5.  The binomials are one running product, and each
      c ** (alpha - k) is libm's pow on one value as a numpy scalar, so an
      overflow gives inf; np.power over the block moves bits.

    A DomainError names the first failing value in batch order.
    """
    ks = range(order + 1)
    fact = np.array([math.factorial(k) for k in ks], float)
    if key == "exp":
        return np.exp(c)[..., None] / fact
    flat = c.ravel().tolist()
    if key in ("sin", "cos"):
        fn, shifts = getattr(math, key), [k * math.pi / 2 for k in ks]
        terms = [fn(v + s) if math.isfinite(v) else math.nan
                 for v in flat for s in shifts]
        return np.reshape(terms, c.shape + (order + 1,)) / fact
    if isinstance(key, str) and key not in ("log", "sqrt", "recip"):
        raise ValueError(f"unknown analytic function {key!r}")
    bad = c == 0.0 if key == "recip" else c <= 0.0
    if bad.any():
        v = flat[int(bad.argmax())]
        raise DomainError({
            "recip": "division by a series with zero constant term",
            "log": f"log of nonpositive value {v}",
            "sqrt": f"sqrt of negative value {v}" if v < 0.0
            else "sqrt is not smooth at 0; cannot expand",
        }.get(key, f"{v} raised to non-integer power {key}"))
    if key == "log":
        return np.stack([np.reshape([math.log(v) for v in flat], c.shape)]
                        + [(-1.0) ** (k + 1) / (k * c**k) for k in ks[1:]], -1)
    if key == "recip":
        return np.stack([(-1.0) ** k / c ** (k + 1) for k in ks], -1)
    alpha = 0.5 if key == "sqrt" else key
    binom = np.cumprod([1.0] + [alpha - s for s in ks[:-1]]) / fact
    powers = [np.float64(alpha - k) for k in ks]
    terms = [v ** p for v in flat for p in powers]
    return binom * np.reshape(terms, c.shape + (order + 1,))


def analytic(ctx: MultiIndexContext, name: str, a: np.ndarray) -> np.ndarray:
    return compose_univariate(ctx, _ladder(name, a[..., 0], ctx.order), a)


def div(ctx: MultiIndexContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return mul(ctx, a, analytic(ctx, "recip", b))


def powc(ctx: MultiIndexContext, a: np.ndarray, alpha: float) -> np.ndarray:
    """a ** alpha with constant real exponent.  A whole k >= 0 takes the
    chain ((1*a)*a)*a up to k = 3; above, the power of k's top two bits is
    squared once per further bit, times a on a 1: O(log k) products."""
    if float(alpha).is_integer():
        k = int(alpha)
        if k >= 0:
            out = const(ctx, 1.0)
            for _ in range(int(bin(k)[2:4], 2)):
                out = mul(ctx, out, a)
            for bit in bin(k)[4:]:
                out = mul(ctx, out, out)
                out = mul(ctx, out, a) if bit == "1" else out
            return out
        if (a.T[0] == 0.0).any():
            raise DomainError("zero raised to a negative power")
        return powc(ctx, analytic(ctx, "recip", a), -k)
    return compose_univariate(ctx, _ladder(alpha, a[..., 0], ctx.order), a)


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
