"""Multi-index bookkeeping shared by every truncated-Taylor computation.

A context fixes the number of variables and the truncation order and owns
the graded-lexicographic index table plus the precomputed product table the
series kernels run on.  Ordering: indices are sorted by total degree first,
ties broken lexicographically with the first variable largest, so the
constant term sits at position 0 and truncation to a lower order is a pure
prefix slice.

The one polynomial-jet kernel lives here too: `poly_shift` takes monomial
coefficients to Taylor coefficients at a point by binomial shift, with no
product table, so a polynomial's jet is exact linear algebra.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _Frozen


class MultiIndexContext(_Frozen):
    """The index table of nvars variables to order, and the product table
    (mul_i, mul_j, mul_k): row i times row j adds to row k."""

    __slots__ = ("nvars", "order", "midx", "degree", "factorial", "position",
                 "mul_i", "mul_j", "mul_k", "count", "_flat_k")

    def __init__(self, nvars: int, order: int,
                 midx: np.ndarray,          # (count, nvars) int64 exponents
                 degree: np.ndarray,        # (count,) total degree per row
                 factorial: np.ndarray,     # (count,) float64, mu!
                 position: dict,            # exponent tuple -> row
                 mul_i: np.ndarray, mul_j: np.ndarray, mul_k: np.ndarray):
        self._init(nvars=nvars, order=order, midx=midx, degree=degree,
                   factorial=factorial, position=position, mul_i=mul_i,
                   mul_j=mul_j, mul_k=mul_k, count=midx.shape[0],
                   _flat_k={})              # nbatch -> flat_mul_k(nbatch)

    def __repr__(self) -> str:
        return (f"MultiIndexContext(nvars={self.nvars!r}, "
                f"order={self.order!r}, midx={self.midx!r}, "
                f"degree={self.degree!r}, factorial={self.factorial!r}, "
                f"count={self.count!r})")

    def pos(self, mu) -> int:
        return self.position[tuple(mu)]

    def count_up_to(self, order: int) -> int:
        """Rows of degree <= order; a prefix thanks to the graded ordering."""
        return int(np.searchsorted(self.degree, order + 1))

    def flat_mul_k(self, nbatch: int) -> np.ndarray:
        """mul_k for nbatch series stored back to back in one flat array."""
        flat = self._flat_k.get(nbatch)
        if flat is None:
            flat = (np.arange(nbatch)[:, None] * self.count
                    + self.mul_k).ravel()
            self._flat_k[nbatch] = flat
        return flat


@functools.lru_cache(maxsize=None)
def exponent_rows(nvars: int, order: int) -> np.ndarray:
    """(count, nvars) exponent rows in graded order; shared and read-only."""
    combos = (combo for deg in range(order + 1) for combo in
              itertools.combinations_with_replacement(range(nvars), deg))
    out = np.array([[combo.count(v) for v in range(nvars)]
                    for combo in combos], dtype=np.int64)
    out.flags.writeable = False
    return out


def _rows_of(midx: np.ndarray, order: int, mu: np.ndarray) -> np.ndarray:
    """Row in midx = exponent_rows(nvars, order) of each exponent row of mu
    (..., nvars), found by its digits in base order + 1."""
    radix = (order + 1) ** np.arange(midx.shape[1])
    code = midx @ radix
    by_code = np.argsort(code)
    return by_code[np.searchsorted(code[by_code], mu @ radix)]


@functools.lru_cache(maxsize=None)
def context(nvars: int, order: int) -> MultiIndexContext:
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    midx = exponent_rows(nvars, order)
    degree = midx.sum(axis=1)
    position = {tuple(row): k for k, row in enumerate(midx)}
    # products of exact integers, so exact
    fac1 = np.array([math.factorial(e) for e in range(order + 1)], float)
    factorial = np.prod(fac1[midx], axis=-1)

    # every (i, j) with degree[i] + degree[j] <= order, row-major
    ti, tj = np.nonzero(degree[:, None] + degree[None, :] <= order)
    tk = _rows_of(midx, order, midx[ti] + midx[tj])
    return MultiIndexContext(nvars=nvars, order=order, midx=midx,
                             degree=degree, factorial=factorial,
                             position=position, mul_i=ti, mul_j=tj, mul_k=tk)


@functools.lru_cache(maxsize=256)
def cut_context(nvars: int, order: int, left: int,
                right: int) -> tuple[MultiIndexContext, int]:
    """context(nvars, order) with its product table cut to the terms
    (i, j, k) with row i in left and j in right, in table order, and the
    rows k they reach.  A support is an int whose little-endian bytes are
    the (count,) bool mask of the rows that can be nonzero, so a union is
    |; every support holds row 0.  Shared by every map."""
    full = context(nvars, order)
    n = full.count
    both = np.frombuffer((left | right << 8 * n).to_bytes(2 * n, "little"),
                         bool)
    keep = both[full.mul_i] & both[n + full.mul_j]
    reach = np.zeros(n, bool)
    reach[full.mul_k[keep]] = True
    cut = full if keep.all() else MultiIndexContext(
        nvars, order, full.midx, full.degree, full.factorial, full.position,
        full.mul_i[keep], full.mul_j[keep], full.mul_k[keep])
    return cut, int.from_bytes(reach.tobytes(), "little")


@functools.lru_cache(maxsize=None)
def derivative_rows(nvars: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and mu! of every k-th derivative slot, each of shape (nvars,) * k.

    Entry [a1, ..., ak] belongs to mu = e_a1 + ... + e_ak, so both tables
    are symmetric.  The rows index context(nvars, k) and, the ordering
    being graded, every higher-order context too.  Shared and read-only.
    """
    rows = np.int64(0)
    for order in range(1, k + 1):
        rows = raised_rows(nvars, order)[:, rows]
    fac = context(nvars, k).factorial[rows]
    rows.flags.writeable = fac.flags.writeable = False
    return rows, fac


@functools.lru_cache(maxsize=None)
def raised_rows(nvars: int, order: int) -> np.ndarray:
    """[i, r]: the row of mu_r + e_i in exponent_rows(nvars, order) for the
    rows r of degree below order, a prefix; the slot d/dx_i reads and the
    Spencer operator shifts to.  (nvars, count_{order-1}), read-only."""
    midx = exponent_rows(nvars, order)
    low = midx[midx.sum(axis=1) < order]
    up = _rows_of(midx, order, low + np.eye(nvars, dtype=np.int64)[:, None])
    up.flags.writeable = False
    return up


@functools.lru_cache(maxsize=None)
def shift_table(nvars: int, degree: int,
                xorder: int) -> tuple[np.ndarray, np.ndarray]:
    """binom(beta, kappa) and the exponent_rows(nvars, degree) row of
    beta - kappa, each (count_degree, count_xorder), for `poly_shift`; both
    are zero where kappa exceeds beta.  Shared and read-only."""
    midx = exponent_rows(nvars, degree)
    beta, kappa = midx[:, None, :], exponent_rows(nvars, xorder)[None, :, :]
    # pascal[m, k] = C(m, k), zero for k > m; the products are exact
    top = max(degree, xorder) + 1
    pascal = np.array([[math.comb(m, k) for k in range(top)]
                       for m in range(degree + 1)], dtype=np.float64)
    binom = np.prod(pascal[beta, kappa], axis=-1)
    rest = _rows_of(midx, degree,
                    np.where(binom[..., None] > 0, beta - kappa, 0))
    binom.flags.writeable = rest.flags.writeable = False
    return binom, rest


@functools.lru_cache(maxsize=256)
def _shift_plan(nvars: int, degree: int, xorder: int,
                rows: tuple[int, ...] | None) -> tuple[np.ndarray, ...]:
    """For the kept rows: their binomials, the power-table entries
    (nvars, need) of the monomials they read, and where each entry reads
    its monomial.  Shared and read-only."""
    binom, rest = shift_table(nvars, degree, xorder)
    if rows is not None:
        binom, rest = binom[list(rows)], rest[list(rows)]
    need, where = np.unique(rest, return_inverse=True)
    gather = np.ascontiguousarray(
        (exponent_rows(nvars, degree)[need] * nvars + np.arange(nvars)).T)
    tables = binom, gather, where.reshape(rest.shape)
    for table in tables:
        table.flags.writeable = False
    return tables


def poly_shift(nvars: int, degree: int, x: np.ndarray, xorder: int,
               rows: tuple[int, ...] | None = None) -> np.ndarray:
    """Map from monomial coefficients to Taylor coefficients around x.

    Shape (..., count_degree, count_xorder) for x of shape (..., nvars);
    entry [b, kp] is binom(beta, kappa) * x^(beta - kappa), the coefficient
    of (. - x)^kappa in the monomial x^beta.  It depends on the point and
    the basis only, so every polynomial lifted at x shares it.  Given
    rows, only those monomial rows b are formed, in that order.  The
    powers are tabled once per point by repeated products,
    x_v^e = x_v^(e-1) * x_v from x_v^0 = 1.0, and a monomial multiplies
    its factors over v in order.  Products only, never the dispatched
    pow, so the bits do not follow the CPU's SIMD level.
    """
    binom, gather, where = _shift_plan(nvars, degree, xorder, rows)
    x = np.asarray(x, dtype=float)
    power = np.empty(x.shape[:-1] + (degree + 1, nvars))
    power[..., 0, :] = 1.0
    for e in range(1, degree + 1):
        np.multiply(power[..., e - 1, :], x, out=power[..., e, :])
    flat = power.reshape(x.shape[:-1] + (-1,))     # x_v^e at e * nvars + v
    factors = np.take(flat, gather, axis=-1)       # (..., nvars, need)
    monomials = factors[..., 0, :]
    for v in range(1, nvars):
        monomials = monomials * factors[..., v, :]
    # fancy indexing, not take: the callers' einsums run several times
    # quicker on the layout it gives
    shift = monomials[..., where]
    return np.multiply(shift, binom, out=shift)
