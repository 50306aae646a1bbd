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
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MultiIndexContext:
    nvars: int
    order: int
    midx: np.ndarray          # (count, nvars) int64 exponent rows
    degree: np.ndarray        # (count,) total degree per row
    factorial: np.ndarray     # (count,) float64, mu!
    position: dict = field(repr=False)   # exponent tuple -> row
    mul_i: np.ndarray = field(repr=False)
    mul_j: np.ndarray = field(repr=False)
    mul_k: np.ndarray = field(repr=False)
    count: int = field(init=False)    # rows, midx.shape[0]
    _flat_k: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)  # nbatch -> flat_mul_k(nbatch)

    def __post_init__(self):
        object.__setattr__(self, "count", self.midx.shape[0])

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

    def shifted(self, row: int, var: int) -> int:
        """Row of mu + e_var, or -1 when that leaves the truncation."""
        mu = self.midx[row] + (np.arange(self.nvars) == var)
        return self.position.get(tuple(mu), -1)


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


@functools.lru_cache(maxsize=None)
def derivative_rows(nvars: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and mu! of every k-th derivative slot, each of shape (nvars,) * k.

    Entry [a1, ..., ak] belongs to mu = e_a1 + ... + e_ak, so both tables
    are symmetric.  The rows index context(nvars, k) and, the ordering
    being graded, every higher-order context too.  Shared and read-only.
    """
    ctx = context(nvars, k)
    rows = np.empty((nvars,) * k, dtype=np.int64)
    for axes in itertools.product(range(nvars), repeat=k):
        rows[axes] = ctx.pos([axes.count(v) for v in range(nvars)])
    fac = ctx.factorial[rows]
    rows.flags.writeable = fac.flags.writeable = False
    return rows, fac


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
    (need, nvars) of the monomials they read, and where each entry reads
    its monomial.  Shared and read-only."""
    binom, rest = shift_table(nvars, degree, xorder)
    if rows is not None:
        binom, rest = binom[list(rows)], rest[list(rows)]
    need, where = np.unique(rest, return_inverse=True)
    gather = exponent_rows(nvars, degree)[need] * nvars + np.arange(nvars)
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
    powers x_v^e are tabled once per point, and a monomial's product of
    its factors over v has the bits of np.prod(x ** gamma).
    """
    binom, gather, where = _shift_plan(nvars, degree, xorder, rows)
    x = np.asarray(x, dtype=float)
    power = x[..., None, :] ** np.arange(degree + 1)[:, None]
    flat = power.reshape(x.shape[:-1] + (-1,))     # x_v^e at e * nvars + v
    monomials = np.prod(np.take(flat, gather, axis=-1), -1)
    # fancy indexing, not take: the callers' einsums run several times
    # quicker on the layout it gives
    shift = monomials[..., where]
    return np.multiply(shift, binom, out=shift)
