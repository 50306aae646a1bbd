"""Multi-index bookkeeping shared by every truncated-Taylor computation.

A context fixes the number of variables and the truncation order and owns
the graded-lexicographic index table plus the precomputed product table the
series kernels run on.  Ordering: indices are sorted by total degree first,
ties broken lexicographically with the first variable largest, so the
constant term sits at position 0 and truncation to a lower order is a pure
prefix slice.
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
        mu = self.midx[row].copy()
        mu[var] += 1
        return self.position.get(tuple(mu), -1)


def _exponent_rows(nvars: int, order: int) -> np.ndarray:
    rows = []
    for deg in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), deg):
            mu = [0] * nvars
            for v in combo:
                mu[v] += 1
            rows.append(mu)
    return np.array(rows, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def context(nvars: int, order: int) -> MultiIndexContext:
    if nvars < 1:
        raise ValueError(f"need at least one variable, got {nvars}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    midx = _exponent_rows(nvars, order)
    degree = midx.sum(axis=1)
    position = {tuple(row): k for k, row in enumerate(midx)}
    factorial = np.array(
        [math.prod(math.factorial(int(e)) for e in row) for row in midx],
        dtype=np.float64,
    )

    ti, tj, tk = [], [], []
    for i in range(len(midx)):
        for j in range(len(midx)):
            if degree[i] + degree[j] > order:
                continue
            ti.append(i)
            tj.append(j)
            tk.append(position[tuple(midx[i] + midx[j])])
    return MultiIndexContext(
        nvars=nvars,
        order=order,
        midx=midx,
        degree=degree,
        factorial=factorial,
        position=position,
        mul_i=np.array(ti, dtype=np.int64),
        mul_j=np.array(tj, dtype=np.int64),
        mul_k=np.array(tk, dtype=np.int64),
    )


def binom_mu(mu, nu) -> float:
    """Product of componentwise binomials C(mu_a, nu_a)."""
    return float(math.prod(math.comb(int(m), int(n)) for m, n in zip(mu, nu)))
