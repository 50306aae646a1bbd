"""Deterministic sample generation: seeded low-discrepancy points in boxes.

The points are Owen-scrambled Halton points (random digit permutation,
A. B. Owen, "A randomized Halton algorithm in R", arXiv:1706.02808),
implemented here in NumPy.  For an integer seed they match SciPy's
``qmc.scale(qmc.Halton(d, scramble=True, seed=seed).random(count), lo, hi)``
bit for bit: the same generator stream, the same digit weights and the
same order of summation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["Box", "halton_points"]

Box = Sequence[tuple[float, float]]


def _primes(count: int) -> list[int]:
    out: list[int] = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def halton_points(box: Box, count: int, seed: int) -> np.ndarray:
    """Scrambled Halton points inside the box, (count, dim)."""
    box = list(box)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    if not np.all(lo < hi):  # fixture boxes arrive unchecked
        raise ValueError(f"box bounds must satisfy lo < hi: {box}")
    rng = np.random.default_rng(seed)
    idx = np.arange(count)
    unit = np.empty((count, len(box)))
    for dim, base in enumerate(_primes(len(box))):
        # one permutation of the digits per place while base**-k > 2**-54;
        # drawn in one call, they equal `ndigits` successive rng.shuffle calls
        ndigits = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.repeat(np.arange(base)[None], ndigits, axis=0),
                             axis=1)
        weights = np.empty(ndigits)
        b2r = 1.0 / base
        for k in range(ndigits):  # repeated division, not base**-(k+1)
            weights[k] = b2r
            b2r /= base
        digits = idx[:, None] // base ** np.arange(ndigits) % base
        terms = perms[np.arange(ndigits), digits] * weights
        # cumsum adds left to right like the digit loop; np.sum is pairwise
        unit[:, dim] = np.cumsum(terms, axis=1)[:, -1]
    return unit * (hi - lo) + lo
