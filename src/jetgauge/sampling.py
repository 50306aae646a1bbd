"""Deterministic sample generation: seeded low-discrepancy points in boxes.

The points are Owen-scrambled Halton points (random digit permutation,
A. B. Owen, "A randomized Halton algorithm in R", arXiv:1706.02808),
implemented here in NumPy.  For an integer seed they match SciPy's
``qmc.scale(qmc.Halton(d, scramble=True, seed=seed).random(count), lo, hi)``
bit for bit: the same generator stream, the same digit weights and the
same order of summation.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

__all__ = ["Box", "halton_points"]

Box = Sequence[tuple[float, float]]


@functools.lru_cache(maxsize=32)
def _primes(count: int) -> tuple[int, ...]:
    out: list[int] = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return tuple(out)


@functools.lru_cache(maxsize=128)
def _digit_tables(dim: int, count: int) -> tuple[tuple[np.ndarray, ...],
                                                  np.ndarray, np.ndarray]:
    """What every call for dim and count shares, at any seed; read-only.

    Per base, the identity rows (ndigits, base) that rng.permuted scrambles,
    one row per digit place while base**-k > 2**-54.  Then, with the dims'
    scrambled rows laid end to end, the (width, count, dim) index of digit
    place k of point i in dim d, and its weight (width, 1, dim); width is
    base 2's number of places, the most.  Past a dim's last place the
    weight is 0.0 and the index reads slot 0.
    """
    bases = _primes(dim)
    places = [math.ceil(54 / math.log2(base)) - 1 for base in bases]
    idents = tuple(np.repeat(np.arange(base)[None], ndigits, axis=0)
                   for base, ndigits in zip(bases, places))
    index = np.zeros((places[0], count, dim), np.intp)
    weight = np.zeros((places[0], 1, dim))
    offset = 0
    for d, (base, ndigits) in enumerate(zip(bases, places)):
        place = np.arange(ndigits)[:, None]
        digits = np.arange(count) // base ** place % base
        index[:ndigits, :, d] = offset + place * base + digits
        b2r = 1.0 / base
        for k in range(ndigits):  # repeated division, not base**-(k+1)
            weight[k, 0, d] = b2r
            b2r /= base
        offset += ndigits * base
    for table in (*idents, index, weight):
        table.flags.writeable = False
    return idents, index, weight


def halton_points(box: Box, count: int,
                  seed: int | Sequence[int]) -> np.ndarray:
    """Scrambled Halton points inside the box, (count, dim); for a sequence
    of seeds, (len(seed), count, dim), each seed's points with the bits its
    own call gives, from one gather, product and reduce for all of them."""
    box = list(box)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    if not box or not np.all(lo < hi):  # a caller's box may come unchecked
        raise ValueError(f"a box needs one or more bounds, each with "
                         f"lo < hi: {box}")
    idents, index, weight = _digit_tables(len(box), count)
    single = isinstance(seed, (int, np.integer))
    seeds = (seed,) if single else seed
    # one permutation of the digits per place; drawn in one call per dim,
    # they equal `ndigits` successive rng.shuffle calls
    perms = np.stack([
        np.concatenate([rng.permuted(ident, axis=1) for ident in idents],
                       axis=None, dtype=float)
        for rng in map(np.random.default_rng, seeds)])
    # a reduce over the places adds them left to right like the digit loop
    # (np.sum over a last axis is pairwise), seed by seed; a padded place
    # adds +0.0 to a nonnegative sum, which moves no bit
    unit = np.add.reduce(perms[:, index] * weight, axis=1)
    points = unit * (hi - lo) + lo
    return points[0] if single else points
