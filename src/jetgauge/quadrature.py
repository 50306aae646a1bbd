"""Gauss-Legendre quadrature over boxes and the canonical bump factor.

Polynomial integrands get integrated exactly when the per-axis node count
satisfies 2*n - 1 >= degree; integral reductions use pairwise summation
(np.dot / math.fsum-free) for reproducibility.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .expr import Expr, variable
from .sampling import Box


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n) once per n, as read-only arrays every caller shares."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _legendre(int(n))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def tensor_rule(box: Box, n_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule; returns nodes (M, dim) and weights (M,)."""
    axes = [gauss_rule(lo, hi, n_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = np.ones(1)
    for _, w in axes:
        weights = np.outer(weights, w).ravel()
    return nodes, weights


def integrate(values: np.ndarray, weights: np.ndarray) -> float:
    return float(np.dot(weights, values))


def bump(variables: Sequence[str], box: Box) -> Expr:
    """prod_i (x_i - a_i)^2 (b_i - x_i)^2: vanishes to second order on the
    boundary, so boundary terms drop out of integration by parts."""
    out: Expr | None = None
    for name, (lo, hi) in zip(variables, box):
        x = variable(name)
        factor = (x - lo) ** 2 * (hi - x) ** 2
        out = factor if out is None else out * factor
    assert out is not None
    return out
