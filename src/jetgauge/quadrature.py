"""Gauss-Legendre quadrature over boxes.

Polynomial integrands get integrated exactly when the per-axis node count
satisfies 2*n - 1 >= degree.
"""

from __future__ import annotations

import functools

import numpy as np

from .sampling import Box

__all__ = ["gauss_rule", "tensor_rule"]


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n) once per n, as read-only arrays every caller shares."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [lo, hi], (..., n) for
    arrays lo and hi, elementwise."""
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
