import numpy as np
import pytest

from jetgauge import quadrature
from jetgauge.quadrature import gauss_rule


@pytest.mark.parametrize("n", [1, 3, 8, 16, 32])
def test_gauss_rule_cache_keeps_bits(n):
    for lo, hi in [(-1.0, 1.0), (0.0, 2.0), (-0.7, 0.31), (1.5, -0.25)]:
        for _ in range(2):                  # a cold call, then a cached one
            nodes, weights = gauss_rule(lo, hi, n)
            x, w = np.polynomial.legendre.leggauss(n)
            half = 0.5 * (hi - lo)
            assert np.array_equal(nodes.view(np.int64),
                                  (lo + half * (x + 1.0)).view(np.int64))
            assert np.array_equal(weights.view(np.int64),
                                  (half * w).view(np.int64))


def test_gauss_rule_cache_is_read_only():
    x, w = quadrature._legendre(5)
    for cached in (x, w):
        with pytest.raises(ValueError):
            cached[0] = 0.0
    nodes, weights = gauss_rule(-1.0, 1.0, 5)
    fresh = [a.copy() for a in (nodes, weights)]
    nodes[0] = weights[0] = 7.0                # callers own their copies
    assert all(np.array_equal(a, b)
               for a, b in zip(gauss_rule(-1.0, 1.0, 5), fresh))
