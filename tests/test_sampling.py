import subprocess
import sys

import numpy as np
import pytest

from jetgauge.sampling import halton_points

SEEDS = (0, 1, 7, 42, 12345, 2**31 + 3)
COUNTS = (1, 2, 3, 7, 8, 9, 12, 16, 20, 25, 27, 64, 81, 125, 200)


@pytest.mark.parametrize("dim", range(1, 9))
def test_halton_matches_scipy_bitwise(dim):
    qmc = pytest.importorskip("scipy.stats").qmc
    box = [(-0.3 - 0.1 * k, 0.5 + 0.2 * k) for k in range(dim)]
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    for seed in SEEDS:
        for count in COUNTS:
            # seed=, not rng=: an integer rng= starts a different stream
            unit = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
            ref = qmc.scale(unit, lo, hi)
            got = halton_points(box, count, seed)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (dim, seed, count)


@pytest.mark.parametrize("box", [((1.0, 0.0),), ((0.0, 1.0), (0.5, 0.5)),
                                 ((0.0, float("nan")),)])
def test_halton_rejects_empty_or_reversed_box(box):
    with pytest.raises(ValueError, match="lo < hi"):
        halton_points(box, 4, 0)


def test_cli_import_leaves_scipy_out():
    code = ("import sys, jetgauge.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_halton_digit_tables_are_shared_read_only():
    from jetgauge.sampling import _digit_table
    first = halton_points(((0.0, 1.0),) * 3, 12, 3)
    for base in (2, 3, 5):
        for table in _digit_table(base, 12):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
    # the seed's permutations alone change between calls
    assert halton_points(((0.0, 1.0),) * 3, 12, 3).tobytes() == first.tobytes()
    assert halton_points(((0.0, 1.0),) * 3, 12, 4).tobytes() != first.tobytes()
