"""The accuracy sweep in tools/sweep.py: byte-stable, and a residual that
moves shows in its check's row alone."""

import importlib.util
from pathlib import Path

from jetgauge import _suite_pseudogroup

_spec = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parent.parent / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)

SEEDS = range(3)


def test_sweep_is_byte_stable_and_shows_a_moved_residual(monkeypatch):
    base = sweep.sweep(SEEDS)
    assert sweep.render(sweep.sweep(SEEDS)) == sweep.render(base)
    assert base["seeds"] == [0, 1, 2]
    row = base["checks"]["linearization_rows"]
    assert row["all_exactly_zero"] and row["headroom_decades"] is None
    assert row["passes"] == len(SEEDS)
    real = _suite_pseudogroup.linearization_rows_gap
    monkeypatch.setattr(_suite_pseudogroup, "linearization_rows_gap",
                        lambda sys_, pts: real(sys_, pts) + 1e-12)
    moved = sweep.sweep(SEEDS)
    assert moved["checks"]["linearization_rows"] == {
        "worst_residual": 1e-12, "worst_seed": 0, "tolerance": 1e-10,
        "headroom_decades": 2.0, "passes": len(SEEDS),
        "all_exactly_zero": False}
    assert [k for k in base["checks"]
            if base["checks"][k] != moved["checks"][k]] == [
                "linearization_rows"]
