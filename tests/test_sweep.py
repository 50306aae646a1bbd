"""The accuracy sweep in tools/sweep.py: byte-stable, and a residual that
moves shows in its check's row alone."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jetgauge import _suite_pseudogroup

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", TOOL)
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


def test_a_failed_sweep_leaves_no_file(tmp_path, monkeypatch):
    # the file is opened only once the sweep has its result: a run that
    # cannot import the package, or fails on the way, writes nothing
    def broken(seeds=sweep.SEEDS):
        raise ModuleNotFoundError("No module named 'jetgauge'")

    monkeypatch.setattr(sweep, "sweep", broken)
    monkeypatch.chdir(tmp_path)
    for var in sweep.THREAD_VARS:       # main sets them; restored after
        monkeypatch.setenv(var, "1")
    with pytest.raises(ModuleNotFoundError):
        sweep.main(["t"])
    assert list(tmp_path.iterdir()) == []


def test_the_tool_finds_its_own_src(tmp_path):
    # run as documented, from another directory and with no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, str(TOOL), "t"], cwd=tmp_path, env=env,
                   check=True, capture_output=True)
    data = json.loads((tmp_path / "SWEEP_t.json").read_text())
    assert data["seeds"] == list(sweep.SEEDS)
    assert data["checks"]["linearization_rows"]["passes"] == len(sweep.SEEDS)
