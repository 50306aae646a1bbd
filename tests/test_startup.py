"""What a run imports: `import jetgauge.cli` loads the runner and none of
the suites' kernels, a run loads the kernels of the suites it runs and no
other, and a suite whose module cannot be imported fails the run before
any check."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jetgauge.suites import SUITE_NAMES, SUITES, CheckSpec, run_suite

SRC = str(Path(__file__).resolve().parent.parent / "src")
KERNELS = {"groups", "pseudogroups", "dynamics", "elasticity"}
MAIN = "from jetgauge.cli import main; main({!r})"


def _kernels_after(code: str, cwd: Path) -> set[str]:
    """The suite kernels a fresh interpreter has imported after code."""
    probe = (f"{code}\nimport sys\n"
             "print(*(m for m in sys.modules if m.startswith('jetgauge.')))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout
    return {name.removeprefix("jetgauge.") for name in out.split()} & KERNELS


@pytest.mark.parametrize("code,kernels", [
    ("import jetgauge.cli", set()),
    (MAIN.format(["--suite", "elasticity", "--samples", "8",
                  "--out", "r.json"]), {"elasticity"}),
    (MAIN.format(["--suite", "swell", "--samples", "8", "--out", "r.json",
                  "--csv", "s.csv", "--svg", "s.svg"]), {"dynamics"}),
], ids=["import", "elasticity", "swell-csv-svg"])
def test_a_run_imports_only_the_kernels_it_uses(code, kernels, tmp_path):
    assert _kernels_after(code, tmp_path) == kernels


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_an_unimportable_suite_fails_before_any_check(name, monkeypatch):
    calls = []

    def spy(spec):
        def fn(cfg, cache):
            calls.append(spec.id)
            return np.zeros(0), 0
        return CheckSpec(spec.id, spec.identity, spec.tolerance, fn)

    for sub in SUITE_NAMES:
        monkeypatch.setitem(SUITES, sub, tuple(map(spy, SUITES[sub])))
    monkeypatch.setitem(sys.modules, f"jetgauge._suite_{name}", None)
    with pytest.raises(ImportError):
        run_suite("all")
    assert calls == []
