"""What a run imports: `import jetgauge.cli` loads the runner and none of
the suites' kernels, a run loads the kernels of the suites it runs and no
other, and builds no dataclass; a suite whose module cannot be imported
fails the run before any check.  And what the process entry does: main's
output and exit code, then a frozen collector before shutdown."""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jetgauge.cli import main
from jetgauge.suites import SUITE_NAMES, SUITES, CheckSpec, run_suite

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
ENV = dict(os.environ, PYTHONPATH=SRC)
KERNELS = {"groups", "pseudogroups", "dynamics", "elasticity"}
MAIN = "from jetgauge.cli import main; main({!r})"
RUNS = pytest.mark.parametrize("code,kernels", [
    ("import jetgauge.cli", set()),
    (MAIN.format(["--suite", "elasticity", "--samples", "8",
                  "--out", "r.json"]), {"elasticity"}),
    (MAIN.format(["--suite", "swell", "--samples", "8", "--out", "r.json",
                  "--csv", "s.csv", "--svg", "s.svg"]), {"dynamics"}),
], ids=["import", "elasticity", "swell-csv-svg"])


def _modules_after(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter has imported after code."""
    probe = f"{code}\nimport sys\nprint(*sys.modules)"
    return set(subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=ENV,
                              capture_output=True, text=True,
                              check=True).stdout.split())


@RUNS
def test_a_run_imports_only_the_kernels_it_uses(code, kernels, tmp_path):
    loaded = {name.removeprefix("jetgauge.")
              for name in _modules_after(code, tmp_path)}
    assert loaded & KERNELS == kernels


@RUNS
def test_a_run_builds_no_dataclass(code, kernels, tmp_path):
    # generating a dataclass costs a cold run about a millisecond a class
    assert "dataclasses" not in _modules_after(code, tmp_path)


def _entry(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "jetgauge", *args], cwd=cwd,
                          env=ENV, capture_output=True)


def test_entry_gives_mains_output_and_exit_code(tmp_path, capsys):
    args = ["--suite", "elasticity", "--samples", "8", "--no-timestamp"]
    code = main(args)
    # main, the library entry, leaves the collector as it found it
    assert code == 0 and gc.get_freeze_count() == 0
    proc = _entry(args, tmp_path)
    assert (proc.returncode, proc.stdout) == (
        code, capsys.readouterr().out.encode())


def test_entry_exits_2_on_a_missing_fixture(tmp_path):
    proc = _entry(["--suite", "elasticity", "--fixture", "nosuch"], tmp_path)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode().startswith("jetgauge: no fixture 'nosuch': ")


def test_entry_freezes_the_collector_before_exit(tmp_path):
    probe = ("import gc, sys\n"
             "from jetgauge.cli import entry\n"
             "sys.argv[1:] = ['--suite', 'elasticity', '--samples', '1',"
             " '--out', 'r.json']\n"
             "try:\n    entry()\nexcept SystemExit as exc:\n"
             "    print(exc.code, gc.get_freeze_count() > 0)")
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=ENV,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "True"]


def test_the_script_is_the_entry():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]")[1].split("\n[")[0]
    assert re.findall(r'^(\w+) = "([\w.:]+)"$', scripts, re.M) == [
        ("jetgauge", "jetgauge.cli:entry")]


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
