"""Reports do not follow the BLAS core or its thread count, and the
polynomial shift kernel does not follow numpy's CPU dispatch.

OpenBLAS reads OPENBLAS_CORETYPE and OPENBLAS_NUM_THREADS once, when it
loads, and numpy reads NPY_DISABLE_CPU_FEATURES once, at import, so each
configuration runs in a child process of its own.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys
from jetgauge.suites import SuiteConfig, run_suite
for suite in ("dynamics", "swell", "elasticity", "pseudogroup"):
    for seed in (42, 7, 3):
        report = run_suite(suite, SuiteConfig(seed=seed))
        sys.stdout.write(report.strip_clock().to_json())
"""

CORES = (None, "Haswell", "Prescott")     # None leaves the choice to OpenBLAS
THREADS = ("1", "2")


def _why_cores_cannot_switch() -> str | None:
    """What numpy's BLAS lacks to switch cores, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as exc:
        return f"numpy {np.__version__} does not report its BLAS build: {exc!r}"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return (f"numpy's BLAS is {blas.get('name')!r}, "
                f"not a DYNAMIC_ARCH OpenBLAS")
    return None


def test_reports_do_not_follow_the_blas_core():
    missing = _why_cores_cannot_switch()
    if missing:
        pytest.skip(missing)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_VERBOSE"] = "2"             # prints "Core: <name>" at load
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    children = {}
    for core in CORES:
        for threads in THREADS:
            child_env = dict(env, OPENBLAS_NUM_THREADS=threads)
            if core:
                child_env["OPENBLAS_CORETYPE"] = core
            children[core, threads] = subprocess.Popen(
                [sys.executable, "-c", CHILD], env=child_env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    runs = {key: proc.communicate() for key, proc in children.items()}
    cores = {}
    for key, proc in children.items():
        out, err = runs[key]
        assert proc.returncode == 0, (key, err)
        found = re.search(r"^Core: (\S+)", err, re.MULTILINE)
        assert found, (key, err)
        cores[key] = found.group(1)
    # each switch took effect: a forced core is not the default one
    for threads in THREADS:
        assert cores["Haswell", threads] == "Haswell"
        assert cores["Prescott", threads] not in (cores[None, threads],
                                                  "Haswell")
    want = runs[None, "1"][0]
    assert want.count('"schema"') == 12
    assert [key for key, (out, _) in runs.items() if out != want] == []


SHIFT_CHILD = """
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from jetgauge._multiindex import poly_shift
x = np.random.default_rng(5).uniform(-1.3, 1.3, size=(64, 3))
print(__cpu_features__["X86_V4"])
for degree in (2, 3, 7):
    print(poly_shift(3, degree, x, 1).tobytes().hex())
"""


def test_poly_shift_does_not_follow_cpu_dispatch():
    # the dispatched pow takes a SIMD path on X86_V4 and another without
    # it; the shift's repeated products give one set of bits on both
    from numpy._core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy finds no X86_V4 on this CPU")
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    no_v4 = dict(env, NPY_DISABLE_CPU_FEATURES="X86_V4")
    outs = [subprocess.run([sys.executable, "-c", SHIFT_CHILD], env=child_env,
                           capture_output=True, text=True, check=True).stdout
            for child_env in (env, no_v4)]
    # the switch took effect: the second child runs without X86_V4
    assert [out.split()[0] for out in outs] == ["True", "False"]
    assert outs[1].split()[1:] == outs[0].split()[1:]
