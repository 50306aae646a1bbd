"""Set-up probe: time `import jetgauge.cli` in a fresh interpreter.

Nothing but `time` is imported before the clock starts, so the import pays
for every module the package needs.  Prints one JSON line with the time and
the environment the import resolved to, which is the environment of every
measured process of the run.
"""

import time

t0 = time.perf_counter()
import jetgauge.cli  # noqa: E402
import_s = time.perf_counter() - t0

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

print(json.dumps({"import_s": import_s, "env": {
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "nproc": os.cpu_count(),
    "kernel": jetgauge.kernel_name(),
    "jetgauge": os.path.dirname(jetgauge.__file__),
    "threads": {k: os.environ.get(k) for k in THREAD_VARS},
}}))
