"""Accuracy sweep: the worst residual of every check over seeds 0-29.

    PYTHONPATH=src python tools/sweep.py TAG

runs run_suite("all") at seeds 0-29 in this one process, with BLAS and
OpenMP held to one thread, and writes SWEEP_TAG.json in the current
directory.  Per check id it records the worst residual and the first seed
that reads it, the tolerance, the headroom in decades, log10(tolerance /
worst), the number of seeds that pass, and whether every seed read exactly
0.0, where the headroom is null.  The file also names the numpy version and
the thread setting.  Two runs on one machine give identical bytes, so the
diff of two sweeps lists the checks whose worst case moved.
"""

import json
import math
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = range(30)


def _number(x: float):
    # strict JSON has no NaN or infinity: those are written as strings
    return x if math.isfinite(x) else repr(x)


def _headroom(rec):
    """log10(tolerance / residual), rounded to 3 decimals; "-inf" for a
    nonzero residual at tolerance 0, None for a NaN or infinite one."""
    if not math.isfinite(rec.max_residual):
        return None
    if rec.tolerance == 0.0:
        return "-inf"
    return round(math.log10(rec.tolerance / rec.max_residual), 3)


def sweep(seeds=SEEDS) -> dict:
    """The sweep of run_suite("all") over seeds, as the dict that is
    written; numpy is imported here, after the caller set the threads."""
    import numpy as np
    from jetgauge.suites import SuiteConfig, run_suite
    rows = {}
    for seed in seeds:
        for rec in run_suite("all", SuiteConfig(seed=seed)).records:
            rows.setdefault(rec.id, []).append((rec, seed))
    checks = {}
    for check_id, runs in rows.items():
        # a NaN is the worst reading; max keeps the first seed of a tie
        worst, seed = max(runs, key=lambda run: (
            math.isnan(run[0].max_residual), run[0].max_residual))
        zero = all(rec.max_residual == 0.0 for rec, _ in runs)
        checks[check_id] = {
            "worst_residual": _number(worst.max_residual),
            "worst_seed": seed,
            "tolerance": worst.tolerance,
            "headroom_decades": None if zero else _headroom(worst),
            "passes": sum(rec.passed for rec, _ in runs),
            "all_exactly_zero": zero,
        }
    return {
        "seeds": list(seeds),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "checks": checks,
    }


def render(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it
    os.environ.update({var: "1" for var in THREAD_VARS})
    with open(f"SWEEP_{argv[0]}.json", "w", encoding="utf-8") as fh:
        fh.write(render(sweep()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
