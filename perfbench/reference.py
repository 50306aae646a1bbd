"""Reference kernel: fixed work whose wall time says how fast this machine
runs at the moment it is timed.

    python3 perfbench/reference.py SAMPLES_FILE

runs the kernel about every PERIOD_S until it is terminated, and appends
one line per run to SAMPLES_FILE: the run's start (time.perf_counter, the
system-wide monotonic clock) and its duration.  The benchmark keeps this
sampler running beside every timed item (import probes and ops); an item's
reference time is the median duration of the runs that started while it ran,
and every reported time is normalised to the reference speed: the item's
wall time x NOMINAL_S / its reference time.  A slow phase of a shared host
slows the item and the kernel alike and cancels out.

The kernel mixes what jetgauge spends its time on: interpreted Python with
float arithmetic and dict traffic, numpy calls on short arrays, and a small
SVD.  It never imports jetgauge, so no change to the program changes it.
"""

from __future__ import annotations

import bisect
import os
import sys
import time
from statistics import median

# Pinned here too, before numpy loads, so the kernel's SVD runs as the
# measured processes' do.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)

import numpy as np  # noqa: E402

# Kernel time in the fast phase of the 2-vCPU KVM guest the benchmark was
# written on; normalised times are wall times at this reference speed.
NOMINAL_S = 0.02
# One kernel run per PERIOD_S keeps one core about 20% busy.
PERIOD_S = 0.1

_MATRIX = np.random.default_rng(0).standard_normal((120, 72))
_WEIGHTS = np.linspace(0.5, 1.5, 16)


def _step(acc: float, i: int) -> float:
    return (acc + i * 1.000001) % 97.3


def work() -> float:
    """The fixed work; returns a checksum so none of it is dead."""
    acc, table = 0.0, {}
    for i in range(24000):
        acc = _step(acc, i)
        table[i & 511] = acc
    vec = _WEIGHTS.copy()
    for _ in range(1200):
        vec = vec * _WEIGHTS[3] + np.roll(vec, 1) * 0.01
        vec /= 1.0 + np.abs(vec).sum()
    sigma = float(np.linalg.svd(_MATRIX, compute_uv=False)[0])
    return acc + float(vec.sum()) + sigma + len(table)


def reference_s() -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def read_samples(path: str) -> list[tuple[float, float]]:
    """(start, duration) of every complete line of a samples file."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if line.endswith("\n") and len(fields) == 2:
                samples.append((float(fields[0]), float(fields[1])))
    return samples


def item_ref(samples: list[tuple[float, float]], t0: float,
             t1: float) -> tuple[float, int]:
    """Median duration of the runs that started in [t0, t1), and their
    count; the run that started nearest the window's middle when none did.
    The median, because a run that shared a core with the item for a while
    reads up to twice as long while the item hardly slows."""
    starts = [s for s, _ in samples]
    lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
    if hi > lo:
        return median(d for _, d in samples[lo:hi]), hi - lo
    mid = (t0 + t1) / 2
    return min(samples, key=lambda s: abs(s[0] - mid))[1], 0


def main() -> int:
    reference_s()  # fills caches; not recorded
    with open(sys.argv[1], "a", encoding="utf-8") as out:
        while True:
            t0 = time.perf_counter()
            work()
            dt = time.perf_counter() - t0
            out.write(f"{t0!r} {dt!r}\n")
            out.flush()
            time.sleep(max(0.0, PERIOD_S - dt))


if __name__ == "__main__":
    sys.exit(main())
