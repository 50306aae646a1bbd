"""Report containers for suite runs and their deterministic JSON form.

A report is a plain tree of dicts and floats; rendering sorts keys and
keeps float repr untouched, so identical runs give identical bytes.
Timestamps and per-check runtimes are the only nondeterministic fields,
and strip_clock() zeroes both for byte-comparable output.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

from . import _Frozen, __version__

__all__ = ["SCHEMA", "CheckRecord", "Report"]

SCHEMA = 1


class CheckRecord(NamedTuple):
    id: str
    identity: str                 # one-line statement of what must hold
    max_residual: float
    tolerance: float
    samples: int
    runtime_ms: float
    seed: int | None = None      # set for every randomized check

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "identity": self.identity,
            "status": "pass" if self.passed else "fail",
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "samples": int(self.samples),
            "runtime_ms": float(self.runtime_ms),
            "seed": self.seed,
        }


class Report(_Frozen):
    """A suite run's records; timestamp defaults to the time of
    construction."""

    __slots__ = ("suite", "records", "seed", "timestamp")

    def __init__(self, suite: str, records: tuple[CheckRecord, ...],
                 seed: int, timestamp: float | None = None):
        self._init(suite=suite, records=records, seed=seed,
                   timestamp=time.time() if timestamp is None else timestamp)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def strip_clock(self) -> "Report":
        stripped = tuple(r._replace(runtime_ms=0.0) for r in self.records)
        return Report(self.suite, stripped, self.seed, 0.0)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "version": __version__,
            "seed": self.seed,
            "timestamp": self.timestamp,
            "status": "pass" if self.passed else "fail",
            "checks": [r.to_dict() for r in sorted(self.records,
                                                   key=lambda r: r.id)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
