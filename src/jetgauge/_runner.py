"""The suite runner: the checks' registry and the one loop that runs them.

Each check holds one identity on seeded sample data and returns its
residuals, an array or a tuple of arrays, with its sample count; run_suite
alone reduces them to the largest |r|, which a NaN anywhere turns to NaN,
and holds that against a pinned tolerance in a Report.
Negative controls use a shortfall residual max(0, floor - observed) with
tolerance zero, so a control that fails to move fails the suite the same
way a broken identity would.  All randomness flows from the config seed,
which makes two runs with the same config byte-identical after the clock
fields are stripped.
Importing _suite_<name> puts that suite's checks in SUITES; run_suite
imports the module of each suite it runs, and no other, before any check.
"""

import importlib
import time
from dataclasses import dataclass

import numpy as np

from .report import CheckRecord, Report

SUITE_NAMES = ("group", "pseudogroup", "dynamics", "swell", "elasticity")


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    samples: int = 64            # low-discrepancy points per box
    tol_scale: float = 1.0
    fixture: str | None = None   # joins the suite's default roster


@dataclass(frozen=True)
class CheckSpec:
    id: str
    identity: str
    tolerance: float
    fn: object
    randomized: bool = True


# suite name -> its checks in run order, filled by the suite's module
SUITES: dict[str, tuple[CheckSpec, ...]] = {}


def _shortfall(observed: float, floor: float) -> float:
    # np.maximum keeps a NaN observation, so the control fails on it.
    return float(np.maximum(0.0, floor - observed))


def _max_abs(residuals) -> float:
    """max |r| over an array, or a tuple of arrays, of residuals, 0.0 when
    there are none; np.max, unlike a running max(), keeps a NaN."""
    parts = residuals if isinstance(residuals, tuple) else (residuals,)
    return float(np.max([np.max(np.abs(r), initial=0.0) for r in parts],
                        initial=0.0))


def _load(name: str) -> tuple[str, ...]:
    """The suites that name runs, each one's module imported."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; have "
                         f"{', '.join(SUITE_NAMES)}, all")
    names = SUITE_NAMES if name == "all" else (name,)
    for sub in names:
        importlib.import_module(f"._suite_{sub}", __package__)
    return names


def suite_check_ids(name: str) -> list[str]:
    return [c.id for n in _load(name) for c in SUITES[n]]


def run_suite(name: str, cfg: SuiteConfig | None = None,
              caches: dict | None = None) -> Report:
    """The Report of suite name, or of every suite for "all".  caches, if
    given, receives each suite's check cache under the suite's name: what
    its checks read and built, such as the swell run's "swell_params"."""
    cfg = cfg or SuiteConfig()
    caches = {} if caches is None else caches
    if name == "all" and cfg.fixture:
        raise ValueError("--fixture needs a single suite, not 'all'")
    if cfg.samples < 1:
        raise ValueError(f"samples must be at least 1, not {cfg.samples}")
    records = []
    for sub in _load(name):
        cache = caches[sub] = {}
        for spec in SUITES[sub]:
            t0 = time.perf_counter()
            residuals, count = spec.fn(cfg, cache)
            ms = (time.perf_counter() - t0) * 1000.0
            records.append(CheckRecord(
                id=spec.id, identity=spec.identity,
                max_residual=_max_abs(residuals),
                tolerance=spec.tolerance * cfg.tol_scale,
                samples=int(count), runtime_ms=ms,
                seed=cfg.seed if spec.randomized else None))
    return Report(suite=name, records=tuple(records), seed=cfg.seed)
