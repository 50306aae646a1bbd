"""The swell suite: the invariants of the rolling-wave family."""

import math
from functools import partial

import numpy as np

from ._fixtures import SWELL, read_fixture, validate
from ._runner import SUITES, CheckSpec, SuiteConfig, _shortfall
from .dynamics import swell_family

UNBALANCE = 2.5    # the control's decay over k


def _swell_params(cfg: SuiteConfig) -> dict:
    """The swell schema's defaults, updated by the fixture: R0 of 0 or
    more, and k above 0 with the control's decay UNBALANCE * k finite."""
    p = validate(read_fixture(cfg.fixture) if cfg.fixture else {}, SWELL,
                 "swell fixture")
    if p["R0"] < 0.0:
        raise ValueError(f"swell fixture 'R0' must be >= 0, not {p['R0']!r}")
    if not 0.0 < UNBALANCE * p["k"] < math.inf:
        raise ValueError(f"swell fixture 'k' must be > 0 with {UNBALANCE} * k "
                         f"finite, not {p['k']!r}")
    return p


def _swell_report(cfg: SuiteConfig, cache: dict):
    if "swell" not in cache:
        p = cache["swell_params"] = _swell_params(cfg)
        cache["swell"] = swell_family(**p, nlabels=min(cfg.samples, 24),
                                      seed=cfg.seed + 311)[1]
    return cache["swell"]


def _check_swell_row(row: int, cfg: SuiteConfig, cache: dict):
    # row of swell_family's (drift, formula, circle, frame), one per label
    res = _swell_report(cfg, cache)[row]
    return res, len(res)


def _check_swell_unbalanced_control(cfg, cache):
    _swell_report(cfg, cache)          # reads the fixture once per run
    p = cache["swell_params"]
    drift = swell_family(**dict(p, decay=UNBALANCE * p["k"]),
                         seed=cfg.seed + 311,
                         nlabels=min(cfg.samples, 24))[1][0]
    # reduces its own inputs: the residual is a shortfall of the maximum
    return (_shortfall(np.max(np.abs(drift), initial=0.0), 1e-3),
            min(cfg.samples, 24))


SUITES["swell"] = (
    CheckSpec("swell_jacobian_drift",
              "label-space jacobian is constant in time", 1e-9,
              partial(_check_swell_row, 0)),
    CheckSpec("swell_jacobian_formula",
              "jacobian equals its closed decay form", 1e-10,
              partial(_check_swell_row, 1)),
    CheckSpec("swell_circularity",
              "trajectories are circles with the decaying radius", 1e-10,
              partial(_check_swell_row, 2)),
    CheckSpec("swell_moving_frame",
              "the map is stationary in the frame moving at wave speed", 1e-9,
              partial(_check_swell_row, 3)),
    CheckSpec("swell_unbalanced_control",
              "breaking the decay balance must move the jacobian", 0.0,
              _check_swell_unbalanced_control),
)
