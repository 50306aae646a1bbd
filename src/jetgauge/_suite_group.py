"""The group suite: gauge curvature and variations on Lie group charts."""

import numpy as np

from ._runner import SUITES, CheckSpec, SuiteConfig, _roster
from .expr import ExprMap, PolyMap, _random_poly
from .groups import (
    Grid, builtin_group, jacobi_residual, lift_curvature, linear_gauge_dd,
    load_group_spec, spencer_from_action, variation_fd_gaps,
)
from .sampling import halton_points

PLANE = ("x1", "x2")
PLANE_MONOS = (("x1",), ("x2",), ("x1", "x2"), ("x1", "x1"), ("x2", "x2"))
GAUGING_AFFINE = ExprMap.parse("exp(0.3*x1) * (1 + 0.2*x2^2), x1 - 0.4*x2",
                               ["x1", "x2"])
GAUGE_LAM = ExprMap.parse("0.3*x1 - 0.2*x2^2, 0.1 + 0.5*x1*x2", ["x1", "x2"])
GAUGE_GRID = Grid(((-0.5, 0.5), (-0.5, 0.5)), (5, 5))
FD_EPS = np.array([1e-3, 5e-4])
ONE_FORM = ExprMap.parse("sin(x1)*x2, x1*x2^2", ["x1", "x2"])
ACTION_LAMS = {
    "affine-line": ExprMap.parse("0.2*x1^2 - 0.1, 0.3*x1", ["x1"]),
    "euclidean-plane": ExprMap.parse("0.1*x1 - 0.2*x2, 0.3, x1*x2",
                                     ["x1", "x2"]),
}


def _group_roster(cfg: SuiteConfig, cache: dict) -> list:
    return _roster(cfg, cache, "groups",
                   lambda: [builtin_group("affine"), builtin_group("e2")],
                   load_group_spec)


def _random_gauging(spec, seed: int) -> PolyMap:
    # identity plus a small polynomial: stays inside the chart
    affine = np.zeros((spec.dim, len(PLANE) + 1))
    affine[:, 0] = spec.identity
    return _random_poly(np.random.default_rng(seed), PLANE, PLANE_MONOS,
                        0.3, affine)


def _check_curvature_of_pullback(cfg: SuiteConfig, cache: dict):
    # 10 gaugings per group as one stack: one lift at the nodes and one
    # compose lift
    nodes = GAUGE_GRID.nodes()
    res = [lift_curvature(spec, "body", PolyMap.stack(
               [_random_gauging(spec, cfg.seed + 100 + 17 * k)
                for k in range(10)]).taylor_lift(nodes, 2))
           for spec in _group_roster(cfg, cache)]
    return tuple(res), 10 * len(nodes) * len(res)


def _check_structure_jacobi(cfg: SuiteConfig, cache: dict):
    res = [jacobi_residual(spec.structure_constants())
           for spec in _group_roster(cfg, cache)]
    return np.array(res), len(res)


def _check_variation_matches_fd(cfg: SuiteConfig, cache: dict):
    # reduces its own inputs: the residual is a ratio of two maxima.  Both
    # sides' quotients at eps and eps / 2 come as one block
    spec = _group_roster(cfg, cache)[0]
    pts = halton_points(((-0.4, 0.6), (-0.5, 0.5)), cfg.samples, cfg.seed + 5)
    res = []
    for gaps in variation_fd_gaps(spec, GAUGING_AFFINE, GAUGE_LAM, pts,
                                  FD_EPS):
        e1, e2 = np.max(np.abs(gaps), axis=(1, 2, 3))
        res.append(e1 / e2 - 2.0)
    return np.array(res), len(pts)


def _check_gauge_complex_dd(cfg: SuiteConfig, cache: dict):
    pts = halton_points(((-0.8, 0.8), (-0.8, 0.8)), cfg.samples, cfg.seed + 6)
    return linear_gauge_dd(ONE_FORM, 2, 2, 0, pts), len(pts)


def _check_action_spencer_match(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    for spec in _group_roster(cfg, cache):
        if spec.action is None:
            continue
        lam = ACTION_LAMS.get(spec.label)
        if lam is None:
            names = tuple(f"x{k + 1}" for k in range(spec.action.dim))
            lam = _random_poly(np.random.default_rng(cfg.seed + 9), names,
                               tuple((v,) for v in names), 0.4,
                               np.zeros((spec.dim, len(names) + 1)))
        pts = halton_points(spec.action.box, min(cfg.samples, 16),
                            cfg.seed + 7)
        res.append(spencer_from_action(spec, lam, 1, pts))
        count += len(pts)
    return tuple(res), count


SUITES["group"] = (
    CheckSpec("curvature_of_pullback", "pulled-back frame fields are flat",
              1e-9, _check_curvature_of_pullback),
    CheckSpec("structure_jacobi",
              "derived structure constants satisfy the Jacobi identity", 1e-12,
              _check_structure_jacobi, randomized=False),
    CheckSpec("variation_matches_fd",
              "exact gauge variation matches halving finite quotients", 0.2,
              _check_variation_matches_fd),
    CheckSpec("gauge_complex_dd", "the linear gauge complex composes to zero",
              1e-9, _check_gauge_complex_dd),
    CheckSpec("action_spencer_match",
              "action-induced jet operator agrees with the direct one", 1e-10,
              _check_action_spencer_match),
)
