"""The elasticity suite: strain and couple-stress balance in the plane."""

import numpy as np

from ._runner import SUITES, CheckSpec, SuiteConfig, _roster
from .elasticity import (
    RIGID_POINTS, DisplacementSection, StressState, adjoint_spencer, killing,
    load_stress_state, pairing_identity_check, riemann_residual,
    rigid_kernel_dimension, spencer_elastic, torsor_equilibrium_check,
)
from .expr import PolyMap, _random_poly
from .sampling import halton_points

PLANE = ("x1", "x2")
PLANE_BOX = ((-1.0, 1.0), (-1.0, 1.0))
BUMP2 = "(x1 + 1)^2 * (1 - x1)^2 * (x2 + 1)^2 * (1 - x2)^2"
POLY_STATE = StressState.parse(
    "0.4*x1^2 - x2 + 0.7, 1.2*x1*x2 + 0.3, 0.5*x2^2 - 0.8*x1, x1 + x2 - 0.2",
    "0.6*x1^2 + x2, 0.9*x1*x2 - 0.4")
BUMP_SECTION = DisplacementSection.parse(
    f"({BUMP2}) * (0.3 + x1 - 0.5*x2^2), ({BUMP2}) * (x2 + 0.2*x1^2)",
    f"({BUMP2}) * (0.7 - x1*x2)")
LINEAR_STATE = StressState.parse("x1, 0, 0, x2")
DISP_MONOS = (("x1",), ("x2",), ("x1", "x2"), ("x1", "x1"), ("x2", "x2"),
              ("x1", "x1", "x1"), ("x1", "x2", "x2"), ("x1", "x1", "x2"),
              ("x2", "x2", "x2"))
ZERO_JET = PolyMap(PLANE, 0, np.zeros((1, 1)))
ZERO_MU = PolyMap(PLANE, 0, np.zeros((2, 1)))
PAIRING_ORDER = 9      # Gauss points per axis of the pairing quadrature
TORSOR_ORDER = 8       # and of the torsor balance's


def _elastic_points(cfg: SuiteConfig) -> np.ndarray:
    return halton_points(((-0.8, 0.8), (-0.8, 0.8)), min(cfg.samples, 20),
                         cfg.seed + 31)


def _check_strain_kills_rigid_motions(cfg, cache):
    pts = _elastic_points(cfg)
    rng = np.random.default_rng(cfg.seed + 12)
    res = []
    for _ in range(10):
        # xi = (c1 + w x2, c2 - w x1) over the basis 1, x1, x2; jet -w
        c1, c2, w = rng.uniform(-1.0, 1.0, size=3)
        sec = DisplacementSection(
            PolyMap(PLANE, 1, np.array([[c1, 0.0, w], [c2, -w, 0.0]])),
            PolyMap(PLANE, 0, np.array([[-w]])), np.eye(2))
        res += [killing(sec, pts), spencer_elastic(sec, pts)]
    return tuple(res), 10 * len(pts)


def _check_strain_compatibility(cfg, cache):
    pts = _elastic_points(cfg)
    rng = np.random.default_rng(cfg.seed + 14)
    res = []
    for _ in range(5):
        xi = _random_poly(rng, PLANE, DISP_MONOS, 1.0, np.zeros((2, 3)))
        sec = DisplacementSection(xi, ZERO_JET, np.eye(2))
        res.append(riemann_residual(sec, pts))
    return tuple(res), 5 * len(pts)


def _check_rigid_kernel_dimension(cfg, cache):
    # reduces its own inputs: the residual is the kernel dimension of all rows
    dim = rigid_kernel_dimension(degree=2, seed=cfg.seed + 29)
    return float(dim - 3), RIGID_POINTS


def _check_stress_pairing_identity(cfg, cache):
    # integration by parts with no boundary terms gives lhs = -rhs
    lhs, rhs = pairing_identity_check(POLY_STATE, BUMP_SECTION, PLANE_BOX,
                                      order=PAIRING_ORDER)
    return lhs + rhs, PAIRING_ORDER ** 2


def _check_equilibrium_equations(cfg, cache):
    # adjoint output against hand-differentiated loads of the fixed state
    pts = _elastic_points(cfg)
    f, m = adjoint_spencer(POLY_STATE, pts)
    x1, x2 = pts[:, 0], pts[:, 1]
    f1 = 0.8 * x1 + 1.0 * x2
    f2 = 1.2 * x2 + 1.0
    mm = (1.2 * x1 + 0.9 * x1 + (1.2 * x1 * x2 + 0.3)
          - (0.5 * x2 ** 2 - 0.8 * x1))
    return (f[:, 0] - f1, f[:, 1] - f2, m - mm), len(pts)


def _check_torsor_balance(cfg, cache):
    states = _roster(cfg, cache, "states",
                     lambda: [LINEAR_STATE, POLY_STATE], load_stress_state)
    gaps = [torsor_equilibrium_check(s, PLANE_BOX, order=TORSOR_ORDER)
            for s in states]
    return np.array(gaps), TORSOR_ORDER ** 2 * len(states)


def _check_couple_stress_symmetry(cfg, cache):
    # with no couple stress the moment residual is the asymmetry of sigma,
    # so a symmetric stress balances moments to the exact float zero
    pts = _elastic_points(cfg)
    rng = np.random.default_rng(cfg.seed + 16)
    res = []
    for _ in range(5):
        # rows drawn s11, s22, then the one shared by s12 and s21
        rows = _random_poly(rng, PLANE, DISP_MONOS, 1.0, np.zeros((3, 3)))
        sigma = PolyMap(PLANE, rows.degree, rows.coeffs[[0, 2, 2, 1]])
        res.append(adjoint_spencer(StressState(sigma, ZERO_MU), pts)[1])
    return tuple(res), 5 * len(pts)


SUITES["elasticity"] = (
    CheckSpec("strain_kills_rigid_motions",
              "strain and jet mismatch vanish on rigid sections", 1e-12,
              _check_strain_kills_rigid_motions),
    CheckSpec("strain_compatibility",
              "strains of displacements pass the compatibility test", 1e-9,
              _check_strain_compatibility),
    CheckSpec("rigid_kernel_dimension",
              "the jet operator kernel has dimension three", 0.0,
              _check_rigid_kernel_dimension),
    CheckSpec("stress_pairing_identity",
              "volume pairing equals the adjoint pairing with sign", 1e-10,
              _check_stress_pairing_identity, randomized=False),
    CheckSpec("equilibrium_equations",
              "adjoint output matches the hand equilibrium equations", 1e-12,
              _check_equilibrium_equations),
    CheckSpec("torsor_balance",
              "boundary flux balances body loads, force and moment", 1e-10,
              _check_torsor_balance),
    CheckSpec("couple_stress_symmetry",
              "without couple stress the moment residual is the stress asymmetry",
              0.0, _check_couple_stress_symmetry),
)
