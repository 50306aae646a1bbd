"""Named verification suites over the toolkit modules.

Each check holds one identity on seeded sample data and returns its
residuals, an array or a tuple of arrays, with its sample count; run_suite
alone reduces them to the largest |r|, which a NaN anywhere turns to NaN,
and holds that against a pinned tolerance in a Report.
Negative controls use a shortfall residual max(0, floor - observed) with
tolerance zero, so a control that fails to move fails the suite the same
way a broken identity would.  All randomness flows from the config seed,
which makes two runs with the same config byte-identical after the clock
fields are stripped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._fixtures import check_keys, read_fixture
from ._multiindex import context
from .dynamics import (
    MotionFamily, compatibility_residual, el_residual, load_motion_family,
    mass_conservation_residual, pressure_recovery, random_solenoidal_field,
    speed_duality_gap, swell_family, theorem3_check, vortex_residual,
)
from .elasticity import (
    DisplacementSection, StressState, adjoint_spencer, killing,
    load_stress_state, pairing_identity_check, riemann_residual,
    rigid_kernel_dimension, spencer_elastic, torsor_equilibrium_check,
)
from .expr import ExprMap, PolyMap
from .groups import (
    Grid, curvature, linear_gauge_dd, load_group_spec, maurer_cartan_pullback,
    right_pullback, spencer_from_action, variation_body, variation_body_fd,
    variation_space, variation_space_fd,
)
from .pseudogroups import (
    builtin_system, closure_check, linearization_rows_gap, load_lie_system,
    schwarzian_of_map,
)
from .report import CheckRecord, Report
from .sampling import halton_points

__all__ = ["SUITE_NAMES", "SuiteConfig", "CheckSpec", "SUITES",
           "suite_check_ids", "run_suite"]

SUITE_NAMES = ("group", "pseudogroup", "dynamics", "swell", "elasticity")


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    samples: int = 64            # low-discrepancy points per box
    tol_scale: float = 1.0
    fixture: str | None = None   # joins the suite's default roster


def _shortfall(observed: float, floor: float) -> float:
    # np.maximum keeps a NaN observation, so the control fails on it.
    return float(np.maximum(0.0, floor - observed))


def _max_abs(residuals) -> float:
    """max |r| over an array, or a tuple of arrays, of residuals, 0.0 when
    there are none; np.max, unlike a running max(), keeps a NaN."""
    parts = residuals if isinstance(residuals, tuple) else (residuals,)
    return float(np.max([np.max(np.abs(r), initial=0.0) for r in parts],
                        initial=0.0))


def _random_poly(rng: np.random.Generator, names: tuple[str, ...],
                 monomials: tuple[tuple[str, ...], ...], scale: float,
                 affine: np.ndarray) -> PolyMap:
    """affine plus random monomial terms, one component per row of affine.

    A monomial lists its factors, so ("x1", "x1") is x1^2.  Each component
    draws rng.uniform(-1, 1) * scale for its monomials in turn; affine
    (nout, 1 + len(names)) holds the constant and linear coefficients,
    which are the first slots of the graded basis.
    """
    degree = max(map(len, monomials))
    ctx = context(len(names), degree)
    slots = [ctx.pos([mono.count(v) for v in names]) for mono in monomials]
    coeffs = np.zeros((len(affine), ctx.count))
    coeffs[:, :len(names) + 1] = affine
    for row in coeffs:
        row[slots] += rng.uniform(-1.0, 1.0, size=len(monomials)) * scale
    return PolyMap(names, degree, coeffs)


# ---------------------------------------------------------------- group

PLANE = ("x1", "x2")
PLANE_MONOS = (("x1",), ("x2",), ("x1", "x2"), ("x1", "x1"), ("x2", "x2"))
GAUGING_AFFINE = ExprMap.parse("exp(0.3*x1) * (1 + 0.2*x2^2), x1 - 0.4*x2",
                               ["x1", "x2"])
GAUGE_LAM = ExprMap.parse("0.3*x1 - 0.2*x2^2, 0.1 + 0.5*x1*x2", ["x1", "x2"])
GAUGE_GRID = Grid(((-0.5, 0.5), (-0.5, 0.5)), (5, 5))


def _group_roster(cfg: SuiteConfig, cache: dict) -> list:
    if "groups" not in cache:
        specs = [load_group_spec("affine"), load_group_spec("e2")]
        if cfg.fixture:
            specs.append(load_group_spec(cfg.fixture))
        cache["groups"] = specs
    return cache["groups"]


def _random_gauging(spec, seed: int) -> PolyMap:
    # identity plus a small polynomial: stays inside the chart
    affine = np.zeros((spec.dim, len(PLANE) + 1))
    affine[:, 0] = spec.identity
    return _random_poly(np.random.default_rng(seed), PLANE, PLANE_MONOS,
                        0.3, affine)


def _check_curvature_of_pullback(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    for spec in _group_roster(cfg, cache):
        for k in range(10):
            g = _random_gauging(spec, cfg.seed + 100 + 17 * k)
            field = maurer_cartan_pullback(spec, g, GAUGE_GRID)
            res.append(curvature(spec, field))
            count += len(GAUGE_GRID.nodes())
    return tuple(res), count


def _check_structure_jacobi(cfg: SuiteConfig, cache: dict):
    from .groups import jacobi_residual
    res = [jacobi_residual(spec.structure_constants())
           for spec in _group_roster(cfg, cache)]
    return np.array(res), len(res)


def _check_variation_matches_fd(cfg: SuiteConfig, cache: dict):
    # reduces its own inputs: the residual is a ratio of two maxima
    spec = _group_roster(cfg, cache)[0]
    pts = halton_points(((-0.4, 0.6), (-0.5, 0.5)), cfg.samples, cfg.seed + 5)
    body = maurer_cartan_pullback(spec, GAUGING_AFFINE, GAUGE_GRID)
    space = right_pullback(spec, GAUGING_AFFINE, GAUGE_GRID)
    res = []
    for exact, fd in [
        (variation_body(spec, body, GAUGE_LAM, pts),
         lambda e: variation_body_fd(spec, GAUGING_AFFINE, GAUGE_LAM, pts, e)),
        (variation_space(spec, space, GAUGE_LAM, pts),
         lambda e: variation_space_fd(spec, GAUGING_AFFINE, GAUGE_LAM, pts, e)),
    ]:
        e1 = np.max(np.abs(fd(1e-3) - exact))
        e2 = np.max(np.abs(fd(5e-4) - exact))
        res.append(e1 / e2 - 2.0)
    return np.array(res), len(pts)


def _check_gauge_complex_dd(cfg: SuiteConfig, cache: dict):
    one_form = ExprMap.parse("sin(x1)*x2, x1*x2^2", ["x1", "x2"])
    pts = halton_points(((-0.8, 0.8), (-0.8, 0.8)), cfg.samples, cfg.seed + 6)
    return linear_gauge_dd(one_form, 2, 2, 0, pts), len(pts)


def _check_action_spencer_match(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    lams = {
        "affine-line": ExprMap.parse("0.2*x1^2 - 0.1, 0.3*x1", ["x1"]),
        "euclidean-plane": ExprMap.parse("0.1*x1 - 0.2*x2, 0.3, x1*x2",
                                         ["x1", "x2"]),
    }
    for spec in _group_roster(cfg, cache):
        if spec.action is None:
            continue
        lam = lams.get(spec.label)
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


# ---------------------------------------------------------- pseudogroup

LIE_SYSTEMS = ("affine", "projective", "volume2", "volume3", "r1")


def _lie_roster(cfg: SuiteConfig, cache: dict) -> list:
    if "systems" not in cache:
        systems = [builtin_system(n) for n in LIE_SYSTEMS]
        if cfg.fixture:
            systems.append(load_lie_system(cfg.fixture))
        cache["systems"] = systems
    return cache["systems"]


def _closure_reports(cfg: SuiteConfig, cache: dict) -> list:
    if "closure" not in cache:
        cache["closure"] = [
            closure_check(sys, npairs=50, seed=cfg.seed + 3, neval=8)
            for sys in _lie_roster(cfg, cache)]
    return cache["closure"]


def _check_bracket_closure(cfg: SuiteConfig, cache: dict):
    reps = _closure_reports(cfg, cache)
    return tuple(resid for resid, _ in reps), sum(len(r) for r, _ in reps)


def _check_bracket_lift_independence(cfg: SuiteConfig, cache: dict):
    reps = _closure_reports(cfg, cache)
    return tuple(gap for _, gap in reps), sum(len(r) for r, _ in reps)


def _check_linearization_rows(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    for sys in _lie_roster(cfg, cache):
        if sys.linearization is None:
            continue
        pts = halton_points(sys.box, min(cfg.samples, 20), cfg.seed + 4)
        res.append(linearization_rows_gap(sys, pts))
        count += len(pts)
    return tuple(res), count


def _check_schwarzian_invariance(cfg: SuiteConfig, cache: dict):
    # moebius reparametrization of exp leaves the schwarzian unchanged
    f = ExprMap.parse("exp(x)", ["x"])
    g = ExprMap.parse("(2*exp(x) + 1)/(exp(x) + 3)", ["x"])
    xs = halton_points(((-0.8, 0.8),), min(cfg.samples, 16), cfg.seed + 8)
    res = [schwarzian_of_map(g, float(x[0])) - schwarzian_of_map(f, float(x[0]))
           for x in xs]
    return np.array(res), len(xs)


# ------------------------------------------------------------- dynamics

FAMILY_VARS = ("y1", "y2", "x1", "x2")
FAMILY_MONOS = (("x1",), ("x2",), ("y1", "x1"), ("y1", "x2"), ("y2", "x1"),
                ("y2", "x2"), ("x1", "x2"), ("x1", "x1"), ("x2", "x2"),
                ("y1", "y2"))
SMALL_BOX = ((-0.6, 0.6), (-0.6, 0.6))
KINETIC = ExprMap.parse("0.5 * (v1^2 + v2^2)", ["v1", "v2"])
FIELD_BOX = ((-0.8, 0.8),) * 3 + ((0.0, 2.0),)

ROTATION = MotionFamily.parse(
    m=2, n=1,
    forward=("y1 * cos(0.8 * x1) - y2 * sin(0.8 * x1), "
             "y1 * sin(0.8 * x1) + y2 * cos(0.8 * x1)"),
    inverse=("z1 * cos(0.8 * x1) + z2 * sin(0.8 * x1), "
             "0 - z1 * sin(0.8 * x1) + z2 * cos(0.8 * x1)"),
    ybox=((-1.0, 1.0), (-1.0, 1.0)), xbox=((-0.5, 0.5),),
    zbox=((-1.0, 1.0), (-1.0, 1.0)), label="rotation")

EXP_MOVED = MotionFamily.parse(
    1, 1, "exp(x1) * y1", inverse="z1 * exp(0 - x1)",
    variation="exp(x1) * y1 + eps * y1^2",
    ybox=((0.3, 1.0),), xbox=((-0.5, 0.5),), zbox=((0.2, 1.5),),
    label="exp-moved")


def _random_motion_family(seed: int) -> MotionFamily:
    # identity plus a small coupled polynomial; Newton-invertible on the box.
    # Row k of np.eye(2, 5, 1) is the linear term y_k.
    forward = _random_poly(np.random.default_rng(seed), FAMILY_VARS,
                           FAMILY_MONOS, 0.12, np.eye(2, 5, 1))
    return MotionFamily(2, 2, forward, ybox=SMALL_BOX, xbox=SMALL_BOX,
                        zbox=((-0.9, 0.9), (-0.9, 0.9)),
                        label=f"random-{seed}")


def _family_roster(cfg: SuiteConfig, cache: dict) -> list[MotionFamily]:
    if "families" not in cache:
        fams = [_random_motion_family(cfg.seed + 1000 + k) for k in range(10)]
        if cfg.fixture:
            fams.append(load_motion_family(cfg.fixture))
        cache["families"] = fams
    return cache["families"]


def _check_speed_compatibility(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    npts = min(cfg.samples, 16)
    for k, fam in enumerate(_family_roster(cfg, cache)):
        zx = fam.sample_zx(npts, cfg.seed + 77 + k)
        res.append(compatibility_residual(fam, zx))
        count += npts
    return tuple(res), count


def _check_speed_duality(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    npts = min(cfg.samples, 16)
    for k, fam in enumerate(_family_roster(cfg, cache)):
        yx = fam.sample_yx(npts, cfg.seed + 78 + k)
        res.append(speed_duality_gap(fam, yx))
        count += npts
    return tuple(res), count


def _theorem3_report(cfg: SuiteConfig, cache: dict):
    if "theorem3" not in cache:
        zx = EXP_MOVED.sample_zx(min(cfg.samples, 12), cfg.seed + 9)
        cache["theorem3"] = theorem3_check(EXP_MOVED, zx, eps=1e-3), len(zx)
    return cache["theorem3"]


def _check_variation_transport(cfg: SuiteConfig, cache: dict):
    (exact, _, _, base), count = _theorem3_report(cfg, cache)
    return (exact, base), count


def _check_variation_transport_rate(cfg: SuiteConfig, cache: dict):
    # reduces its own inputs: the residual is a ratio of two maxima
    (_, fd, fd_half, _), count = _theorem3_report(cfg, cache)
    gap, gap_half = (float(np.max(np.abs(g), initial=0.0))
                     for g in (fd, fd_half))
    return (gap / gap_half if gap_half else math.nan) - 2.0, count


def _check_mass_transport(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    npts = min(cfg.samples, 12)
    fams = [ROTATION] + _family_roster(cfg, cache)[:3]
    for k, fam in enumerate(fams):
        zx = fam.sample_zx(npts, cfg.seed + 55 + k)
        res.append(mass_conservation_residual(fam, zx)[0])
        count += npts
    return tuple(res), count


def _check_force_density_duality(cfg: SuiteConfig, cache: dict):
    zx = ROTATION.sample_zx(min(cfg.samples, 16), cfg.seed + 13)
    return el_residual(ROTATION, KINETIC, zx)[2], len(zx)


def _check_vortex_transport(cfg: SuiteConfig, cache: dict):
    pts = halton_points(FIELD_BOX, min(cfg.samples, 12), cfg.seed + 41)
    res = [vortex_residual(random_solenoidal_field(cfg.seed + 300 + k), pts)
           for k in range(10)]
    return tuple(res), 10 * len(pts)


def _check_vortex_compressible_control(cfg: SuiteConfig, cache: dict):
    # the stretching field has defect |omega . div v| = 1 exactly
    field = ExprMap.parse("z1, z3, 0 - z2", ["z1", "z2", "z3", "t"])
    pts = halton_points(FIELD_BOX, min(cfg.samples, 12), cfg.seed + 42)
    # reduces its own inputs: the residual is a shortfall of the maximum
    defect = np.max(np.abs(vortex_residual(field, pts, enforce_divergence=False)),
                    initial=0.0)
    return _shortfall(defect, 1e-3), len(pts)


def _check_pressure_path_independence(cfg: SuiteConfig, cache: dict):
    rot = ExprMap.parse("-1.3 * z2, 1.3 * z1, 0", ["z1", "z2", "z3", "t"])
    pts = halton_points(((-0.7, 0.7),) * 3, min(cfg.samples, 10),
                        cfg.seed + 23)
    return pressure_recovery(rot, 0.5, pts, (0.0, 0.0, 0.0))[1], len(pts)


# ---------------------------------------------------------------- swell

SWELL_DEFAULTS = {"R0": 1.0, "k": 0.1, "omega": 1.0, "c": 0.0}
SWELL_KEYS = (*SWELL_DEFAULTS, "decay")


def _swell_params(cfg: SuiteConfig) -> dict:
    """The defaults updated by the fixture, which may set only SWELL_KEYS,
    each to a finite number; decay, when set, breaks the balance."""
    params = dict(SWELL_DEFAULTS)
    if cfg.fixture:
        data = check_keys(read_fixture(cfg.fixture), SWELL_KEYS,
                          "swell fixture")
        for key, value in data.items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"swell parameter {key!r} must be a finite "
                                 f"number, not {value!r}")
        params.update(data)
    return params


def _swell_report(cfg: SuiteConfig, cache: dict):
    if "swell" not in cache:
        p = _swell_params(cfg)
        cache["swell_params"] = p
        cache["swell"] = swell_family(
            p["R0"], p["k"], p["omega"], p["c"], decay=p.get("decay"),
            nlabels=min(cfg.samples, 24), seed=cfg.seed + 311)[1]
    return cache["swell"]


def _check_swell_jacobian_drift(cfg, cache):
    return _swell_report(cfg, cache)[0], min(cfg.samples, 24)


def _check_swell_jacobian_formula(cfg, cache):
    return _swell_report(cfg, cache)[1], min(cfg.samples, 24)


def _check_swell_circularity(cfg, cache):
    return _swell_report(cfg, cache)[2], min(cfg.samples, 24)


def _check_swell_moving_frame(cfg, cache):
    return _swell_report(cfg, cache)[3], min(cfg.samples, 24)


def _check_swell_unbalanced_control(cfg, cache):
    _swell_report(cfg, cache)          # reads the fixture once per run
    p = cache["swell_params"]
    drift = swell_family(p["R0"], p["k"], p["omega"], p["c"],
                         decay=2.5 * p["k"], nlabels=min(cfg.samples, 24),
                         seed=cfg.seed + 311)[1][0]
    # reduces its own inputs: the residual is a shortfall of the maximum
    return (_shortfall(np.max(np.abs(drift), initial=0.0), 1e-3),
            min(cfg.samples, 24))


# ----------------------------------------------------------- elasticity

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
    return float(dim - 3), 40


def _check_stress_pairing_identity(cfg, cache):
    # integration by parts with no boundary terms gives lhs = -rhs
    lhs, rhs = pairing_identity_check(POLY_STATE, BUMP_SECTION, PLANE_BOX,
                                      order=9)
    return lhs + rhs, 81


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
    states = [LINEAR_STATE, POLY_STATE]
    if cfg.fixture:
        states.append(load_stress_state(cfg.fixture))
    gaps = [torsor_equilibrium_check(s, PLANE_BOX, order=8) for s in states]
    return np.array(gaps), 64 * len(states)


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


# ------------------------------------------------------------- registry

@dataclass(frozen=True)
class CheckSpec:
    id: str
    identity: str
    tolerance: float
    fn: object
    randomized: bool = True


SUITES: dict[str, tuple[CheckSpec, ...]] = {
    "group": (
        CheckSpec("curvature_of_pullback",
                  "pulled-back frame fields are flat", 1e-9,
                  _check_curvature_of_pullback),
        CheckSpec("structure_jacobi",
                  "derived structure constants satisfy the Jacobi identity",
                  1e-12, _check_structure_jacobi, randomized=False),
        CheckSpec("variation_matches_fd",
                  "exact gauge variation matches halving finite quotients",
                  0.2, _check_variation_matches_fd),
        CheckSpec("gauge_complex_dd",
                  "the linear gauge complex composes to zero", 1e-9,
                  _check_gauge_complex_dd),
        CheckSpec("action_spencer_match",
                  "action-induced jet operator agrees with the direct one",
                  1e-10, _check_action_spencer_match),
    ),
    "pseudogroup": (
        CheckSpec("bracket_closure",
                  "brackets of solution sections solve the linear system",
                  1e-9, _check_bracket_closure),
        CheckSpec("bracket_lift_independence",
                  "bracket values ignore the top-order lift slots", 1e-10,
                  _check_bracket_lift_independence),
        CheckSpec("linearization_rows",
                  "hand linearization matches the derived rows", 1e-10,
                  _check_linearization_rows),
        CheckSpec("schwarzian_invariance",
                  "moebius reparametrization preserves the schwarzian",
                  1e-10, _check_schwarzian_invariance),
    ),
    "dynamics": (
        CheckSpec("speed_compatibility",
                  "speed fields satisfy the curl-bracket identities", 1e-8,
                  _check_speed_compatibility),
        CheckSpec("speed_duality",
                  "source and target speeds agree through the map", 1e-10,
                  _check_speed_duality),
        CheckSpec("variation_transport",
                  "both exact routes for the variation speed agree", 1e-8,
                  _check_variation_transport),
        CheckSpec("variation_transport_rate",
                  "finite variation quotients halve with eps", 0.2,
                  _check_variation_transport_rate),
        CheckSpec("mass_transport",
                  "transported density satisfies continuity", 1e-9,
                  _check_mass_transport),
        CheckSpec("force_density_duality",
                  "source and target force densities are dual through the map",
                  1e-10, _check_force_density_duality),
        CheckSpec("vortex_transport",
                  "half curl of acceleration transports the vorticity", 1e-8,
                  _check_vortex_transport),
        CheckSpec("vortex_compressible_control",
                  "a stretching field must break vorticity transport", 0.0,
                  _check_vortex_compressible_control),
        CheckSpec("pressure_path_independence",
                  "staircase pressure integrals agree across axis orders",
                  1e-7, _check_pressure_path_independence),
    ),
    "swell": (
        CheckSpec("swell_jacobian_drift",
                  "label-space jacobian is constant in time", 1e-9,
                  _check_swell_jacobian_drift),
        CheckSpec("swell_jacobian_formula",
                  "jacobian equals its closed decay form", 1e-10,
                  _check_swell_jacobian_formula),
        CheckSpec("swell_circularity",
                  "trajectories are circles with the decaying radius", 1e-10,
                  _check_swell_circularity),
        CheckSpec("swell_moving_frame",
                  "the map is stationary in the frame moving at wave speed",
                  1e-9, _check_swell_moving_frame),
        CheckSpec("swell_unbalanced_control",
                  "breaking the decay balance must move the jacobian", 0.0,
                  _check_swell_unbalanced_control),
    ),
    "elasticity": (
        CheckSpec("strain_kills_rigid_motions",
                  "strain and jet mismatch vanish on rigid sections", 1e-12,
                  _check_strain_kills_rigid_motions),
        CheckSpec("strain_compatibility",
                  "strains of displacements pass the compatibility test",
                  1e-9, _check_strain_compatibility),
        CheckSpec("rigid_kernel_dimension",
                  "the jet operator kernel has dimension three", 0.0,
                  _check_rigid_kernel_dimension),
        CheckSpec("stress_pairing_identity",
                  "volume pairing equals the adjoint pairing with sign",
                  1e-10, _check_stress_pairing_identity, randomized=False),
        CheckSpec("equilibrium_equations",
                  "adjoint output matches the hand equilibrium equations",
                  1e-12, _check_equilibrium_equations),
        CheckSpec("torsor_balance",
                  "boundary flux balances body loads, force and moment",
                  1e-10, _check_torsor_balance),
        CheckSpec("couple_stress_symmetry",
                  "without couple stress the moment residual is the stress asymmetry",
                  0.0, _check_couple_stress_symmetry),
    ),
}


def suite_check_ids(name: str) -> list[str]:
    if name == "all":
        return [c.id for n in SUITE_NAMES for c in SUITES[n]]
    return [c.id for c in SUITES[name]]


def run_suite(name: str, cfg: SuiteConfig | None = None) -> Report:
    cfg = cfg or SuiteConfig()
    if name == "all":
        if cfg.fixture:
            raise ValueError("--fixture needs a single suite, not 'all'")
        names = SUITE_NAMES
    elif name in SUITES:
        names = (name,)
    else:
        raise ValueError(f"unknown suite {name!r}; have "
                         f"{', '.join(SUITE_NAMES)}, all")
    records = []
    for sub in names:
        cache: dict = {}
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
