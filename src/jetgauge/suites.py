"""Named verification suites over the toolkit modules.

Each check holds one identity on seeded sample data and reports its worst
residual against a pinned tolerance; run_suite collects them into a Report.
Negative controls use a shortfall residual max(0, floor - observed) with
tolerance zero, so a control that fails to move fails the suite the same
way a broken identity would.  All randomness flows from the config seed,
which makes two runs with the same config byte-identical after the clock
fields are stripped.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

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
from .expr import ExprMap
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

SUITE_NAMES = ("group", "pseudogroup", "dynamics", "swell", "elasticity")


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    samples: int = 64            # low-discrepancy points per box
    tol_scale: float = 1.0
    fixture: str | None = None   # joins the suite's default roster


def _shortfall(observed: float, floor: float) -> float:
    return max(0.0, floor - observed)


def _poly_text(rng: np.random.Generator, monomials: list[str],
               scale: float) -> str:
    coeffs = rng.uniform(-1.0, 1.0, size=len(monomials)) * scale
    return " + ".join(f"({float(c)!r})*{m}"
                      for c, m in zip(coeffs, monomials))


# ---------------------------------------------------------------- group

PLANE_MONOS = ["x1", "x2", "x1*x2", "x1^2", "x2^2"]
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


def _random_gauging(spec, seed: int) -> ExprMap:
    # identity plus a small polynomial: stays inside the chart
    rng = np.random.default_rng(seed)
    comps = [f"{float(e)!r} + {_poly_text(rng, PLANE_MONOS, 0.3)}"
             for e in spec.identity]
    return ExprMap.parse(", ".join(comps), ["x1", "x2"])


def _check_curvature_of_pullback(cfg: SuiteConfig, cache: dict):
    worst, count = 0.0, 0
    for spec in _group_roster(cfg, cache):
        for k in range(10):
            g = _random_gauging(spec, cfg.seed + 100 + 17 * k)
            field = maurer_cartan_pullback(spec, g, GAUGE_GRID)
            worst = max(worst, curvature(spec, field).max_abs())
            count += len(GAUGE_GRID.nodes())
    return worst, count


def _check_structure_jacobi(cfg: SuiteConfig, cache: dict):
    from .groups import jacobi_residual
    worst = 0.0
    for spec in _group_roster(cfg, cache):
        worst = max(worst, jacobi_residual(spec.structure_constants()))
    return worst, len(_group_roster(cfg, cache))


def _check_variation_matches_fd(cfg: SuiteConfig, cache: dict):
    spec = _group_roster(cfg, cache)[0]
    pts = halton_points(((-0.4, 0.6), (-0.5, 0.5)), cfg.samples, cfg.seed + 5)
    body = maurer_cartan_pullback(spec, GAUGING_AFFINE, GAUGE_GRID)
    space = right_pullback(spec, GAUGING_AFFINE, GAUGE_GRID)
    worst = 0.0
    for exact, fd in [
        (variation_body(spec, body, GAUGE_LAM, pts),
         lambda e: variation_body_fd(spec, GAUGING_AFFINE, GAUGE_LAM, pts, e)),
        (variation_space(spec, space, GAUGE_LAM, pts),
         lambda e: variation_space_fd(spec, GAUGING_AFFINE, GAUGE_LAM, pts, e)),
    ]:
        e1 = np.max(np.abs(fd(1e-3) - exact))
        e2 = np.max(np.abs(fd(5e-4) - exact))
        worst = max(worst, abs(e1 / e2 - 2.0))
    return worst, len(pts)


def _check_gauge_complex_dd(cfg: SuiteConfig, cache: dict):
    one_form = ExprMap.parse("sin(x1)*x2, x1*x2^2, exp(x1) - x2, x1^3",
                             ["x1", "x2"])
    pts = halton_points(((-0.8, 0.8), (-0.8, 0.8)), cfg.samples, cfg.seed + 6)
    return float(np.max(np.abs(linear_gauge_dd(one_form, 2, 2, 0, pts)))), len(pts)


def _check_action_spencer_match(cfg: SuiteConfig, cache: dict):
    worst, count = 0.0, 0
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
            names = [f"x{k + 1}" for k in range(spec.action.dim)]
            rng = np.random.default_rng(cfg.seed + 9)
            lam = ExprMap.parse(
                ", ".join(_poly_text(rng, names, 0.4)
                          for _ in range(spec.dim)), names)
        pts = halton_points(spec.action.box, min(cfg.samples, 16),
                            cfg.seed + 7)
        worst = max(worst, spencer_from_action(spec, lam, 1, pts).max_mismatch)
        count += len(pts)
    return worst, count


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
    return (float(np.max([r.max_residual for r in reps])),
            sum(r.npairs for r in reps))


def _check_bracket_lift_independence(cfg: SuiteConfig, cache: dict):
    reps = _closure_reports(cfg, cache)
    return (float(np.max([r.lift_gap for r in reps])),
            sum(r.npairs for r in reps))


def _check_linearization_rows(cfg: SuiteConfig, cache: dict):
    worst, count = 0.0, 0
    for sys in _lie_roster(cfg, cache):
        if sys.linearization is None:
            continue
        pts = halton_points(sys.box, min(cfg.samples, 20), cfg.seed + 4)
        worst = max(worst, linearization_rows_gap(sys, pts))
        count += len(pts)
    return worst, count


def _check_schwarzian_invariance(cfg: SuiteConfig, cache: dict):
    # moebius reparametrization of exp leaves the schwarzian unchanged
    f = ExprMap.parse("exp(x)", ["x"])
    g = ExprMap.parse("(2*exp(x) + 1)/(exp(x) + 3)", ["x"])
    xs = halton_points(((-0.8, 0.8),), min(cfg.samples, 16), cfg.seed + 8)
    worst = max(abs(schwarzian_of_map(g, float(x[0])) -
                    schwarzian_of_map(f, float(x[0]))) for x in xs)
    return worst, len(xs)


# ------------------------------------------------------------- dynamics

FAMILY_MONOS = ["x1", "x2", "y1*x1", "y1*x2", "y2*x1", "y2*x2",
                "x1*x2", "x1^2", "x2^2", "y1*y2"]
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
    # identity plus a small coupled polynomial; Newton-invertible on the box
    rng = np.random.default_rng(seed)
    comps = [f"y{k + 1} + {_poly_text(rng, FAMILY_MONOS, 0.12)}"
             for k in range(2)]
    return MotionFamily.parse(2, 2, ", ".join(comps), ybox=SMALL_BOX,
                              xbox=SMALL_BOX, zbox=((-0.9, 0.9), (-0.9, 0.9)),
                              label=f"random-{seed}")


def _family_roster(cfg: SuiteConfig, cache: dict) -> list[MotionFamily]:
    if "families" not in cache:
        fams = [_random_motion_family(cfg.seed + 1000 + k) for k in range(10)]
        if cfg.fixture:
            fams.append(load_motion_family(cfg.fixture))
        cache["families"] = fams
    return cache["families"]


def _check_speed_compatibility(cfg: SuiteConfig, cache: dict):
    worst, count = 0.0, 0
    npts = min(cfg.samples, 16)
    for k, fam in enumerate(_family_roster(cfg, cache)):
        zx = fam.sample_zx(npts, cfg.seed + 77 + k)
        worst = max(worst, compatibility_residual(fam, zx).max_residual)
        count += npts
    return worst, count


def _check_speed_duality(cfg: SuiteConfig, cache: dict):
    worst, count = 0.0, 0
    npts = min(cfg.samples, 16)
    for k, fam in enumerate(_family_roster(cfg, cache)):
        yx = fam.sample_yx(npts, cfg.seed + 78 + k)
        worst = max(worst, speed_duality_gap(fam, yx))
        count += npts
    return worst, count


def _check_variation_transport(cfg: SuiteConfig, cache: dict):
    zx = EXP_MOVED.sample_zx(min(cfg.samples, 12), cfg.seed + 9)
    rep = theorem3_check(EXP_MOVED, zx, eps=1e-3)
    return max(rep.exact_gap, rep.base_gap), len(zx)


def _check_variation_transport_rate(cfg: SuiteConfig, cache: dict):
    zx = EXP_MOVED.sample_zx(min(cfg.samples, 12), cfg.seed + 9)
    rep = theorem3_check(EXP_MOVED, zx, eps=1e-3)
    return abs(rep.ratio - 2.0), len(zx)


def _check_mass_transport(cfg: SuiteConfig, cache: dict):
    worst, count = 0.0, 0
    npts = min(cfg.samples, 12)
    fams = [ROTATION] + _family_roster(cfg, cache)[:3]
    for k, fam in enumerate(fams):
        zx = fam.sample_zx(npts, cfg.seed + 55 + k)
        worst = max(worst, mass_conservation_residual(fam, zx).residual)
        count += npts
    return worst, count


def _check_force_density_duality(cfg: SuiteConfig, cache: dict):
    zx = ROTATION.sample_zx(min(cfg.samples, 16), cfg.seed + 13)
    return el_residual(ROTATION, KINETIC, zx).dual_gap, len(zx)


def _check_vortex_transport(cfg: SuiteConfig, cache: dict):
    pts = halton_points(FIELD_BOX, min(cfg.samples, 12), cfg.seed + 41)
    worst = 0.0
    for k in range(10):
        field = random_solenoidal_field(cfg.seed + 300 + k)
        worst = max(worst, vortex_residual(field, pts))
    return worst, 10 * len(pts)


def _check_vortex_compressible_control(cfg: SuiteConfig, cache: dict):
    # the stretching field has defect |omega . div v| = 1 exactly
    field = ExprMap.parse("z1, z3, 0 - z2", ["z1", "z2", "z3", "t"])
    pts = halton_points(FIELD_BOX, min(cfg.samples, 12), cfg.seed + 42)
    defect = vortex_residual(field, pts, enforce_divergence=False)
    return _shortfall(defect, 1e-3), len(pts)


def _check_pressure_path_independence(cfg: SuiteConfig, cache: dict):
    rot = ExprMap.parse("-1.3 * z2, 1.3 * z1, 0", ["z1", "z2", "z3", "t"])
    pts = halton_points(((-0.7, 0.7),) * 3, min(cfg.samples, 10),
                        cfg.seed + 23)
    rep = pressure_recovery(rot, 0.5, pts, (0.0, 0.0, 0.0))
    return rep.path_gap, len(pts)


# ---------------------------------------------------------------- swell

SWELL_DEFAULTS = {"R0": 1.0, "k": 0.1, "omega": 1.0, "c": 0.0}


def _swell_params(cfg: SuiteConfig) -> dict:
    params = dict(SWELL_DEFAULTS)
    if cfg.fixture:
        with open(cfg.fixture, encoding="utf-8") as fh:
            params.update(json.load(fh))
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
    return _swell_report(cfg, cache).jacobian_drift, min(cfg.samples, 24)


def _check_swell_jacobian_formula(cfg, cache):
    return _swell_report(cfg, cache).jacobian_formula_gap, min(cfg.samples, 24)


def _check_swell_circularity(cfg, cache):
    return _swell_report(cfg, cache).circle_gap, min(cfg.samples, 24)


def _check_swell_moving_frame(cfg, cache):
    return _swell_report(cfg, cache).moving_frame_gap, min(cfg.samples, 24)


def _check_swell_unbalanced_control(cfg, cache):
    p = _swell_params(cfg)
    rep = swell_family(p["R0"], p["k"], p["omega"], p["c"],
                       decay=2.5 * p["k"], nlabels=min(cfg.samples, 24),
                       seed=cfg.seed + 311)[1]
    return _shortfall(rep.jacobian_drift, 1e-3), min(cfg.samples, 24)


# ----------------------------------------------------------- elasticity

PLANE_BOX = ((-1.0, 1.0), (-1.0, 1.0))
BUMP2 = "(x1 + 1)^2 * (1 - x1)^2 * (x2 + 1)^2 * (1 - x2)^2"
POLY_STATE = StressState.parse(
    "0.4*x1^2 - x2 + 0.7, 1.2*x1*x2 + 0.3, 0.5*x2^2 - 0.8*x1, x1 + x2 - 0.2",
    "0.6*x1^2 + x2, 0.9*x1*x2 - 0.4")
BUMP_SECTION = DisplacementSection.parse(
    f"({BUMP2}) * (0.3 + x1 - 0.5*x2^2), ({BUMP2}) * (x2 + 0.2*x1^2)",
    f"({BUMP2}) * (0.7 - x1*x2)")
DISP_MONOS = ["x1", "x2", "x1*x2", "x1^2", "x2^2", "x1^3", "x1*x2^2",
              "x1^2*x2", "x2^3"]


def _elastic_points(cfg: SuiteConfig) -> np.ndarray:
    return halton_points(((-0.8, 0.8), (-0.8, 0.8)), min(cfg.samples, 20),
                         cfg.seed + 31)


def _check_strain_kills_rigid_motions(cfg, cache):
    pts = _elastic_points(cfg)
    rng = np.random.default_rng(cfg.seed + 12)
    worst = 0.0
    for _ in range(10):
        c1, c2, w = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
        sec = DisplacementSection.parse(
            f"{c1!r} + {w!r}*x2, {c2!r} - {w!r}*x1", f"{-w!r}")
        worst = max(worst, float(np.max(np.abs(killing(sec, pts)))),
                    float(np.max(np.abs(spencer_elastic(sec, pts)))))
    return worst, 10 * len(pts)


def _check_strain_compatibility(cfg, cache):
    pts = _elastic_points(cfg)
    rng = np.random.default_rng(cfg.seed + 14)
    worst = 0.0
    for _ in range(5):
        sec = DisplacementSection.parse(
            f"{_poly_text(rng, DISP_MONOS, 1.0)}, "
            f"{_poly_text(rng, DISP_MONOS, 1.0)}")
        worst = max(worst, riemann_residual(sec, pts))
    return worst, 5 * len(pts)


def _check_rigid_kernel_dimension(cfg, cache):
    dim = rigid_kernel_dimension(degree=2, seed=cfg.seed + 29)
    return float(abs(dim - 3)), 40


def _check_stress_pairing_identity(cfg, cache):
    rep = pairing_identity_check(POLY_STATE, BUMP_SECTION, PLANE_BOX, order=9)
    return rep.gap, 81


def _check_equilibrium_equations(cfg, cache):
    # adjoint output against hand-differentiated loads of the fixed state
    pts = _elastic_points(cfg)
    f, m = adjoint_spencer(POLY_STATE, pts)
    x1, x2 = pts[:, 0], pts[:, 1]
    f1 = 0.8 * x1 + 1.0 * x2
    f2 = 1.2 * x2 + 1.0
    mm = (1.2 * x1 + 0.9 * x1 + (1.2 * x1 * x2 + 0.3)
          - (0.5 * x2 ** 2 - 0.8 * x1))
    worst = max(float(np.max(np.abs(f[:, 0] - f1))),
                float(np.max(np.abs(f[:, 1] - f2))),
                float(np.max(np.abs(m - mm))))
    return worst, len(pts)


def _check_torsor_balance(cfg, cache):
    states = [StressState.parse("x1, 0, 0, x2"), POLY_STATE]
    if cfg.fixture:
        states.append(load_stress_state(cfg.fixture))
    worst = max(torsor_equilibrium_check(s, PLANE_BOX, order=8).max_gap
                for s in states)
    return worst, 64 * len(states)


def _check_couple_stress_symmetry(cfg, cache):
    # with no couple stress the moment residual is the asymmetry of sigma,
    # so a symmetric stress balances moments to the exact float zero
    pts = _elastic_points(cfg)
    rng = np.random.default_rng(cfg.seed + 16)
    worst = 0.0
    for _ in range(5):
        diag = [_poly_text(rng, DISP_MONOS, 1.0) for _ in range(2)]
        shared = _poly_text(rng, DISP_MONOS, 1.0)
        state = StressState.parse(f"{diag[0]}, {shared}, {shared}, {diag[1]}")
        _, m = adjoint_spencer(state, pts)
        worst = max(worst, float(np.max(np.abs(m))))
    return worst, 5 * len(pts)


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
            residual, count = spec.fn(cfg, cache)
            ms = (time.perf_counter() - t0) * 1000.0
            records.append(CheckRecord(
                id=spec.id, identity=spec.identity,
                max_residual=float(residual),
                tolerance=spec.tolerance * cfg.tol_scale,
                samples=int(count), runtime_ms=ms,
                seed=cfg.seed if spec.randomized else None))
    return Report(suite=name, records=tuple(records), seed=cfg.seed)
