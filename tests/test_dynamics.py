import json
import math

import numpy as np
import pytest

from jetgauge import _suite_dynamics, dynamics, suites
from jetgauge._runner import _max_abs
from jetgauge._multiindex import exponent_rows, poly_shift
from jetgauge.expr import ExprMap, PolyMap
from jetgauge.dynamics import (
    NEWTON_MAX_ITER, NEWTON_TOL, CurlNotZero,
    DivergenceNotZero, InverseSolveError, MotionFamily,
    _variation_speeds, compatibility_residual,
    el_residual, load_motion_family,
    mass_conservation_residual, motion_family_from_dict, pressure_recovery,
    random_solenoidal_field, speed_duality_gap, swell_family, swell_rows,
    theorem3_check, vortex_residual,
)
from jetgauge.quadrature import gauss_rule
from jetgauge.sampling import halton_points
from jetgauge.suites import (
    SUITE_NAMES, SuiteConfig, run_suite, suite_check_ids,
)
from polytext import coeff_text, poly_text

OM = 0.8
ROTATION = MotionFamily.parse(
    m=2, n=1,
    forward=(f"y1 * cos({OM} * x1) - y2 * sin({OM} * x1), "
             f"y1 * sin({OM} * x1) + y2 * cos({OM} * x1)"),
    inverse=(f"z1 * cos({OM} * x1) + z2 * sin({OM} * x1), "
             f"0 - z1 * sin({OM} * x1) + z2 * cos({OM} * x1)"),
    ybox=((-1.0, 1.0), (-1.0, 1.0)), xbox=((-0.5, 0.5),),
    zbox=((-1.0, 1.0), (-1.0, 1.0)), label="rotation")

EXP_STRETCH = MotionFamily.parse(
    m=1, n=1,
    forward="exp(x1) * y1",
    inverse="z1 * exp(0 - x1)",
    variation="exp(x1) * (y1 + eps * y1^2)",
    ybox=((0.3, 1.0),), xbox=((-0.5, 0.5),), zbox=((0.2, 1.5),),
    label="exp-stretch")

EXP_SHIFT = MotionFamily.parse(
    m=1, n=2,
    forward="exp(x1) * (y1 + x2)",
    inverse="z1 * exp(0 - x1) - x2",
    ybox=((-1.0, 1.0),), xbox=((-0.5, 0.5), (-0.5, 0.5)),
    zbox=((-2.0, 2.0),), label="exp-shift")

NEWTON_F = ("y1 + 0.3*sin(y2) + x1 + 0.2*x1*x2",
            "y2 + 0.25*y1^2 + x2 - 0.1*x1")
NEWTON_FAMILY = MotionFamily.parse(
    m=2, n=2, forward=", ".join(NEWTON_F),
    ybox=((-0.6, 0.6), (-0.6, 0.6)), xbox=((-0.4, 0.4), (-0.4, 0.4)),
    zbox=((-1.5, 1.5), (-1.5, 1.5)), label="newton")

NEWTON_VARIATION = MotionFamily.parse(
    m=2, n=2, forward=", ".join(NEWTON_F),
    variation=(f"{NEWTON_F[0]} + eps*y1*y2, "
               f"{NEWTON_F[1]} + eps*sin(y1 + x2)"),
    ybox=((-0.6, 0.6), (-0.6, 0.6)), xbox=((-0.4, 0.4), (-0.4, 0.4)),
    zbox=((-1.5, 1.5), (-1.5, 1.5)), label="newton-variation")

KINETIC = ExprMap.parse("0.5 * (v1^2 + v2^2)", ["v1", "v2"])
FIELD_VARS = ["z1", "z2", "z3", "t"]
FIELD_PTS = halton_points(((-0.8, 0.8),) * 3 + ((0.0, 2.0),), 10, 41)


def abc_field(a: float = 1.0, b: float = 1.0, c: float = 1.0) -> ExprMap:
    """The classical Beltrami benchmark field, steady and divergence-free."""
    text = (f"{a!r} * sin(z3) + {c!r} * cos(z2), "
            f"{b!r} * sin(z1) + {a!r} * cos(z3), "
            f"{c!r} * sin(z2) + {b!r} * cos(z1)")
    return ExprMap.parse(text, FIELD_VARS)


def divergence_at(field: ExprMap, z: np.ndarray, t: float) -> float:
    jac = field.taylor_lift(np.array([z[0], z[1], z[2], float(t)]), 1).jacobian()
    return float(np.trace(jac[:, :3]))


def test_round_trips():
    assert ROTATION.validate() < 1e-12
    assert EXP_STRETCH.validate() < 1e-12
    assert NEWTON_FAMILY.validate() < 1e-10      # Newton inversion


def test_exp_stretch_speed_sample():
    # f = e^x y: v = z, u = y, delta = e^x, rho = e^-x, all exact
    z, x = np.array([0.7]), np.array([0.2])
    y = EXP_STRETCH.invert(z, x)
    st = EXP_STRETCH.state_at_source(y, x)
    assert abs(st.v[0, 0] - 0.7) < 1e-14
    assert abs(st.u[0, 0] - y[0]) < 1e-14
    assert abs(st.delta - math.exp(0.2)) < 1e-14
    assert abs(st.rho - math.exp(-0.2)) < 1e-14


def test_rotation_speed_hand_values():
    # v = Om (-z2, z1) regardless of the angle parameter
    for zx in ROTATION.sample_zx(6, 11):
        z, x = zx[:2], zx[2:]
        st = ROTATION.state_at_source(ROTATION.invert(z, x), x)
        expect = OM * np.array([[-zx[1]], [zx[0]]])
        assert np.max(np.abs(st.v - expect)) < 1e-13
        assert abs(st.delta - 1.0) < 1e-13       # rotations preserve volume


def test_speed_duality():
    assert _max_abs(speed_duality_gap(NEWTON_FAMILY,
                                      NEWTON_FAMILY.sample_yx(8, 7))) < 1e-12
    assert _max_abs(speed_duality_gap(ROTATION, ROTATION.sample_yx(8, 7))) < 1e-12


def test_compatibility_residuals_vanish():
    v_form, u_form = compatibility_residual(EXP_SHIFT, EXP_SHIFT.sample_zx(12, 5))
    assert v_form.shape == u_form.shape == (1, 12, 1)     # one parameter pair
    assert _max_abs(v_form) < 1e-12
    assert _max_abs(u_form) < 1e-12
    rep2 = compatibility_residual(NEWTON_FAMILY, NEWTON_FAMILY.sample_zx(10, 6))
    assert _max_abs(rep2) < 1e-11


def test_compatibility_single_parameter_is_vacuous():
    rep = compatibility_residual(EXP_STRETCH, EXP_STRETCH.sample_zx(4, 3))
    assert rep.size == 0 and _max_abs(rep) == 0.0


def _ratio(fd, fd_half):
    return _max_abs(fd) / _max_abs(fd_half)


def test_theorem3_exact_routes_and_quotient():
    # f = e^x (y + eps y^2) keeps v(z, x) = z for every eps: both exact
    # routes and the quotient all vanish together
    exact, fd, _, base = theorem3_check(EXP_STRETCH,
                                        EXP_STRETCH.sample_zx(8, 9))
    assert _max_abs(base) < 1e-13                # eps = 0 recovers the family
    assert _max_abs(exact) < 1e-13
    assert _max_abs(fd) < 1e-11

    moved = MotionFamily.parse(
        1, 1, "exp(x1) * y1", inverse="z1 * exp(0 - x1)",
        variation="exp(x1) * y1 + eps * y1^2",
        ybox=((0.3, 1.0),), xbox=((-0.5, 0.5),), zbox=((0.2, 1.5),))
    exact, fd, fd_half, _ = theorem3_check(moved, moved.sample_zx(8, 9))
    assert _max_abs(exact) < 1e-12
    assert _max_abs(fd) < 0.1
    assert 1.8 < _ratio(fd, fd_half) < 2.2       # one-sided, first order


def test_theorem3_translation_family_is_still():
    fam = MotionFamily.parse(
        1, 1, "y1 + x1", variation="y1 + x1 + eps",
        ybox=((-1.0, 1.0),), xbox=((-0.5, 0.5),), zbox=((-1.5, 1.5),))
    exact, fd, _, _ = theorem3_check(fam, fam.sample_zx(5, 2))
    # eta independent of z and v constant: both routes equal d eta/dx = 0
    assert _max_abs(exact) < 1e-14
    assert _max_abs(fd) < 1e-12


def test_mass_conservation():
    continuity = mass_conservation_residual(EXP_STRETCH,
                                            EXP_STRETCH.sample_zx(8, 9))
    assert _max_abs(continuity) < 1e-13
    continuity = mass_conservation_residual(NEWTON_FAMILY,
                                            NEWTON_FAMILY.sample_zx(8, 10))
    assert _max_abs(continuity) < 1e-11


def test_el_residual_rotation_is_centripetal():
    # w = kinetic energy, rho = 1: residual must equal -Om^2 (z1, z2)
    samples = ROTATION.sample_zx(8, 13)
    ez, _, dual = el_residual(ROTATION, KINETIC, samples)
    expect = -OM * OM * samples[:, :2]
    assert np.max(np.abs(ez - expect)) < 1e-12
    assert _max_abs(dual) < 1e-13


def test_el_residual_translation_flow_vanishes():
    fam = MotionFamily.parse(
        1, 1, "y1 + 2.0 * x1", inverse="z1 - 2.0 * x1",
        ybox=((-1.0, 1.0),), xbox=((-0.5, 0.5),), zbox=((-2.0, 2.0),))
    w = ExprMap.parse("0.5 * v1^2", ["v1"])
    ez, _, _ = el_residual(fam, w, fam.sample_zx(5, 3))
    assert _max_abs(ez) < 1e-14


def test_vortex_identity_divergence_free():
    rot = ExprMap.parse("0 - z2, z1, 0", FIELD_VARS)
    assert _max_abs(vortex_residual(rot, FIELD_PTS)) < 1e-13
    assert _max_abs(vortex_residual(abc_field(1.0, 0.9, 1.1), FIELD_PTS)) < 1e-12


def test_vortex_identity_random_solenoidal():
    for seed in (3, 17, 29):
        fld = random_solenoidal_field(seed)
        worst_div = max(abs(divergence_at(fld, p[:3], p[3]))
                        for p in FIELD_PTS)
        assert worst_div < 1e-12
        assert _max_abs(vortex_residual(fld, FIELD_PTS)) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_vortex_nan_fails_closed(monkeypatch):
    # divergence-free, but exp overflows at t = 2 and inf * 0 is NaN: a NaN
    # after a finite sample must reach the residual and fail the check
    fld = ExprMap.parse("exp(500 * t) * z2, 0, 0", FIELD_VARS)
    pts = np.array([[0.1, 0.2, 0.3, 0.0], [0.1, 0.2, 0.3, 2.0]])
    assert _max_abs(vortex_residual(fld, pts[:1])) < 1e-13
    assert math.isnan(_max_abs(vortex_residual(fld, pts)))
    # the suite stacks its fields, so the NaN goes into the fourth field
    # of the stack, after three finite ones
    real = _suite_dynamics.random_solenoidal_field

    def poisoned(seed):
        field = real(seed)
        if seed == 42 + 303:
            coeffs = field.coeffs.copy()
            coeffs[0, field._support[-1]] = math.nan
            return PolyMap(field.variables, field.degree, coeffs)
        return field

    monkeypatch.setattr(_suite_dynamics, "random_solenoidal_field", poisoned)
    res, _ = _suite_dynamics._check_vortex_transport(SuiteConfig(seed=42), {})
    assert np.isfinite(res[:3]).all() and np.isnan(res[3]).any()
    rep = run_suite("dynamics", SuiteConfig(seed=42))
    record = {r.id: r for r in rep.records}["vortex_transport"]
    assert math.isnan(record.max_residual)
    assert record.to_dict()["status"] == "fail"


def test_compatibility_report_keeps_nan(monkeypatch):
    # a NaN in either form of the second family, after the finite
    # residuals before it, reaches the speed_compatibility record; the
    # random families run as one stack, (2, pairs, family, point, m)
    real = _suite_dynamics.compatibility_residual
    spec = [c for c in suites.SUITES["dynamics"] if c.id == "speed_compatibility"]
    monkeypatch.setitem(suites.SUITES, "dynamics", tuple(spec))
    for form in (0, 1):
        calls = []

        def poisoned(fam, zx):
            out = real(fam, zx)
            calls.append(fam)
            assert np.isfinite(out[:, :, 0]).all()
            out[form, -1, 1, -1] = math.nan
            return out

        monkeypatch.setattr(_suite_dynamics, "compatibility_residual",
                            poisoned)
        record = run_suite("dynamics", SuiteConfig(seed=42)).records[0]
        assert len(calls) == 1
        assert math.isnan(record.max_residual)
        assert record.to_dict()["status"] == "fail"


def test_vortex_compressible_control():
    # v = (z1, z3, -z2): div = 1, omega = (-1, 0, 0), defect |omega div| = 1
    comp = ExprMap.parse("z1, z3, 0 - z2", FIELD_VARS)
    with pytest.raises(DivergenceNotZero):
        vortex_residual(comp, FIELD_PTS)
    defect = _max_abs(vortex_residual(comp, FIELD_PTS, enforce_divergence=False))
    assert abs(defect - 1.0) < 1e-13


def test_pressure_recovery_rotation():
    om = 1.3
    rot = ExprMap.parse(f"{-om!r} * z2, {om!r} * z1, 0", FIELD_VARS)
    pts = halton_points(((-0.7, 0.7),) * 3, 7, 23)
    # curl gamma is below 1e-13, or the recovery would raise CurlNotZero
    values, path_gap = pressure_recovery(rot, 0.5, pts, (0.0, 0.0, 0.0),
                                         curl_tol=1e-13)
    exact = 0.5 * om * om * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert np.max(np.abs(values - exact)) < 1e-12
    assert _max_abs(path_gap) < 1e-12


def test_pressure_recovery_rejects_rotational_acceleration():
    # gamma = (z1 z2^2, 0, 0) has curl (0, 0, -2 z1 z2)
    bad = ExprMap.parse("z1 * z2, 0, 0", FIELD_VARS)
    pts = halton_points(((-0.7, 0.7),) * 3, 5, 23)
    with pytest.raises(CurlNotZero):
        pressure_recovery(bad, 0.0, pts, (0.0, 0.0, 0.0))


def test_swell_balanced_family():
    fam, (drift, formula, circle, frame) = swell_family(1.0, 0.1, 1.0, 0.0)
    assert fam.m == 2 and fam.n == 1
    assert drift.shape == formula.shape == circle.shape == (24, 9)
    assert frame.shape == (24, 9, 2)
    assert _max_abs(drift) < 1e-12
    assert _max_abs(formula) < 1e-12             # det = 1 - k^2 R^2
    assert _max_abs(circle) < 1e-12
    assert _max_abs(frame) < 1e-12


def test_swell_unbalanced_decay_drifts():
    _, (drift, formula, _, _) = swell_family(1.0, 0.1, 1.0, 0.0, decay=0.25)
    assert _max_abs(drift) > 1e-2
    assert formula.size == 0                     # no closed form off balance


@pytest.mark.parametrize("key", ["R0", "k", "omega", "c", "decay"])
def test_swell_family_refuses_a_non_finite_value(key):
    # each value is written into the family's expression text
    params = {"R0": 1.0, "k": 0.1, "omega": 1.0, "c": 0.0, key: math.inf}
    with pytest.raises(ValueError, match=f"swell '{key}' must be finite"):
        swell_family(**params)


def test_swell_rows_are_circles():
    rows = swell_rows(1.0, 0.1, 1.0, 0.0,
                      labels=[(0.0, 0.5), (1.0, 1.2)],
                      times=np.linspace(0.0, 6.0, 7))
    assert len(rows) == 14
    for t, a, b, x, y, xbar, ybar in rows:
        radius = math.exp(-0.1 * b)
        assert abs(math.hypot(x - a, y - b) - radius) < 1e-12
        assert abs(xbar - (x - 10.0 * t)) < 1e-12


def test_motion_family_json_round_trip(tmp_path):
    data = {
        "m": 1, "n": 1,
        "f": "exp(x1) * y1",
        "g": "z1 * exp(0 - x1)",
        "variation": "exp(x1) * (y1 + eps * y1^2)",
        "box": {"y": [[-1.0, 1.0]], "x": [[-0.5, 0.5]], "z": [[-2.0, 2.0]]},
        "label": "exp-stretch",
    }
    fam = motion_family_from_dict(data)
    assert fam.label == "exp-stretch"
    assert fam.validate() < 1e-12
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    fam2 = load_motion_family(path)
    z, x = np.array([0.7]), np.array([0.2])
    st = fam2.state_at_source(fam2.invert(z, x), x)
    assert abs(st.v[0, 0] - 0.7) < 1e-14


def test_singular_source_jacobian_raises():
    sing = MotionFamily.parse(1, 1, "y1^2 + x1", ybox=((-1.0, 1.0),),
                              xbox=((-0.5, 0.5),))
    with pytest.raises(InverseSolveError):
        sing.state_at_source(np.array([0.0]), np.array([0.1]))


def _point_newton(emap, m, z, tail, y0):
    """One point at a time: the loop each row of the block solve must match."""
    y = np.asarray(y0, float).copy()
    for _ in range(NEWTON_MAX_ITER):
        lift = emap.taylor_lift(np.concatenate([y, tail]), 1)
        resid = lift.value() - z
        if float(np.max(np.abs(resid))) < NEWTON_TOL:
            return y
        y = y - np.linalg.solve(lift.jacobian()[:, :m], resid)
    raise AssertionError("reference solve stalled")


def _old_variation_state(fam, z, x, eps, seed):
    """The per-point eps-family inversion the block kernel replaced."""
    m, n = fam.m, fam.n
    y = np.asarray(seed, float).copy()
    point = np.concatenate([y, x, [eps]])
    for _ in range(NEWTON_MAX_ITER):
        lift = fam.variation.taylor_lift(point, 1)
        resid = lift.value() - z
        if float(np.max(np.abs(resid))) < NEWTON_TOL:
            return lift.jacobian()[:, m:m + n]
        y = y - np.linalg.solve(lift.jacobian()[:, :m], resid)
        point = np.concatenate([y, x, [eps]])
    raise AssertionError("reference solve stalled")


def _bits(a):
    return np.asarray(a, float).view(np.int64)


@pytest.mark.parametrize("fam", [NEWTON_FAMILY,
                                 _suite_dynamics._random_motion_family(1042)],
                         ids=["newton", "roster"])
def test_block_invert_matches_point_loop(fam):
    zx = fam.sample_zx(12, 3)
    z, x = zx[:, :fam.m], zx[:, fam.m:]
    centre = np.array([0.5 * (lo + hi) for lo, hi in fam.ybox])
    ref = np.array([_point_newton(fam.forward, fam.m, zr, xr, centre)
                    for zr, xr in zip(z, x)])
    assert np.array_equal(_bits(fam.invert(z, x)), _bits(ref))
    stacked = fam.invert(z.reshape(3, 4, fam.m), x.reshape(3, 4, fam.n))
    assert stacked.shape == (3, 4, fam.m)
    assert np.array_equal(_bits(stacked.reshape(12, fam.m)), _bits(ref))
    # one point alone, and again after other calls: no warm start
    assert np.array_equal(_bits(fam.invert(z[5], x[5])), _bits(ref[5]))
    assert np.array_equal(_bits(fam.invert(z[5], x[5])), _bits(ref[5]))


def test_eps_family_inversion_keeps_point_bits():
    for fam in (NEWTON_VARIATION, EXP_STRETCH):
        zx = fam.sample_zx(10, 4)
        z, x = zx[:, :fam.m], zx[:, fam.m:]
        y = fam.invert(z, x)
        for eps in (1e-3, 5e-4):
            v_eps = _variation_speeds(fam, z, x, eps, y)
            for row, (zr, xr, yr) in enumerate(zip(z, x, y)):
                v_ref = _old_variation_state(fam, zr, xr, eps, yr)
                assert np.array_equal(_bits(v_eps[row]), _bits(v_ref))


def test_block_invert_singular_row_raises():
    # the solve starts at y = 0, where the jacobian is 1 + x1
    fam = MotionFamily.parse(1, 1, "(1 + x1) * y1 + y1^3",
                             ybox=((-1.0, 1.0),), xbox=((-1.0, 1.0),))
    z = np.full((3, 1), 0.5)
    x = np.array([[0.2], [-1.0], [0.3]])
    assert fam.invert(z[[0, 2]], x[[0, 2]]).shape == (2, 1)
    with pytest.raises(InverseSolveError, match="singular"):
        fam.invert(z, x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_block_invert_stall_raises():
    # y^2 + 1 = 0 has no real root: that row never converges
    fam = MotionFamily.parse(1, 1, "y1^2 + 1 + 0 * x1", ybox=((0.2, 1.0),))
    z = np.array([[2.0], [0.0]])
    x = np.zeros((2, 1))
    assert abs(fam.invert(z[0], x[0])[0] - 1.0) < 1e-12
    with pytest.raises(InverseSolveError, match="stalled"):
        fam.invert(z, x)
    # 0 * exp(800) is NaN: a NaN residual never counts as converged
    nan_fam = MotionFamily.parse(1, 1, "y1 + 0 * exp(800 * x1)")
    with pytest.raises(InverseSolveError, match="stalled"):
        nan_fam.invert(np.array([[0.5], [0.5]]), np.array([[0.0], [1.0]]))


def _records_without_clock(report):
    return {r.id: {k: v for k, v in r.to_dict().items() if k != "runtime_ms"}
            for r in report.records}


@pytest.fixture(scope="module")
def records_seed3():
    # at seed 3 a warm start carried over from the checks before it moved
    # mass_transport's record
    return {name: _records_without_clock(run_suite(name, SuiteConfig(seed=3)))
            for name in SUITE_NAMES}


def _suite_of(check):
    return next(n for n in SUITE_NAMES if check in suite_check_ids(n))


@pytest.mark.parametrize("check", suite_check_ids("all"))
def test_newton_checks_do_not_depend_on_order(check, records_seed3,
                                              monkeypatch):
    # every check of every suite, run alone on a fresh cache, gives the
    # record it gives inside its suite; the Newton checks were the first
    # to break this
    name = _suite_of(check)
    spec = [c for c in suites.SUITES[name] if c.id == check]
    monkeypatch.setitem(suites.SUITES, name, tuple(spec))
    alone = run_suite(name, SuiteConfig(seed=3))
    assert _records_without_clock(alone) == {check: records_seed3[name][check]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("check", suite_check_ids("all"))
def test_run_suite_reduces_every_check(check, monkeypatch):
    # run_suite alone turns residuals into max_residual: a NaN after the
    # finite residuals fails the record, and no residuals read 0.0
    name = _suite_of(check)
    spec = next(c for c in suites.SUITES[name] if c.id == check)

    def with_nan(cfg, cache):
        res, count = spec.fn(cfg, cache)
        parts = res if isinstance(res, tuple) else (res,)
        assert math.isfinite(_max_abs(parts))
        return (*parts, np.array([math.nan])), count

    def without_residuals(cfg, cache):
        return (), spec.fn(cfg, cache)[1]

    def record_of(fn):
        monkeypatch.setitem(suites.SUITES, name,
                            (suites.CheckSpec(spec.id, spec.identity,
                                              spec.tolerance, fn),))
        return run_suite(name, SuiteConfig(seed=3)).records[0]

    record = record_of(with_nan)
    assert math.isnan(record.max_residual)
    assert record.to_dict()["status"] == "fail"
    record = record_of(without_residuals)
    assert record.max_residual == 0.0 and record.passed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_theorem3_nan_fails_closed(monkeypatch):
    # A * B - 1 with A = exp(700 u), B = exp(-700 u) is zero, but near u = 1
    # the second-order slots of A overflow, so the exact routes go NaN at
    # the second sample while every order-1 lift stays finite
    f = "exp(x1) * y1 + exp(700 * (y1 + x1)) * exp(0 - 700 * (y1 + x1)) - 1"
    fam = MotionFamily.parse(1, 1, f, inverse="z1 * exp(0 - x1)",
                             variation=f + " + eps * y1^2",
                             ybox=((0.3, 1.0),), xbox=((-0.5, 0.5),),
                             zbox=((0.2, 1.5),))
    pts = np.array([[0.5, 0.0], [0.5 * math.exp(0.5), 0.5]])
    assert _max_abs(theorem3_check(fam, pts[:1])[0]) < 1e-13
    assert math.isnan(_max_abs(theorem3_check(fam, pts)[0]))
    monkeypatch.setattr(fam, "sample_zx", lambda count, seed: pts)
    monkeypatch.setattr(_suite_dynamics, "EXP_MOVED", fam)
    rep = run_suite("dynamics", SuiteConfig(seed=42))
    record = {r.id: r for r in rep.records}["variation_transport"]
    assert math.isnan(record.max_residual)
    assert record.to_dict()["status"] == "fail"


def _point_state(m, val, jac, d2):
    """The one-point speed-state arithmetic the block state must match at
    roundoff."""
    fy, fx = jac[:, :m], jac[:, m:]
    fyy, fyx, fxx = d2[:, :m, :m], d2[:, :m, m:], d2[:, m:, m:]
    fy_inv = np.linalg.inv(fy)
    delta = float(np.linalg.det(fy))
    rho = 1.0 / delta
    u = fy_inv @ fx
    gz, gx = fy_inv, -u
    rhs_y = fyx - np.einsum("ksr,si->kri", fyy, u)
    rhs_x = fxx - np.einsum("ksj,si->kij", fyx, u)
    ddelta_y = delta * np.einsum("ka,akr->r", fy_inv, fyy)
    ddelta_x = delta * np.einsum("ka,aki->i", fy_inv, fyx)
    return {
        "fy_inv": fy_inv, "delta": delta, "rho": rho, "v": fx, "u": u,
        "dv_z": np.einsum("kri,rl->kil", fyx, gz),
        "dv_x": fxx + np.einsum("kri,rj->kij", fyx, gx),
        "du_y": np.einsum("ka,ari->kir", fy_inv, rhs_y),
        "du_x": np.einsum("ka,aij->kij", fy_inv, rhs_x),
        "ddelta_y": ddelta_y, "ddelta_x": ddelta_x,
        "drho_z": -rho ** 2 * (ddelta_y @ gz),
        "drho_x": -rho ** 2 * (ddelta_y @ gx + ddelta_x),
    }


@pytest.mark.parametrize("fam", [NEWTON_FAMILY, ROTATION, EXP_SHIFT,
                                 _suite_dynamics._random_motion_family(1042)],
                         ids=["newton", "rotation", "shift", "roster"])
def test_speed_state_block_matches_point_arithmetic(fam):
    zx = fam.sample_zx(40, 5)
    z, x = zx[:, :fam.m], zx[:, fam.m:]
    block = fam.state(z.reshape(4, 10, fam.m), x.reshape(4, 10, fam.n))
    y = fam.invert(z, x)
    for q in range(len(zx)):
        lift = fam.forward.taylor_lift(np.concatenate([y[q], x[q]]), 2)
        ref = _point_state(fam.m, lift.value(), lift.jacobian(),
                           lift.derivative(2))
        alone = fam.state(z[q], x[q])                 # the zero-batch case
        for name, want in ref.items():
            got = getattr(block, name)[q // 10, q % 10]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13,
                                       err_msg=name)
            np.testing.assert_allclose(getattr(alone, name), want,
                                       rtol=1e-13, atol=1e-13, err_msg=name)


def test_solenoidal_shift_matches_parsed_text():
    # the binomial-shift jet against the tape lift of the same polynomial
    # written out as text
    names = ["z1", "z2", "z3", "t"]
    rows = exponent_rows(4, 7)
    inside = np.all(rows < (3, 3, 3, 2), axis=1)
    for seed in (3, 17, 29):
        fld = random_solenoidal_field(seed)
        assert isinstance(fld, PolyMap) and fld.degree == 7
        assert not np.any(fld.coeffs[:, ~inside])
        dense = np.zeros((3, 3, 3, 3, 2))
        dense[(slice(None),) + tuple(rows[inside].T)] = fld.coeffs[:, inside]
        text = ", ".join(coeff_text(comp, names) for comp in dense)
        lift = fld.taylor_lift(FIELD_PTS, 2)
        ref = ExprMap.parse(text, names).taylor_lift(FIELD_PTS, 2)
        assert np.max(np.abs(lift.coeffs - ref.coeffs)) < 1e-13
        for q, point in enumerate(FIELD_PTS):
            alone = fld.taylor_lift(point, 2).coeffs
            assert np.array_equal(_bits(lift.coeffs[q]), _bits(alone))


def test_poly_map_lifts_only_its_used_columns():
    # gathering the nonzero coefficient columns gives the full-width bits
    for seed in (3, 301, 345, 1042):
        fld = random_solenoidal_field(seed)
        full = np.einsum("kb,...bw->...kw", fld.coeffs,
                         poly_shift(4, 7, FIELD_PTS, 2))
        lift = fld.taylor_lift(FIELD_PTS, 2)
        assert np.array_equal(_bits(lift.coeffs), _bits(full))
    zero = PolyMap(("z1", "z2", "z3", "t"), 7, np.zeros((3, 330)))
    lift = zero.taylor_lift(FIELD_PTS, 2)
    want = np.zeros((len(FIELD_PTS), 3, 15))
    assert np.array_equal(_bits(lift.coeffs), _bits(want))


def test_random_families_match_their_parsed_text():
    monos = ["*".join(m) for m in _suite_dynamics.FAMILY_MONOS]
    for seed in range(1000, 1010):
        fam = _suite_dynamics._random_motion_family(seed)
        assert isinstance(fam.forward, PolyMap)
        rng = np.random.default_rng(seed)
        text = ", ".join(f"y{k + 1} + {poly_text(rng, monos, 0.12)}"
                         for k in range(2))
        ref = MotionFamily.parse(2, 2, text, ybox=fam.ybox, xbox=fam.xbox,
                                 zbox=fam.zbox, label=fam.label)
        yx = fam.sample_yx(16, seed)
        got, want = (f.taylor_lift(yx, 2).coeffs
                     for f in (fam.forward, ref.forward))
        assert np.max(np.abs(got - want)) < 1e-13
        zx = fam.sample_zx(16, seed)
        z, x = zx[:, :2], zx[:, 2:]
        assert np.max(np.abs(fam.invert(z, x) - ref.invert(z, x))) < 1e-12


def _point_vortex(field, zt):
    """The one-point vortex residual arithmetic the block must match at
    roundoff, (3,)."""
    def curl(mat):
        return np.array([mat[2, 1] - mat[1, 2], mat[0, 2] - mat[2, 0],
                         mat[1, 0] - mat[0, 1]])

    lift = field.taylor_lift(zt, 2)
    val, jac, d2 = lift.value(), lift.jacobian(), lift.derivative(2)
    dz, dzz, dzt = jac[:, :3], d2[:, :3, :3], d2[:, :3, 3]
    omega = 0.5 * curl(dz)
    domega_z = np.empty((3, 3))
    for r in range(3):
        domega_z[:, r] = 0.5 * curl(dzz[:, :, r])
    dgamma_z = dzt + np.einsum("klr,l->kr", dzz, val) + dz @ dz
    rhs = 0.5 * curl(dzt) + domega_z @ val - dz @ omega
    return 0.5 * curl(dgamma_z) - rhs


def test_el_contractions_match_point_einsum():
    # one stacked einsum against one einsum per point
    from jetgauge.dynamics import _el_y, _el_z, _momentum_hessian
    fam = _suite_dynamics._random_motion_family(1042)
    w = ExprMap.parse("0.5 * (v1^2 + v2^2 + v3^2) + 0.1 * v4^2 * v1 * v2",
                      ["v1", "v2", "v3", "v4"])
    zx = fam.sample_zx(64, 3)
    st = fam.state(zx[:, :2], zx[:, 2:])
    ez, ey = _el_z(st, w, 2, 2), _el_y(st, w, 2, 2)
    hv = _momentum_hessian(w, st.v, 2, 2)
    hf = _momentum_hessian(w, st.fx, 2, 2)
    for q in range(len(zx)):
        want_z = st.rho[q] * (
            np.einsum("kilp,lpi->k", hv[q], st.dv_x[q])
            + np.einsum("kilp,lpr,ri->k", hv[q], st.dv_z[q], st.v[q]))
        want_y = np.einsum("kilp,lpi->k", hf[q], st.fxx[q])
        np.testing.assert_allclose(ez[q], want_z, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(ey[q], want_y, rtol=1e-13, atol=1e-13)


def test_vortex_block_matches_point_loop():
    for seed in (3, 301, 345):
        fld = random_solenoidal_field(seed)
        alone = np.array([_point_vortex(fld, p) for p in FIELD_PTS])
        np.testing.assert_allclose(vortex_residual(fld, FIELD_PTS), alone,
                                   rtol=1e-13, atol=1e-13)


def test_vortex_divergence_names_first_failing_point():
    # div v = t: only the samples with t above the tolerance fail
    fld = ExprMap.parse("z1 * t, 0, 0", FIELD_VARS)
    pts = np.array([[0.1, 0.2, 0.3, 0.0], [0.4, 0.5, 0.6, 0.25],
                    [0.7, 0.8, 0.9, 1.5]])
    with pytest.raises(DivergenceNotZero, match=r"2\.500e-01 .*t=0\.25$"):
        vortex_residual(fld, pts)


def test_speed_duality_gap_leaves_derivative_fields_uncomputed(monkeypatch):
    states = []
    init = dynamics._SpeedState.__init__

    def spy(self, *args):
        init(self, *args)
        states.append(self)
    monkeypatch.setattr(dynamics._SpeedState, "__init__", spy)
    lazy = {"delta", "rho", "dv_z", "dv_x", "du_y", "du_x", "ddelta_y",
            "ddelta_x", "drho_z", "drho_x"}
    fam = _suite_dynamics._random_motion_family(1003)
    speed_duality_gap(fam, fam.sample_yx(6, 3))
    assert len(states) == 2
    for st in states:
        assert not lazy & set(vars(st))
    states[0].drho_x                       # a read fills in what it needs
    assert set(vars(states[0])) & lazy == {"delta", "rho", "ddelta_y",
                                           "ddelta_x", "drho_x"}


# The roster checks run their PolyMap families, fields and staircases as
# blocks.  The loops below are the one-item-at-a-time code each block
# replaced; every residual must keep its bits.

def _loop_per_family(fams, residual, npts, seed, source=False):
    """The roster loop: each family alone, on its points drawn at seed + k."""
    res = tuple(residual(fam, fam.sample_yx(npts, seed + k) if source
                         else fam.sample_zx(npts, seed + k))
                for k, fam in enumerate(fams))
    return res, npts * sum(r.size > 0 for r in res)


def _assert_stacks_match_loop(res, loop, axis):
    # a residual of a stack of K families carries one more axis, of size
    # K, than the residual of a family alone
    k = 0
    for r in res:
        size = r.shape[axis] if r.ndim > loop[k].ndim else 1
        want = np.stack(loop[k:k + size], axis) if size > 1 else loop[k]
        assert np.array_equal(_bits(r), _bits(want))
        k += size
    assert k == len(loop)


# check -> its residual, family roster, point count, seed offset, whether
# it draws source points, and the axis a stack takes in its residual
ROSTER_CHECKS = {
    "speed_compatibility": (compatibility_residual, lambda r: r, 16, 77,
                            False, 2),
    "speed_duality": (speed_duality_gap, lambda r: r, 16, 78, True, 1),
    "mass_transport": (mass_conservation_residual,
                       lambda r: [_suite_dynamics.ROTATION] + r[:3], 12, 55,
                       False, 0),
}


@pytest.mark.parametrize("check", sorted(ROSTER_CHECKS))
def test_family_stacks_match_the_family_loop(check):
    residual, roster_of, npts, offset, source, axis = ROSTER_CHECKS[check]
    fn = next(c.fn for c in suites.SUITES["dynamics"] if c.id == check)
    for seed in range(30):
        cfg = SuiteConfig(seed=seed)
        cache = {}
        res, count = fn(cfg, cache)
        loop, loop_count = _loop_per_family(
            roster_of(_suite_dynamics._family_roster(cfg, cache)), residual,
            npts, seed + offset, source)
        assert count == loop_count
        _assert_stacks_match_loop(res, loop, axis)


def test_families_that_do_not_stack_run_alone_in_their_slot():
    # an ExprMap family between and after PolyMap runs splits the stack
    fams = [_suite_dynamics._random_motion_family(1042 + k) for k in range(5)]
    roster = fams[:2] + [NEWTON_FAMILY] + fams[2:] + [NEWTON_FAMILY]
    res, count = _suite_dynamics._per_family(roster, compatibility_residual,
                                             9, 5)
    loop, loop_count = _loop_per_family(roster, compatibility_residual, 9, 5)
    assert [r.ndim for r in res] == [5, 4, 5, 4] and count == loop_count
    _assert_stacks_match_loop(res, loop, 2)


def _singular_at_start(fam):
    # every term of f that holds a y goes, so df/dy is zero everywhere
    coeffs = fam.forward.coeffs.copy()
    coeffs[:, exponent_rows(4, 2)[:, :2].sum(axis=1) > 0] = 0.0
    forward = PolyMap(fam.forward.variables, fam.forward.degree, coeffs)
    return MotionFamily(2, 2, forward, ybox=fam.ybox, xbox=fam.xbox,
                        zbox=fam.zbox, label=fam.label)


@pytest.mark.parametrize("residual, source", [
    (compatibility_residual, False), (speed_duality_gap, True)],
    ids=["newton", "source-jacobian"])
def test_an_error_in_a_stack_names_its_first_failing_family(residual,
                                                            source):
    fams = [_suite_dynamics._random_motion_family(1042 + k) for k in range(10)]
    for k in (3, 6):
        fams[k] = _singular_at_start(fams[k])
    with pytest.raises(InverseSolveError) as loop:
        _loop_per_family(fams, residual, 16, 77, source)
    with pytest.raises(InverseSolveError) as stack:
        _suite_dynamics._per_family(fams, residual, 16, 77, source)
    assert "random-1045" in str(loop.value)
    assert str(stack.value) == str(loop.value)


def test_one_newton_per_check_and_family_stack(monkeypatch):
    calls = []
    real = dynamics._newton

    def counted(emap, *args):
        calls.append(emap)
        return real(emap, *args)

    monkeypatch.setattr(dynamics, "_newton", counted)
    cfg = SuiteConfig(seed=42)
    cache = {"families": _suite_dynamics._family_roster(cfg, {})
             + [NEWTON_FAMILY]}
    # the fixture family inverts alone; ROTATION has an explicit inverse
    for name, stack, alone in (("speed_compatibility", 10, 1),
                               ("speed_duality", 10, 1),
                               ("mass_transport", 3, 0)):
        calls.clear()
        next(c.fn for c in suites.SUITES["dynamics"] if c.id == name)(cfg,
                                                                      cache)
        assert len(calls) == 1 + alone
        assert calls[0].coeffs.shape[:2] == (stack, 1)
        assert all(c is NEWTON_FAMILY.forward for c in calls[1:])


def test_vortex_stack_matches_the_field_loop(monkeypatch):
    lifts = []
    real = PolyMap.taylor_lift

    def counted(self, base, order):
        lifts.append(self.coeffs.shape)
        return real(self, base, order)

    for seed in range(30):
        res, count = _suite_dynamics._check_vortex_transport(
            SuiteConfig(seed=seed), {})
        pts = halton_points(_suite_dynamics.FIELD_BOX, 12, seed + 41)
        loop = [vortex_residual(random_solenoidal_field(seed + 300 + k), pts)
                for k in range(10)]
        assert count == 120
        assert np.array_equal(_bits(res), _bits(np.stack(loop)))
    monkeypatch.setattr(PolyMap, "taylor_lift", counted)
    _suite_dynamics._check_vortex_transport(SuiteConfig(seed=42), {})
    assert len(lifts) == 1 and lifts[0][:2] == (10, 1)


def _point_staircase(field, t, points, base, nquad=32):
    """pressure_recovery's paths one point and one segment at a time, each
    summed as a running total from 0.0."""
    def staircase(z, order):
        total, current = 0.0, np.array(base, float)
        for axis in order:
            nodes, weights = gauss_rule(float(current[axis]), float(z[axis]),
                                        nquad)
            probes = np.repeat(current[None], nquad, axis=0)
            probes[:, axis] = nodes
            val, dz, dt, _, _ = dynamics._field_blocks(
                field, np.concatenate([probes, np.full((nquad, 1), t)], 1))
            gamma = dt + np.einsum("...kl,...l->...k", dz, val)
            for q, weight in enumerate(weights):
                total += weight * gamma[q, axis]
            current[axis] = z[axis]
        return -total

    first = np.array([staircase(z, (0, 1, 2)) for z in points])
    second = np.array([staircase(z, (2, 1, 0)) for z in points])
    return first, first - second


@pytest.mark.parametrize("field", [
    ExprMap.parse("-1.3 * z2, 1.3 * z1, 0", FIELD_VARS), abc_field(1.0, 0.9, 1.1)],
    ids=["spin", "beltrami"])
def test_staircase_block_matches_the_point_staircase(field):
    # the Beltrami field's acceleration is a gradient too: v x curl v = 0
    zeros = 0
    for seed in range(30):
        base = (0.0, 0.0, 0.0) if seed % 2 else (0.1, -0.2, 0.3)
        pts = halton_points(((-0.7, 0.7),) * 3, 10, seed + 23)
        # zero-length segments: a point at the base, and one sharing an axis
        pts[0] = base
        pts[1, 2] = base[2]
        block = pressure_recovery(field, 0.5, pts, base)
        point = _point_staircase(field, 0.5, pts, base)
        for got, want in zip(block, point):
            assert np.array_equal(_bits(got), _bits(want))
            zeros += int(np.sum(got == 0.0))
    assert zeros       # the sign of some zeros was held too


def test_one_lift_for_the_whole_staircase(monkeypatch):
    lifts = []
    real = ExprMap.taylor_lift

    def counted(self, base, order):
        lifts.append((np.shape(base), order))
        return real(self, base, order)

    monkeypatch.setattr(ExprMap, "taylor_lift", counted)
    _suite_dynamics._check_pressure_path_independence(SuiteConfig(seed=42), {})
    # the curl gate at the points, then every staircase node at once
    assert lifts == [((10, 4), 2), ((10, 2, 3, 32, 4), 1)]
