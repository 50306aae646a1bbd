import itertools
import math

import numpy as np
import pytest

from jetgauge.elasticity import (
    DisplacementSection, QuadratureTooCoarse, StressState, adjoint_spencer,
    killing, load_stress_state, pairing_identity_check, riemann_residual,
    rigid_kernel_dimension, spencer_elastic,
    stress_state_from_dict, torsor_equilibrium_check,
)
from jetgauge import _suite_elasticity as suite, elasticity, expr, suites
from jetgauge._runner import _max_abs
from jetgauge._multiindex import exponent_rows
from jetgauge.expr import ExprMap, PolyMap, Pow, Var, _random_poly
from jetgauge.sampling import halton_points
from polytext import poly_text

PTS = halton_points(((-0.8, 0.8), (-0.8, 0.8)), 9, 31)
BOX = ((-1.0, 1.0), (-1.0, 1.0))
BUMP = "(x1 + 1)^2 * (1 - x1)^2 * (x2 + 1)^2 * (1 - x2)^2"


def test_killing_annihilates_euclidean_motions():
    rot = DisplacementSection.parse("x2, 0 - x1", "0 - 1")
    assert np.max(np.abs(killing(rot, PTS))) < 1e-14
    shift = DisplacementSection.parse("0.3, 0 - 0.7")
    assert np.max(np.abs(killing(shift, PTS))) < 1e-14


def test_killing_hand_strain():
    sec = DisplacementSection.parse("x1^2, 0")
    eps = killing(sec, PTS)
    assert np.max(np.abs(eps[:, 0, 0] - 2.0 * PTS[:, 0])) < 1e-13
    assert np.max(np.abs(eps[:, 0, 1])) < 1e-14
    assert np.max(np.abs(eps[:, 1, 1])) < 1e-14


def test_killing_respects_the_metric():
    # for omega = diag(2, 1) the rotation generator is (x2, -2 x1)
    omega = np.diag([2.0, 1.0])
    good = DisplacementSection.parse("x2, 0 - 2*x1", metric=omega)
    assert np.max(np.abs(killing(good, PTS))) < 1e-14
    euclid = DisplacementSection.parse("x2, 0 - x1", metric=omega)
    assert np.max(np.abs(killing(euclid, PTS))) > 0.4


def test_riemann_vanishes_on_strains_from_displacements():
    sec = DisplacementSection.parse(
        "0.2*x1^3 - x1*x2^2 + 0.5*x2, x1^2*x2 + 0.1*x2^3 - x1")
    assert _max_abs(riemann_residual(sec, PTS)) < 1e-13


def test_riemann_hand_value_and_constant():
    strained = ExprMap.parse("x2^2, 0, 0", ["x1", "x2"])
    assert np.max(np.abs(riemann_residual(strained, PTS) - 2.0)) < 1e-13
    const = ExprMap.parse("0.3, 0.1, 0 - 0.2", ["x1", "x2"])
    assert _max_abs(riemann_residual(const, PTS)) < 1e-14


def test_spencer_kills_rigid_sections():
    # xi = c + Theta x with Theta = [[0, w], [-w, 0]]; the jet slot pairs
    # transposed, so the stored component is Theta_21 = -w
    rigid = DisplacementSection.parse(
        "0.4 + 0.9*x2, 0 - 0.3 - 0.9*x1", "0 - 0.9")
    assert np.max(np.abs(spencer_elastic(rigid, PTS))) < 1e-14


def test_spencer_hand_rows():
    shear = DisplacementSection.parse("x2, 0")
    vals = spencer_elastic(shear, PTS)
    expect = np.zeros(6)
    expect[2] = 1.0                              # d2 xi_1 slot
    assert np.max(np.abs(vals - expect)) < 1e-14
    jetsec = DisplacementSection.parse("0, 0", "x1")
    jvals = spencer_elastic(jetsec, PTS)
    x1 = PTS[:, 0]
    assert np.max(np.abs(jvals[:, 1] + x1)) < 1e-14
    assert np.max(np.abs(jvals[:, 2] - x1)) < 1e-14
    assert np.max(np.abs(jvals[:, 4] - 1.0)) < 1e-14
    assert np.max(np.abs(jvals[:, [0, 3, 5]])) < 1e-14


SPENCER_SECTIONS = [
    ("sin(x1)*x2^2 + exp(0.3*x2), x1^3*x2 - cos(x1*x2)",
     "0.4*x1 - x2^2 + sin(x2)"),
    ("0.4 + 0.9*x2, 0 - 0.3 - 0.9*x1", "0 - 0.9"),
    ("x2, 0", "0"),
    ("0, 0", "x1"),
    ("x1^2 - x2^3, exp(x1)*x2", "cos(x1 + x2)"),
    ("x1*x2 - 0.5*x2^2, 0.7 - x1^3", "x1*x2"),
    ("sin(x1 - x2), x1 + x2^2", "exp(x1) - x2^3"),
]


def _hand_spencer(sec, samples):
    """The Cosserat rows written out by hand: the lowered gradient with the
    jet subtracted from D12 and added to D21, then the jet's gradient."""
    jlift = sec.jet.taylor_lift(samples, 1)
    j = jlift.value()[..., 0]
    d = sec.lowered_gradient(samples)
    d[..., 0, 1] -= j
    d[..., 1, 0] += j
    return np.concatenate([d.reshape(d.shape[:-2] + (4,)),
                           jlift.jacobian()[..., 0, :]], axis=-1)


@pytest.mark.parametrize("metric", [None, [[2.0, 0.3], [0.3, 1.5]]],
                         ids=["identity", "metric"])
def test_spencer_elastic_is_the_euclidean_spencer_operator(metric):
    # spencer_elastic is series.spencer on the Euclidean section of order
    # 1; it must give the hand rows bit for bit, at a block and at a point
    pts = halton_points(BOX, 20, 7)
    for xi, jet in SPENCER_SECTIONS:
        sec = DisplacementSection.parse(xi, jet, metric)
        got = spencer_elastic(sec, pts)
        assert got.shape == (20, 6)
        assert np.array_equal(_bits(got), _bits(_hand_spencer(sec, pts)))
        assert np.array_equal(_bits(spencer_elastic(sec, pts[3])),
                              _bits(_hand_spencer(sec, pts[3])))


def _rigid_rows_reference(x, monos, omega):
    """The six rows of one sample, one monomial at a time."""
    def mono_d(a, b, axis):
        if axis == 0:
            return 0.0 if a == 0 else a * x[0] ** (a - 1) * x[1] ** b
        return 0.0 if b == 0 else b * x[0] ** a * x[1] ** (b - 1)

    nm = len(monos)
    rows = np.zeros((6, 3 * nm))
    for col, (a, b) in enumerate(monos):
        for i, k in itertools.product(range(2), repeat=2):
            rows[2 * i + k, [col, nm + col]] = omega[:, k] * mono_d(a, b, i)
        rows[1, 2 * nm + col] = -x[0] ** a * x[1] ** b
        rows[2, 2 * nm + col] = x[0] ** a * x[1] ** b
        rows[4:, 2 * nm + col] = mono_d(a, b, 0), mono_d(a, b, 1)
    return rows


def test_rigid_kernel_dimension_is_three(monkeypatch):
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, compute_uv: (
        seen.append(m), svd(m, compute_uv=compute_uv))[1])
    pts = halton_points(((-1.0, 1.0),) * 2, 40, 29)
    for degree in (1, 2, 3):
        for metric in (np.eye(2), np.array([[2.0, 0.3], [0.3, 0.5]])):
            seen.clear()
            assert rigid_kernel_dimension(degree=degree, metric=metric) == 3
            want = np.concatenate([
                _rigid_rows_reference(x, exponent_rows(2, degree), metric)
                for x in pts])
            assert np.max(np.abs(seen[0] - want)) < 1e-14
    # the metric is a DisplacementSection's, and is validated as one
    for metric in ([[1.0, 0.0], [0.0, -1.0]], np.zeros((2, 2)),
                   [[math.inf, 0.0], [0.0, 1.0]],
                   [[1.0, math.nan], [math.nan, 1.0]]):
        with pytest.raises(ValueError, match="metric"):
            rigid_kernel_dimension(metric=metric)


def test_adjoint_equilibrium_and_hand_loads():
    const_sym = StressState.parse("1.0, 0.3, 0.3, 0 - 2.0")
    f, m = adjoint_spencer(const_sym, PTS)
    assert np.max(np.abs(f)) < 1e-14 and np.max(np.abs(m)) < 1e-14
    skew = StressState.parse("0, 1, 0 - 1, 0")
    f, m = adjoint_spencer(skew, PTS)
    assert np.max(np.abs(f)) < 1e-14
    assert np.max(np.abs(m - 2.0)) < 1e-14
    muonly = StressState.parse("0, 0, 0, 0", "x1, 0")
    f, m = adjoint_spencer(muonly, PTS)
    assert np.max(np.abs(f)) < 1e-14
    assert np.max(np.abs(m - 1.0)) < 1e-14


def test_adjoint_symbolic_at_samples():
    # hand-differentiated printed equations for a polynomial state
    state = StressState.parse(
        "0.4*x1^2 - x2 + 0.7, 1.2*x1*x2 + 0.3, 0.5*x2^2 - 0.8*x1, x1 + x2 - 0.2",
        "0.6*x1^2 + x2, 0.9*x1*x2 - 0.4")
    f, m = adjoint_spencer(state, PTS)
    x1, x2 = PTS[:, 0], PTS[:, 1]
    f1 = 0.8 * x1 + 1.0 * x2                    # d1 s11 + d2 s21
    f2 = 1.2 * x2 + 1.0                         # d1 s12 + d2 s22
    mm = 1.2 * x1 + 0.9 * x1 + (1.2 * x1 * x2 + 0.3) - (0.5 * x2 ** 2 - 0.8 * x1)
    assert np.max(np.abs(f[:, 0] - f1)) < 1e-13
    assert np.max(np.abs(f[:, 1] - f2)) < 1e-13
    assert np.max(np.abs(m - mm)) < 1e-13


def test_mu_zero_m_zero_forces_symmetric_stress():
    # with mu = 0 the m-equation residual IS the stress asymmetry
    state = StressState.parse("x1, 0.8*x2, 0.8*x2, x2")
    _, m = adjoint_spencer(state, PTS)
    assert np.max(np.abs(m)) < 1e-14
    lopsided = StressState.parse("x1, 0.8*x2, 0.5*x2, x2")
    _, m2 = adjoint_spencer(lopsided, PTS)
    assert np.max(np.abs(m2 - 0.3 * PTS[:, 1])) < 1e-14


def test_pairing_identity_exact_on_polynomials(monkeypatch):
    state = StressState.parse(
        "0.4*x1^2 - x2 + 0.7, 1.2*x1*x2 + 0.3, 0.5*x2^2 - 0.8*x1, x1 + x2 - 0.2",
        "0.6*x1^2 + x2, 0.9*x1*x2 - 0.4")
    sec = DisplacementSection.parse(
        f"({BUMP}) * (0.3 + x1 - 0.5*x2^2), ({BUMP}) * (x2 + 0.2*x1^2)",
        f"({BUMP}) * (0.7 - x1*x2)")
    lhs, rhs = pairing_identity_check(state, sec, BOX, order=9)
    assert abs(lhs) > 0.1                        # not vacuous
    assert abs(lhs + rhs) < 1e-12
    with pytest.raises(QuadratureTooCoarse):
        pairing_identity_check(state, sec, BOX, order=5)

    def without_couple_term(state, samples):
        # a deliberate corruption: m loses s12 - s21
        f, m = adjoint_spencer(state, samples)
        sval = state.sigma.eval(samples)
        return f, m - (sval[..., 1] - sval[..., 2])

    monkeypatch.setattr(elasticity, "adjoint_spencer", without_couple_term)
    broken = pairing_identity_check(state, sec, BOX, order=9)
    assert abs(sum(broken)) > 1e-2


def test_degree_walker():
    def degree(text):
        return ExprMap.parse(text, ["x1", "x2"]).degree

    assert degree("x1^2 * x2 + 1") == 3
    assert degree("x1 / 2") == 1
    assert degree("x1 / (1 + 2)") == 1
    assert degree("-x1 * neg(x2^3) - 4") == 4
    assert degree("x2, (x1*x2)^2, 7") == 4
    assert degree("x1^0") == 0
    for text in ("sin(x1)", "x1 / x2", "x1^0.5", "x1, exp(x2)"):
        assert degree(text) is None
    assert ExprMap(["x1"], [Pow(Var("x1"), -2.0)]).degree is None
    # a sum too deep to recurse on
    assert degree("x1" + " + 0*x2" * 1500) == 1
    assert PolyMap(("x1", "x2"), 3, np.zeros((2, 10))).degree == 3


def test_pairing_guard_reads_the_degree_of_a_long_sum():
    state = StressState.parse("x1 + 0*x2" + " + 0*x2" * 1500 + ", 0, 0, x2")
    sec = DisplacementSection.parse(f"({BUMP}) * x1, ({BUMP}) * x2",
                                    f"({BUMP})")
    assert abs(sum(pairing_identity_check(state, sec, BOX, order=6))) < 1e-12
    with pytest.raises(QuadratureTooCoarse):
        pairing_identity_check(state, sec, BOX, order=5)


def test_torsor_balance():
    lin = StressState.parse("x1, 0, 0, x2")
    f, _ = adjoint_spencer(lin, PTS[:3])
    assert np.max(np.abs(f - 1.0)) < 1e-14       # loads (1, 1)
    gaps = torsor_equilibrium_check(lin, BOX, order=8)
    assert gaps.shape == (3,)                    # force 1, force 2, moment
    assert _max_abs(gaps) < 1e-12
    rand = StressState.parse(
        "0.2*x1^2*x2 - x2^2, x1*x2 + 0.4, 0.1*x1^3 - x2, 0.7*x2^2 + x1*x2",
        "x1^2 - 0.5*x2^2, 0.3*x1*x2 + x2")
    assert _max_abs(torsor_equilibrium_check(rand, BOX, order=8)) < 1e-12


def test_json_loaders(tmp_path):
    state = stress_state_from_dict({"sigma": "0, 1, 0 - 1, 0",
                                    "label": "skew"})
    assert state.label == "skew"
    path = tmp_path / "state.json"
    path.write_text('{"sigma": "x1, 0, 0, x2", "mu": "0, 0"}')
    loaded = load_stress_state(path)
    assert _max_abs(torsor_equilibrium_check(loaded, BOX)) < 1e-12


def test_stress_and_displacement_fixtures_refuse_unknown_keys():
    with pytest.raises(ValueError, match="'bogus'"):
        stress_state_from_dict({"sigma": "x1, 0, 0, x2", "bogus": 1})


def test_section_validation():
    with pytest.raises(ValueError):
        DisplacementSection.parse("x1, x2", metric=[[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        DisplacementSection.parse("x1, x2", metric=[[1.0, 2.0], [2.0, 1.0]])
    # a NaN fails every comparison, so each check must refuse it explicitly
    for metric in ([[math.inf, 0.0], [0.0, 1.0]],
                   [[1.0, math.nan], [math.nan, 1.0]],
                   [[math.nan, 0.0], [0.0, 1.0]],
                   [[1.0, 0.0], [0.0, -1.0]], np.zeros((2, 2))):
        with pytest.raises(ValueError, match="metric"):
            DisplacementSection.parse("x1, x2", "0", metric)
    with pytest.raises(ValueError):
        StressState.parse("x1, x2")                  # needs four components


# Per-point references for the block functions: the one-point arithmetic
# each block must reproduce bit for bit.  Each mixed third derivative of a
# section comes from one jet slot, so under a symmetric metric the two
# halves of the compatibility residual cancel exactly and it reads 0.0
# whatever kernel computed them.  The last metric is asymmetric by 2^-44,
# inside the 1e-12 the section admits, which leaves the residual at
# roundoff, where a changed kernel shows.
METRICS = {"identity": None, "metric": [[2.0, 0.3], [0.3, 1.5]],
           "uneven": [[2.0, 0.3], [0.3 + 2.0 ** -44, 1.5]]}
SECTIONS = [
    DisplacementSection.parse(
        "sin(x1)*x2^2 + exp(0.3*x2), x1^3*x2 - cos(x1*x2)",
        "0.4*x1 - x2^2 + sin(x2)", metric=metric)
    for metric in METRICS.values()
]
STATE = StressState.parse("sin(x1)*x2, x1^2 - x2, exp(x2)*x1, x1*x2^3",
                          "cos(x1)*x2, x1^2*x2 - 0.3")


def _bits(a):
    return np.asarray(a, float).view(np.int64)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def _point_gradient(sec, x):
    return sec.xi.taylor_lift(x, 1).jacobian().T @ sec.metric


def _point_spencer(sec, x):
    jlift = sec.jet.taylor_lift(x, 1)
    j = float(jlift.value()[0])
    d = _point_gradient(sec, x) - np.array([[0.0, j], [-j, 0.0]])
    jjac = jlift.jacobian()[0]
    return np.array([d[0, 0], d[0, 1], d[1, 0], d[1, 1], jjac[0], jjac[1]])


def _point_riemann(sec, x):
    lift = sec.xi.taylor_lift(x, 3)
    third = np.empty((2, 2, 2, 2))
    for a, b, c in itertools.product(range(2), repeat=3):
        mu = [0, 0]
        for v in (a, b, c):
            mu[v] += 1
        third[:, a, b, c] = [lift.raw(r, tuple(mu)) for r in range(2)]
    omega = sec.metric

    def deps(a, b, i, j):
        return 0.5 * float(omega[:, j] @ third[:, a, b, i]
                           + omega[i, :] @ third[:, a, b, j])
    return deps(0, 0, 1, 1) + deps(1, 1, 0, 0) - 2.0 * deps(0, 1, 0, 1)


@pytest.mark.parametrize("sec", SECTIONS, ids=list(METRICS))
def test_section_blocks_match_point_arithmetic(sec):
    grads = sec.lowered_gradient(PTS.reshape(3, 3, 2))
    kill, comps = killing(sec, PTS), spencer_elastic(sec, PTS)
    for q, x in enumerate(PTS):
        g = _point_gradient(sec, x)
        _close(grads[q // 3, q % 3], g)
        _close(sec.lowered_gradient(x), g)
        _close(kill[q], 0.5 * (g + g.T))
        _close(comps[q], _point_spencer(sec, x))
    alone = [_point_riemann(sec, x) for x in PTS]
    if sec.metric[0, 1] != sec.metric[1, 0]:
        assert any(alone)                   # the residual is not vacuous
    for q in range(len(PTS)):
        _close(riemann_residual(sec, PTS[q:q + 1]), [alone[q]])
    _close(riemann_residual(sec, PTS), alone)


def test_strain_riemann_block_matches_point_arithmetic():
    strain = ExprMap.parse("sin(x1)*x2^2, exp(x1*x2), x1^3 - cos(x2)",
                           ["x1", "x2"])
    alone = []
    for x in PTS:
        lift = strain.taylor_lift(x, 2)
        alone.append(lift.raw(2, (2, 0)) + lift.raw(0, (0, 2))
                     - 2.0 * lift.raw(1, (1, 1)))
    assert np.array_equal(_bits(riemann_residual(strain, PTS)), _bits(alone))


def test_adjoint_blocks_match_point_arithmetic():
    f, m = adjoint_spencer(STATE, PTS)
    for q, x in enumerate(PTS):
        slift = STATE.sigma.taylor_lift(x, 1)
        sval, sjac = slift.value(), slift.jacobian()
        mjac = STATE.mu.taylor_lift(x, 1).jacobian()
        assert _bits(f[q, 0]) == _bits(sjac[0, 0] + sjac[2, 1])
        assert _bits(f[q, 1]) == _bits(sjac[1, 0] + sjac[3, 1])
        assert _bits(m[q]) == _bits(mjac[0, 0] + mjac[1, 1] + sval[1] - sval[2])


# ----------------------------------------------------------------------
# Polynomial sections and stress states held as PolyMaps

SUITE_MONOS = ["*".join(m) for m in suite.DISP_MONOS]


def test_elasticity_suite_parses_no_text(monkeypatch):
    # every map of the default roster is built before the run or from its
    # coefficient draws
    def refuse(cls, text, variables):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(ExprMap, "parse", classmethod(refuse))
    rep = suites.run_suite("elasticity", suites.SuiteConfig(seed=3))
    assert rep.passed and len(rep.records) == 7


def test_poly_sections_match_their_parsed_text():
    rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
    xi = _random_poly(rng, suite.PLANE, suite.DISP_MONOS, 1.0,
                      np.zeros((2, 3)))
    ref = ExprMap.parse(", ".join(poly_text(ref_rng, SUITE_MONOS, 1.0)
                                  for _ in range(2)), ["x1", "x2"])
    got, want = xi.taylor_lift(PTS, 3), ref.taylor_lift(PTS, 3)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13
    sec = DisplacementSection(xi, suite.ZERO_JET, np.eye(2))
    assert _max_abs(riemann_residual(sec, PTS)) < 1e-12
    assert np.array_equal(spencer_elastic(sec, PTS)[:, 4:], np.zeros((9, 2)))


def test_poly_stress_state_matches_its_parsed_text():
    # sigma12 and sigma21 share one coefficient row
    rng, ref_rng = np.random.default_rng(16), np.random.default_rng(16)
    rows = _random_poly(rng, suite.PLANE, suite.DISP_MONOS, 1.0,
                        np.zeros((3, 3)))
    state = StressState(
        PolyMap(suite.PLANE, 3, rows.coeffs[[0, 2, 2, 1]]), suite.ZERO_MU)
    diag = [poly_text(ref_rng, SUITE_MONOS, 1.0) for _ in range(2)]
    shared = poly_text(ref_rng, SUITE_MONOS, 1.0)
    ref = StressState.parse(f"{diag[0]}, {shared}, {shared}, {diag[1]}")
    (f, m), (fr, mr) = adjoint_spencer(state, PTS), adjoint_spencer(ref, PTS)
    assert np.max(np.abs(f - fr)) < 1e-13
    assert np.array_equal(m, np.zeros(9)) and np.array_equal(mr, m)
    assert np.max(np.abs(state.sigma_matrix(PTS)
                         - ref.sigma_matrix(PTS))) < 1e-13
    assert _max_abs(torsor_equilibrium_check(state, BOX)) < 1e-12
    sec = DisplacementSection.parse(f"({BUMP}) * x2, ({BUMP}) * x1",
                                    f"({BUMP}) * x1")
    got, want = (pairing_identity_check(s, sec, BOX, order=9)
                 for s in (state, ref))
    assert abs(sum(got)) < 1e-12 and abs(got[0] - want[0]) < 1e-12


def test_rigid_rows_are_affine_poly_maps():
    c1, c2, w = 0.3, -0.7, 0.45
    sec = DisplacementSection(
        PolyMap(suite.PLANE, 1, np.array([[c1, 0.0, w], [c2, -w, 0.0]])),
        PolyMap(suite.PLANE, 0, np.array([[-w]])), np.eye(2))
    ref = DisplacementSection.parse(f"{c1} + {w}*x2, {c2} - {w}*x1", f"{-w}")
    for s in (sec, ref):
        assert np.array_equal(killing(s, PTS), np.zeros((9, 2, 2)))
        assert np.array_equal(spencer_elastic(s, PTS), np.zeros((9, 6)))
    assert np.array_equal(sec.xi.eval(PTS), ref.xi.eval(PTS))


def test_elasticity_suite_work_count(monkeypatch):
    # a warm run lifts each stacked roster once per kernel, evaluates each
    # torsor state once on its edges, and makes the one rigid-kernel SVD
    suites.run_suite("elasticity", suites.SuiteConfig(seed=43))
    calls = {"expr": 0, "poly": 0, "shift": 0, "svd": 0}

    def spy(key, real):
        def fn(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return fn

    monkeypatch.setattr(ExprMap, "taylor_lift",
                        spy("expr", ExprMap.taylor_lift))
    monkeypatch.setattr(PolyMap, "taylor_lift",
                        spy("poly", PolyMap.taylor_lift))
    monkeypatch.setattr(expr, "poly_shift", spy("shift", expr.poly_shift))
    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    rep = suites.run_suite("elasticity", suites.SuiteConfig(seed=43))
    assert rep.passed
    assert calls == {"expr": 18, "poly": 8, "shift": 8, "svd": 1}
