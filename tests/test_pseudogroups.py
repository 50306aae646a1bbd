import math

import numpy as np
import pytest

from jetgauge import series
from jetgauge._multiindex import context
from jetgauge.expr import ExprMap
from jetgauge.pseudogroups import (
    BUILTIN_SYSTEMS, ExprSection, HolonomicSection, LieEquationSystem,
    _bracket_tables, _stack_mul, algebroid_bracket,
    bracket_jacobi_residual, builtin_system, closure_check, jet_variable_names,
    lie_system_from_dict, linearization_consistency, linearization_rows_gap,
    sample_linear_sections, schwarzian, schwarzian_of_map,
    schwarzian_variation_check, spencer,
)
from jetgauge.sampling import halton_points
from jetgauge.suites import SuiteConfig, run_suite

PTS2 = halton_points(((-0.5, 0.5), (-0.5, 0.5)), 6, 13)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_jet_variable_names_convention():
    names = jet_variable_names(2, 2, 2, "y")
    assert names[:6] == ["y_1", "y_1_1", "y_1_2", "y_1_11", "y_1_12", "y_1_22"]
    assert names[6] == "y_2"


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_hand_linearization_matches_derived(name):
    sys_ = builtin_system(name)
    pts = halton_points(sys_.box, 6, 11)
    assert linearization_rows_gap(sys_, pts) < 1e-12


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_identity_solves_every_builtin(name):
    sys_ = builtin_system(name)
    pts = halton_points(sys_.box, 5, 19)
    ident = ExprMap.parse(
        ", ".join(f"x{k + 1}" for k in range(sys_.nvars)),
        [f"x{k + 1}" for k in range(sys_.nvars)])
    assert np.max(np.abs(sys_.finite_residual(ident, pts))) < 1e-14


def test_shear_volume_solutions():
    # any y1 = g(x1), y2 = x2/g'(x1) solves the shear-volume system
    r1 = builtin_system("r1")
    pts = halton_points(r1.box, 8, 5)
    good = ExprMap.parse("x1 + 0.1*x1^2, x2/(1 + 0.2*x1)", ["x1", "x2"])
    assert np.max(np.abs(r1.finite_residual(good, pts))) < 1e-13
    bad = ExprMap.parse("x1 + 0.1*x2, x2", ["x1", "x2"])
    assert np.max(np.abs(r1.finite_residual(bad, pts))) > 1e-2


def test_hamiltonian_rotation_solutions():
    r1p = builtin_system("r1prime")
    pts = halton_points(r1p.box, 8, 5)
    rot = ExprMap.parse("cos(0.4)*x1 - sin(0.4)*x2, sin(0.4)*x1 + cos(0.4)*x2",
                        ["x1", "x2"])
    assert np.max(np.abs(r1p.finite_residual(rot, pts))) < 1e-13
    scale = ExprMap.parse("1.1*x1, 1.1*x2", ["x1", "x2"])
    assert np.max(np.abs(r1p.finite_residual(scale, pts))) > 1e-2


def test_volume_preserving_three_dimensional():
    v3 = builtin_system("volume3")
    pts = halton_points(v3.box, 5, 23)
    shear = ExprMap.parse("x1 + 0.3*x2*x3, x2, x3", ["x1", "x2", "x3"])
    assert np.max(np.abs(v3.finite_residual(shear, pts))) < 1e-13
    squash = ExprMap.parse("0.9*x1, x2, x3", ["x1", "x2", "x3"])
    assert np.max(np.abs(v3.finite_residual(squash, pts))) > 1e-2


def test_linearization_consistency_quotient():
    r1p = builtin_system("r1prime")
    pts = halton_points(r1p.box, 6, 5)
    xi = ExprMap.parse("0.3*x1^2 - 0.1*x2, x1*x2 - 0.2", ["x1", "x2"])
    assert linearization_consistency(r1p, xi, pts, 1e-5) < 1e-8


def test_bracket_line_anchor():
    # [x d/dx, d/dx] = -d/dx, read off the slots
    a = ExprSection.parse("x1, 1, 0, 0", 1, 3)
    b = ExprSection.parse("1, 0, 0, 0", 1, 3)
    vals = algebroid_bracket(a, b, np.array([[0.3], [-0.7], [1.2]]))
    assert np.max(np.abs(vals - np.array([-1.0, 0.0, 0.0]))) < 1e-14


def test_bracket_value_block_is_classical():
    f1 = ExprMap.parse("sin(x1)*x2, x1^2 - x2", ["x1", "x2"])
    f2 = ExprMap.parse("x1*x2, exp(x2) - 1", ["x1", "x2"])
    br = algebroid_bracket(HolonomicSection(f1, 2), HolonomicSection(f2, 2), PTS2)
    for s, x in enumerate(PTS2):
        l1, l2 = f1.taylor_lift(x, 1), f2.taylor_lift(x, 1)
        classical = l2.jacobian() @ l1.value() - l1.jacobian() @ l2.value()
        assert np.max(np.abs(br[s, :, 0] - classical)) < 1e-14


def test_bracket_of_holonomic_is_holonomic():
    g1 = ExprMap.parse("x1^2*x2, x1 - x2^2", ["x1", "x2"])
    g2 = ExprMap.parse("x2, x1*x2", ["x1", "x2"])
    # hand classical bracket of the two fields
    lie = ExprMap.parse(
        "(x1 - x2^2) - 2*x1*x2^2 - x1^3*x2, "
        "x1^2*x2^2 + (x1 - x2^2)*x1 - x2 + 2*x1*x2^2",
        ["x1", "x2"])
    br = algebroid_bracket(HolonomicSection(g1, 3), HolonomicSection(g2, 3), PTS2)
    hb = HolonomicSection(lie, 2)
    for s, x in enumerate(PTS2):
        assert np.max(np.abs(br[s] - hb.raw_table(x))) < 1e-13


def test_spencer_detects_holonomy():
    g1 = ExprMap.parse("x1^2*x2, x1 - x2^2", ["x1", "x2"])
    assert np.max(np.abs(spencer(HolonomicSection(g1, 3), PTS2))) < 1e-14
    nh = ExprSection.parse("x1, 0, 1, 0, 0, 0, x2, 0, 0, 1, 0, 0", 2, 2)
    assert np.max(np.abs(spencer(nh, PTS2))) > 0.5


def test_bracket_jacobi_nonholonomic():
    a = ExprSection.parse(
        "x1*x2, x2, 1 + x1, 0.3, 1, 0.1, x1 - x2, 1, 0, 0.2, 0, 1", 2, 2)
    b = ExprSection.parse(
        "x2, 0, 1, 1, 0.5, 0, x1, 1, 0.2, 0, 0, 0.7", 2, 2)
    c = ExprSection.parse(
        "x1, 1, 0, 0, 0.4, 0, x2^2, 0, 2*x2, 0, 1, 2", 2, 2)
    assert bracket_jacobi_residual(a, b, c, PTS2) < 1e-13


def test_bracket_independent_of_lift():
    r1p = builtin_system("r1prime")
    rng = np.random.default_rng(8)
    secs = sample_linear_sections(r1p, 2, seed=21)
    pts = halton_points(r1p.box, 5, 9)
    base = algebroid_bracket(secs[0], secs[1], pts)
    bumped = algebroid_bracket(secs[0].perturb_top(rng, 2.0),
                               secs[1].perturb_top(rng, 2.0), pts)
    assert np.max(np.abs(bumped - base)) < 1e-12


@pytest.mark.parametrize("nvars, order", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_stacked_product_matches_series_bitwise(nvars, order):
    ctx = context(nvars, order)
    rng = np.random.default_rng(nvars + 10 * order)
    a = rng.standard_normal((3, 4, ctx.count))
    b = rng.standard_normal((3, 4, ctx.count))
    # signed zeros: 0.0 + (-0.0) must start every coefficient as in series
    a[0, :2] = -0.0
    b[1, 1, ::2] = 0.0
    prod = _stack_mul(ctx, a, b)
    for idx in np.ndindex(3, 4):
        assert _same_bits(prod[idx], series.mul(ctx, a[idx], b[idx]))


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_stacked_bracket_equals_each_slice(name):
    sys_ = builtin_system(name)
    n, ctx1 = sys_.nvars, context(sys_.nvars, 1)
    secs = sample_linear_sections(sys_, 6, seed=5)
    pts = halton_points(sys_.box, 4, 17)
    tabs = np.array([[s.raw_series(x, 1) for x in pts] for s in secs])
    stacked = _bracket_tables(n, sys_.order, ctx1, tabs[0::2], tabs[1::2])
    for p in range(3):
        alone = algebroid_bracket(secs[2 * p], secs[2 * p + 1], pts)
        assert _same_bits(stacked[p, ..., 0], alone)
        for s in range(len(pts)):
            one = _bracket_tables(n, sys_.order, ctx1, tabs[2 * p, s],
                                  tabs[2 * p + 1, s])
            assert _same_bits(stacked[p, s], one)


def test_closure_nan_fails_closed(monkeypatch):
    # a NaN at the second evaluation point of a later system, after
    # finite residuals, must reach the report and fail the check
    real = LieEquationSystem.linear_rows
    seen = []

    def poisoned(self, x, route="hand"):
        rows = real(self, x, route)
        if self.label == "volume-2d":
            seen.append(x)
            if len(seen) == 2:
                rows = rows * np.nan
        return rows

    monkeypatch.setattr(LieEquationSystem, "linear_rows", poisoned)
    rep = closure_check(builtin_system("volume2"), npairs=4, seed=3, neval=8)
    assert math.isnan(rep.max_residual)
    assert not math.isnan(rep.lift_gap)
    seen.clear()
    record = run_suite("pseudogroup", SuiteConfig(seed=42)).records[0]
    assert record.id == "bracket_closure"
    assert math.isnan(record.max_residual)
    assert not record.passed


@pytest.mark.parametrize("name", ["affine", "projective", "volume2", "volume3",
                                  "r1", "r1prime"])
def test_closure_of_builtin_systems(name):
    rep = closure_check(builtin_system(name), npairs=8, seed=3, neval=6)
    assert rep.nullspace_dim > 0
    assert rep.max_residual < 1e-11
    assert rep.lift_gap < 1e-12


def test_sampled_sections_satisfy_system():
    r1 = builtin_system("r1")
    secs = sample_linear_sections(r1, 3, seed=4)
    pts = halton_points(r1.box, 6, 31)
    for sec in secs:
        for x in pts:
            resid = r1.linear_rows(x) @ sec.raw_table(x)[:, :r1.jet_ctx().count].ravel()
            assert np.max(np.abs(resid)) < 1e-12


def test_schwarzian_anchor_and_moebius():
    assert abs(schwarzian([1.0, 1.0, 1.0, 1.0]) + 0.5) < 1e-15
    # exp has schwarzian -1/2 everywhere
    f = ExprMap.parse("exp(x)", ["x"])
    assert abs(schwarzian_of_map(f, 0.6) + 0.5) < 1e-12
    # moebius reparametrization leaves it unchanged
    g = ExprMap.parse("(2*exp(x) + 1)/(exp(x) + 3)", ["x"])
    for x in (0.0, 0.4, -0.3):
        assert abs(schwarzian_of_map(g, x) + 0.5) < 1e-10


def test_schwarzian_variation_quotient_halves():
    f = ExprMap.parse("exp(x)", ["x"])
    eta = ExprMap.parse("z^3", ["z"])
    pts = np.array([0.0, 0.25, -0.4])
    g1, g2 = schwarzian_variation_check(f, eta, pts, 1e-4)
    assert g1 > 1e-9                       # quotient error is first order
    assert 1.7 < g1 / g2 < 2.3
    # quadratic direction generates moebius flow: variation is exactly zero,
    # so the gap is the bare quotient and it halves too
    quad = ExprMap.parse("1 + 0.5*z - 0.3*z^2", ["z"])
    m1, m2 = schwarzian_variation_check(f, quad, pts, 1e-4)
    assert m1 < 1e-2
    assert 1.7 < m1 / m2 < 2.3


def test_custom_system_from_dict():
    data = {
        "label": "still-water", "nvars": 1, "order": 1,
        "box": [[-1.0, 1.0]],
        "equations": "y_1_1 - 1",
        "linearization": "xi_1_1",
    }
    sys_ = lie_system_from_dict(data)
    pts = halton_points(sys_.box, 4, 2)
    shift = ExprMap.parse("x1 + 0.7", ["x1"])
    assert np.max(np.abs(sys_.finite_residual(shift, pts))) < 1e-15
    assert linearization_rows_gap(sys_, pts) < 1e-15