import dataclasses
import json
import math

import numpy as np
import pytest

from jetgauge import pseudogroups, series
from jetgauge._multiindex import context, shift_table
from jetgauge.expr import ExprMap
from jetgauge.pseudogroups import (
    BUILTIN_SYSTEMS, PIN_POINTS, PIN_SEED, HolonomicSection,
    LieEquationSystem, PolySection, _bracket_tables, algebroid_bracket,
    bracket_jacobi_residual, builtin_system, closure_check, jet_variable_names,
    lie_system_from_dict, linearization_rows_gap,
    sample_linear_sections, schwarzian, schwarzian_of_map,
)
from jetgauge.sampling import halton_points
from jetgauge import _suite_pseudogroup
from jetgauge._runner import _max_abs
from jetgauge.suites import SuiteConfig, run_suite
from slotrows import shifted

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
    assert _max_abs(linearization_rows_gap(sys_, pts)) < 1e-12


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_identity_solves_every_builtin(name):
    sys_ = builtin_system(name)
    pts = halton_points(sys_.box, 5, 19)
    ident = ExprMap.parse(
        ", ".join(f"x{k + 1}" for k in range(sys_.nvars)),
        [f"x{k + 1}" for k in range(sys_.nvars)])
    assert np.max(np.abs(sys_.finite_residual(ident, pts))) < 1e-14


def test_shear_volume_solutions():
    # any y1 = g(x1), y2 = x2/g'(x1) solves the shear-volume system, its
    # stated volume condition det(dy/dx) = 1 included
    r1 = builtin_system("r1")
    pts = halton_points(r1.box, 8, 5)
    good = ExprMap.parse("x1 + 0.1*x1^2, x2/(1 + 0.2*x1)", ["x1", "x2"])
    assert np.max(np.abs(r1.finite_residual(good, pts))) < 1e-13
    pts = halton_points(r1.box, 20, 7)
    member = ExprMap.parse("x1 + 0.3*x1^2, x2/(1 + 0.6*x1)", ["x1", "x2"])
    resid = r1.finite_residual(member, pts)
    assert resid.shape == (20, 3) and np.max(np.abs(resid)) <= 1e-12
    bad = ExprMap.parse("x1 + 0.1*x2, x2", ["x1", "x2"])
    assert np.max(np.abs(r1.finite_residual(bad, pts))) > 1e-2


def test_linearization_rows_checks_the_stated_volume_condition(tmp_path):
    # the hand row xi_1_1 + xi_2_2 is held against the row derived from
    # det - 1: off by 1e-6 in one coefficient, the row fails at its
    # unchanged tolerance, while the stated system passes
    stated = "xi_1_2, x2*xi_1_1 + xi_2, xi_1_1 + xi_2_2"
    fixture = tmp_path / "r1.json"
    for lin, passed in ((stated, True),
                        (stated.replace("xi_1_1 + xi_2_2",
                                        "1.000001*xi_1_1 + xi_2_2"), False)):
        fixture.write_text(json.dumps({
            "label": "shear-volume", "nvars": 2, "order": 1,
            "box": [[0.25, 1.25], [0.25, 1.25]],
            "equations": ("y_1_2, y_2*y_1_1 - x2, "
                          "y_1_1*y_2_2 - y_1_2*y_2_1 - 1"),
            "linearization": lin}))
        rep = run_suite("pseudogroup", SuiteConfig(seed=42,
                                                   fixture=str(fixture)))
        record = {r.id: r for r in rep.records}["linearization_rows"]
        assert record.tolerance == 1e-10
        assert record.passed is passed
    assert 0.9e-6 < record.max_residual < 1.1e-6


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


def _slot_section(text: str, nvars: int, order: int, degree: int) -> PolySection:
    """One polynomial per jet slot, in jet_variable_names order, held as a
    PolySection; a polynomial's Taylor coefficients at 0 are its monomial
    coefficients.  Nothing ties a slot to the derivative of the value slot,
    so the section need not be holonomic."""
    slots = ExprMap.parse(text, [f"x{k + 1}" for k in range(nvars)])
    coeffs = slots.taylor_lift(np.zeros(nvars), degree).coeffs
    rows = context(nvars, order).count
    return PolySection(coeffs.reshape(-1, rows, coeffs.shape[-1]), nvars,
                       order, degree)


def test_bracket_line_anchor():
    # [x d/dx, d/dx] = -d/dx, read off the slots
    a = _slot_section("x1, 1, 0, 0", 1, 3, 1)
    b = _slot_section("1, 0, 0, 0", 1, 3, 1)
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
    want = HolonomicSection(lie, 2).raw_series(PTS2, 0)[..., 0]
    assert np.max(np.abs(br - want)) < 1e-13


def test_bracket_jacobi_nonholonomic():
    a = _slot_section(
        "x1*x2, x2, 1 + x1, 0.3, 1, 0.1, x1 - x2, 1, 0, 0.2, 0, 1", 2, 2, 2)
    b = _slot_section(
        "x2, 0, 1, 1, 0.5, 0, x1, 1, 0.2, 0, 0, 0.7", 2, 2, 2)
    c = _slot_section(
        "x1, 1, 0, 0, 0.4, 0, x2^2, 0, 2*x2, 0, 1, 2", 2, 2, 2)
    assert bracket_jacobi_residual(a, b, c, PTS2) < 1e-13


def test_bracket_independent_of_lift():
    r1p = builtin_system("r1prime")
    rng = np.random.default_rng(8)
    secs = sample_linear_sections(r1p, 2, seed=21)
    pts = halton_points(r1p.box, 5, 9)
    base = algebroid_bracket(secs[0], secs[1], pts)
    bumped = algebroid_bracket(secs[0].perturb_top(rng),
                               secs[1].perturb_top(rng), pts)
    assert np.max(np.abs(bumped - base)) < 1e-12


def test_perturb_top_on_a_stack_is_the_per_section_stream():
    # closure's lift gaps rest on this: one draw over a stack is the
    # stream of one draw per section, section after section
    secs = sample_linear_sections(builtin_system("r1"), 4, seed=6)
    got = secs.perturb_top(np.random.default_rng(12)).coeffs
    rng = np.random.default_rng(12)
    top = context(secs.nvars, secs.order).degree == secs.order
    for s in range(4):
        want = secs.coeffs[s].copy()
        want[:, top, :] += rng.standard_normal(want[:, top, :].shape)
        assert _same_bits(got[s], want)


def test_pseudogroup_suite_runs_the_section_api_on_blocks(monkeypatch):
    # bracket closure samples its sections and brackets them through the
    # public API, once per roster system, and every lift takes a block:
    # of one point only for the rows of a constant-coefficient system,
    # whose basis a cold cache builds
    from jetgauge.pseudogroups import _solution_basis
    _solution_basis.cache_clear()
    calls, bases = [], []

    def spy(name):
        real = getattr(pseudogroups, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(pseudogroups, name, counted)

    spy("sample_linear_sections")
    spy("algebroid_bracket")
    real_lift = ExprMap.taylor_lift

    def lift(self, base, order):
        bases.append(np.shape(base))
        return real_lift(self, base, order)

    monkeypatch.setattr(ExprMap, "taylor_lift", lift)
    run_suite("pseudogroup", SuiteConfig(seed=42))
    roster = len(_suite_pseudogroup.LIE_SYSTEMS)
    assert calls.count("sample_linear_sections") == roster
    assert calls.count("algebroid_bracket") == roster
    assert bases and all(len(shape) == 2 for shape in bases)
    assert sum(shape[0] == 1 for shape in bases) == sum(
        CONSTANT_ROUTE[name] for name in _suite_pseudogroup.LIE_SYSTEMS)


def _loop_mul(ctx, a, b):
    # reference product: each coefficient starts at 0.0 and gains its
    # products one at a time in product-table order
    out = np.zeros(ctx.count)
    for i, j, k in zip(ctx.mul_i, ctx.mul_j, ctx.mul_k):
        out[k] += a[i] * b[j]
    return out


@pytest.mark.parametrize("nvars, order",
                         [(1, 0), (3, 0), (1, 1), (2, 1), (3, 1), (2, 2)])
def test_stacked_product_matches_series_bitwise(nvars, order):
    ctx = context(nvars, order)
    rng = np.random.default_rng(nvars + 10 * order)
    for stack in [(3, 4), (16, 5)]:       # few and many series
        a = rng.standard_normal(stack + (ctx.count,))
        b = rng.standard_normal(stack + (ctx.count,))
        # signed zeros: 0.0 + (-0.0) must start every coefficient as in series
        a[0, :2] = -0.0
        b[1, 1, ::2] = 0.0
        prod = series.mul(ctx, a, b)
        # a broadcast operand, as _bracket_tables passes one component
        wide = series.mul(ctx, a[:, :1], b)
        for idx in np.ndindex(*stack):
            assert _same_bits(prod[idx], series.mul(ctx, a[idx], b[idx]))
            assert _same_bits(prod[idx], _loop_mul(ctx, a[idx], b[idx]))
            assert _same_bits(wide[idx], _loop_mul(ctx, a[idx[0], 0], b[idx]))


@pytest.mark.parametrize("nvars", [1, 3])
def test_order_zero_product_keeps_the_bits_of_the_constant_term(nvars):
    # the one product onto +0.0 is the constant term of an order-1 product,
    # for signed zeros, infinities and NaN, broadcast or not
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -2.5, 1e-300])
    a, b = np.meshgrid(special, special, indexing="ij")
    a = np.repeat(a[..., None], context(nvars, 1).count, axis=-1)
    b = np.repeat(b[..., None], context(nvars, 1).count, axis=-1)
    with np.errstate(invalid="ignore", under="ignore"):
        want = series.mul(context(nvars, 1), a, b)[..., :1]
        got = series.mul(context(nvars, 0), a[..., :1], b[..., :1])
        wide = series.mul(context(nvars, 0), a[:, :1, :1], b[..., :1])
        one = series.mul(context(nvars, 0), a[0, 0, :1], b[0, 0, :1])
        wide_want = series.mul(context(nvars, 1), a[:, :1], b)[..., :1]
    assert _same_bits(got, want)
    assert _same_bits(wide, wide_want)
    assert _same_bits(one, want[0, 0])


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_stacked_bracket_equals_each_slice(name):
    sys_ = builtin_system(name)
    n, ctx1 = sys_.nvars, context(sys_.nvars, 1)
    secs = sample_linear_sections(sys_, 6, seed=5)
    pts = halton_points(sys_.box, 4, 17)
    tabs = secs.raw_series(pts, 1)
    stacked = _bracket_tables(n, sys_.order, ctx1, tabs[0::2], tabs[1::2])
    assert _same_bits(stacked[..., 0],
                      algebroid_bracket(secs[0::2], secs[1::2], pts))
    for p in range(3):
        alone = algebroid_bracket(secs[2 * p], secs[2 * p + 1], pts)
        assert _same_bits(stacked[p, ..., 0], alone)
        for s in range(len(pts)):
            one = _bracket_tables(n, sys_.order, ctx1, tabs[2 * p, s],
                                  tabs[2 * p + 1, s])
            assert _same_bits(stacked[p, s], one)


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_bracket_tables_truncate_to_the_output_order(name):
    # products formed at the output's x-order carry the bits of full-order
    # products cut afterwards, so x-order-2 and x-order-1 tables give the
    # same order-0 slot, and the nested Jacobi path, which feeds x-order-1
    # output straight into the outer bracket, matches an explicit cut
    sys_ = builtin_system(name)
    n, q = sys_.nvars, sys_.order + 1
    ctx1, ctx2 = context(n, 1), context(n, 2)
    secs = sample_linear_sections(sys_, 3, seed=7)
    pts = halton_points(sys_.box, 4, 23)
    t2 = [secs[i].raw_series(pts, 2) for i in range(3)]
    from_2 = _bracket_tables(n, q - 1, ctx2, t2[0], t2[1])
    from_1 = _bracket_tables(n, q - 1, ctx1, t2[0][..., :ctx1.count],
                             t2[1][..., :ctx1.count])
    assert from_2.shape[-1] == ctx1.count and from_1.shape[-1] == 1
    assert _same_bits(from_2[..., :1], from_1)
    full = _full_order_bracket(n, q - 1, ctx2, t2[0], t2[1])
    assert _same_bits(from_2, full[..., :ctx1.count])
    u, v, w = (np.stack(t2), np.stack(t2[1:] + t2[:1]),
               np.stack(t2[2:] + t2[:2]))
    inner = _full_order_bracket(n, q - 1, ctx2, u, v)[..., :ctx1.count]
    rows_mid = context(n, q - 1).count
    vals = _full_order_bracket(n, q - 2, ctx1, inner,
                               w[..., :rows_mid, :ctx1.count])[..., 0]
    want = float(np.max(np.abs(vals[0] + vals[1] + vals[2])))
    got = bracket_jacobi_residual(secs[0], secs[1], secs[2], pts)
    assert _same_bits(np.float64(got), np.float64(want))


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_bracket_pads_add_nothing_to_a_nonfinite_row(name):
    # a pad slot multiplies real slots by a coefficient of 0; with an inf
    # in a value slot, 0 * inf must not turn the loop's +-inf into NaN
    sys_ = builtin_system(name)
    n, q, ctx1 = sys_.nvars, sys_.order, context(sys_.nvars, 1)
    secs = sample_linear_sections(sys_, 2, seed=5)
    pts = halton_points(sys_.box, 3, 17)
    ta, tb = secs[0].raw_series(pts, 1), secs[1].raw_series(pts, 1)
    tb[..., -1, 0, :] = np.inf
    with np.errstate(invalid="ignore"):
        got = _bracket_tables(n, q, ctx1, ta, tb)
        want = _full_order_bracket(n, q, ctx1, ta, tb)[..., :1]
    assert not np.all(np.isfinite(want))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert _same_bits(got[~np.isnan(got)], want[~np.isnan(want)])


def test_closure_forms_every_product_at_order_zero(monkeypatch):
    # closure reads the order-0 slot of each bracket alone; a product at a
    # higher order is work no record reads.  volume2's linearization is a
    # sum, so every product here comes from the bracket
    orders = []
    real = series.mul

    def spy(ctx, a, b):
        orders.append(ctx.order)
        return real(ctx, a, b)

    monkeypatch.setattr(series, "mul", spy)
    closure_check(builtin_system("volume2"), npairs=3, seed=1, neval=4)
    assert orders and set(orders) == {0}


def test_closure_nan_fails_closed(monkeypatch):
    # a NaN at the second evaluation point of a later system, after the
    # finite residuals of its first point, must reach the report and fail
    # the check; closure_check lifts its points as one block, so the
    # poison goes into the second point of that block
    real = LieEquationSystem.linear_rows

    def poisoned(self, x):
        rows = real(self, x)
        if self.label == "volume-2d" and np.ndim(x) == 2:
            rows = rows.copy()
            rows[1] = np.nan
        return rows

    monkeypatch.setattr(LieEquationSystem, "linear_rows", poisoned)
    resid, lift_gap = closure_check(builtin_system("volume2"), npairs=4,
                                    seed=3, neval=8)
    assert math.isnan(_max_abs(resid))
    assert not math.isnan(_max_abs(lift_gap))
    record = run_suite("pseudogroup", SuiteConfig(seed=42)).records[0]
    assert record.id == "bracket_closure"
    assert math.isnan(record.max_residual)
    assert not record.passed


@pytest.mark.parametrize("name", ["affine", "projective", "volume2", "volume3",
                                  "r1", "r1prime"])
def test_closure_of_builtin_systems(name):
    # a system with no polynomial sections raises in _solution_basis
    resid, lift_gap = closure_check(builtin_system(name), npairs=8, seed=3,
                                    neval=6)
    assert len(resid) == 8 and len(lift_gap) == 5
    assert _max_abs(resid) < 1e-11
    assert _max_abs(lift_gap) < 1e-12


def test_sampled_sections_satisfy_system():
    r1 = builtin_system("r1")
    secs = sample_linear_sections(r1, 3, seed=4)
    pts = halton_points(r1.box, 6, 31)
    jets = secs.raw_series(pts, 0)[..., :r1.jet_ctx().count, 0]
    resid = np.einsum("pec,spc->spe", r1.linear_rows(pts),
                      jets.reshape(3, len(pts), -1))
    assert resid.shape == (3, len(pts), len(r1.linearization))
    assert np.max(np.abs(resid)) < 1e-12


def test_schwarzian_anchor_and_moebius():
    assert abs(schwarzian([1.0, 1.0, 1.0, 1.0]) + 0.5) < 1e-15
    # exp has schwarzian -1/2 everywhere
    f = ExprMap.parse("exp(x)", ["x"])
    xs = np.array([[0.6], [0.0], [0.4], [-0.3]])
    assert np.max(np.abs(schwarzian_of_map(f, xs) + 0.5)) < 1e-12
    # moebius reparametrization leaves it unchanged
    g = ExprMap.parse("(2*exp(x) + 1)/(exp(x) + 3)", ["x"])
    assert schwarzian_of_map(g, xs).shape == (4,)
    assert np.max(np.abs(schwarzian_of_map(g, xs) + 0.5)) < 1e-10


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
    assert _max_abs(linearization_rows_gap(sys_, pts)) < 1e-15


def test_system_without_linearization_is_refused():
    # the stored linearization is the system that is prolonged and closed
    data = {"label": "no-lin", "nvars": 1, "order": 1, "box": [[-1.0, 1.0]],
            "equations": "y_1_1 - 1"}
    for bad in (data, {**data, "linearization": None}):
        with pytest.raises(ValueError, match="'linearization'"):
            lie_system_from_dict(bad)

# ----------------------------------------------------------------------
# Block Lie-system rows against the point-by-point arithmetic they replace

SEEDS = (3, 45, 1003)


def _loop_prolonged_rows(sys_, x):
    """One point's prolonged rows, filled cell by cell from one lift: the
    triple loop the block gather must match bit for bit."""
    from jetgauge.pseudogroups import _jet_column
    n = sys_.nvars
    ctx_lo, ctx_hi = sys_.jet_ctx(), sys_.jet_ctx(sys_.order + 1)
    ncols_lo, ncols_hi = n * ctx_lo.count, n * ctx_hi.count
    neq = len(sys_.linearization)
    point = np.zeros(n + ncols_lo)
    point[:n] = x
    lift = sys_.linearization.taylor_lift(point, 2)
    out = np.zeros((neq * (1 + n), ncols_hi))
    nline = n + ncols_lo
    for e in range(neq):
        for k in range(n):
            for row in range(ctx_lo.count):
                col_lo = _jet_column(ctx_lo, k, row)
                mu = [0] * nline
                mu[n + col_lo] += 1
                coef = lift.raw(e, tuple(mu))
                out[e, _jet_column(ctx_hi, k, row)] = coef
                for i in range(n):
                    mu2 = list(mu)
                    mu2[i] += 1
                    out[neq * (1 + i) + e,
                        _jet_column(ctx_hi, k, row)] += lift.raw(e, tuple(mu2))
                    up = ctx_hi.pos(tuple(ctx_lo.midx[row]
                                          + np.eye(n, dtype=int)[i]))
                    out[neq * (1 + i) + e,
                        _jet_column(ctx_hi, k, up)] += coef
    return out


def _loop_identity_jet(sys_, x):
    n, ctx = sys_.nvars, sys_.jet_ctx()
    vals = np.zeros(n + n * ctx.count)
    vals[:n] = x
    for k in range(n):
        mu = tuple(int(i == k) for i in range(n))
        vals[n + k * ctx.count] = x[k]
        vals[n + k * ctx.count + ctx.pos(mu)] = 1.0
    return vals


def _loop_linear_rows(sys_, x):
    n = sys_.nvars
    point = np.zeros(n + n * sys_.jet_ctx().count)
    point[:n] = x
    return sys_.linearization.taylor_lift(point, 1).jacobian()[:, n:]


def _loop_derived_rows(sys_, x):
    """The equations' rows at the identity jet, which only the gap reads."""
    return sys_.equations.taylor_lift(_loop_identity_jet(sys_, x),
                                      1).jacobian()[:, sys_.nvars:]


def _loop_poly_shift(nvars, degree, x, xorder):
    ctx_b, ctx_x = context(nvars, degree), context(nvars, xorder)
    shift = np.zeros((ctx_b.count, ctx_x.count))
    for b in range(ctx_b.count):
        beta = ctx_b.midx[b]
        for kp in range(ctx_x.count):
            kappa = ctx_x.midx[kp]
            if np.any(kappa > beta):
                continue
            binom = float(math.prod(math.comb(int(m), int(k))
                                    for m, k in zip(beta, kappa)))
            shift[b, kp] = binom * np.prod(x ** (beta - kappa))
    return shift


def _loop_pinned_matrix(sys_, degree, seed=PIN_SEED):
    """The system over the polynomial ansatz pinned at the PIN_POINTS
    Halton points of stream seed, one point's block of rows at a time; at
    PIN_SEED, the matrix the basis is a nullspace of."""
    ctx_b = context(sys_.nvars, degree)
    blocks = []
    for x in halton_points(sys_.box, PIN_POINTS, seed):
        rows = _loop_prolonged_rows(sys_, x)
        basis = np.array([np.prod(x ** ctx_b.midx[bb])
                          for bb in range(ctx_b.count)])
        blocks.append(np.einsum("rc,b->rcb", rows, basis).reshape(
            rows.shape[0], -1))
    return np.vstack(blocks)


# which route each builtin's basis takes: True for rows with no x in them
CONSTANT_ROUTE = {"affine": True, "projective": True, "volume2": True,
                  "volume3": True, "r1": False, "r1prime": False}


def _loop_solution_basis(sys_, degree, constant):
    """(null, nb) as _solution_basis gives it: the nullspace of the rows at
    the box's centre with nb monomials, or of the pinned matrix with 1."""
    if constant:
        centre = np.array([(lo + hi) / 2.0 for lo, hi in sys_.box])
        return (_loop_nullspace(_loop_prolonged_rows(sys_, centre)),
                context(sys_.nvars, degree).count)
    return _loop_nullspace(_loop_pinned_matrix(sys_, degree)), 1


def _loop_nullspace(mat):
    # a column no row touches is a null vector alone: first the unit
    # vectors of those, then the null rows of the live columns' full SVD,
    # the reference for the thin one on tall matrices
    live = [c for c in range(mat.shape[1]) if np.any(mat[:, c] != 0.0)]
    dead = [c for c in range(mat.shape[1]) if c not in live]
    null = np.zeros((0, len(live)))
    if live:
        _, sig, vt = np.linalg.svd(mat[:, live])
        null = vt[int(np.sum(sig > 1e-10 * sig[0])):]
    out = np.zeros((len(dead) + len(null), mat.shape[1]))
    for k, c in enumerate(dead):
        out[k, c] = 1.0
    for k, vec in enumerate(null):
        out[len(dead) + k, live] = vec
    return out


def _full_order_bracket(n, q_out, ctx_x, tab_a, tab_b):
    """The bracket kernel with every product formed at ctx_x's full order;
    only its x-orders below ctx_x.order are valid."""
    ctx_jet = context(n, q_out + 1)
    binom, rest = shift_table(n, q_out + 1, q_out + 1)
    rows_out = context(n, q_out).count
    batch = np.broadcast_shapes(tab_a.shape[:-3], tab_b.shape[:-3])
    out = np.zeros(batch + (n, rows_out, ctx_x.count))
    for row in range(rows_out):
        acc = out[..., row, :]
        for row_nu in range(ctx_jet.count):
            coef = binom[row, row_nu]
            if not coef:
                continue
            for r in range(n):
                row_rem = shifted(ctx_jet, rest[row, row_nu], r)
                term = series.mul(ctx_x, tab_a[..., r:r + 1, row_nu, :],
                                  tab_b[..., :, row_rem, :])
                term -= series.mul(ctx_x, tab_b[..., r:r + 1, row_nu, :],
                                   tab_a[..., :, row_rem, :])
                acc += coef * term
        for i in range(n):
            up = shifted(ctx_jet, row, i)
            sp_a = (series.dvar(ctx_x, tab_a[..., :, row, :], i)
                    - tab_a[..., :, up, :])
            sp_b = (series.dvar(ctx_x, tab_b[..., :, row, :], i)
                    - tab_b[..., :, up, :])
            acc += series.mul(ctx_x, tab_a[..., i:i + 1, 0, :], sp_b)
            acc -= series.mul(ctx_x, tab_b[..., i:i + 1, 0, :], sp_a)
    return out


def _loop_draw_sections(sys_, null, nb, count, seed, degree):
    # one normal draw, one contraction over every null vector, zeros and
    # all, and one normalisation per section
    n, q = sys_.nvars, sys_.order
    ctx_sec, ctx_b = context(n, q + 1), context(n, degree)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        draw = rng.standard_normal(len(null) * nb).reshape(len(null), nb)
        combo = np.zeros((null.shape[1], nb))
        for j in range(len(null)):
            combo += np.outer(null[j], draw[j])
        coeffs = combo.reshape(n, ctx_sec.count, ctx_b.count)
        coeffs /= max(np.max(np.abs(coeffs)), 1e-30)
        out.append(PolySection(coeffs, n, q + 1, degree))
    return out


def _loop_closure_check(sys_, npairs, seed, neval, constant, degree=2):
    """closure_check one point, one section and one pair at a time, with
    the live columns' full SVD, full-order bracket products and no code
    it checks."""
    n = sys_.nvars
    null, nb = _loop_solution_basis(sys_, degree, constant)
    sections = _loop_draw_sections(sys_, null, nb, 2 * npairs, seed, degree)
    eval_pts = halton_points(sys_.box, neval, seed + 1)
    rng = np.random.default_rng(seed + 2)
    nlift = min(npairs, 5)
    sections += [s.perturb_top(rng) for s in sections[:2 * nlift]]
    shifts = [_loop_poly_shift(n, degree, x, 1) for x in eval_pts]
    tabs = [[np.einsum("krb,bw->krw", s.coeffs, sh) for sh in shifts]
            for s in sections]
    vals = np.array([[_full_order_bracket(n, sys_.order, context(n, 1),
                                          a[s], b[s])[..., 0]
                      for s in range(neval)]
                     for a, b in zip(tabs[0::2], tabs[1::2])])
    rows = [_loop_linear_rows(sys_, x) for x in eval_pts]
    resid = np.array([[rows[s] @ v[s].ravel() for s in range(len(rows))]
                      for v in vals[:npairs]])
    return resid, vals[npairs:] - vals[:nlift]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_block_rows_match_point_loop(name, seed):
    sys_ = builtin_system(name)
    pts = halton_points(sys_.box, 7, seed)
    block = sys_.prolonged_rows(pts)
    lin = sys_.linear_rows(pts)
    gap = linearization_rows_gap(sys_, pts)
    for s, x in enumerate(pts):
        ref = _loop_prolonged_rows(sys_, x)
        assert _same_bits(block[s], ref)
        assert _same_bits(sys_.prolonged_rows(x), ref)
        hand = _loop_linear_rows(sys_, x)
        assert _same_bits(lin[s], hand)
        # the derived rows live on in the gap alone
        assert _same_bits(gap[s], hand - _loop_derived_rows(sys_, x))
    assert _same_bits(sys_.identity_jet(pts),
                      np.array([_loop_identity_jet(sys_, x) for x in pts]))


def _curved_system():
    # curved hand rows give their coefficients nonzero x-derivatives;
    # value slots that enter the equations nonlinearly give the derived
    # rows, which only the gap reads, nonzero entries
    return lie_system_from_dict({
        "label": "curved", "nvars": 2, "order": 1,
        "box": [[0.2, 0.9], [-0.7, 0.4]],
        "equations": ("y_1_1*exp(0.7*y_1 + 0.3*x1) + x2*y_1^2*y_1_2 "
                      "- x1*y_2^2*y_2_2 + x2^2, "
                      "x1*y_2*y_1_2 + sin(y_1)*y_2_1 + x2*cos(y_2)*y_2_2, "
                      "x1^2*y_1_1*exp(y_2) + y_1*y_2_2 - x2"),
        "linearization": ("xi_1_1 + x1*xi_2, xi_1_2*x2 + sin(x1)*xi_2_1, "
                          "x1^2*xi_1_1 + xi_2_2"),
    })


def _signed_zero_system():
    # at x1 = 0 the coefficient -x1 is -0.0, whose sign only a set keeps
    return lie_system_from_dict({
        "label": "signed-zero", "nvars": 1, "order": 2, "box": [[-1.0, 1.0]],
        "equations": "y_1_11, x1 - x1*y_1_1",
        "linearization": "xi_1_11, neg(x1*xi_1_1)",
    })


def test_block_rows_match_point_loop_off_linear_slots():
    sys_, signed = _curved_system(), _signed_zero_system()
    inputs = [(sys_, halton_points(sys_.box, 6, seed)) for seed in SEEDS]
    inputs.append((signed, np.array([[0.0], [0.5]])))
    for sys_, pts in inputs:
        block = sys_.prolonged_rows(pts)
        gap = linearization_rows_gap(sys_, pts)
        for s, x in enumerate(pts):
            assert _same_bits(block[s], _loop_prolonged_rows(sys_, x))
            assert _same_bits(gap[s], _loop_linear_rows(sys_, x)
                              - _loop_derived_rows(sys_, x))
    assert np.signbit(block[0, 1, 1])


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_rows_of_no_points_are_empty(name):
    sys_ = builtin_system(name)
    none = np.zeros((0, sys_.nvars))
    one = sys_.box[0][0] * np.ones(sys_.nvars)
    for rows in (sys_.prolonged_rows, sys_.linear_rows):
        assert rows(none).shape == (0,) + rows(one).shape
    assert _max_abs(linearization_rows_gap(sys_, none)) == 0.0


@pytest.mark.parametrize("nvars, degree, xorder",
                         [(1, 2, 1), (2, 2, 1), (3, 2, 1), (2, 3, 2), (3, 2, 0),
                          (3, 3, 1), (3, 4, 2), (4, 7, 2)])
def test_tabled_poly_shift_matches_point_formula(nvars, degree, xorder):
    from jetgauge._multiindex import _shift_plan, poly_shift
    rng = np.random.default_rng(nvars + 10 * degree)
    pts = rng.uniform(-1.3, 1.3, size=(9, nvars))
    pts[0, 0] = 0.0
    pts[1, -1] = -0.0
    block = poly_shift(nvars, degree, pts, xorder)
    for s, x in enumerate(pts):
        ref = _loop_poly_shift(nvars, degree, x, xorder)
        assert _same_bits(block[s], ref)
        assert _same_bits(poly_shift(nvars, degree, x, xorder), ref)
    # kept rows, in the order given, from tables shared read-only
    rows = tuple(range(context(nvars, degree).count - 1, -1, -3))
    assert _same_bits(poly_shift(nvars, degree, pts, xorder, rows),
                      block[:, list(rows)])
    for table in _shift_plan(nvars, degree, xorder, rows):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_closure_check_matches_point_reference(name, seed):
    from jetgauge.pseudogroups import _solution_basis
    sys_ = builtin_system(name)
    for degree in (2, 3):
        (null, nb), (want, want_nb) = (
            _solution_basis(sys_, degree),
            _loop_solution_basis(sys_, degree, CONSTANT_ROUTE[name]))
        assert _same_bits(null, want) and nb == want_nb
    # the suite's parameters: 50 pairs at 8 evaluation points
    for got, want in zip(closure_check(sys_, npairs=50, seed=seed, neval=8),
                         _loop_closure_check(sys_, 50, seed, 8,
                                             CONSTANT_ROUTE[name])):
        assert _same_bits(got, want)


def _scaled_r1():
    # r1 with every row scaled by 1e3: a relative rank threshold finds the
    # same nullspace
    return lie_system_from_dict({
        "label": "shear-volume-scaled", "nvars": 2, "order": 1,
        "box": [[0.25, 1.25], [0.25, 1.25]],
        "equations": "y_1_2, y_2*y_1_1 - x2, y_1_1*y_2_2 - y_1_2*y_2_1 - 1",
        "linearization": ("1000*xi_1_2, 1000*(x2*xi_1_1 + xi_2), "
                          "1000*(xi_1_1 + xi_2_2)")})


def _scaled_volume3():
    # volume3 with its row scaled by 1e3: the pointwise nullspace keeps the
    # relative rank threshold
    vol = builtin_system("volume3")
    return dataclasses.replace(vol, label="volume-3d-scaled",
                               linearization=ExprMap.parse(
                                   "1000*(xi_1_1 + xi_2_2 + xi_3_3)",
                                   vol.linearization.variables))


def _assert_spans_the_pinned_nullspace(sys_, seed):
    # the factored basis, pinned at its fixed points or taken at the box's
    # centre, expanded, spans what the SVD of the whole matrix pinned at
    # another stream's points gives, and stays orthonormal
    from jetgauge.pseudogroups import _solution_basis
    for degree in (2, 3):
        null, nb = _solution_basis(sys_, degree)
        basis = np.kron(null, np.eye(nb))
        _, sig, vt = np.linalg.svd(_loop_pinned_matrix(sys_, degree, seed))
        full = vt[int(np.sum(sig > 1e-10 * sig[0])):]
        assert basis.shape == full.shape
        assert np.max(np.abs(basis.T @ basis - full.T @ full)) < 1e-12
        assert np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) < 1e-12


SCALED = {"r1-scaled": _scaled_r1, "volume3-scaled": _scaled_volume3}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS) + sorted(SCALED))
def test_live_column_basis_spans_the_full_nullspace(name, seed):
    # r1, r1prime and r1-scaled take the seed-free pinned basis: polynomial
    # rows give every generic 40-point set the same solution space.  The
    # curved fixture stays out, as its sin(x1) row is no polynomial and its
    # pinned space depends on the points
    sys_ = SCALED[name]() if name in SCALED else builtin_system(name)
    _assert_spans_the_pinned_nullspace(sys_, seed)


def _affine_line_with(linearization):
    return lie_system_from_dict({
        "label": "line", "nvars": 1, "order": 2, "box": [[-1.0, 1.0]],
        "equations": "y_1_11", "linearization": linearization})


def test_a_system_no_row_touches_has_the_identity_basis(monkeypatch):
    # every row vanishes at every point, so all 12 columns (4 slots by 3
    # monomials) are dead: the basis is the identity with no SVD, and every
    # bracket solves the system exactly
    from jetgauge.pseudogroups import _solution_basis
    sys_ = _affine_line_with("0*xi_1_11")

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD of no live column")

    _solution_basis.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    null, nb = _solution_basis(sys_, 2)
    assert _same_bits(null, np.eye(4)) and nb == 3
    assert _same_bits(np.kron(null, np.eye(nb)), np.eye(12))
    resid, lift_gap = closure_check(sys_, npairs=4, seed=3, neval=6)
    assert resid.shape == (4, 6, 1) and _max_abs(resid) == 0.0
    assert np.isfinite(_max_abs(lift_gap))


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_builtin_route_is_read_from_the_expressions(name):
    from jetgauge.pseudogroups import _has_constant_rows
    assert _has_constant_rows(builtin_system(name)) == CONSTANT_ROUTE[name]


def _svd_shapes(monkeypatch, fn):
    shapes = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    fn()
    monkeypatch.undo()
    return shapes


def test_a_constant_row_with_a_value_slot_takes_the_pointwise_route(
        monkeypatch):
    # xi_1 + xi_1_11 and its derivative xi_1_1 + xi_1_111: one SVD of the
    # two rows at one point, on the four live columns, and still the
    # pinned nullspace
    from jetgauge.pseudogroups import _has_constant_rows, _solution_basis
    sys_ = _affine_line_with("xi_1 + xi_1_11")
    assert _has_constant_rows(sys_)
    _solution_basis.cache_clear()
    assert _svd_shapes(monkeypatch,
                       lambda: _solution_basis(sys_, 2)) == [(2, 4)]
    for seed in SEEDS:
        _assert_spans_the_pinned_nullspace(sys_, seed)


@pytest.mark.parametrize("make", [_curved_system, _signed_zero_system],
                         ids=["curved", "signed-zero"])
def test_rows_with_x_in_them_take_the_pinned_route(make, monkeypatch):
    # an x in a row: the rows are pinned at the 40 points
    from jetgauge.pseudogroups import _has_constant_rows, _solution_basis
    sys_ = make()
    assert not _has_constant_rows(sys_)
    rows = len(_loop_prolonged_rows(sys_, np.zeros(sys_.nvars)))
    _solution_basis.cache_clear()
    shapes = _svd_shapes(monkeypatch, lambda: _solution_basis(sys_, 2))
    assert [m for m, _ in shapes] == [PIN_POINTS * rows]
    assert _solution_basis(sys_, 2)[1] == 1


def test_a_system_with_no_polynomial_sections_is_refused():
    # xi, xi' and xi'' vanish, and with them D xi'' = xi''': every column
    # is live and the pinned matrix has full rank
    with pytest.raises(ValueError, match="line: no polynomial sections at "
                                         "degree 2"):
        closure_check(_affine_line_with("xi_1, xi_1_1, xi_1_11"), npairs=2,
                      seed=3, neval=4)


# the shape of the SVD's matrix once the dead columns are dropped: the
# rows at one point for a constant system, the pinned matrix otherwise
LIVE_SHAPES = {"affine": (2, 2), "projective": (2, 2), "volume2": (3, 6),
               "volume3": (4, 12), "r1": (360, 60), "r1prime": (240, 72)}


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_closure_runs_one_svd_on_the_live_columns(name, monkeypatch):
    # a count, not a time: it holds under any machine load
    from jetgauge.pseudogroups import _solution_basis
    _solution_basis.cache_clear()
    shapes = _svd_shapes(monkeypatch, lambda: closure_check(
        builtin_system(name), npairs=2, seed=3, neval=4))
    assert shapes == [LIVE_SHAPES[name]]


def test_pseudogroup_suite_svd_work_count(monkeypatch):
    # the summed m * n of every SVD input over one suite run at seed 42 from
    # a cold cache: a count, so it catches a basis that grows back under
    # any machine load
    from jetgauge.pseudogroups import _solution_basis
    _solution_basis.cache_clear()
    shapes = _svd_shapes(monkeypatch, lambda: run_suite(
        "pseudogroup", SuiteConfig(seed=42)))
    assert sum(m * n for m, n in shapes) == 21_674


def test_a_fixture_is_built_once_per_process(tmp_path):
    # a fixture file read on every run is built into one system per
    # content, so four seeds leave one basis entry for it beside the
    # roster's
    from jetgauge.pseudogroups import _solution_basis, load_lie_system
    fixture = tmp_path / "line.json"
    fixture.write_text(json.dumps({
        "label": "line", "nvars": 1, "order": 2, "box": [[-1.0, 1.0]],
        "equations": "x1*y_1_11", "linearization": "x1*xi_1_11"}))
    _solution_basis.cache_clear()
    for seed in range(4):
        assert run_suite("pseudogroup", SuiteConfig(
            seed=seed, fixture=str(fixture))).passed
    assert (_solution_basis.cache_info().currsize
            == len(_suite_pseudogroup.LIE_SYSTEMS) + 1)
    assert load_lie_system(str(fixture)) is load_lie_system(str(fixture))


def test_pseudogroup_suite_builds_each_basis_once_per_process(monkeypatch):
    # five seeds in one process take one SVD per roster system, from a
    # cache of one entry per system: a cache keyed by seed would hold more
    from jetgauge.pseudogroups import _solution_basis
    _solution_basis.cache_clear()
    shapes = _svd_shapes(monkeypatch, lambda: [
        run_suite("pseudogroup", SuiteConfig(seed=seed)) for seed in range(5)])
    assert sorted(shapes) == sorted(LIVE_SHAPES[name]
                                    for name in _suite_pseudogroup.LIE_SYSTEMS)
    assert _solution_basis.cache_info().currsize == 5


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_bracket_makes_one_product_pair_per_plan_column(name, monkeypatch):
    # one stacked pair per column of the plan and one per direction, not
    # one per output row, nu and r
    from jetgauge.pseudogroups import _bracket_plan
    sys_ = builtin_system(name)
    n, q = sys_.nvars, sys_.order
    secs = sample_linear_sections(sys_, 4, seed=5)
    pts = halton_points(sys_.box, 3, 17)
    width = len(_bracket_plan(n, q)[0])
    calls = []
    real = series.mul

    def spy(ctx, a, b):
        calls.append(ctx.order)
        return real(ctx, a, b)

    monkeypatch.setattr(series, "mul", spy)
    algebroid_bracket(secs[0::2], secs[1::2], pts)
    assert 0 < len(calls) <= 2 * width + 2 * n
    calls.clear()
    bracket_jacobi_residual(secs[0], secs[1], secs[2], pts)
    # the nested path: brackets of order q, then of order q - 1
    widths = width + len(_bracket_plan(n, q - 1)[0])
    assert 0 < len(calls) <= 2 * widths + 4 * n


# ----------------------------------------------------------------------
# NaN fails closed, and records do not depend on check order or history

def _records_without_clock(report):
    return {r.id: {k: v for k, v in r.to_dict().items() if k != "runtime_ms"}
            for r in report.records}


def test_pseudogroup_suite_repeats_in_one_process():
    # the gather and shift tables and the closure bases are cached per
    # process: seed 42 from a cold basis cache and again after seeds 0-4
    # have filled it gives the same records, and no caller can write into
    # a cached basis
    from jetgauge.pseudogroups import _solution_basis
    _solution_basis.cache_clear()
    cold = run_suite("pseudogroup", SuiteConfig(seed=42))
    for seed in range(5):
        run_suite("pseudogroup", SuiteConfig(seed=seed))
    warm = run_suite("pseudogroup", SuiteConfig(seed=42))
    assert _records_without_clock(cold) == _records_without_clock(warm)
    null, _ = _solution_basis(builtin_system("r1"), 2)
    with pytest.raises(ValueError, match="read-only"):
        null[0, 0] = 1.0


def _blowup_system():
    # 0 * exp(800 * x1) overflows to 0 * inf = NaN for x1 > 0.89, so the hand
    # rows are exact at x1 = 0 and NaN at x1 = 0.95
    return lie_system_from_dict({
        "label": "blowup", "nvars": 1, "order": 1, "box": [[-1.0, 1.0]],
        "equations": "y_1_1 - 1",
        "linearization": "xi_1_1 + 0*exp(800*x1)*xi_1_1",
    })


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linearization_rows_gap_nan_fails_closed():
    sys_ = _blowup_system()
    pts = np.array([[0.0], [0.95]])
    assert _max_abs(linearization_rows_gap(sys_, pts[:1])) == 0.0
    assert math.isnan(_max_abs(linearization_rows_gap(sys_, pts)))


def test_linearization_rows_check_nan_fails_closed(monkeypatch):
    gaps = iter([1e-16, math.nan])
    monkeypatch.setattr(_suite_pseudogroup, "linearization_rows_gap",
                        lambda sys_, pts: next(gaps, 0.0))
    rep = run_suite("pseudogroup", SuiteConfig(seed=42))
    record = {r.id: r for r in rep.records}["linearization_rows"]
    assert math.isnan(record.max_residual)
    assert not record.passed


def test_schwarzian_invariance_check_nan_fails_closed(monkeypatch):
    real = _suite_pseudogroup.schwarzian_of_map

    def poisoned(f, xs):
        # the second point of the block, after a finite first point
        out = real(f, xs)
        out[1] = math.nan
        return out

    monkeypatch.setattr(_suite_pseudogroup, "schwarzian_of_map", poisoned)
    rep = run_suite("pseudogroup", SuiteConfig(seed=42))
    record = {r.id: r for r in rep.records}["schwarzian_invariance"]
    assert math.isnan(record.max_residual)
    assert not record.passed


def test_builtin_systems_are_built_once_per_process(monkeypatch):
    from jetgauge import pseudogroups
    from jetgauge.suites import SuiteConfig, run_suite
    run_suite("pseudogroup", SuiteConfig(seed=1))
    built = []
    for name, make in pseudogroups.BUILTIN_SYSTEMS.items():
        monkeypatch.setitem(pseudogroups.BUILTIN_SYSTEMS, name,
                            lambda make=make, name=name: built.append(name)
                            or make())
    assert run_suite("pseudogroup", SuiteConfig(seed=2)).passed
    assert built == []
    assert builtin_system("r1") is builtin_system("r1")
