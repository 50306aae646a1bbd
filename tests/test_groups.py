import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jetgauge import _suite_group, series
from jetgauge._multiindex import context
from jetgauge._runner import _max_abs
from jetgauge.expr import ExprMap, PolyMap, TaylorMap
from jetgauge.groups import (
    _gauge_derivatives, _pullback, GaugeField, Grid, InconsistentGroupLaw,
    NotInjectiveYet, action_bracket_residual, curvature, el_body_residual,
    el_space_residual, group_spec_from_dict, jacobi_residual, lift_curvature,
    linear_gauge_d, linear_gauge_dd, load_group_spec, maurer_cartan_pullback,
    right_pullback, spencer_from_action, variation_body, variation_body_fd,
    variation_space, variation_space_fd,
)
from jetgauge.sampling import halton_points
from jetgauge.suites import SuiteConfig, run_suite
from polytext import poly_text
from slotrows import shifted

AFFINE = load_group_spec("affine")
E2 = load_group_spec("e2")

GAUGING = ExprMap.parse("1 + 0.3*x1 + 0.1*x1*x2, 0.2*x2 - 0.4*x1^2",
                        ["x1", "x2"])
GRID = Grid(((-0.4, 0.6), (-0.5, 0.5)), (6, 6))
SAMPLES = halton_points(((-0.3, 0.5), (-0.4, 0.4)), 12, 7)


def test_bad_group_law_rejected():
    data = {
        "label": "broken", "dim": 2, "identity": [1.0, 0.0],
        "box": [[0.5, 2.0], [-1.0, 1.0]],
        "compose": "a1*b1, a1*b2 + a2 + 0.001",
        "inverse": "1/a1, -a2/a1",
    }
    with pytest.raises(InconsistentGroupLaw):
        group_spec_from_dict(data)


def test_affine_structure_constants():
    c = AFFINE.structure_constants()
    expect = np.zeros((2, 2, 2))
    expect[1, 0, 1] = -1.0
    expect[1, 1, 0] = 1.0
    assert np.max(np.abs(c - expect)) < 1e-12


def _running_max_jacobi(c):
    # the running maximum jacobi_residual kept before: exact on finite input
    def bracket(c, lam, mu):
        return np.einsum("trs,r,s->t", c, lam, mu)

    eye, worst = np.eye(c.shape[0]), 0.0
    for a in range(c.shape[0]):
        for b in range(c.shape[0]):
            for d in range(c.shape[0]):
                total = (bracket(c, bracket(c, eye[a], eye[b]), eye[d])
                         + bracket(c, bracket(c, eye[b], eye[d]), eye[a])
                         + bracket(c, bracket(c, eye[d], eye[a]), eye[b]))
                worst = max(worst, float(np.max(np.abs(total))))
    return worst


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_jacobi_residual_nan_fails_closed():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((3, 3, 3))
    c -= c.transpose(0, 2, 1)
    assert jacobi_residual(c) > 0.0
    assert jacobi_residual(c).hex() == _running_max_jacobi(c).hex()
    for spec in (AFFINE, E2):
        c = spec.structure_constants()
        assert jacobi_residual(c).hex() == _running_max_jacobi(c).hex()
    c = AFFINE.structure_constants().copy()
    c[0, 0, 1] = math.nan
    assert math.isnan(jacobi_residual(c))
    # 0 * exp(801) is NaN in every slot of the second component at the
    # identity, so the constants are NaN and the group law is refused
    nan_law = replace(AFFINE, compose=ExprMap.parse(
        "a1*b1, a1*b2 + a2 + 0*exp(800 + a1)*a2*b1",
        ["a1", "a2", "b1", "b2"]))
    for _ in range(2):                       # a refusal is not cached
        with pytest.raises(InconsistentGroupLaw, match="nan"):
            nan_law.structure_constants()


@pytest.mark.parametrize("spec", [AFFINE, E2], ids=["affine", "e2"])
def test_structure_constants_once_per_spec_and_read_only(spec):
    # the triple loop over mixed slots that the block read replaced
    p = spec.dim
    lift = spec.compose.taylor_lift(np.concatenate([spec.identity] * 2), 2)
    want = np.zeros((p, p, p))
    for tau, rho, sigma in itertools.product(range(p), repeat=3):
        mu1, mu2 = [0] * (2 * p), [0] * (2 * p)
        mu1[sigma] += 1
        mu1[p + rho] += 1
        mu2[rho] += 1
        mu2[p + sigma] += 1
        want[tau, rho, sigma] = (lift.raw(tau, tuple(mu1))
                                 - lift.raw(tau, tuple(mu2)))
    fresh = replace(spec)
    c = fresh.structure_constants()
    assert np.array_equal(_bits(c), _bits(want))
    assert fresh.structure_constants() is c
    with pytest.raises(ValueError):
        c[0, 0, 0] = 1.0


def test_e2_structure_constants():
    c = E2.structure_constants()
    assert abs(c[2, 0, 1] + 1.0) < 1e-12          # rotation with first shift
    assert abs(c[1, 0, 2] - 1.0) < 1e-12          # rotation with second shift
    assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) < 1e-12


def test_action_brackets_match_structure_constants():
    pts1 = halton_points(AFFINE.action.box, 6, 2)
    assert action_bracket_residual(AFFINE, pts1) < 1e-12
    pts2 = halton_points(E2.action.box, 6, 2)
    assert action_bracket_residual(E2, pts2) < 1e-12


def test_affine_pullback_closed_form():
    # left form of the affine chart is (da1/a1, da2/a1)
    field = maurer_cartan_pullback(AFFINE, GAUGING, GRID)
    for x in SAMPLES[:5]:
        lift = GAUGING.taylor_lift(x, 1)
        a1 = lift.value()[0]
        assert np.max(np.abs(field.value_at(x) - lift.jacobian() / a1)) < 1e-12


def test_affine_right_pullback_closed_form():
    # right form: B1 = da1/a1, B2 = da2 - (a2/a1) da1
    field = right_pullback(AFFINE, GAUGING, GRID)
    for x in SAMPLES[:5]:
        lift = GAUGING.taylor_lift(x, 1)
        a1, a2 = lift.value()
        da = lift.jacobian()
        expect = np.stack([da[0] / a1, da[1] - (a2 / a1) * da[0]])
        assert np.max(np.abs(field.value_at(x) - expect)) < 1e-12


def test_pullback_curvature_vanishes_exact_route():
    for spec, gauging in [
        (AFFINE, GAUGING),
        (E2, ExprMap.parse("0.2*x1 - 0.3*x2^2, sin(x1*x2), 0.5*x2", ["x1", "x2"])),
    ]:
        field = maurer_cartan_pullback(spec, gauging, GRID)
        assert _max_abs(curvature(spec, field)) < 1e-12


def test_free_field_curvature_nonzero():
    # negative control: a space field B obeys dB + [B, B] = 0, so the
    # body-form curvature dB - [B, B] reads -2 [B, B], not zero
    space = right_pullback(AFFINE, _suite_group.GAUGING_AFFINE,
                           _suite_group.GAUGE_GRID)
    assert abs(_max_abs(curvature(AFFINE, space)) - 0.62) < 0.01


def test_variation_anchor_flat_background():
    # at the trivial gauging the body variation reduces to dlam
    flat = maurer_cartan_pullback(AFFINE, ExprMap.parse("1, 0", ["x1", "x2"]), GRID)
    lam = ExprMap.parse("0, x1", ["x1", "x2"])
    v = variation_body(AFFINE, flat, lam, SAMPLES[:1])[0]
    assert np.allclose(v, [[0.0, 0.0], [1.0, 0.0]], atol=1e-14)


LAM = ExprMap.parse("0.3*x1 - 0.2*x2^2, 0.1 + 0.5*x1*x2", ["x1", "x2"])


def test_variation_body_fd_halving():
    field = maurer_cartan_pullback(AFFINE, GAUGING, GRID)
    exact = variation_body(AFFINE, field, LAM, SAMPLES)
    e1 = np.max(np.abs(variation_body_fd(AFFINE, GAUGING, LAM, SAMPLES, 1e-3) - exact))
    e2 = np.max(np.abs(variation_body_fd(AFFINE, GAUGING, LAM, SAMPLES, 5e-4) - exact))
    assert 1.8 < e1 / e2 < 2.2


def test_variation_space_fd_halving():
    field = right_pullback(AFFINE, GAUGING, GRID)
    exact = variation_space(AFFINE, field, LAM, SAMPLES)
    e1 = np.max(np.abs(variation_space_fd(AFFINE, GAUGING, LAM, SAMPLES, 1e-3) - exact))
    e2 = np.max(np.abs(variation_space_fd(AFFINE, GAUGING, LAM, SAMPLES, 5e-4) - exact))
    assert 1.8 < e1 / e2 < 2.2


MOMENTUM = ExprMap.parse("x1*x2, x2^2, x1 - x2, 0.5*x1^2", ["x1", "x2"])


def test_el_body_residual_hand_values():
    field = maurer_cartan_pullback(AFFINE, GAUGING, GRID)
    r = el_body_residual(AFFINE, field, MOMENTUM, SAMPLES[:4])
    for s, x in enumerate(SAMPLES[:4]):
        av = field.value_at(x)
        x1, x2 = x
        hand1 = 3 * x2 + av[1, 0] * (x1 - x2) + av[1, 1] * 0.5 * x1 ** 2
        hand2 = 1.0 - (av[0, 0] * (x1 - x2) + av[0, 1] * 0.5 * x1 ** 2)
        assert abs(r[s, 0] - hand1) < 1e-13
        assert abs(r[s, 1] - hand2) < 1e-13


def test_el_space_residual_is_divergence():
    r = el_space_residual(AFFINE, MOMENTUM, SAMPLES[:4])
    expect = np.array([[3 * x[1], 1.0] for x in SAMPLES[:4]])
    assert np.max(np.abs(r - expect)) < 1e-13


def test_linear_gauge_d_gradient_and_curl():
    zero_form = ExprMap.parse("sin(x1)*x2, x1^2 - x2", ["x1", "x2"])
    vals, combos = linear_gauge_d(zero_form, 2, 2, 0, SAMPLES[:3])
    assert combos == ((0,), (1,))
    for s, x in enumerate(SAMPLES[:3]):
        x1, x2 = x
        expect = np.array([[np.cos(x1) * x2, np.sin(x1)], [2 * x1, -1.0]])
        assert np.max(np.abs(vals[s] - expect)) < 1e-13

    one_form = ExprMap.parse("sin(x1)*x2, x1*x2^2, exp(x1) - x2, x1^3",
                             ["x1", "x2"])
    vals1, combos1 = linear_gauge_d(one_form, 2, 2, 1, SAMPLES[:3])
    assert combos1 == ((0, 1),)
    for s, x in enumerate(SAMPLES[:3]):
        x1, x2 = x
        expect = np.array([x2 ** 2 - np.sin(x1), 3 * x1 ** 2 + 1.0])
        assert np.max(np.abs(vals1[s][:, 0] - expect)) < 1e-13


def test_linear_gauge_dd_vanishes():
    zero_form = ExprMap.parse("sin(x1)*x2, x1*x2^2", ["x1", "x2"])
    assert np.max(np.abs(linear_gauge_dd(zero_form, 2, 2, 0, SAMPLES))) < 1e-12
    # an r = 0 form with p = 2 has two components, not four
    four = ExprMap.parse("sin(x1)*x2, x1*x2^2, exp(x1) - x2, x1^3",
                         ["x1", "x2"])
    for fn in (linear_gauge_d, linear_gauge_dd):
        with pytest.raises(ValueError, match="expected 2 components"):
            fn(four, 2, 2, 0, SAMPLES)


@pytest.mark.parametrize("n,p,r", [(2, 2, 0), (3, 2, 1), (4, 1, 2), (2, 1, 1)])
def test_linear_gauge_dd_block_matches_sample_loop(n, p, r):
    names = [f"x{k + 1}" for k in range(n)]
    ncomp = p * math.comb(n, r)
    rng = np.random.default_rng(n + p + r)
    texts = [" + ".join(f"{rng.uniform(-1, 1)!r}*sin({a})*{b}^2"
                        for a, b in itertools.permutations(names, 2))
             for _ in range(ncomp)]
    field = ExprMap.parse(", ".join(texts), names)
    pts = halton_points(((-0.6, 0.7),) * n, 12, 5)
    got = linear_gauge_dd(field, n, p, r, pts)
    # the per-sample loop over raw slots that the block read replaced
    combos_r = list(itertools.combinations(range(n), r))
    combos_2 = tuple(itertools.combinations(range(n), r + 2))
    want = np.zeros((len(pts), p, max(len(combos_2), 1)))
    for s, x in enumerate(pts):
        lift = field.taylor_lift(x, 2)
        for kk, L in enumerate(combos_2):
            for u in range(r + 2):
                K = L[:u] + L[u + 1:]
                for v in range(r + 1):
                    rest = K[:v] + K[v + 1:]
                    mu = [0] * n
                    mu[L[u]] += 1
                    mu[K[v]] += 1
                    for t in range(p):
                        comp = t * len(combos_r) + combos_r.index(rest)
                        want[s, t, kk] += ((-1.0) ** u * (-1.0) ** v
                                           * lift.raw(comp, tuple(mu)))
    assert np.array_equal(_bits(got), _bits(want))
    assert linear_gauge_dd(field, n, p, r, pts[:0]).shape == (0,) + want.shape[1:]


def test_spencer_from_action_affine():
    lam = ExprMap.parse("0.2*x1^2 - 0.1, 0.3*x1", ["x1"])
    pts = halton_points(AFFINE.action.box, 8, 3)
    # order 1 keeps full rank, or the call would raise NotInjectiveYet
    chk = spencer_from_action(AFFINE, lam, 1, pts)
    assert chk.shape == (2, 8)                   # (jet row, k, i) by sample
    assert _max_abs(chk) < 1e-12
    with pytest.raises(NotInjectiveYet):
        spencer_from_action(AFFINE, lam, 0, pts)


def test_spencer_from_action_e2_needs_first_order():
    lam = ExprMap.parse("0.1*x1 - 0.2*x2, 0.3, x1*x2", ["x1", "x2"])
    pts = halton_points(E2.action.box, 6, 4)
    chk = spencer_from_action(E2, lam, 1, pts)
    assert chk.shape == (12, 6)
    assert _max_abs(chk) < 1e-12
    with pytest.raises(NotInjectiveYet):
        spencer_from_action(E2, lam, 0, pts)


def _bits(a):
    return np.asarray(a, float).view(np.int64)


def test_gauge_blocks_match_point_loop():
    # the stacked solves, inverses and products give each node its own bits
    e2_gauging = ExprMap.parse("0.2*x1 - 0.3*x2^2, sin(x1*x2), 0.5*x2",
                               ["x1", "x2"])
    nodes = GRID.nodes()
    for spec, gauging in [(AFFINE, GAUGING), (E2, e2_gauging)]:
        for form in ("body", "space"):
            field = GaugeField(spec, GRID, form, gauging)
            block = _pullback(spec, gauging, nodes, form)[0]
            aval, da = _gauge_derivatives(spec, form,
                                          gauging.taylor_lift(nodes, 2))
            curv = curvature(spec, field)
            c = spec.structure_constants()
            for q in range(len(nodes)):
                one = nodes[q:q + 1]
                assert np.array_equal(_bits(block[q]), _bits(
                    _pullback(spec, gauging, one, form)[0][0]))
                a1, d1 = _gauge_derivatives(spec, form,
                                            gauging.taylor_lift(one, 2))
                assert np.array_equal(_bits(aval[q]), _bits(a1[0]))
                assert np.array_equal(_bits(da[q]), _bits(d1[0]))
                # the one pair (0, 1) of the plane, as one node alone
                quad = np.einsum("trs,r,s->t", c, a1[0][:, 0], a1[0][:, 1])
                want = d1[0][:, 0, 1] - d1[0][:, 1, 0] - quad
                assert np.array_equal(_bits(curv[q, :, 0]), _bits(want))
            # a stack of gaugings lifted at the nodes: each one's curvature
            roster = [gauging] + [_suite_group._random_gauging(spec, s)
                                  for s in (5, 6)]
            lifts = [g.taylor_lift(nodes, 2) for g in roster]
            stack = TaylorMap(("x1", "x2"), np.stack([t.base for t in lifts]),
                              2, np.stack([t.coeffs for t in lifts]))
            stacked = lift_curvature(spec, form, stack)
            for g, curv_g in zip(roster, stacked):
                alone = curvature(spec, GaugeField(spec, GRID, form, g))
                assert np.array_equal(_bits(curv_g), _bits(alone))


def test_spencer_block_matches_sample_loop():
    lam = ExprMap.parse("0.1*x1 - 0.2*x2, 0.3, x1*x2", ["x1", "x2"])
    pts = halton_points(E2.action.box, 6, 4)
    chk = spencer_from_action(E2, lam, 1, pts)
    alone = [spencer_from_action(E2, lam, 1, p[None]) for p in pts]
    assert np.array_equal(_bits(chk), _bits(np.concatenate(alone, axis=1)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_curvature_of_pullback_nan_fails_closed(monkeypatch):
    # 0 * exp(800) is NaN at the grid corner (0.5, 0.5) alone; every other
    # node, and every other gauging, stays finite
    overflow = ExprMap.parse(
        "1 + 0.2*x1 + 0 * exp(8000 * (x1 + x2 - 0.9)), 0.3*x2", ["x1", "x2"])
    field = maurer_cartan_pullback(AFFINE, overflow, _suite_group.GAUGE_GRID)
    values = curvature(AFFINE, field)
    assert np.isnan(values).any() and np.isfinite(values[:-1]).all()
    # the suite stacks its gaugings, so the NaN goes into the fifth affine
    # gauging of the stack, after four finite ones
    real = _suite_group._random_gauging

    def poisoned(spec, seed):
        g = real(spec, seed)
        if seed == 42 + 100 + 17 * 4 and spec.label == "affine-line":
            coeffs = g.coeffs.copy()
            coeffs[0, -1] = math.nan
            return PolyMap(g.variables, g.degree, coeffs)
        return g

    monkeypatch.setattr(_suite_group, "_random_gauging", poisoned)
    res, _ = _suite_group._check_curvature_of_pullback(SuiteConfig(seed=42),
                                                       {})
    assert np.isfinite(res[0][:4]).all() and np.isnan(res[0][4]).any()
    rep = run_suite("group", SuiteConfig(seed=42))
    record = {r.id: r for r in rep.records}["curvature_of_pullback"]
    assert math.isnan(record.max_residual)
    assert record.to_dict()["status"] == "fail"


def test_one_gauging_lift_per_group(monkeypatch):
    lifts = []
    real = PolyMap.taylor_lift

    def counted(self, base, order):
        lifts.append(self.coeffs.shape)
        return real(self, base, order)

    monkeypatch.setattr(PolyMap, "taylor_lift", counted)
    _suite_group._check_curvature_of_pullback(SuiteConfig(seed=42), {})
    assert [shape[:3] for shape in lifts] == [(10, 1, 2), (10, 1, 3)]


def test_variation_fd_runs_both_eps_as_one_block(monkeypatch):
    from jetgauge import groups
    for fd in (variation_body_fd, variation_space_fd):
        block = fd(AFFINE, GAUGING, LAM, SAMPLES, np.array([1e-3, 5e-4]))
        for quotient, eps in zip(block, (1e-3, 5e-4)):
            alone = fd(AFFINE, GAUGING, LAM, SAMPLES, eps)
            assert np.array_equal(_bits(quotient), _bits(alone))
    calls = {"_family_pullback": [], "_pullback": []}
    for name, seen in calls.items():
        def counted(*args, _real=getattr(groups, name), _seen=seen):
            _seen.append(args)
            return _real(*args)
        monkeypatch.setattr(groups, name, counted)
    _suite_group._check_variation_matches_fd(SuiteConfig(seed=42), {})
    # one perturbed pullback per side, on an eps axis, which gives the
    # quotients their unperturbed field too; the exact variations read
    # theirs from the field
    assert [np.shape(a[4]) for a in calls["_family_pullback"]] == [(2,)] * 2
    assert len(calls["_pullback"]) == 2


def _text_of_draws(rng, offsets, monomials, scale):
    # the same polynomial as text, drawn in the PolyMap builder's order
    monos = ["*".join(m) for m in monomials]
    return ", ".join(f"{off} + {poly_text(rng, monos, scale)}"
                     for off in offsets)


def test_random_gaugings_match_their_parsed_text():
    nodes = _suite_group.GAUGE_GRID.nodes()
    for spec in (AFFINE, E2):
        for k in range(10):
            seed = 100 + 17 * k
            g = _suite_group._random_gauging(spec, seed)
            assert isinstance(g, PolyMap) and len(g) == spec.dim
            text = _text_of_draws(np.random.default_rng(seed),
                                  [repr(float(e)) for e in spec.identity],
                                  _suite_group.PLANE_MONOS, 0.3)
            ref = ExprMap.parse(text, ["x1", "x2"]).taylor_lift(nodes, 2)
            got = g.taylor_lift(nodes, 2)
            assert np.max(np.abs(got.coeffs - ref.coeffs)) < 1e-13


def test_fixture_action_draws_a_random_lam(tmp_path, monkeypatch):
    # a chart whose label has no hand-written lam gets a random linear one
    data = json.loads((Path(_suite_group.__file__).parent / "fixtures"
                       / "e2.json").read_text())
    data["label"] = "e2-copy"
    path = tmp_path / "e2copy.json"
    path.write_text(json.dumps(data))
    seen = {}
    real = _suite_group.spencer_from_action

    def spy(spec, lam, order, samples):
        seen[spec.label] = lam, samples
        return real(spec, lam, order, samples)

    monkeypatch.setattr(_suite_group, "spencer_from_action", spy)
    rep = run_suite("group", SuiteConfig(seed=42, fixture=str(path)))
    record = {r.id: r for r in rep.records}["action_spencer_match"]
    assert record.passed
    lam, samples = seen["e2-copy"]
    assert isinstance(lam, PolyMap) and lam.degree == 1
    text = _text_of_draws(np.random.default_rng(42 + 9), ["0"] * 3,
                          [("x1",), ("x2",)], 0.4)
    ref = ExprMap.parse(text, ["x1", "x2"]).taylor_lift(samples, 1)
    assert np.max(np.abs(lam.taylor_lift(samples, 1).coeffs
                         - ref.coeffs)) < 1e-13


def _loop_spencer_from_action(spec, lam, order, samples):
    """spencer_from_action as a loop over (jet row, component, parameter),
    one series product each, with the slot layout read row by row."""
    act = spec.action
    n, p = act.dim, spec.dim
    ctx_hi, ctx1 = context(n, order + 1), context(n, 1)
    unit_pos = [ctx1.pos(tuple(int(i == j) for j in range(n)))
                for i in range(n)]
    rows_q = ctx_hi.count_up_to(order)
    gen = [g.taylor_lift(samples, order + 1) for g in act.generators]
    raw = np.stack([lift.coeffs * ctx_hi.factorial for lift in gen], axis=1)
    lam_series = lam.taylor_lift(samples, 1).coeffs
    lam0, dlam = lam_series[..., 0], lam_series[..., unit_pos]
    gaps = []
    for row in range(rows_q):
        for k in range(n):
            total = 0.0
            for tau in range(p):
                h = np.zeros(raw.shape[:1] + (ctx1.count,))
                h[:, 0] = raw[:, tau, k, row]
                for i in range(n):
                    h[:, unit_pos[i]] = raw[:, tau, k,
                                            shifted(ctx_hi, row, i)]
                total = total + series.mul(ctx1, lam_series[:, tau], h)
            for i in range(n):
                up = shifted(ctx_hi, row, i)
                direct = total[:, unit_pos[i]] - np.einsum(
                    "st,st->s", lam0, raw[:, :, k, up])
                contracted = np.einsum("st,st->s", dlam[:, :, i],
                                       raw[:, :, k, row])
                gaps.append(direct - contracted)
    return np.array(gaps)


@pytest.mark.parametrize("spec", [AFFINE, E2], ids=["affine", "e2"])
def test_spencer_from_action_matches_loop(spec):
    n = spec.action.dim
    names = tuple(f"x{k + 1}" for k in range(n))
    for order in (1, 2, 3):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            lam = PolyMap(names, 2, rng.standard_normal(
                (spec.dim, context(n, 2).count)))
            pts = halton_points(spec.action.box, 7, seed)
            got = spencer_from_action(spec, lam, order, pts)
            want = _loop_spencer_from_action(spec, lam, order, pts)
            assert np.array_equal(_bits(got), _bits(want)), (order, seed)


def test_validate_lifts_compose_twice(monkeypatch):
    counts = {}
    real = ExprMap.taylor_lift

    def spy(self, base, order):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return real(self, base, order)

    monkeypatch.setattr(ExprMap, "taylor_lift", spy)
    for spec in (AFFINE, E2):
        counts.clear()
        spec.validate()
        assert counts == {id(spec.compose): 2, id(spec.inverse): 1}


@pytest.mark.parametrize("k", [0, 5])
def test_validate_names_the_one_failing_sample(k):
    # an inverse off by a polynomial that vanishes at every sample's a1
    # but sample k's breaks the law there alone
    a1 = AFFINE.sample_points(8, seed=20210)[:, 0]
    bump = "*".join(f"(a1 - {float(v)!r})" for j, v in enumerate(a1) if j != k)
    broken = replace(AFFINE, inverse=ExprMap.parse(
        f"1/a1 + {bump}, -a2/a1", ["a1", "a2"]))
    with pytest.raises(InconsistentGroupLaw, match=f"at sample {k}$"):
        broken.validate()


def test_builtin_groups_are_built_once_per_process(monkeypatch):
    from jetgauge import groups
    run_suite("group", SuiteConfig(seed=1))
    calls = []

    def spy(name, module):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for module in (groups, _suite_group):
        spy("load_group_spec", module)
    spy("group_spec_from_dict", groups)
    rep = run_suite("group", SuiteConfig(seed=2))
    assert calls == [] and rep.passed
    spec = groups.builtin_group("e2")
    assert spec is _suite_group._group_roster(SuiteConfig(), {})[1]
    assert not spec.identity.flags.writeable
    assert not spec.structure_constants().flags.writeable
