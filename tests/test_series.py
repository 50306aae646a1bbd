import math

import numpy as np
import pytest

import jetgauge
from jetgauge import series
from jetgauge._multiindex import context
from slotrows import shifted


def test_kernel_is_selected():
    assert jetgauge.kernel_name() == "pure"


def test_mul_univariate_binomial():
    ctx = context(1, 3)
    one_plus_x = series.coordinate(ctx, 0, 1.0)
    sq = series.mul(ctx, one_plus_x, one_plus_x)
    cube = series.mul(ctx, sq, one_plus_x)
    assert np.allclose(cube, [1.0, 3.0, 3.0, 1.0], atol=0, rtol=0)


def test_mul_truncates_high_degrees():
    ctx = context(2, 2)
    x = series.coordinate(ctx, 0, 0.0)
    y = series.coordinate(ctx, 1, 0.0)
    xy = series.mul(ctx, x, y)
    assert xy[ctx.pos((1, 1))] == 1.0
    assert np.count_nonzero(xy) == 1
    # degree-4 content of (xy)^2 must be dropped, not wrapped around
    assert np.count_nonzero(series.mul(ctx, xy, xy)) == 0


@pytest.mark.parametrize("name,fun,deriv", [
    ("exp", math.exp, lambda k, c: math.exp(c)),
    ("sin", math.sin, lambda k, c: math.sin(c + k * math.pi / 2)),
    ("cos", math.cos, lambda k, c: math.cos(c + k * math.pi / 2)),
    ("log", math.log, lambda k, c: math.factorial(k - 1) * (-1) ** (k - 1) / c ** k),
])
def test_analytic_ladders_match_derivatives(name, fun, deriv):
    ctx = context(1, 5)
    c0 = 0.7
    x = series.coordinate(ctx, 0, c0)
    out = series.analytic(ctx, name, x)
    assert abs(out[0] - fun(c0)) < 1e-15
    for k in range(1, 6):
        expect = deriv(k, c0) / math.factorial(k)
        assert abs(out[k] - expect) < 1e-14, (name, k)


def test_sqrt_binomial_coefficients():
    # sqrt(1 + h) coefficients are the generalized binomials C(1/2, k)
    ctx = context(1, 4)
    out = series.analytic(ctx, "sqrt", series.coordinate(ctx, 0, 1.0))
    expect = [math.gamma(1.5) / (math.gamma(k + 1) * math.gamma(1.5 - k))
              for k in range(5)]
    assert np.max(np.abs(out - np.array(expect))) < 1e-14


def test_domain_errors():
    ctx = context(1, 3)
    zero = series.const(ctx, 0.0)
    with pytest.raises(series.DomainError):
        series.analytic(ctx, "log", zero)
    with pytest.raises(series.DomainError):
        series.analytic(ctx, "sqrt", series.const(ctx, -1.0))
    with pytest.raises(series.DomainError):
        series.div(ctx, series.const(ctx, 1.0), zero)


def test_polynomial_composition_is_exact():
    # u = x + y, v = 2y + x*y, f(u, v) = u^2 v + 3v has total degree 4,
    # so its order-4 jet reproduces the function exactly at any offset.
    ctx = context(2, 4)
    x = series.coordinate(ctx, 0, 0.0)
    y = series.coordinate(ctx, 1, 0.0)
    u = x + y
    v = 2.0 * y + series.mul(ctx, x, y)
    f = series.mul(ctx, series.mul(ctx, u, u), v) + 3.0 * v

    def direct(hx, hy):
        uu = hx + hy
        vv = 2.0 * hy + hx * hy
        return uu * uu * vv + 3.0 * vv

    for hx, hy in [(0.3, -0.2), (1.0, 1.0), (-0.7, 0.25)]:
        val = 0.0
        for row in range(ctx.count):
            ex = ctx.midx[row]
            val += f[row] * hx ** ex[0] * hy ** ex[1]
        assert abs(val - direct(hx, hy)) < 1e-12


def test_powc_integer_and_fractional():
    ctx = context(1, 4)
    x = series.coordinate(ctx, 0, 0.0)
    cubed = series.powc(ctx, x + series.mul(ctx, x, x), 3)
    # (x + x^2)^3 = x^3 + 3x^4 + ...
    assert np.allclose(cubed, [0.0, 0.0, 0.0, 1.0, 3.0])
    half = series.powc(ctx, series.coordinate(ctx, 0, 1.0), 0.5)
    assert abs(half[1] - 0.5) < 1e-15
    assert abs(half[2] + 0.125) < 1e-15
    with pytest.raises(series.DomainError):
        series.powc(ctx, x, 0.5)


def test_dvar_drops_one_order():
    ctx = context(2, 3)
    x = series.coordinate(ctx, 0, 0.4)
    y = series.coordinate(ctx, 1, -0.3)
    f = series.mul(ctx, series.analytic(ctx, "sin", x), y)
    dfdx = series.dvar(ctx, f, 0)
    expect = series.mul(ctx, series.analytic(ctx, "cos", x), y)
    upto = ctx.count_up_to(2)
    assert np.max(np.abs(dfdx[:upto] - expect[:upto])) < 1e-14


def _bits(a):
    return np.asarray(a, float).view(np.int64)


def _loop_dvar(ctx, a, var):
    # the derivative one row at a time, as the kernel once took it
    out = np.zeros(a.shape[:-1] + (ctx.count,))
    for row in range(ctx.count):
        src = shifted(ctx, row, var)
        if src >= 0:
            out[..., row] = a[..., src] * (ctx.midx[row][var] + 1)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nvars,order", [(1, 0), (1, 3), (2, 1), (2, 3),
                                         (3, 2)])
def test_gathered_dvar_matches_row_loop(nvars, order):
    ctx = context(nvars, order)
    a = np.random.default_rng(order).standard_normal((4, 3, ctx.count))
    a[0, 0] = -np.abs(a[0, 0])              # negative entries everywhere
    a[1, 2, -1] = np.inf                     # a top row, read by the one below
    a[2, 1, -1], a[3, 0, 0] = np.nan, np.inf
    top = ctx.degree == order
    for var in range(nvars):
        got = series.dvar(ctx, a, var)
        assert np.array_equal(_bits(got), _bits(_loop_dvar(ctx, a, var)))
        # rows whose mu + e_var leaves the truncation are +0.0 exactly
        assert np.array_equal(_bits(got[..., top]),
                              np.zeros(got[..., top].shape, np.int64))
        assert np.array_equal(_bits(series.dvar(ctx, a[1, 2], var)),
                              _bits(got[1, 2]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("xorder", [1, 2])
def test_spencer_matches_row_formula(n, q, xorder):
    ctx_x, ctx_jet = context(n, xorder), context(n, q + 1)
    keep = context(n, xorder - 1).count
    rng = np.random.default_rng(100 * n + 10 * q + xorder)
    tab = rng.standard_normal((2, 3, n + 1, ctx_jet.count, ctx_x.count))
    got = series.spencer(ctx_x, tab, q)
    assert got.shape == (2, 3, n, n + 1, context(n, q).count, keep)
    for row in range(context(n, q).count):
        for i in range(n):
            up = shifted(ctx_jet, row, i)
            want = (_loop_dvar(ctx_x, tab[..., row, :], i)[..., :keep]
                    - tab[..., up, :keep])
            assert np.array_equal(_bits(got[..., i, :, row, :]), _bits(want))


def _real_binom(alpha, r):
    num = 1.0
    for s in range(r):
        num *= alpha - s
    return num / math.factorial(r)


def _point_ladder(key, c0, order):
    # the one-value formulas the block ladder reproduces: exp as one np.exp,
    # libm's sin, cos and log, and powers of a numpy scalar, so that an
    # overflow gives inf
    ks, r = range(order + 1), np.arange(order + 1)
    if key == "exp":
        return np.exp(c0) / np.array([math.factorial(k) for k in ks])
    if key in ("sin", "cos"):
        fn = getattr(math, key)
        return [fn(c0 + k * math.pi / 2) / math.factorial(k) for k in ks]
    if key == "log":
        if c0 <= 0.0:
            raise series.DomainError(f"log of nonpositive value {c0}")
        return [math.log(c0)] + [(-1.0) ** (k + 1) / (k * c0**k)
                                 for k in r[1:]]
    if key == "recip":
        if c0 == 0.0:
            raise series.DomainError(
                "division by a series with zero constant term")
        return [(-1.0) ** k / c0 ** (k + 1) for k in r]
    if key == "sqrt":
        if c0 < 0.0:
            raise series.DomainError(f"sqrt of negative value {c0}")
        if c0 == 0.0:
            raise series.DomainError("sqrt is not smooth at 0; cannot expand")
        key = 0.5
    elif c0 <= 0.0:
        raise series.DomainError(f"{c0} raised to non-integer power {key}")
    return [_real_binom(key, k) * c0 ** np.float64(key - k) for k in ks]


TRIG_EDGES = [0.0, -0.0, 1e300, -1e300]
POSITIVE_EDGES = [1e-300, 5e-324, 1e300]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", ["exp", "sin", "cos", "log", "sqrt", "recip",
                                 0.5, -1.5, 2.5, -0.5])
def test_block_ladders_match_point_ladders(key):
    rng = np.random.default_rng(23)
    lo = -40.0 if key in ("exp", "sin", "cos") else 0.01
    block = rng.uniform(lo, 40.0, size=(7, 300))
    edges = TRIG_EDGES if key in ("sin", "cos") else POSITIVE_EDGES
    if key != "exp":
        block[0, :len(edges)] = edges
    got = series._ladder(key, block, 5)
    assert got.shape == (7, 300, 6)
    for idx in np.ndindex(7, 300):
        want = _point_ladder(key, float(block[idx]), 5)
        assert np.array_equal(_bits(got[idx]), _bits(want)), (key, idx)
        if idx[1] < 5:          # one series alone: a[..., 0] is a 0-d array
            one = series._ladder(key, block[idx + (...,)], 5)
            assert np.array_equal(_bits(one), _bits(want))


@pytest.mark.parametrize("key,first,later,message", [
    ("log", -3.0, -6.0, "log of nonpositive value -3.0"),
    ("sqrt", -3.0, 0.0, "sqrt of negative value -3.0"),
    (0.5, -3.0, -6.0, "-3.0 raised to non-integer power"),
    ("sqrt", 0.0, -6.0, "sqrt is not smooth at 0"),
    ("recip", 0.0, 0.0, "division by a series with zero constant term"),
], ids=["log", "sqrt", "power", "sqrt-zero", "recip"])
def test_block_ladder_names_the_first_failing_point(key, first, later,
                                                    message):
    block = np.ones((2, 3))
    block[0, 2], block[1, 2] = first, later         # batch positions 2 and 5
    with pytest.raises(series.DomainError, match=message):
        _point_ladder(key, first, 3)
    with pytest.raises(series.DomainError, match=message):
        series._ladder(key, block, 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lift", [
    lambda ctx, x: series.powc(ctx, x, 0.5),
    lambda ctx, x: series.analytic(ctx, "sqrt", x),
], ids=["power", "sqrt"])
def test_a_tiny_root_overflows_to_inf(lift):
    # the order-3 ladder term of x^0.5 at 1e-200, 1e500 / 16, is past the
    # largest float: the ladder overflows to inf and raises nothing
    ctx = context(1, 3)
    out = lift(ctx, series.coordinate(ctx, 0, 1e-200))
    assert not np.isfinite(out).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", ["exp", "sin", "cos", "log", "sqrt", "recip",
                                 0.5, -1.5, 2.5, -0.5])
def test_every_ladder_fails_closed_on_a_nonfinite_constant(key):
    # +inf, -inf and NaN give a DomainError, on -inf alone, or a ladder of
    # limits: all NaN from a NaN, and inf, 0 or NaN from an infinity;
    # never another exception.  The finite point beside them keeps its own
    for value in (math.inf, -math.inf, math.nan):
        try:
            got = series._ladder(key, np.array([0.5, value]), 3)
        except series.DomainError:
            assert value == -math.inf, (key, value)
            continue
        assert got.shape == (2, 4) and np.isfinite(got[0]).all()
        tail = got[1]
        if math.isnan(value):
            assert np.isnan(tail).all(), key
        else:
            assert np.all(~np.isfinite(tail) | (tail == 0.0)), (key, value)
            assert not np.isfinite(tail).all() or key in (
                "recip", "exp", -1.5, -0.5), (key, value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integer_powers_chain_to_three_then_square(monkeypatch):
    # a^k for k <= 3 is ((1*a)*a)*a, bit for bit; above, squares of a half
    # power, with O(log k) products, so a huge exponent lifts at once
    ctx = context(2, 3)
    a = series.coordinate(ctx, 0, 0.7) + 0.3 * series.coordinate(ctx, 1, 1.3)
    chain = series.const(ctx, 1.0)
    for k in range(4):
        assert np.array_equal(series.powc(ctx, a, k), chain)
        chain = series.mul(ctx, chain, a)
    a6 = series.powc(ctx, a, 6)
    half = series.powc(ctx, a, 3)
    assert np.array_equal(a6, series.mul(ctx, half, half))
    assert np.array_equal(series.powc(ctx, a, 13), series.mul(
        ctx, series.mul(ctx, a6, a6), a))
    calls = []
    real = series.mul
    monkeypatch.setattr(series, "mul",
                        lambda *args: calls.append(1) or real(*args))
    series.powc(ctx, a, 10**9)
    assert 0 < len(calls) <= 2 * (10**9).bit_length()
