import math

import numpy as np
import pytest

import jetgauge
from jetgauge import series
from jetgauge._multiindex import context


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
