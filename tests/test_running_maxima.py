"""A NaN that follows a finite value must survive every residual maximum.

Python's max() drops such a NaN, because NaN compares false against the
finite value kept so far; np.max keeps it.  Each case below puts a NaN
after a finite value into the residuals of one check or kernel and asserts
that the result, or the verdict built on it, is NaN.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from jetgauge import _suite_elasticity, elasticity, suites
from jetgauge._runner import _max_abs
from jetgauge.elasticity import (
    DisplacementSection, riemann_residual, torsor_equilibrium_check,
)
from jetgauge.expr import ExprMap
from jetgauge.groups import InconsistentGroupLaw, load_group_spec
from jetgauge.suites import SuiteConfig, run_suite

AFFINE = load_group_spec("affine")
NAN_AFTER_FINITE = np.array([[0.1, 0.2], [math.nan, 0.3]])


def _poisoned(real, poison, finite_calls):
    """real, with its output passed through poison after finite_calls calls."""
    calls = []

    def fn(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return out if len(calls) <= finite_calls else poison(out)
    return fn


def _suite_check(check, target, poison, finite_calls):
    """The elasticity record of check alone, with target poisoned."""
    def run(monkeypatch):
        real = getattr(_suite_elasticity, target)
        monkeypatch.setattr(_suite_elasticity, target,
                            _poisoned(real, poison, finite_calls))
        spec = [c for c in suites.SUITES["elasticity"] if c.id == check]
        monkeypatch.setitem(suites.SUITES, "elasticity", tuple(spec))
        record = run_suite("elasticity", SuiteConfig(seed=42)).records[0]
        assert not record.passed
        return record.max_residual
    return run


def _nan_moment(out):
    f, m = out
    return f, m * math.nan


def _nan_after_first(block):
    """block with every stack slice after the first set to NaN."""
    block = block.copy()
    block[1:] = math.nan
    return block


def _nan_moment_after_first(out):
    f, m = out
    return f, _nan_after_first(m)


def _torsor_gaps_nan_moment(monkeypatch):
    # finite force gaps first, then a NaN moment gap from the NaN moment load
    monkeypatch.setattr(elasticity, "adjoint_spencer",
                        _poisoned(elasticity.adjoint_spencer, _nan_moment, 0))
    gaps = torsor_equilibrium_check(_suite_elasticity.LINEAR_STATE,
                                    _suite_elasticity.PLANE_BOX)
    assert np.isfinite(gaps[:2]).all()
    return _max_abs(gaps)


def _nan_moment_gap(gaps):
    # the second state's moment gap follows its two finite force gaps
    return np.append(gaps[:2], math.nan)


CASES = {
    # each roster is one stacked block call: the later sections are NaN
    "suites.strain_kills_rigid_motions": _suite_check(
        "strain_kills_rigid_motions", "killing", _nan_after_first, 0),
    "suites.strain_compatibility": _suite_check(
        "strain_compatibility", "riemann_residual", _nan_after_first, 0),
    # one adjoint call: the moment gap follows the two finite force gaps
    "suites.equilibrium_equations": _suite_check(
        "equilibrium_equations", "adjoint_spencer", _nan_moment, 0),
    "suites.torsor_balance": _suite_check(
        "torsor_balance", "torsor_equilibrium_check", _nan_moment_gap, 1),
    "suites.couple_stress_symmetry": _suite_check(
        "couple_stress_symmetry", "adjoint_spencer",
        _nan_moment_after_first, 0),
    "elasticity.torsor_equilibrium_check": _torsor_gaps_nan_moment,
    "elasticity.riemann_residual.section": lambda _: _max_abs(riemann_residual(
        DisplacementSection.parse("x1^3 + x2, x1*x2^2"), NAN_AFTER_FINITE)),
    "elasticity.riemann_residual.strain": lambda _: _max_abs(riemann_residual(
        ExprMap.parse("x1^2*x2, x1*x2, x2^3", ["x1", "x2"]),
        NAN_AFTER_FINITE)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("site", sorted(CASES))
def test_nan_after_finite_value_survives(site, monkeypatch):
    assert math.isnan(CASES[site](monkeypatch))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_law_check_refuses_nan():
    # the identity checks are finite; the inverse checks after them are NaN
    nan_inverse = replace(AFFINE, inverse=ExprMap.parse(
        "1/a1 + 0*(1e200*1e200)*a1, 0 - a2/a1", ["a1", "a2"]))
    with pytest.raises(InconsistentGroupLaw, match="nan"):
        nan_inverse.validate()
