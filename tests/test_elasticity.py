import numpy as np
import pytest

from jetgauge.elasticity import (
    DisplacementSection, QuadratureTooCoarse, StressState, adjoint_spencer,
    affine_1d_adjoint, displacement_from_dict, killing, load_stress_state,
    map_degree, pairing_identity_1d, pairing_identity_check, riemann_residual,
    rigid_kernel_dimension, spencer_elastic,
    stress_state_from_dict, torsor_equilibrium_check,
)
from jetgauge.expr import ExprMap
from jetgauge.sampling import halton_points

PTS = halton_points(((-0.8, 0.8), (-0.8, 0.8)), 9, 31)
PTS1 = halton_points(((-0.9, 0.9),), 7, 19)
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
    assert riemann_residual(sec, PTS) < 1e-13


def test_riemann_hand_value_and_constant():
    strained = ExprMap.parse("x2^2, 0, 0", ["x1", "x2"])
    assert abs(riemann_residual(strained, PTS) - 2.0) < 1e-13
    const = ExprMap.parse("0.3, 0.1, 0 - 0.2", ["x1", "x2"])
    assert riemann_residual(const, PTS) < 1e-14


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


def test_rigid_kernel_dimension_is_three():
    for degree in (1, 2, 3):
        assert rigid_kernel_dimension(degree=degree) == 3


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


def test_pairing_identity_exact_on_polynomials():
    state = StressState.parse(
        "0.4*x1^2 - x2 + 0.7, 1.2*x1*x2 + 0.3, 0.5*x2^2 - 0.8*x1, x1 + x2 - 0.2",
        "0.6*x1^2 + x2, 0.9*x1*x2 - 0.4")
    sec = DisplacementSection.parse(
        f"({BUMP}) * (0.3 + x1 - 0.5*x2^2), ({BUMP}) * (x2 + 0.2*x1^2)",
        f"({BUMP}) * (0.7 - x1*x2)")
    rep = pairing_identity_check(state, sec, BOX, order=9)
    assert abs(rep.lhs) > 0.1                    # not vacuous
    assert rep.gap < 1e-12
    broken = pairing_identity_check(state, sec, BOX, order=9,
                                    drop_couple_term=True)
    assert broken.gap > 1e-2
    with pytest.raises(QuadratureTooCoarse):
        pairing_identity_check(state, sec, BOX, order=5)


def test_degree_walker():
    assert map_degree(ExprMap.parse("x1^2 * x2 + 1", ["x1", "x2"])) == 3
    assert map_degree(ExprMap.parse("sin(x1)", ["x1", "x2"])) is None
    assert map_degree(ExprMap.parse("x1 / 2", ["x1", "x2"])) == 1


def test_torsor_balance():
    lin = StressState.parse("x1, 0, 0, x2")
    f, _ = adjoint_spencer(lin, PTS[:3])
    assert np.max(np.abs(f - 1.0)) < 1e-14       # loads (1, 1)
    rep = torsor_equilibrium_check(lin, BOX, order=8)
    assert rep.max_gap < 1e-12
    rand = StressState.parse(
        "0.2*x1^2*x2 - x2^2, x1*x2 + 0.4, 0.1*x1^3 - x2, 0.7*x2^2 + x1*x2",
        "x1^2 - 0.5*x2^2, 0.3*x1*x2 + x2")
    assert torsor_equilibrium_check(rand, BOX, order=8).max_gap < 1e-12


def test_affine_1d_adjoint_hand_values():
    sig = ExprMap.parse("x1", ["x1"])
    mu0 = ExprMap.parse("0", ["x1"])
    f, m = affine_1d_adjoint(sig, mu0, PTS1)
    assert np.max(np.abs(f - 1.0)) < 1e-14
    assert np.max(np.abs(m - PTS1[:, 0])) < 1e-14
    sigc = ExprMap.parse("1.7", ["x1"])
    f, m = affine_1d_adjoint(sigc, mu0, PTS1)
    assert np.max(np.abs(f)) < 1e-14
    assert np.max(np.abs(m - 1.7)) < 1e-14
    mu2 = ExprMap.parse("x1^2", ["x1"])
    sig0 = ExprMap.parse("0", ["x1"])
    f, m = affine_1d_adjoint(sig0, mu2, PTS1)
    assert np.max(np.abs(f)) < 1e-14
    assert np.max(np.abs(m - 2.0 * PTS1[:, 0])) < 1e-14


def test_pairing_identity_1d():
    sig = ExprMap.parse("x1^2 - 0.4*x1", ["x1"])
    mu = ExprMap.parse("0.3*x1^3", ["x1"])
    bump1 = "(x1 + 1)^2 * (1 - x1)^2"
    xi = ExprMap.parse(f"({bump1}) * (0.4 + x1^2)", ["x1"])
    jet = ExprMap.parse(f"({bump1}) * (x1 - 0.3)", ["x1"])
    rep = pairing_identity_1d(sig, mu, xi, jet, (-1.0, 1.0), order=8)
    assert abs(rep.lhs) > 0.1
    assert rep.gap < 1e-13
    with pytest.raises(QuadratureTooCoarse):
        pairing_identity_1d(sig, mu, xi, jet, (-1.0, 1.0), order=3)


def test_json_loaders(tmp_path):
    sec = displacement_from_dict(
        {"xi": "x2, 0 - x1", "jet": "0 - 1", "metric": [[1, 0], [0, 1]]})
    assert np.max(np.abs(spencer_elastic(sec, PTS))) < 1e-14
    state = stress_state_from_dict({"sigma": "0, 1, 0 - 1, 0",
                                    "label": "skew"})
    assert state.label == "skew"
    path = tmp_path / "state.json"
    path.write_text('{"sigma": "x1, 0, 0, x2", "mu": "0, 0"}')
    loaded = load_stress_state(path)
    assert torsor_equilibrium_check(loaded, BOX).max_gap < 1e-12


def test_section_validation():
    with pytest.raises(ValueError):
        DisplacementSection.parse("x1, x2", metric=[[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        DisplacementSection.parse("x1, x2", metric=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        StressState.parse("x1, x2")                  # needs four components
