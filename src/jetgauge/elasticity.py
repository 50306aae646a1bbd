"""Planar rigid-motion statics: strain, compatibility, and dual equilibrium.

The module works over a flat two-dimensional body with a constant metric.
Displacements carry an independent skew first-jet component alongside the
pointwise field, which is what separates the six-component first-order
operator implemented here from the classical symmetrized gradient.  The
formal adjoint of that operator produces the stress and couple-stress
balance equations; the integral checks in this file confirm the adjoint by
exact quadrature on polynomial data and confirm the balance by comparing
boundary and volume integrals over a box.

Conventions, fixed throughout:

* displacement components are expressions over x1, x2; the stored jet is
  the lowered component xi_{1,2} (so xi_{2,1} = -xi_{1,2} identically);
* stress sigma is stored row-major (s11, s12, s21, s22) with no symmetry
  imposed; the couple field mu stores the two independent slots
  (mu^{1,12}, mu^{2,12});
* load sign: the volume terms enter the balance statements with a minus,
  so surface minus volume integrals vanish in equilibrium.

The affine line needs no kernel of its own: with sigma = (s, s, 0, 0) and
mu = (m, 0) over x1 alone, adjoint_spencer gives f = (s', s') and
m12 = m' + s, the line's equations d sigma = f, d mu + sigma = m.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import series
from ._fixtures import STRESS_STATE, parse_map, read_fixture, validate
from ._multiindex import context, exponent_rows
from .expr import ExprMap, PolyMap
from .quadrature import gauss_rule, tensor_rule
from .sampling import halton_points

__all__ = [
    "QuadratureTooCoarse", "DisplacementSection", "StressState",
    "stress_state_from_dict", "load_stress_state", "killing",
    "riemann_residual", "spencer_elastic", "rigid_kernel_dimension",
    "adjoint_spencer", "pairing_identity_check", "torsor_equilibrium_check",
]

Box = Sequence[Sequence[float]]

PLANE = ("x1", "x2")
RIGID_POINTS = 40     # rigid_kernel_dimension's sample points


class QuadratureTooCoarse(ValueError):
    """The Gauss order cannot integrate the polynomial integrand exactly."""


def _check_order(order: int, state_maps: Sequence[ExprMap | PolyMap],
                 section_maps: Sequence[ExprMap | PolyMap]) -> None:
    """Degree guard: n-point Gauss is exact through degree 2n - 1.

    Every integrand below is a product of one state factor and one section
    factor, so the bound is the larger state degree plus the larger section
    degree.  Unknown (non-polynomial) degrees disable the guard; a
    PolyMap's degree is an upper bound, which keeps the guard safe.
    """
    state = [m.degree for m in state_maps]
    section = [m.degree for m in section_maps]
    if any(d is None for d in state + section):
        return
    need = max(state) + max(section)
    if 2 * order - 1 < need:
        raise QuadratureTooCoarse(
            f"order {order} is exact through degree {2 * order - 1}, "
            f"integrand degree is {need}")


@dataclass(frozen=True)
class DisplacementSection:
    """Displacement field plus its independent lowered skew jet component.

    xi holds the two pointwise components, jet the single scalar xi_{1,2};
    the (2, 2) jet matrix is reconstructed skew, so its symmetry constraint
    cannot be violated by construction.  The metric is constant symmetric
    positive-definite and lowers indices; with the default identity the
    raised and lowered components coincide numerically.
    """

    xi: ExprMap | PolyMap
    jet: ExprMap | PolyMap
    metric: np.ndarray

    def __post_init__(self):
        if len(self.xi.variables) != 2 or len(self.xi) != 2:
            raise ValueError("xi must map x1, x2 to two components")
        if len(self.jet.variables) != 2 or len(self.jet) != 1:
            raise ValueError("jet must be a single component over x1, x2")
        omega = np.asarray(self.metric, float)
        if omega.shape != (2, 2) or not np.isfinite(omega).all():
            raise ValueError("metric must be a finite 2 x 2 matrix")
        # fail closed: a comparison with NaN is false
        if not np.max(np.abs(omega - omega.T)) <= 1e-12:
            raise ValueError("metric must be a symmetric 2 x 2 matrix")
        if not np.min(np.linalg.eigvalsh(omega)) > 0.0:
            raise ValueError("metric must be positive-definite")
        object.__setattr__(self, "metric", omega)

    @classmethod
    def parse(cls, xi: str, jet: str = "0",
              metric: np.ndarray | None = None) -> "DisplacementSection":
        return cls(ExprMap.parse(xi, PLANE), ExprMap.parse(jet, PLANE),
                   np.eye(2) if metric is None else np.asarray(metric, float))

    def lowered_gradient(self, points: np.ndarray) -> np.ndarray:
        """G[..., i, k] = d_i xi_k with xi_k = omega_{kr} xi^r, at a point
        (2,) or a block (..., 2)."""
        jac = self.xi.taylor_lift(np.asarray(points, float), 1).jacobian()
        return np.einsum("...ri,rk->...ik", jac, self.metric)


@dataclass(frozen=True)
class StressState:
    """Stress (no a-priori symmetry) and the independent couple components.

    sigma is stored (s11, s12, s21, s22); mu stores (mu^{1,12}, mu^{2,12}),
    the only independent couple slots once the trailing index pair is skew.
    """

    sigma: ExprMap | PolyMap
    mu: ExprMap | PolyMap
    label: str = "state"

    def __post_init__(self):
        if len(self.sigma.variables) != 2 or len(self.sigma) != 4:
            raise ValueError("sigma must map x1, x2 to four components")
        if len(self.mu.variables) != 2 or len(self.mu) != 2:
            raise ValueError("mu must map x1, x2 to two components")

    @classmethod
    def parse(cls, sigma: str, mu: str = "0, 0", label: str = "state",
              what: str = "stress state") -> "StressState":
        """A parse error names what and the fixture key: sigma or mu."""
        return cls(parse_map(sigma, PLANE, what, "sigma", 4),
                   parse_map(mu, PLANE, what, "mu", 2), label)

    def sigma_matrix(self, points: np.ndarray) -> np.ndarray:
        """sigma as (..., 2, 2) at a point (2,) or a block (..., 2)."""
        points = np.asarray(points, float)
        return self.sigma.eval(points).reshape(points.shape[:-1] + (2, 2))


def stress_state_from_dict(data: dict) -> StressState:
    what = "stress fixture"
    return StressState.parse(**validate(data, STRESS_STATE, what), what=what)


def load_stress_state(path: str | Path) -> StressState:
    return stress_state_from_dict(read_fixture(path))


def killing(section: DisplacementSection, samples: np.ndarray) -> np.ndarray:
    """Symmetrized lowered gradient: eps_{ij} = (G + G^T)_{ij} / 2.

    With a constant metric the derivative-of-metric term of the full
    operator drops, and twice eps is the metric variation along xi.
    """
    g = section.lowered_gradient(samples)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def riemann_residual(source, samples: np.ndarray) -> np.ndarray:
    """d11 eps22 + d22 eps11 - 2 d12 eps12 at each sample.

    source is either an ExprMap with components (eps11, eps12, eps22) or a
    DisplacementSection, in which case eps = killing(section) and the
    residual is assembled from exact third derivatives of xi.  It vanishes
    identically on strains that come from a displacement.
    """
    samples = np.asarray(samples, float)
    if isinstance(source, DisplacementSection):
        omega = source.metric
        third = source.xi.taylor_lift(samples, 3).derivative(3)
        # deps[..., a, b, i, j] = d_ab eps_ij
        #   = (omega_rj third[r,a,b,i] + omega_ir third[r,a,b,j]) / 2
        deps = 0.5 * (np.einsum("rj,...rabi->...abij", omega, third)
                      + np.einsum("ir,...rabj->...abij", omega, third))
        resids = (deps[..., 0, 0, 1, 1] + deps[..., 1, 1, 0, 0]
                  - 2.0 * deps[..., 0, 1, 0, 1])
    else:
        if len(source.variables) != 2 or len(source) != 3:
            raise ValueError("strain map must hold (eps11, eps12, eps22)")
        d2 = source.taylor_lift(samples, 2).derivative(2)
        resids = d2[..., 2, 0, 0] + d2[..., 0, 1, 1] - 2.0 * d2[..., 1, 0, 1]
    return resids


def spencer_elastic(section: DisplacementSection,
                    samples: np.ndarray) -> np.ndarray:
    """The six first-order components at each sample.

    Order: (D11, D12, D21, D22, J1, J2) with D_{ik} = d_i xi_k - xi_{i,k}
    and J_r = d_r xi_{1,2}.  The diagonal jets vanish by skewness, so the
    diagonal slots are plain derivatives; rigid sections (constant jet,
    matching linear displacement) are sent to zero.

    This is series.spencer on the Euclidean system's section of order 1:
    slots omega_{kr} xi^r at row 0, the jet at component 2, row e1, minus
    the jet at component 1, row e2, and zero second jets.  D_ik is read at
    row 0 and J_r at component 2, row e1.
    """
    samples = np.asarray(samples, float)
    xi = section.xi.taylor_lift(samples, 1).coeffs
    j = section.jet.taylor_lift(samples, 1).coeffs[..., 0, :]
    tab = np.zeros(np.broadcast_shapes(xi.shape[:-2], j.shape[:-1])
                   + (2, 6, 3))
    tab[..., 0, :] = np.einsum("...rw,rk->...kw", xi, section.metric)
    tab[..., 1, 1, :], tab[..., 0, 2, :] = j, -j
    d = series.spencer(context(2, 1), tab, 1)[..., 0]     # [..., i, k, row]
    return np.concatenate([d[..., 0].reshape(d.shape[:-3] + (4,)),
                           d[..., 1, 1]], axis=-1)


def rigid_kernel_dimension(degree: int = 2, seed: int = 29,
                           metric: np.ndarray | None = None) -> int:
    """Kernel dimension of the six-component operator on a polynomial ansatz.

    Unknowns are the monomial coefficients of xi^1, xi^2 and the jet up to
    the given total degree; each of RIGID_POINTS samples in [-1, 1]^2
    contributes six linear rows, and a singular value at most 1e-8 times
    the largest counts as zero.  The answer must be 3 (two translations
    and one rotation) for any degree at least 1: the pointwise part is
    forced linear and the jet constant.  The columns are spencer_elastic
    on the unit sections, one stacked section in all.
    """
    pts = halton_points(((-1.0, 1.0),) * 2, RIGID_POINTS, seed)
    nm = len(exponent_rows(2, degree))
    # unit section u * nm + b puts x^b in xi^1, xi^2 or the jet for u = 0, 1, 2
    units = np.eye(3 * nm).reshape(3 * nm, 1, 3, nm)
    section = DisplacementSection(
        PolyMap(PLANE, degree, units[..., :2, :]),
        PolyMap(PLANE, degree, units[..., 2:, :]),
        np.eye(2) if metric is None else metric)
    # rows p * 6 + component, columns (unknown, monomial)
    matrix = np.moveaxis(spencer_elastic(section, pts), 0, -1).reshape(
        -1, 3 * nm)
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals <= 1e-8 * svals[0]))


def adjoint_spencer(state: StressState,
                    samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Load fields of the dual operator at the samples.

    f^1 = d1 s11 + d2 s21, f^2 = d1 s12 + d2 s22,
    m12 = d_r mu^{r,12} + s12 - s21, signs as they come out of the
    integration by parts in pairing_identity_check.
    """
    samples = np.asarray(samples, float)
    slift = state.sigma.taylor_lift(samples, 1)
    sval, sjac = slift.value(), slift.jacobian()
    mjac = state.mu.taylor_lift(samples, 1).jacobian()
    f = np.stack([sjac[..., 0, 0] + sjac[..., 2, 1],     # d1 s11 + d2 s21
                  sjac[..., 1, 0] + sjac[..., 3, 1]],    # d1 s12 + d2 s22
                 axis=-1)
    m = (mjac[..., 0, 0] + mjac[..., 1, 1] + sval[..., 1] - sval[..., 2])
    return f, m


def pairing_identity_check(state: StressState, section: DisplacementSection,
                           box: Box, order: int = 6) -> tuple[float, float]:
    """Exact-quadrature check that the load fields are the true adjoint.

    Returns (lhs, rhs): the pairing <(sigma, mu), D section> and the load
    pairing <(f, m), (xi, jet)>.  The section must carry a
    boundary-vanishing bump factor in all its components, so integration
    by parts gives lhs = -rhs; with polynomial data and sufficient order
    both integrals are exact and lhs + rhs is roundoff.  Each integral is
    one einsum over the quadrature weights.
    """
    _check_order(order, (state.sigma, state.mu), (section.xi, section.jet))
    nodes, weights = tensor_rule(tuple(tuple(r) for r in box), order)
    fvals, mvals = adjoint_spencer(state, nodes)
    # (sigma, mu) against the six components; (f, m) against (xi_k, jet)
    duals = np.concatenate([state.sigma.eval(nodes), state.mu.eval(nodes)],
                           axis=-1)
    loads = np.concatenate([fvals, mvals[:, None]], axis=-1)
    lowered = np.einsum("kr,qr->qk", section.metric, section.xi.eval(nodes))
    fields = np.concatenate([lowered, section.jet.eval(nodes)], axis=-1)
    lhs = np.einsum("q,qc,qc->", weights, duals,
                    spencer_elastic(section, nodes))
    rhs = np.einsum("q,qc,qc->", weights, loads, fields)
    return float(lhs), float(rhs)


def torsor_equilibrium_check(state: StressState, box: Box,
                             order: int = 8) -> np.ndarray:
    """Surface-vs-volume balance of forces and of the planar moment.

    Forces: integral of sigma^{ij} n_i over the box boundary minus the
    volume integral of f^j.  Moment: boundary integrand
    mu^{r,12} + x^1 sigma^{r2} - x^2 sigma^{r1} against n_r, minus the
    volume integral of m12 + x^1 f^2 - x^2 f^1.  Both vanish to quadrature
    precision because the loads are the divergences computed in
    adjoint_spencer; this is the integral form of the same equations.
    Returns the surface minus volume integrals (force 1, force 2, moment).
    """
    (a1, b1), (a2, b2) = (tuple(map(float, r)) for r in box)
    # the edges x1 = b1, x1 = a1, x2 = b2, x2 = a2 as one (4, order, 2)
    # block of Gauss nodes, with their weights and outward normals
    points, weights = np.empty((4, order, 2)), np.empty((4, order))
    normals = np.zeros((4, 2))
    for e, (axis, value, sign) in enumerate(((0, b1, 1.0), (0, a1, -1.0),
                                             (1, b2, 1.0), (1, a2, -1.0))):
        lo, hi = (a2, b2) if axis == 0 else (a1, b1)
        points[e, :, 1 - axis], weights[e] = gauss_rule(lo, hi, order)
        points[e, :, axis] = value
        normals[e, axis] = sign
    sig = state.sigma_matrix(points)
    # the boundary integrands of force 1, force 2 and the moment
    fluxes = (sig[..., :, 0], sig[..., :, 1],
              state.mu.eval(points) + points[..., 0, None] * sig[..., :, 1]
              - points[..., 1, None] * sig[..., :, 0])
    surf = np.zeros(3)
    for c, flux in enumerate(fluxes):
        for e in range(4):
            surf[c] += np.einsum("q,qr,r->", weights[e], flux[e], normals[e])

    inodes, iweights = tensor_rule(((a1, b1), (a2, b2)), order)
    fvals, mvals = adjoint_spencer(state, inodes)
    return surf - np.array([
        np.einsum("q,q->", iweights, fvals[:, 0]),
        np.einsum("q,q->", iweights, fvals[:, 1]),
        np.einsum("q,q->", iweights, mvals + inodes[:, 0] * fvals[:, 1]
                  - inodes[:, 1] * fvals[:, 0])])
