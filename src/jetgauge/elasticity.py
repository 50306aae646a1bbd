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

The one-dimensional analogue (scalar sigma and mu over x1, jet components
(xi, xi_x)) is included; its adjoint is d sigma = f, d mu + sigma = m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .expr import Bin, Call, ExprMap, Neg, Num, Pow, Var
from .quadrature import gauss_rule, tensor_rule
from .sampling import halton_points

Box = Sequence[Sequence[float]]

PLANE = ["x1", "x2"]
LINE = ["x1"]


class QuadratureTooCoarse(ValueError):
    """The Gauss order cannot integrate the polynomial integrand exactly."""


def _poly_degree(node) -> int | None:
    """Total polynomial degree of an expression tree, None if not polynomial."""
    if isinstance(node, Num):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return _poly_degree(node.arg)
    if isinstance(node, Pow):
        if not float(node.exponent).is_integer() or node.exponent < 0:
            return None
        base = _poly_degree(node.base)
        return None if base is None else base * int(node.exponent)
    if isinstance(node, Bin):
        a = _poly_degree(node.lhs)
        b = _poly_degree(node.rhs)
        if a is None or b is None:
            return None
        if node.op in "+-":
            return max(a, b)
        if node.op == "*":
            return a + b
        return a if b == 0 else None          # division by a constant only
    if isinstance(node, Call) and node.func == "neg":
        return _poly_degree(node.arg)
    return None


def map_degree(emap: ExprMap) -> int | None:
    degrees = [_poly_degree(e) for e in emap.exprs]
    if any(d is None for d in degrees):
        return None
    return max(degrees) if degrees else 0


def _check_order(order: int, state_maps: Sequence[ExprMap],
                 section_maps: Sequence[ExprMap]) -> None:
    """Degree guard: n-point Gauss is exact through degree 2n - 1.

    Every integrand below is a product of one state factor and one section
    factor, so the bound is the larger state degree plus the larger section
    degree.  Unknown (non-polynomial) degrees disable the guard.
    """
    state = [map_degree(m) for m in state_maps]
    section = [map_degree(m) for m in section_maps]
    if any(d is None for d in state + section):
        return
    need = max(state) + max(section)
    if 2 * order - 1 < need:
        raise QuadratureTooCoarse(
            f"order {order} is exact through degree {2 * order - 1}, "
            f"integrand degree is {need}")


def _blocks(emap: ExprMap, point: np.ndarray, order: int):
    """(value, jacobian, raw second derivatives) of a lift at one point."""
    lift = emap.taylor_lift(point, order)
    val = lift.value()
    jac = lift.jacobian() if order >= 1 else None
    if order < 2:
        return val, jac, None
    nv = len(emap.variables)
    d2 = np.empty((len(emap), nv, nv))
    ctx = lift.ctx
    for a in range(nv):
        for b in range(a, nv):
            mu = [0] * nv
            mu[a] += 1
            mu[b] += 1
            pos = ctx.pos(tuple(mu))
            raw = lift.coeffs[:, pos] * ctx.factorial[pos]
            d2[:, a, b] = raw
            d2[:, b, a] = raw
    return val, jac, d2


@dataclass(frozen=True)
class DisplacementSection:
    """Displacement field plus its independent lowered skew jet component.

    xi holds the two pointwise components, jet the single scalar xi_{1,2};
    the (2, 2) jet matrix is reconstructed skew, so its symmetry constraint
    cannot be violated by construction.  The metric is constant symmetric
    positive-definite and lowers indices; with the default identity the
    raised and lowered components coincide numerically.
    """

    xi: ExprMap
    jet: ExprMap
    metric: np.ndarray

    def __post_init__(self):
        if len(self.xi.variables) != 2 or len(self.xi) != 2:
            raise ValueError("xi must map x1, x2 to two components")
        if len(self.jet.variables) != 2 or len(self.jet) != 1:
            raise ValueError("jet must be a single component over x1, x2")
        omega = np.asarray(self.metric, float)
        if omega.shape != (2, 2) or np.max(np.abs(omega - omega.T)) > 1e-12:
            raise ValueError("metric must be a symmetric 2 x 2 matrix")
        if np.min(np.linalg.eigvalsh(omega)) <= 0.0:
            raise ValueError("metric must be positive-definite")
        object.__setattr__(self, "metric", omega)

    @classmethod
    def parse(cls, xi: str, jet: str = "0",
              metric: np.ndarray | None = None) -> "DisplacementSection":
        return cls(ExprMap.parse(xi, PLANE), ExprMap.parse(jet, PLANE),
                   np.eye(2) if metric is None else np.asarray(metric, float))

    def lowered_gradient(self, point: np.ndarray) -> np.ndarray:
        """G[i, k] = d_i xi_k with xi_k = omega_{kr} xi^r."""
        jac = self.xi.taylor_lift(point, 1).jacobian()
        return jac.T @ self.metric


def displacement_from_dict(data: dict) -> DisplacementSection:
    return DisplacementSection.parse(
        data["xi"], data.get("jet", "0"), data.get("metric"))


@dataclass(frozen=True)
class StressState:
    """Stress (no a-priori symmetry) and the independent couple components.

    sigma is stored (s11, s12, s21, s22); mu stores (mu^{1,12}, mu^{2,12}),
    the only independent couple slots once the trailing index pair is skew.
    """

    sigma: ExprMap
    mu: ExprMap
    label: str = "state"

    def __post_init__(self):
        if len(self.sigma.variables) != 2 or len(self.sigma) != 4:
            raise ValueError("sigma must map x1, x2 to four components")
        if len(self.mu.variables) != 2 or len(self.mu) != 2:
            raise ValueError("mu must map x1, x2 to two components")

    @classmethod
    def parse(cls, sigma: str, mu: str = "0, 0",
              label: str = "state") -> "StressState":
        return cls(ExprMap.parse(sigma, PLANE), ExprMap.parse(mu, PLANE),
                   label)

    def sigma_matrix(self, points: np.ndarray) -> np.ndarray:
        """sigma as (..., 2, 2) at a point (2,) or a block (..., 2)."""
        points = np.asarray(points, float)
        return self.sigma.eval(points).reshape(points.shape[:-1] + (2, 2))


def stress_state_from_dict(data: dict) -> StressState:
    return StressState.parse(data["sigma"], data.get("mu", "0, 0"),
                             data.get("label", "state"))


def load_stress_state(path: str | Path) -> StressState:
    with open(path, "r", encoding="utf-8") as handle:
        return stress_state_from_dict(json.load(handle))


def killing(section: DisplacementSection, samples: np.ndarray) -> np.ndarray:
    """Symmetrized lowered gradient: eps_{ij} = (G + G^T)_{ij} / 2.

    With a constant metric the derivative-of-metric term of the full
    operator drops, and twice eps is the metric variation along xi.
    """
    out = np.empty((len(samples), 2, 2))
    for s, x in enumerate(samples):
        g = section.lowered_gradient(np.asarray(x, float))
        out[s] = 0.5 * (g + g.T)
    return out


def riemann_residual(source, samples: np.ndarray) -> float:
    """max |d11 eps22 + d22 eps11 - 2 d12 eps12| over the samples.

    source is either an ExprMap with components (eps11, eps12, eps22) or a
    DisplacementSection, in which case eps = killing(section) and the
    residual is assembled from exact third derivatives of xi.  It vanishes
    identically on strains that come from a displacement.
    """
    resids = []
    if isinstance(source, DisplacementSection):
        omega = source.metric
        for x in samples:
            lift = source.xi.taylor_lift(np.asarray(x, float), 3)
            ctx = lift.ctx
            third = np.empty((2, 2, 2, 2))
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        mu = [0, 0]
                        mu[a] += 1
                        mu[b] += 1
                        mu[c] += 1
                        pos = ctx.pos(tuple(mu))
                        third[:, a, b, c] = lift.coeffs[:, pos] * ctx.factorial[pos]
            # d_ab eps_ij = (omega_rj third[r,a,b,i] + omega_ir third[r,a,b,j])/2
            def deps(a, b, i, j):
                return 0.5 * float(
                    omega[:, j] @ third[:, a, b, i]
                    + omega[i, :] @ third[:, a, b, j])
            resids.append(deps(0, 0, 1, 1) + deps(1, 1, 0, 0)
                          - 2.0 * deps(0, 1, 0, 1))
        # np.max, unlike a running max(), keeps a NaN
        return float(np.max(np.abs(resids), initial=0.0))
    if len(source.variables) != 2 or len(source) != 3:
        raise ValueError("strain map must hold (eps11, eps12, eps22)")
    for x in samples:
        _, _, d2 = _blocks(source, np.asarray(x, float), 2)
        resids.append(d2[2, 0, 0] + d2[0, 1, 1] - 2.0 * d2[1, 0, 1])
    return float(np.max(np.abs(resids), initial=0.0))


def spencer_elastic(section: DisplacementSection,
                    samples: np.ndarray) -> np.ndarray:
    """The six first-order components at each sample.

    Order: (D11, D12, D21, D22, J1, J2) with D_{ik} = d_i xi_k - xi_{i,k}
    and J_r = d_r xi_{1,2}.  The diagonal jets vanish by skewness, so the
    diagonal slots are plain derivatives; rigid sections (constant jet,
    matching linear displacement) are sent to zero.
    """
    out = np.empty((len(samples), 6))
    for s, x in enumerate(samples):
        point = np.asarray(x, float)
        jlift = section.jet.taylor_lift(point, 1)
        j = float(jlift.value()[0])
        d = section.lowered_gradient(point) - np.array([[0.0, j], [-j, 0.0]])
        jjac = jlift.jacobian()[0]
        out[s] = [d[0, 0], d[0, 1], d[1, 0], d[1, 1], jjac[0], jjac[1]]
    return out


def rigid_kernel_dimension(degree: int = 2, box: Box = ((-1.0, 1.0),) * 2,
                           npoints: int = 40, seed: int = 29,
                           metric: np.ndarray | None = None,
                           tol: float = 1e-8) -> int:
    """Kernel dimension of the six-component operator on a polynomial ansatz.

    Unknowns are the monomial coefficients of xi^1, xi^2 and the jet up to
    the given total degree; each sample contributes six linear rows.  The
    answer must be 3 (two translations and one rotation) for any degree at
    least 1: the pointwise part is forced linear and the jet constant.
    """
    omega = np.eye(2) if metric is None else np.asarray(metric, float)
    monos = [(a, b) for a in range(degree + 1) for b in range(degree + 1)
             if a + b <= degree]
    nm = len(monos)
    pts = halton_points(tuple(tuple(r) for r in box), npoints, seed)

    def mono_val(a, b, x):
        return x[0] ** a * x[1] ** b

    def mono_d(a, b, x, axis):
        if axis == 0:
            return 0.0 if a == 0 else a * x[0] ** (a - 1) * x[1] ** b
        return 0.0 if b == 0 else b * x[0] ** a * x[1] ** (b - 1)

    rows = []
    for x in pts:
        for i in range(2):
            for k in range(2):
                row = np.zeros(3 * nm)
                for col, (a, b) in enumerate(monos):
                    # d_i xi_k = omega_{kr} d_i xi^r contributes per component
                    row[col] += omega[0, k] * mono_d(a, b, x, i)
                    row[nm + col] += omega[1, k] * mono_d(a, b, x, i)
                    if i != k:
                        sign = 1.0 if (i, k) == (0, 1) else -1.0
                        row[2 * nm + col] -= sign * mono_val(a, b, x)
                rows.append(row)
        for axis in range(2):
            row = np.zeros(3 * nm)
            for col, (a, b) in enumerate(monos):
                row[2 * nm + col] = mono_d(a, b, x, axis)
            rows.append(row)
    matrix = np.array(rows)
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals <= tol * svals[0]))


def adjoint_spencer(state: StressState,
                    samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Load fields of the dual operator at the samples.

    f^1 = d1 s11 + d2 s21, f^2 = d1 s12 + d2 s22,
    m12 = d_r mu^{r,12} + s12 - s21, signs as they come out of the
    integration by parts in pairing_identity_check.
    """
    f = np.empty((len(samples), 2))
    m = np.empty(len(samples))
    for s, x in enumerate(samples):
        point = np.asarray(x, float)
        sval, sjac, _ = _blocks(state.sigma, point, 1)
        _, mjac, _ = _blocks(state.mu, point, 1)
        f[s, 0] = sjac[0, 0] + sjac[2, 1]      # d1 s11 + d2 s21
        f[s, 1] = sjac[1, 0] + sjac[3, 1]      # d1 s12 + d2 s22
        m[s] = mjac[0, 0] + mjac[1, 1] + sval[1] - sval[2]
    return f, m


@dataclass(frozen=True)
class PairingReport:
    lhs: float      # <(sigma, mu), D section>
    rhs: float      # <(f, m), (xi, jet)>

    @property
    def gap(self) -> float:
        # integration by parts with vanishing boundary terms gives
        # lhs = -rhs, so the defect of the adjoint is the sum
        return abs(self.lhs + self.rhs)


def pairing_identity_check(state: StressState, section: DisplacementSection,
                           box: Box, order: int = 6,
                           drop_couple_term: bool = False) -> PairingReport:
    """Exact-quadrature check that the load fields are the true adjoint.

    The section must carry a boundary-vanishing bump factor in all its
    components so the parts-free identity holds; with polynomial data and
    sufficient order both integrals are exact and the gap is roundoff.
    drop_couple_term removes the s12 - s21 term from m, a deliberate
    corruption that must produce a visible gap.
    """
    _check_order(order, (state.sigma, state.mu), (section.xi, section.jet))
    nodes, weights = tensor_rule(tuple(tuple(r) for r in box), order)
    lhs = rhs = 0.0
    fvals, mvals = adjoint_spencer(state, nodes)
    svals = state.sigma.eval(nodes)
    if drop_couple_term:
        mvals = mvals - (svals[:, 1] - svals[:, 2])
    comps = spencer_elastic(section, nodes)
    muvals = state.mu.eval(nodes)
    xivals = section.xi.eval(nodes)
    jvals = section.jet.eval(nodes)[:, 0]
    for idx, weight in enumerate(weights):
        lhs += weight * float(svals[idx] @ comps[idx, :4]
                              + muvals[idx] @ comps[idx, 4:])
        xival = section.metric @ xivals[idx]
        rhs += weight * float(fvals[idx] @ xival + mvals[idx] * jvals[idx])
    return PairingReport(lhs, rhs)


@dataclass(frozen=True)
class TorsorReport:
    force_gap: np.ndarray     # (2,) surface minus volume, per component
    momentum_gap: float

    @property
    def max_gap(self) -> float:
        # np.max, unlike max(), keeps a NaN in either gap
        return float(np.max([np.max(np.abs(self.force_gap)),
                             abs(self.momentum_gap)]))


def torsor_equilibrium_check(state: StressState, box: Box,
                             order: int = 8) -> TorsorReport:
    """Surface-vs-volume balance of forces and of the planar moment.

    Forces: integral of sigma^{ij} n_i over the box boundary minus the
    volume integral of f^j.  Moment: boundary integrand
    mu^{r,12} + x^1 sigma^{r2} - x^2 sigma^{r1} against n_r, minus the
    volume integral of m12 + x^1 f^2 - x^2 f^1.  Both vanish to quadrature
    precision because the loads are the divergences computed in
    adjoint_spencer; this is the integral form of the same equations.
    """
    (a1, b1), (a2, b2) = (tuple(map(float, r)) for r in box)

    def boundary(component):
        """Integrate component(points) @ n over the four edges; component
        takes the (nodes, 2) block of an edge."""
        total = 0.0
        for fixed_axis, value, sign in ((0, b1, 1.0), (0, a1, -1.0),
                                        (1, b2, 1.0), (1, a2, -1.0)):
            lo, hi = (a2, b2) if fixed_axis == 0 else (a1, b1)
            nodes, weights = gauss_rule(lo, hi, order)
            normal = np.zeros(2)
            normal[fixed_axis] = sign
            points = np.empty((len(nodes), 2))
            points[:, fixed_axis] = value
            points[:, 1 - fixed_axis] = nodes
            for weight, flux in zip(weights, component(points)):
                total += weight * float(flux @ normal)
        return total

    inodes, iweights = tensor_rule(((a1, b1), (a2, b2)), order)
    fvals, mvals = adjoint_spencer(state, inodes)

    force = np.empty(2)
    for j in range(2):
        surf = boundary(lambda p, j=j: state.sigma_matrix(p)[..., :, j])
        vol = float(iweights @ fvals[:, j])
        force[j] = surf - vol

    def moment_flux(points):
        sig = state.sigma_matrix(points)
        mu = state.mu.eval(points)
        return (mu + points[:, 0, None] * sig[..., :, 1]
                - points[:, 1, None] * sig[..., :, 0])

    surf = boundary(moment_flux)
    vol = float(iweights @ (mvals + inodes[:, 0] * fvals[:, 1]
                            - inodes[:, 1] * fvals[:, 0]))
    return TorsorReport(force, surf - vol)


def affine_1d_adjoint(sigma: ExprMap, mu: ExprMap,
                      samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-dimensional load fields: f = d sigma, m = d mu + sigma."""
    if len(sigma.variables) != 1 or len(sigma) != 1:
        raise ValueError("sigma must be a single component over x1")
    if len(mu.variables) != 1 or len(mu) != 1:
        raise ValueError("mu must be a single component over x1")
    f = np.empty(len(samples))
    m = np.empty(len(samples))
    for s, x in enumerate(samples):
        point = np.asarray(x, float).reshape(1)
        slift = sigma.taylor_lift(point, 1)
        mlift = mu.taylor_lift(point, 1)
        f[s] = slift.jacobian()[0, 0]
        m[s] = mlift.jacobian()[0, 0] + slift.value()[0]
    return f, m


def pairing_identity_1d(sigma: ExprMap, mu: ExprMap, xi: ExprMap,
                        jet: ExprMap, interval: Sequence[float],
                        order: int = 8) -> PairingReport:
    """1D analogue of pairing_identity_check over an interval.

    lhs pairs (sigma, mu) with (d xi - jet, d jet); rhs pairs the loads
    (f, m) with (xi, jet).  Both xi and jet must vanish at the interval
    ends (bump factors) so that lhs + rhs = 0 exactly.
    """
    _check_order(order, (sigma, mu), (xi, jet))
    lo, hi = float(interval[0]), float(interval[1])
    nodes, weights = gauss_rule(lo, hi, order)
    pts = nodes.reshape(-1, 1)
    f, m = affine_1d_adjoint(sigma, mu, pts)
    xvals, jvals = xi.eval(pts)[:, 0], jet.eval(pts)[:, 0]
    svals, muvals = sigma.eval(pts)[:, 0], mu.eval(pts)[:, 0]
    lhs = rhs = 0.0
    for idx, (point, weight) in enumerate(zip(pts, weights)):
        dxi = xi.taylor_lift(point, 1).jacobian()[0, 0]
        djet = jet.taylor_lift(point, 1).jacobian()[0, 0]
        lhs += weight * (svals[idx] * (dxi - jvals[idx]) + muvals[idx] * djet)
        rhs += weight * (f[idx] * xvals[idx] + m[idx] * jvals[idx])
    return PairingReport(lhs, rhs)
