"""Finite-dimensional Lie groups in a single chart: gauge fields built from
group-valued maps, their curvature, variations, and dual residuals.

Conventions.  Composition m and inverse come as expression maps over chart
coordinates a1..ap, b1..bp.  The left form matrix at a is omega(a) =
(dm(a, b)/db at b = e)^(-1); a body gauge field is A_i = omega(a(x)) d_i a.
Structure constants follow the action convention: [l, m]^tau =
c^tau_{rho sigma} l^rho m^sigma with c read off the chart as

    c^tau_{rho sigma} = d2 m^tau / da^sigma db^rho - d2 m^tau / da^rho db^sigma

at (e, e), which matches the bracket of action generator fields and makes
the curvature of every pulled-back field vanish identically.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from importlib import resources
import numpy as np

from . import series
from ._fixtures import GROUP, parse_map, read_fixture, validate
from ._multiindex import context, raised_rows
from .expr import ExprMap, PolyMap, TaylorMap
from .sampling import halton_points

__all__ = [
    "InconsistentGroupLaw", "NotInjectiveYet", "GroupAction", "LieGroupSpec",
    "Grid", "GaugeField", "load_group_spec", "builtin_group",
    "maurer_cartan_pullback", "right_pullback", "curvature", "lift_curvature",
    "variation_body", "variation_space", "variation_body_fd",
    "variation_space_fd",
    "linear_gauge_dd", "spencer_from_action",
]


JACOBI_TOL = 1e-8
RANK_TOL = 1e-8


class InconsistentGroupLaw(ValueError):
    """Group axioms or the Jacobi identity fail beyond tolerance."""


class NotInjectiveYet(ValueError):
    """The action's section map has deficient rank at this jet order."""


@dataclass(frozen=True)
class GroupAction:
    dim: int
    box: tuple[tuple[float, float], ...]
    generators: tuple[ExprMap, ...]   # one map per group parameter


@dataclass(frozen=True)
class LieGroupSpec:
    label: str
    dim: int
    identity: np.ndarray
    box: tuple[tuple[float, float], ...]
    compose: ExprMap
    inverse: ExprMap
    action: GroupAction | None = None

    def mul(self, a, b) -> np.ndarray:
        """Products of points (p,) or blocks (..., p), which broadcast."""
        a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
        return self.compose.eval(np.concatenate([a, b], axis=-1))

    def inv(self, a) -> np.ndarray:
        return self.inverse.eval(np.asarray(a, dtype=float))

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        return halton_points(self.box, count, seed)

    def validate(self, tol: float = 1e-9) -> None:
        """The group axioms on 8 samples, checked as one block; the error
        names the first failing sample.  The products take two compose
        evaluations, and each point keeps its one-point bits."""
        a = self.sample_points(8, seed=20210)
        b, c = np.roll(a, -3, axis=0), np.roll(a, -5, axis=0)
        e = np.broadcast_to(self.identity, a.shape)
        ainv = self.inv(a)
        ae, ea, a_ainv, ainv_a, bc, ab = self.mul(
            np.stack([a, e, a, ainv, b, a]), np.stack([e, a, ainv, a, c, b]))
        a_bc, ab_c = self.mul(np.stack([a, ab]), np.stack([bc, c]))
        checks = np.stack([ae - a, ea - a, a_ainv - e, ainv_a - e,
                           a_bc - ab_c])
        # np.max, unlike max(), keeps a NaN, and a NaN is no group law
        worst = np.max(np.abs(checks), axis=(0, 2))
        bad = np.flatnonzero(~(worst <= tol))
        if bad.size:
            k = int(bad[0])
            raise InconsistentGroupLaw(
                f"{self.label}: group axioms violated by {worst[k]:.3e} at sample {k}")

    def structure_constants(self) -> np.ndarray:
        """c[tau, rho, sigma], computed on first use and shared read-only;
        a law that fails the Jacobi identity raises on every call."""
        return self._structure_constants

    @functools.cached_property
    def _structure_constants(self) -> np.ndarray:
        p = self.dim
        lift = self.compose.taylor_lift(np.concatenate([self.identity, self.identity]), 2)
        mixed = lift.derivative(2)[:, :p, p:]   # [tau, sigma, rho] = d2 m / da db
        c = np.swapaxes(mixed, 1, 2) - mixed
        resid = jacobi_residual(c)
        if not resid <= JACOBI_TOL:  # a NaN residual is no Lie algebra either
            raise InconsistentGroupLaw(
                f"{self.label}: Jacobi residual {resid:.3e} exceeds {JACOBI_TOL}")
        c.flags.writeable = False
        return c


def jacobi_residual(c: np.ndarray) -> float:
    """max |[[e_a, e_b], e_d] + [[e_b, e_d], e_a] + [[e_d, e_a], e_b]|
    over every a, b, d at once; np.max keeps a NaN."""
    # nested[t, a, b, d] = [[e_a, e_b], e_d]^t = c^t_{ud} c^u_{ab}
    nested = np.einsum("tud,uab->tabd", c, c)
    total = (nested + nested.transpose(0, 3, 1, 2)
             + nested.transpose(0, 2, 3, 1))
    return float(np.max(np.abs(total), initial=0.0))


def load_group_spec(name: str) -> LieGroupSpec:
    """A fixture that read_fixture finds, else a bundled chart's name."""
    return group_spec_from_dict(read_fixture(name, bundled=True))


@functools.cache
def builtin_group(name: str) -> LieGroupSpec:
    """A bundled chart, read, validated and given its structure constants
    once per process, then shared read-only; no fixture file shadows it."""
    text = (resources.files("jetgauge.fixtures") / f"{name}.json").read_text()
    return group_spec_from_dict(json.loads(text))


def group_spec_from_dict(data: dict) -> LieGroupSpec:
    what = "group fixture"
    v = validate(data, GROUP, what)
    p = v["dim"]
    avars = [f"a{k + 1}" for k in range(p)]
    bvars = [f"b{k + 1}" for k in range(p)]
    action = v["action"]
    if action is not None:
        nact = action["dim"]
        xvars = [f"x{k + 1}" for k in range(nact)]
        action = GroupAction(nact, tuple(map(tuple, action["box"])), tuple(
            parse_map(text, xvars, what, f"action.generators[{i}]", nact)
            for i, text in enumerate(action["generators"])))
    spec = LieGroupSpec(
        label=v["label"],
        dim=p,
        identity=np.array(v["identity"], dtype=float),
        box=tuple(map(tuple, v["box"])),
        compose=parse_map(v["compose"], avars + bvars, what, "compose", p),
        inverse=parse_map(v["inverse"], avars, what, "inverse", p),
        action=action,
    )
    spec.identity.flags.writeable = False
    spec.validate()
    return spec


@dataclass(frozen=True)
class Grid:
    box: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.box)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.box, self.counts)]

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class GaugeField:
    """Lie-algebra valued one-form pulled back by a gauging a(x).

    The field keeps its gauging, so values, curvature and variations all
    come from exact lifts of a(x); the grid holds the nodes curvature is
    reported on.
    """

    spec: LieGroupSpec
    grid: Grid
    form: str                            # "body" | "space"
    gauging: ExprMap | PolyMap

    def value_at(self, x) -> np.ndarray:
        """A at a point (n,), or at each point of a block (..., n)."""
        return _pullback(self.spec, self.gauging, np.asarray(x, float),
                         self.form)[0]


def _with_identity(spec: LieGroupSpec, a: np.ndarray, first: bool) -> np.ndarray:
    """Points (a, e) of the composition's chart, or (e, a) when not first."""
    e = np.broadcast_to(spec.identity, np.shape(a))
    return np.concatenate([a, e] if first else [e, a], axis=-1)


def _translation_matrix(spec: LieGroupSpec, a: np.ndarray,
                        body: bool) -> np.ndarray:
    """L(a) = dm/db at (a, e), whose inverse is omega(a); when not body,
    R(a) = dm/d(first slot) at (e, a).  A block of points a (..., p) gives
    one matrix per point (..., p, p)."""
    p = spec.dim
    jac = spec.compose.taylor_lift(_with_identity(spec, a, body), 1).jacobian()
    return jac[..., p:] if body else jac[..., :p]


def _pullback(spec: LieGroupSpec, gauging: ExprMap | PolyMap,
              x: np.ndarray, form: str) -> tuple[np.ndarray, np.ndarray]:
    """Gauge field values at points x (..., n), lifted in one block;
    returns (A (..., p, n), a-value (..., p))."""
    lift = gauging.taylor_lift(x, 1)
    a = lift.value()
    da = lift.jacobian()              # (..., p, n)
    mat = _translation_matrix(spec, a, form == "body")
    return np.linalg.solve(mat, da), a


def maurer_cartan_pullback(spec: LieGroupSpec, gauging: ExprMap | PolyMap,
                           grid: Grid) -> GaugeField:
    """Body field A = omega(a(x)) da(x) over the grid."""
    return GaugeField(spec, grid, "body", gauging)


def right_pullback(spec: LieGroupSpec, gauging: ExprMap | PolyMap,
                   grid: Grid) -> GaugeField:
    """Space field B = da(x) a(x)^(-1) over the grid."""
    return GaugeField(spec, grid, "space", gauging)


def _translation_jet(spec: LieGroupSpec, a0: np.ndarray,
                     body: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """L0[t,s] = dm^t/db^s and D2[t,s,nu] = d2 m^t/da^nu db^s at (a0, e),
    with the leading axes of a block of points a0 (..., p); when not body,
    the same with the slots swapped, at (e, a0)."""
    p = spec.dim
    hi, lo = slice(p, None), slice(0, p)
    mat, dep = (hi, lo) if body else (lo, hi)
    mlift = spec.compose.taylor_lift(_with_identity(spec, a0, body), 2)
    return mlift.jacobian()[..., mat], mlift.derivative(2)[..., mat, dep]


def _gauge_derivatives(spec: LieGroupSpec, form: str,
                       lift: TaylorMap) -> tuple[np.ndarray, np.ndarray]:
    """(A (..., p, n), dA (..., p, n, n)) with dA[..., t,i,j] = d_i A^t_j,
    exact, from an order-2 lift of a gauging with any leading axes, such
    as a stack of gaugings at the same points: the compose lift and the
    inverse run once on it all, and every product is one einsum."""
    da = lift.jacobian()                            # (..., p, n)
    d2a = lift.derivative(2)                        # [t, i, j] = d_ij a^t
    # The translation matrix is dm in one slot while a(x) occupies the
    # other, so its x-derivative flows through that other slot:
    # dmat[t, s, nu] = d(mat[t,s])/da^nu
    mat, dmat = _translation_jet(spec, lift.value(), form == "body")
    inv = np.linalg.inv(mat)
    aval = np.einsum("...ts,...sj->...tj", inv, da)   # (..., p, n), columns j
    # d_i mat[u, s] = dmat[u, s, nu] d_i a^nu
    dmat_x = np.einsum("...usn,...ni->...usi", dmat, da)
    dA = (np.einsum("...ts,...sij->...tij", inv, d2a)
          - np.einsum("...tu,...usi,...sj->...tij", inv, dmat_x, aval))
    return aval, dA


def curvature(spec: LieGroupSpec, field: GaugeField) -> np.ndarray:
    """F^t_{ij} = d_i A^t_j - d_j A^t_i - c^t_{rs} A^r_i A^s_j at the grid
    nodes, (nodes, p, pairs) over the pairs i < j in lexicographic order."""
    lift = field.gauging.taylor_lift(field.grid.nodes(), 2)
    return lift_curvature(spec, field.form, lift)


def lift_curvature(spec: LieGroupSpec, form: str,
                   lift: TaylorMap) -> np.ndarray:
    """`curvature` of the gauge field of that form from an order-2 lift of
    its gauging, (..., p, pairs) over the lift's leading axes: a stack of
    gaugings lifted at the same nodes gives each one's curvature."""
    c = spec.structure_constants()
    aval, da = _gauge_derivatives(spec, form, lift)
    pairs = tuple(itertools.combinations(range(aval.shape[-1]), 2))
    out = np.zeros(aval.shape[:-1] + (len(pairs),))
    for k, (i, j) in enumerate(pairs):
        quad = np.einsum("trs,...r,...s->...t", c, aval[..., :, i],
                         aval[..., :, j])
        out[..., :, k] = da[..., :, i, j] - da[..., :, j, i] - quad
    return out


def _group_exp_series(spec: LieGroupSpec, ctx, lam_series: np.ndarray,
                      eps) -> np.ndarray:
    """Series-valued exponential: x-jet of exp(eps*lam(x)), one RK4 step.

    The translation matrix is expanded to first order around each stage
    value; the stage deviations are O(eps), so the neglected terms enter
    the result at O(eps^3), below the O(eps^5) RK4 floor callers rely on
    only through the finite-difference quotient.  lam_series (..., p,
    count) may carry a block of points, and eps an array that broadcasts
    against it, such as (E, 1, 1, 1) for a (M, p, count) block; the RK4
    stages run in lockstep.
    """
    p = spec.dim
    state = np.zeros(lam_series.shape[:-2] + (p, ctx.count))
    state[..., 0] = spec.identity

    def vel(st: np.ndarray) -> np.ndarray:
        L0, D2 = _translation_jet(spec, st[..., 0])
        delta = st.copy()
        delta[..., 0] = 0.0
        # entry[t, s] = L0[t, s] + D2[t, s, nu] delta^nu as series, where a
        # zero coefficient adds nothing, not even a signed zero or 0 * inf
        entry = series.const(ctx, L0)
        for nu in range(p):
            coef = D2[..., nu, None]
            entry = np.where(coef != 0.0, entry
                             + coef * delta[..., None, None, nu, :], entry)
        out = np.zeros_like(st)
        for s in range(p):
            out += series.mul(ctx, entry[..., s, :], lam_series[..., None, s, :])
        return out

    k1 = vel(state)
    k2 = vel(state + 0.5 * eps * k1)
    k3 = vel(state + 0.5 * eps * k2)
    k4 = vel(state + eps * k3)
    return state + (eps / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def variation_body(spec: LieGroupSpec, field: GaugeField, lam: ExprMap,
                   samples: np.ndarray) -> np.ndarray:
    """Exact body variation (dlam - [A, lam])^t_i at each sample."""
    return _variation(spec, field, lam, samples, -1.0)


def variation_space(spec: LieGroupSpec, field: GaugeField, mu: ExprMap,
                    samples: np.ndarray) -> np.ndarray:
    """Exact space variation (dmu + [B, mu])^t_i at each sample."""
    return _variation(spec, field, mu, samples, 1.0)


def _variation(spec: LieGroupSpec, field: GaugeField, lam: ExprMap,
               samples: np.ndarray, sign: float) -> np.ndarray:
    c = spec.structure_constants()
    samples = np.asarray(samples, float)
    lift = lam.taylor_lift(samples, 1)
    return lift.jacobian() + sign * np.einsum(
        "trs,...ri,...s->...ti", c, field.value_at(samples), lift.value())


def _family_pullback(spec: LieGroupSpec, gauging: ExprMap, lam: ExprMap,
                     x: np.ndarray, eps,
                     side: str) -> tuple[np.ndarray, np.ndarray]:
    """Gauge fields at points x (..., n) of the perturbed gauging, with one
    leading axis per axis of eps, (eps..., ..., p, n), and of the gauging
    itself, (..., p, n), with the bits of _pullback.

    side "body": a_eps = m(a(x), exp(eps*lam(x))), left form.
    side "space": a_eps = m(exp(eps*lam(x)), a(x)), right form.
    The gauging and lam are lifted once, and the RK4 stages, products and
    solves each run once on the whole block; eps enters elementwise.
    """
    a_lift = gauging.taylor_lift(x, 1)
    a0, da = a_lift.value(), a_lift.jacobian()
    still = np.linalg.solve(_translation_matrix(spec, a0, side == "body"), da)
    lam_series = lam.taylor_lift(x, 1).coeffs
    exp_series = _group_exp_series(
        spec, context(len(gauging.variables), 1), lam_series,
        np.reshape(eps, np.shape(eps) + (1,) * lam_series.ndim))
    a0, e0 = np.broadcast_arrays(a0, exp_series[..., 0])
    da, de = np.broadcast_arrays(da, exp_series[..., 1:])    # (..., p, n)

    if side == "body":
        base = np.concatenate([a0, e0], axis=-1)
        first, second = da, de
    else:
        base = np.concatenate([e0, a0], axis=-1)
        first, second = de, da
    mlift = spec.compose.taylor_lift(base, 1)
    jac = mlift.jacobian()
    val = mlift.value()
    dval = np.einsum("...ts,...si->...ti", jac,
                     np.concatenate([first, second], axis=-2))
    mat = _translation_matrix(spec, val, side == "body")
    return np.linalg.solve(mat, dval), still


def variation_body_fd(spec: LieGroupSpec, gauging: ExprMap, lam: ExprMap,
                      samples: np.ndarray, eps) -> np.ndarray:
    """(A_eps - A)/eps for the right-multiplied family at each sample; an
    array of eps gives one leading axis per axis of eps, in one block."""
    return _variation_fd(spec, gauging, lam, samples, eps, "body")


def variation_space_fd(spec: LieGroupSpec, gauging: ExprMap, mu: ExprMap,
                       samples: np.ndarray, eps) -> np.ndarray:
    """(B_eps - B)/eps for the left-multiplied family at each sample, as
    variation_body_fd."""
    return _variation_fd(spec, gauging, mu, samples, eps, "space")


def _variation_fd(spec: LieGroupSpec, gauging: ExprMap, lam: ExprMap,
                  samples: np.ndarray, eps, side: str) -> np.ndarray:
    a_eps, a_0 = _family_pullback(spec, gauging, lam,
                                  np.asarray(samples, float), eps, side)
    return (a_eps - a_0) / np.reshape(eps, np.shape(eps) + (1,) * a_0.ndim)


def el_body_residual(spec: LieGroupSpec, field: GaugeField, momentum: ExprMap,
                     samples: np.ndarray) -> np.ndarray:
    """Body Euler-Lagrange residual d_i P^i_t + c^s_{rt} A^r_i P^i_s.

    momentum has p*n components ordered by algebra index t then
    direction i, so component t*n + i holds P^i_t.
    """
    p, n = spec.dim, field.grid.dim
    if len(momentum) != p * n:
        raise ValueError(f"momentum needs {p * n} components")
    c = spec.structure_constants()
    samples = np.asarray(samples, float)
    lift = momentum.taylor_lift(samples, 1)     # one block of samples
    pj = lift.jacobian().reshape(-1, p, n, n)   # [x, t, i, k] = d_k P^i_t
    pv = lift.value().reshape(-1, p, n)
    return (np.einsum("xtii->xt", pj) + np.einsum(
        "srt,xri,xsi->xt", c, field.value_at(samples), pv))


def el_space_residual(spec: LieGroupSpec, momentum: ExprMap,
                      samples: np.ndarray) -> np.ndarray:
    """Space Euler-Lagrange residual is a plain divergence d_i P^i_t."""
    p_times_n = len(momentum)
    n = len(momentum.variables)
    p = p_times_n // n
    if p * n != p_times_n or p != spec.dim:
        raise ValueError("momentum shape does not match the group and base")
    jac = momentum.taylor_lift(np.asarray(samples, float), 1).jacobian()
    return np.einsum("xtii->xt", jac.reshape(-1, p, n, n))


def linear_gauge_d(field: ExprMap, n: int, p: int, r: int,
                   samples: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """Exterior derivative of an algebra-valued r-form, sampled.

    field components are ordered by algebra index t, then by the sorted
    r-subset of directions.  Returns values (M, p, #(r+1)-subsets) and
    the (r+1)-subsets in lexicographic order.
    """
    combos_r = list(itertools.combinations(range(n), r))
    combos_up = tuple(itertools.combinations(range(n), r + 1))
    if len(field) != p * len(combos_r):
        raise ValueError(f"expected {p * len(combos_r)} components for an r={r} form")
    index_r = {K: k for k, K in enumerate(combos_r)}
    out = np.zeros((len(samples), p, len(combos_up)))
    # (M, p, len(combos_r), n), one block lift of the samples
    jac = field.taylor_lift(np.asarray(samples, float), 1).jacobian()
    jac = jac.reshape(len(samples), p, len(combos_r), n)
    for kk, K in enumerate(combos_up):
        for pos in range(r + 1):
            rest = K[:pos] + K[pos + 1:]
            sign = -1.0 if pos % 2 else 1.0
            out[:, :, kk] += sign * jac[:, :, index_r[rest], K[pos]]
    return out, combos_up


def linear_gauge_dd(field: ExprMap, n: int, p: int, r: int,
                    samples: np.ndarray) -> np.ndarray:
    """d applied twice to an r-form, assembled from second derivatives.

    Expands d(d field) literally; every term is a mixed second partial
    of a field component, so the result vanishes up to roundoff.
    """
    combos_r = list(itertools.combinations(range(n), r))
    combos_2 = tuple(itertools.combinations(range(n), r + 2))
    if len(field) != p * len(combos_r):
        raise ValueError(f"expected {p * len(combos_r)} components for an r={r} form")
    index_r = {K: k for k, K in enumerate(combos_r)}
    samples = np.asarray(samples, float)
    # [s, t, rest, i, j] = d_ij of the component of algebra index t on rest
    d2 = field.taylor_lift(samples, 2).derivative(2)
    d2 = d2.reshape((len(samples), p, len(combos_r), n, n))
    out = np.zeros((len(samples), p, max(len(combos_2), 1)))
    for kk, L in enumerate(combos_2):
        for u in range(r + 2):
            K = L[:u] + L[u + 1:]
            sign_u = -1.0 if u % 2 else 1.0
            for v in range(r + 1):
                rest = K[:v] + K[v + 1:]
                sign_v = -1.0 if v % 2 else 1.0
                out[:, :, kk] += sign_u * sign_v * d2[:, :, index_r[rest], L[u], K[v]]
    return out


def action_bracket_residual(spec: LieGroupSpec, samples: np.ndarray) -> float:
    """Largest gap between generator vector-field brackets and the
    structure constants: [g_rho, g_sigma]^k - c^t_{rho sigma} g^k_t."""
    if spec.action is None:
        raise ValueError(f"group '{spec.label}' carries no action")
    c = spec.structure_constants()
    lifts = [g.taylor_lift(np.asarray(samples, float), 1)
             for g in spec.action.generators]
    vals = np.stack([lf.value() for lf in lifts], axis=-2)      # (M, p, n)
    jacs = np.stack([lf.jacobian() for lf in lifts], axis=-3)   # (M, p, n, n)
    # [x, rho, sigma, k] = (dg_sigma g_rho)^k, so lie - lie^T is the bracket
    lie = np.einsum("xskl,xrl->xrsk", jacs, vals)
    gaps = lie - np.swapaxes(lie, 1, 2) - np.einsum("trs,xtk->xrsk", c, vals)
    # np.max, unlike a running max(), keeps a NaN
    return float(np.max(np.abs(gaps), initial=0.0))


def spencer_from_action(spec: LieGroupSpec, lam: ExprMap | PolyMap,
                        order: int, samples: np.ndarray) -> np.ndarray:
    """Section induced on jets by an action, and its Spencer image.

    The section carries lam(x) to xi^k_mu(x) = lam^tau(x) d_mu g^k_tau(x)
    with g_tau the action generators.  Its Spencer operator contracts the
    generators against dlam alone; both routes are computed, and their
    difference is returned as (slots, samples), one row per jet row mu
    below order, component k and direction i, in that nesting.
    Raises NotInjectiveYet when the jet evaluation matrix loses rank.
    """
    if spec.action is None:
        raise ValueError(f"group '{spec.label}' carries no action")
    act = spec.action
    n, p = act.dim, spec.dim
    ctx_hi, ctx1 = context(n, order + 1), context(n, 1)
    up = raised_rows(n, order + 1)
    rows_q = up.shape[1]
    samples = np.asarray(samples, float)
    # every sample at once: raw[s, tau, k, row] = d^mu(row) g^k_tau at s
    gen = [g.taylor_lift(samples, order + 1) for g in act.generators]
    raw = np.stack([lift.coeffs * ctx_hi.factorial for lift in gen], axis=1)
    lam_lift = lam.taylor_lift(samples, 1)          # raw = taylor at order 1
    # route one: D of the section lam^tau g_tau; each generator slot is an
    # order-1 x-series, d_i of slot mu read from mu + e_i (0 on top rows)
    slots = np.zeros(raw.shape + (ctx1.count,))
    slots[..., 0] = raw
    slots[..., :rows_q, 1:] = raw[..., up.T]
    total = sum(series.mul(ctx1, lam_lift.coeffs[:, tau, None, None, :],
                           slots[:, tau]) for tau in range(p))
    direct = series.spencer(ctx1, total, order)[..., 0]      # [s, i, k, row]
    # route two: dlam contracted with the generator jets
    contracted = np.einsum("sti,stkr->sikr", lam_lift.jacobian(),
                           raw[..., :rows_q])
    gaps = np.transpose(direct - contracted, (3, 2, 1, 0))
    # rows (k, mu), cols tau, one matrix per sample
    mats = np.swapaxes(raw[..., :rows_q].reshape(len(samples), p, -1), -2, -1)
    min_rank = int(np.min(np.linalg.matrix_rank(mats, tol=RANK_TOL), initial=p))
    if min_rank < p:
        raise NotInjectiveYet(
            f"rank {min_rank} < {p} at jet order {order}; raise the order")
    return gaps.reshape(-1, len(samples))
