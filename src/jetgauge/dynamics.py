"""Families of transformations z = f(y, x) and their speed calculus.

A family maps source points y (dimension m) to target points z under
parameters x (dimension n).  The two speed fields attached to a family are

    v(z, x) = (df/dx)(g(z, x), x)          target-variables form
    u(y, x) = (df/dy)^{-1} (df/dx)(y, x)   source-variables form

where g(., x) inverts f(., x).  Every spatial or parameter derivative of a
field defined through f is computed from exact jet lifts of the defining
expressions; finite differences appear only inside eps-family oracles, where
the quantity being checked is itself a variational derivative.

Expression variable conventions (fixed, also documented in the README):
  forward map f      over  y1..ym, x1..xn
  inverse map g      over  z1..zm, x1..xn
  eps family         over  y1..ym, x1..xn, eps     (reduces to f at eps = 0)
  lagrangian w       over  v1..v{m*n}, slot v^k_i at flat index k*n + i
  time-dependent 3D fields (vortex, pressure) over z1, z2, z3, t
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fixtures import MOTION_FAMILY, parse_map, read_fixture, validate
from ._multiindex import exponent_rows
from .expr import ExprMap, PolyMap, TaylorMap
from .quadrature import gauss_rule
from .series import DomainError, InverseSolveError
from .sampling import Box, halton_points

__all__ = [
    "InverseSolveError", "DivergenceNotZero", "CurlNotZero",
    "MotionFamily", "speed_duality_gap", "compatibility_residual",
    "theorem3_check", "mass_conservation_residual", "el_residual",
    "vortex_residual", "pressure_recovery", "swell_family", "swell_rows",
    "random_solenoidal_field", "motion_family_from_dict",
    "load_motion_family",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
DIV_TOL = 1e-8
VARIATION_EPS = 1e-3       # theorem3_check's quotient step
PRESSURE_NODES = 32        # pressure_recovery's Gauss nodes per segment


class DivergenceNotZero(ValueError):
    """A check that needs a divergence-free field got a compressible one."""


class CurlNotZero(ValueError):
    """Gradient reconstruction was asked for a field with nonzero curl."""


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(count)]


def _lift(emap: ExprMap | PolyMap, parts: Sequence[np.ndarray], order: int,
          label: str) -> TaylorMap:
    """A family's lift of emap around np.concatenate(parts, axis=-1); a
    DomainError names the family's label."""
    try:
        return emap.taylor_lift(np.concatenate(parts, axis=-1), order)
    except DomainError as exc:
        raise DomainError(f"{exc} in {label}") from exc


def _newton(emap: ExprMap | PolyMap, m: int, z: np.ndarray, tail: np.ndarray,
            start: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Solve emap(y, tail) = z for y at every row of a block, in lockstep.

    z (..., m), tail (..., k) and start (m,) or (..., m) broadcast to one
    block, which carries the stack axes of a stacked PolyMap.  Each step
    lifts the whole block at order 1 and solves the jacobians of the rows
    still live in one stacked call; a row stops once max |resid| <
    NEWTON_TOL, or once its residual is not finite, and is lifted again at
    its frozen root with the same bits.  A row of the second kind comes
    back unconverged, with no error: its non-finite values fail the
    caller's checks.  A row takes the steps it takes alone, so it
    gets the bits of a one-row solve.  Returns the roots (..., m) and the
    order-1 jacobian of emap there, (..., m, m + k).
    """
    z, tail, start = (np.asarray(a, float) for a in (z, tail, start))
    batch = np.broadcast_shapes(z.shape[:-1], tail.shape[:-1],
                                start.shape[:-1])
    tail = np.broadcast_to(tail, batch + tail.shape[-1:])
    y = np.broadcast_to(start, batch + (m,)).copy()
    for _ in range(NEWTON_MAX_ITER):
        lift = _lift(emap, (y, tail), 1, label)
        resid = lift.value() - z
        live = ~(np.max(np.abs(resid), axis=-1) < NEWTON_TOL)
        live &= np.isfinite(resid).all(axis=-1)
        if not live.any():
            return y, lift.jacobian()
        try:
            step = np.linalg.solve(lift.jacobian()[live][..., :m],
                                   resid[live][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise InverseSolveError(
                f"singular jacobian while inverting {label}") from exc
        y[live] = y[live] - step
    raise InverseSolveError(f"newton stalled above {NEWTON_TOL} after "
                            f"{NEWTON_MAX_ITER} steps while inverting {label}")


class _SpeedState:
    """All first derivatives of v, u and rho at source points (y, x).

    Assembled from the order-2 jet of f at (y, x), given as its value,
    jacobian and raw second derivatives; their leading batch axes lead
    every field, and one point is the zero-batch case.  label names the
    family in a singular-jacobian error.  The inverse map enters only
    through the points y, so every entry is exact; delta, rho and the
    derivative fields are worked out when first read.  Every contraction
    is an einsum, which never calls BLAS; only the stacked inv and det
    reach LAPACK, one matrix at a time.
    """

    def __init__(self, m: int, val: np.ndarray, jac: np.ndarray,
                 d2: np.ndarray, label: str):
        self.value = val
        self.fy = jac[..., :m]
        self.fx = jac[..., m:]
        self.fyy = d2[..., :m, :m]
        self.fyx = d2[..., :m, m:]
        self.fxx = d2[..., m:, m:]
        try:
            self.fy_inv = np.linalg.inv(self.fy)
        except np.linalg.LinAlgError as exc:
            raise InverseSolveError(
                f"singular source jacobian in {label}") from exc
        self.v = self.fx.copy()
        self.u = np.einsum("...ka,...ai->...ki", self.fy_inv, self.fx)
        self.gz = self.fy_inv
        self.gx = -self.u

    @functools.cached_property
    def delta(self) -> np.ndarray:
        return np.linalg.det(self.fy)

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return 1.0 / self.delta

    # dv_z[k, i, l] = d v^k_i / d z^l,  dv_x[k, i, j] = d v^k_i / d x^j
    @functools.cached_property
    def dv_z(self) -> np.ndarray:
        return np.einsum("...kri,...rl->...kil", self.fyx, self.gz)

    @functools.cached_property
    def dv_x(self) -> np.ndarray:
        return self.fxx + np.einsum("...kri,...rj->...kij", self.fyx, self.gx)

    # du_y[k, i, r] = d u^k_i / d y^r,  du_x[k, i, j] = d u^k_i / d x^j
    @functools.cached_property
    def du_y(self) -> np.ndarray:
        rhs_y = self.fyx - np.einsum("...ksr,...si->...kri", self.fyy, self.u)
        return np.einsum("...ka,...ari->...kir", self.fy_inv, rhs_y)

    @functools.cached_property
    def du_x(self) -> np.ndarray:
        rhs_x = self.fxx - np.einsum("...ksj,...si->...kij", self.fyx, self.u)
        return np.einsum("...ka,...aij->...kij", self.fy_inv, rhs_x)

    # jacobi's formula for the determinant derivatives
    @functools.cached_property
    def ddelta_y(self) -> np.ndarray:
        return self.delta[..., None] * np.einsum("...ka,...akr->...r",
                                                 self.fy_inv, self.fyy)

    @functools.cached_property
    def ddelta_x(self) -> np.ndarray:
        return self.delta[..., None] * np.einsum("...ka,...aki->...i",
                                                 self.fy_inv, self.fyx)

    @functools.cached_property
    def drho_z(self) -> np.ndarray:
        scale = -(self.rho * self.rho)[..., None]
        return scale * np.einsum("...r,...rl->...l", self.ddelta_y, self.gz)

    @functools.cached_property
    def drho_x(self) -> np.ndarray:
        scale = -(self.rho * self.rho)[..., None]
        return scale * (np.einsum("...r,...ri->...i", self.ddelta_y, self.gx)
                        + self.ddelta_x)


class MotionFamily:
    """A parametrized family of invertible maps, with optional explicit
    inverse and optional eps-variation family."""

    def __init__(self, m: int, n: int, forward: ExprMap | PolyMap,
                 inverse: ExprMap | None = None,
                 variation: ExprMap | None = None,
                 ybox: Box | None = None, xbox: Box | None = None,
                 zbox: Box | None = None, label: str = "family"):
        if len(forward.variables) != m + n or len(forward) != m:
            raise ValueError("forward map must send y1..ym, x1..xn to m values")
        if inverse is not None and (len(inverse.variables) != m + n
                                    or len(inverse) != m):
            raise ValueError("inverse map must send z1..zm, x1..xn to m values")
        if variation is not None and (len(variation.variables) != m + n + 1
                                      or len(variation) != m):
            raise ValueError("variation map must add a trailing eps variable")
        self.m, self.n = m, n
        self.forward = forward
        self.inverse = inverse
        self.variation = variation
        self.ybox = tuple(tuple(map(float, r)) for r in (ybox or [(-1.0, 1.0)] * m))
        self.xbox = tuple(tuple(map(float, r)) for r in (xbox or [(-1.0, 1.0)] * n))
        self.zbox = tuple(tuple(map(float, r)) for r in (zbox or self.ybox))
        self.label = label

    @classmethod
    def parse(cls, m: int, n: int, forward: str, inverse: str | None = None,
              variation: str | None = None, what: str = "family",
              **kw) -> "MotionFamily":
        """A parse error names what and the fixture key: f, g or variation."""
        fvars = _names("y", m) + _names("x", n)
        gvars = _names("z", m) + _names("x", n)
        return cls(m, n, parse_map(forward, fvars, what, "f", m),
                   inverse=parse_map(inverse, gvars, what, "g", m),
                   variation=parse_map(variation, fvars + ["eps"], what,
                                       "variation", m), **kw)

    def invert(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Preimages y = g(z, x) of a point z (m,), or of a block (..., m)
        with parameters x (..., n).

        An explicit inverse is evaluated as one block.  Otherwise one block
        Newton solve starts every point at the centre of ybox, so no call
        depends on the calls before it.
        """
        z = np.asarray(z, float)
        x = np.asarray(x, float)
        if self.inverse is not None:
            return _lift(self.inverse, (z, x), 0, self.label).value()
        start = np.array([0.5 * (lo + hi) for lo, hi in self.ybox])
        return _newton(self.forward, self.m, z, x, start, self.label)[0]

    def state(self, z: np.ndarray, x: np.ndarray) -> _SpeedState:
        """The speed state at targets z (..., m) under parameters x (..., n),
        one block over their leading axes."""
        return self.state_at_source(self.invert(z, x), x)

    def state_at_source(self, y: np.ndarray, x: np.ndarray) -> _SpeedState:
        """The speed state at source points y (..., m) under parameters
        x (..., n), from one block lift of f; a point alone is the
        zero-batch case."""
        y = np.asarray(y, float)
        x = np.asarray(x, float)
        lift = _lift(self.forward, (y, x), 2, self.label)
        return _SpeedState(self.m, lift.value(), lift.jacobian(),
                           lift.derivative(2), self.label)

    def sample_zx(self, count: int, seed: int | Sequence[int]) -> np.ndarray:
        """(count, m + n) target points, or one block per seed of a
        sequence, as halton_points."""
        return halton_points(self.zbox + self.xbox, count, seed)

    def sample_yx(self, count: int, seed: int | Sequence[int]) -> np.ndarray:
        return halton_points(self.ybox + self.xbox, count, seed)

    def validate(self) -> float:
        """Round-trip gap max |f(g(z, x), x) - z| over 8 low-discrepancy
        points."""
        zx = self.sample_zx(8, 417)
        z, x = zx[:, :self.m], zx[:, self.m:]
        y = self.invert(z, x)
        gaps = np.abs(self.state_at_source(y, x).value - z)
        return float(np.max(gaps, initial=0.0))


def motion_family_from_dict(data: dict) -> MotionFamily:
    what = "dynamics fixture"
    v = validate(data, MOTION_FAMILY, what)
    box = v["box"]
    return MotionFamily.parse(
        v["m"], v["n"], v["f"], v["g"], v["variation"], what,
        ybox=box.get("y"), xbox=box.get("x"), zbox=box.get("z"),
        label=v["label"])


def load_motion_family(path: str | Path) -> MotionFamily:
    return motion_family_from_dict(read_fixture(path))


def speed_duality_gap(fam: MotionFamily, samples_yx: np.ndarray) -> np.ndarray:
    """df/dx - (df/dy) u and df/dx - v(f(y, x), x) at the samples (..., m + n),
    stacked as (2, ..., m, n); a stacked family takes (K, M, m + n)."""
    samples_yx = np.asarray(samples_yx, float)
    y, x = samples_yx[..., :fam.m], samples_yx[..., fam.m:]
    st = fam.state_at_source(y, x)
    image = fam.state(st.value, x)
    return np.stack([st.fx - np.einsum("...ka,...ai->...ki", st.fy, st.u),
                     st.fx - image.v])


def compatibility_residual(fam: MotionFamily,
                           samples: np.ndarray) -> np.ndarray:
    """Parameter-direction curls of v and u corrected by vector brackets.

    The v-form residual is d_i v_j - d_j v_i + [v_i, v_j]; the u-form carries
    the bracket with the opposite sign.  Both vanish identically for any
    well-formed family, so a nonzero value flags a defect, not physics.
    Returns (2, pairs, ..., m) over the samples' leading axes: the v-form,
    then the u-form, for each parameter pair i < j; a family with one
    parameter has no pair.
    """
    if fam.n < 2:
        return np.zeros((2, 0))
    samples = np.asarray(samples, float)
    z, x = samples[..., :fam.m], samples[..., fam.m:]
    st = fam.state(z, x)
    # [..., k, j, i] = d_i v^k_j + (d v^k_j/dz) v_i; the u-form's bracket
    # enters with the opposite sign
    dv = st.dv_x + np.einsum("...kjl,...li->...kji", st.dv_z, st.v)
    du = st.du_x - np.einsum("...kjr,...ri->...kji", st.du_y, st.u)
    i, j = np.triu_indices(fam.n, 1)
    res = np.stack([d[..., j, i] - d[..., i, j] for d in (dv, du)])
    return np.moveaxis(res, -1, 1)


def _variation_blocks(fam: MotionFamily, y: np.ndarray, x: np.ndarray):
    """Raw eps-derivatives of the variation family at eps = 0.

    Returns (df, df_y, df_x): the vertical field delta f = dF/deps and its
    first y- and x-derivatives, read off mixed slots of an order-2 lift.
    Rows y, x of shape (..., m) and (..., n) give blocks with those axes,
    as views of the lift.
    """
    if fam.variation is None:
        raise ValueError("family carries no variation map")
    m = fam.m
    eps0 = np.zeros(np.shape(y)[:-1] + (1,))
    lift = _lift(fam.variation, (y, x, eps0), 2, fam.label)
    d2 = lift.derivative(2)[..., -1]
    return lift.derivative(1)[..., -1], d2[..., :m], d2[..., m:-1]


def _variation_speeds(fam: MotionFamily, z: np.ndarray, x: np.ndarray,
                      eps: tuple[float, ...], seed: np.ndarray) -> np.ndarray:
    """Invert the eps-family at rows (z, x) for every eps in one block,
    starting each row at its seed, and return its speeds v_eps over the
    rows, (len(eps), ..., m, n).  On an error each eps runs alone, in
    order, so the first failing one raises what a loop would."""
    m, n = fam.m, fam.n
    label = f"the eps family of {fam.label}"
    tail = np.stack([np.concatenate([x, np.full(np.shape(x)[:-1] + (1,), e)],
                                    axis=-1) for e in eps])
    try:
        _, jac = _newton(fam.variation, m, z, tail, seed, label)
    except (InverseSolveError, DomainError):
        for row in tail:
            _newton(fam.variation, m, z, row, seed, label)
        raise
    return jac[..., m:m + n]


def theorem3_check(fam: MotionFamily,
                   samples: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two exact routes to delta v, plus an eps-family quotient oracle.

    Route one (target variables): delta v = d eta/dx + [v, eta] with
    eta(z, x) = delta f(g(z, x), x).  Route two (source variables):
    delta v = (df/dy)(d xi/dx) with xi = (df/dy)^{-1} delta f.  The routes
    agree identically; the finite-difference speed of the eps family must
    approach them at first order in eps.

    Returns the tuple (exact, fd, fd_half, base) of per-sample gaps: route
    one minus route two, the quotients at eps = VARIATION_EPS and eps/2
    minus route one, and the variation at eps = 0 minus the forward map.
    """
    if fam.variation is None:
        raise ValueError("theorem3_check needs a variation family")
    m = fam.m
    samples = np.asarray(samples, float)
    z, x = samples[:, :m], samples[:, m:]
    y = fam.invert(z, x)
    st = fam.state_at_source(y, x)
    base = _lift(fam.variation, (y, x, np.zeros((len(y), 1))), 0,
                 fam.label).value() - st.value
    eta, deta_y, df_x = _variation_blocks(fam, y, x)
    deta_z = np.einsum("...kr,...rl->...kl", deta_y, st.gz)
    deta_x = df_x + np.einsum("...kr,...ri->...ki", deta_y, st.gx)
    route1 = (deta_x + np.einsum("...kl,...li->...ki", deta_z, st.v)
              - np.einsum("...kil,...l->...ki", st.dv_z, eta))
    xi = np.einsum("...ka,...a->...k", st.fy_inv, eta)
    dxi_x = np.einsum("...ka,...ai->...ki", st.fy_inv,
                      df_x - np.einsum("...kri,...r->...ki", st.fyx, xi))
    route2 = np.einsum("...ka,...ai->...ki", st.fy, dxi_x)
    eps = (VARIATION_EPS, VARIATION_EPS / 2.0)
    fd = [(v - st.v) / e - route1
          for v, e in zip(_variation_speeds(fam, z, x, eps, y), eps)]
    return route1 - route2, *fd, base


def mass_conservation_residual(fam: MotionFamily,
                               samples: np.ndarray) -> np.ndarray:
    """The continuity residual d rho/dx^i + d(rho v^k_i)/dz^k, (..., n)
    over the samples' leading axes."""
    samples = np.asarray(samples, float)
    st = fam.state(samples[..., :fam.m], samples[..., fam.m:])
    rho = st.rho[..., None]
    div_rv = (np.einsum("...l,...li->...i", st.drho_z, st.v)
              + rho * np.einsum("...kik->...i", st.dv_z))
    return st.drho_x + div_rv


def _momentum_hessian(w: ExprMap, v: np.ndarray, m: int,
                      n: int) -> np.ndarray:
    """Hessian of the lagrangian in the flattened v slots, (..., m, n, m, n)
    over the leading axes of v (..., m, n)."""
    if len(w.variables) != m * n or len(w) != 1:
        raise ValueError(f"lagrangian must be scalar over v1..v{m * n}")
    batch = np.shape(v)[:-2]
    lift = w.taylor_lift(np.reshape(v, batch + (m * n,)), 2)
    return lift.derivative(2)[..., 0, :, :].reshape(batch + (m, n, m, n))


def _el_z(st: _SpeedState, h: np.ndarray) -> np.ndarray:
    """rho (dV^i_k/dx^i + v^l_i dV^i_k/dz^l) with V = dw/dv at v(z, x),
    over the leading axes of a block state, from h, the lagrangian's
    _momentum_hessian at st.v."""
    dv_dx = np.einsum("...kilp,...lpi->...k", h, st.dv_x)
    conv = np.einsum("...kilp,...lpr,...ri->...k", h, st.dv_z, st.v)
    return st.rho[..., None] * (dv_dx + conv)


def _el_y(st: _SpeedState, h: np.ndarray) -> np.ndarray:
    """dU^i_k/dx^i with U^i_k(y, x) = V^i_k(df/dx(y, x)): the source form,
    from a block state at the source points (y, x) and h, the lagrangian's
    _momentum_hessian at st.fx."""
    return np.einsum("...kilp,...lpi->...k", h, st.fxx)


def el_residual(fam: MotionFamily, w: ExprMap,
                samples: np.ndarray) -> tuple[np.ndarray, ...]:
    """Euler-Lagrange residual of the action density rho w(v), both forms.

    The target form is evaluated through (z, x)-derivatives at the sample;
    the source form through (y, x)-derivatives at the preimage.  They satisfy
    E_Z(f(y, x), x) = rho(y, x) E_Y(y, x) identically.  Returns the tuple
    (E_Z, E_Y, dual gap E_Z - rho E_Y), each (M, m).
    """
    m = fam.m
    samples = np.asarray(samples, float)
    # the state at the preimages y is the state the source form needs,
    # and its v is a copy of its fx, so one Hessian serves both forms
    st = fam.state(samples[:, :m], samples[:, m:])
    h = _momentum_hessian(w, st.fx, m, fam.n)
    ez = _el_z(st, h)
    ey = _el_y(st, h)
    return ez, ey, ez - st.rho[..., None] * ey


def _field_blocks(field: ExprMap | PolyMap, zt: np.ndarray):
    """Order-2 lift of a time-dependent 3D field split into blocks.

    zt holds (z1, z2, z3, t) on its last axis; any leading axes are lifted
    in one block and lead every returned array.  Returns (val, dz, dt, dzz,
    dzt) with dz[k, l] = d v^k / d z^l, dzz[k, l, r] the raw second
    z-derivatives and dzt[k, l] the mixed ones.
    """
    if len(field.variables) != 4 or len(field) != 3:
        raise ValueError("field must map z1, z2, z3, t to three components")
    lift = field.taylor_lift(zt, 2)
    jac, d2 = lift.jacobian(), lift.derivative(2)
    return (lift.value(), jac[..., :3], jac[..., 3], d2[..., :3, :3],
            d2[..., :3, 3])


def _curl(mat: np.ndarray) -> np.ndarray:
    """Curl from derivative matrices mat[..., k, l] = d a^k / d z^l."""
    return np.stack([mat[..., 2, 1] - mat[..., 1, 2],
                     mat[..., 0, 2] - mat[..., 2, 0],
                     mat[..., 1, 0] - mat[..., 0, 1]], axis=-1)


def _acceleration_gradient(val: np.ndarray, dz: np.ndarray, dzz: np.ndarray,
                           dzt: np.ndarray) -> np.ndarray:
    """z-derivative of gamma^k = dv^k/dt + v^l dv^k/dz^l, per point."""
    return (dzt + np.einsum("...klr,...l->...kr", dzz, val)
            + np.einsum("...kl,...lr->...kr", dz, dz))


def vortex_residual(field: ExprMap | PolyMap, samples: np.ndarray,
                    enforce_divergence: bool = True) -> np.ndarray:
    """Residual (1/2) curl gamma - (d omega/dt + [v, omega]), (..., M, 3)
    for samples (M, 4), the leading axes a stacked PolyMap's.

    gamma = dv/dt + (v . grad) v is the acceleration, omega = (1/2) curl v.
    The identity holds exactly iff div v = 0; the compressible defect is
    omega div v, so with enforcement off the residual reports that term,
    and with it on the first compressible field, at its first such sample,
    raises.
    """
    samples = np.asarray(samples, float)
    val, dz, _, dzz, dzt = _field_blocks(field, samples)
    div = np.trace(dz, axis1=-2, axis2=-1)
    if enforce_divergence:
        failing = np.argwhere(np.abs(div) > DIV_TOL)
        if len(failing):
            s = tuple(failing[0])
            zt = samples[s[-1]]
            raise DivergenceNotZero(f"div v = {div[s]:.3e} at "
                                    f"z={zt[:3]}, t={zt[3]}")
    omega = 0.5 * _curl(dz)
    domega_t = 0.5 * _curl(dzt)
    # (v . grad) omega is half the curl of dzz contracted with v
    domega_v = 0.5 * _curl(np.einsum("...klr,...r->...kl", dzz, val))
    lhs = 0.5 * _curl(_acceleration_gradient(val, dz, dzz, dzt))
    rhs = domega_t + domega_v - np.einsum("...kl,...l->...k", dz, omega)
    return lhs - rhs


def pressure_recovery(field: ExprMap | PolyMap, t: float, points: np.ndarray,
                      base: Sequence[float],
                      curl_tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct lambda with grad lambda = -gamma by staircase integrals.

    gamma = dv/dt + (v . grad) v must be curl-free at the requested time;
    lambda is integrated from the base point along axis-ordered segments,
    once in order (1, 2, 3) and once in (3, 2, 1), with PRESSURE_NODES
    Gauss nodes a segment, and the two results must agree up to quadrature
    error.  Returns lambda at the points along the first path, and the
    first path's values minus the second's.
    """
    base = np.asarray(base, float)
    points = np.asarray(points, float).reshape(-1, 3)
    t = float(t)

    def with_time(z: np.ndarray) -> np.ndarray:
        return np.concatenate([z, np.full(z.shape[:-1] + (1,), t)], axis=-1)

    val, dz, _, dzz, dzt = _field_blocks(field, with_time(points))
    curls = np.abs(_curl(_acceleration_gradient(val, dz, dzz, dzt)))
    worst_curl = float(np.max(curls, initial=0.0))
    if not worst_curl <= curl_tol:  # a NaN curl is not curl-free either
        raise CurlNotZero(f"max |curl gamma| = {worst_curl:.3e}")

    # every staircase as one block over (point, axis order, segment, node):
    # segment s of an order runs along axis order[s] from base, the axes
    # before it already at z, and gauss_rule is elementwise in lo and hi
    orders = np.array([(0, 1, 2), (2, 1, 0)])
    moving = orders[..., None] == np.arange(3)              # (order, s, axis)
    reached = (np.cumsum(moving, axis=1) - moving).astype(bool)
    nodes, weights = gauss_rule(base[orders][..., None],
                                points[:, orders, None], PRESSURE_NODES)
    probes = np.where(moving[:, :, None], nodes[..., None],
                      np.where(reached[:, :, None], points[:, None, None, None],
                               base))
    # the integrand reads first derivatives only, so the block is lifted
    # at order 1, a third of the size of an order-2 lift
    lift = field.taylor_lift(with_time(probes), 1)
    val, jac = lift.value(), lift.jacobian()
    gamma = jac[..., 3] + np.einsum("...kl,...l->...k", jac[..., :3], val)
    along = np.take_along_axis(gamma, orders[None, ..., None, None], -1)
    # each staircase sums left to right from 0.0, segment by segment, as
    # a running total would; a pairwise np.sum would move its bits
    terms = (weights * along[..., 0]).reshape(len(points), 2, -1)
    total = np.add.accumulate(np.concatenate(
        [np.zeros((len(points), 2, 1)), terms], axis=-1), axis=-1)[..., -1]
    first, second = -total[:, 0], -total[:, 1]
    return first, first - second


@functools.lru_cache(maxsize=None)
def _curl_plan(degree: int) -> tuple[np.ndarray, ...]:
    """The curl of three potentials of the given degree in each z_k and 1
    in t, drawn in turn in C order, as one gather over the rows mu of
    exponent_rows(4, 3 * degree + 1): each term d_a P_b, (2, 3, count),
    reads P_b's draw at mu + e_a, or the trailing 0.0 once that leaves the
    box, times mu_a + 1; then each row's scale, 0.3 on t.  Read-only."""
    box = (3,) + (degree + 1,) * 3 + (2,)
    rows = exponent_rows(4, 3 * degree + 1)
    # curl_k = d_{k+1} P_{k+2} - d_{k+2} P_{k+1}, indices mod 3
    k, term = np.arange(3), np.arange(2)[:, None]
    a, b = (k + 1 + term) % 3, (k + 2 - term) % 3
    up = rows + np.eye(4, dtype=np.int64)[a][..., None, :]
    flat = np.ravel_multi_index((b[..., None], *np.moveaxis(up, -1, 0)), box,
                                mode="clip")
    tables = (np.where(np.all(up < box[1:], axis=-1), flat, math.prod(box)),
              rows.T[a] + 1.0, np.where(rows[:, 3] == 1, 0.3, 1.0))
    for table in tables:
        table.flags.writeable = False
    return tables


def random_solenoidal_field(seed: int) -> PolyMap:
    """curl of a random polynomial potential in (z, t), of degree 2 in each
    z_k and 1 in t: divergence-free by construction, time-dependent through
    a t term scaled by 0.3."""
    index, factor, scale = _curl_plan(2)
    # the draws, then the 0.0 that a term outside the box reads
    draws = np.random.default_rng(seed).uniform(-1.0, 1.0, size=index.max())
    terms = factor * np.append(draws, 0.0)[index]
    return PolyMap(("z1", "z2", "z3", "t"), 7, (terms[0] - terms[1]) * scale)


def swell_family(R0: float, k: float, omega: float, c: float,
                 decay: float | None = None, nlabels: int = 24,
                 seed: int = 311) -> tuple[MotionFamily, tuple[np.ndarray, ...]]:
    """Rolling-wave family x = a + R(b) cos(omega t - phi(a)), phi = k a + c.

    The balanced choice R(b) = R0 exp(-k b) makes the label-space jacobian
    time-independent (equal to 1 - k^2 R^2), trajectories circles of radius
    R(b), and the map stationary in the frame moving at speed omega / k.
    Passing decay != k deliberately breaks the balance: the jacobian then
    oscillates in time and the drift shows it.

    Returns the family and the tuple (drift, formula, circle, frame) over
    (label, time), nlabels Halton labels (a, b) in [-1, 1] x [0, 2] and
    ntimes = 9 times in [0, 6]: det d(x,y)/d(a,b) minus its value at t = 0; the same det minus
    1 - k^2 R^2, empty unless balanced; |f - label| - R(b); and
    (nlabels, ntimes, 2) the wave-frame point minus f at the shifted label.
    """
    tmax, ntimes = 6.0, 9
    rate = k if decay is None else float(decay)
    for key, value in (("R0", R0), ("k", k), ("omega", omega), ("c", c),
                       ("decay", rate)):    # each is written into the text
        if not math.isfinite(value):
            raise ValueError(f"swell {key!r} must be finite, not {value!r}")
    if R0 < 0.0 or k <= 0.0:
        raise ValueError("need R0 >= 0 and k > 0")
    radius = f"{R0!r} * exp(-{rate!r} * y2)"
    theta = f"{omega!r} * x1 - ({k!r} * y1 + {c!r})"
    fam = MotionFamily.parse(
        2, 1,
        f"y1 + ({radius}) * cos({theta}), y2 + ({radius}) * sin({theta})",
        ybox=((-1.0, 1.0), (0.0, 2.0)), xbox=((0.0, tmax),),
        label="swell")

    labels = halton_points(fam.ybox, nlabels, seed)
    times = np.linspace(0.0, tmax, ntimes)
    # one block state over (label, time)
    st = fam.state_at_source(
        np.repeat(labels[:, None, :], ntimes, axis=1),
        np.broadcast_to(times[None, :, None], (nlabels, ntimes, 1)))
    speed = omega / k
    # the wave-frame shifts: f at (a - speed t, b) and time 0, one block
    shifts = np.zeros((nlabels, ntimes, 3))
    shifts[..., 0] = labels[:, None, 0] - speed * times[None, :]
    shifts[..., 1] = labels[:, None, 1]
    shifted_values = _lift(fam.forward, (shifts,), 0, fam.label).value()
    rbs = np.array([R0 * math.exp(-rate * b) for b in labels[:, 1]])
    circle = np.array([[math.hypot(value[0] - a, value[1] - b) - rb
                        for value in values]
                       for (a, b), rb, values in zip(labels, rbs, st.value)])
    moving = st.value.copy()
    moving[..., 0] -= speed * times
    drift = st.delta - st.delta[:, :1]
    formula = (st.delta - (1.0 - k * k * rbs * rbs)[:, None]
               if decay is None else np.zeros(0))
    return fam, (drift, formula, circle, moving - shifted_values)


def swell_rows(R0: float, k: float, omega: float, c: float,
               labels: Sequence[tuple[float, float]],
               times: Sequence[float],
               decay: float | None = None) -> list[tuple[float, ...]]:
    """Trajectory table (t, a, b, x, y, xbar, ybar), one block per label,
    of swell_family's motion: radius R0 exp(-decay b), decay k if None."""
    rows = []
    speed = omega / k
    rate = k if decay is None else float(decay)
    for a, b in labels:
        a, b = float(a), float(b)
        radius = R0 * math.exp(-rate * b)
        phase = k * a + c
        for t in times:
            t = float(t)
            angle = omega * t - phase
            x = a + radius * math.cos(angle)
            y = b + radius * math.sin(angle)
            rows.append((t, a, b, x, y, x - speed * t, y))
    return rows
