"""Pseudogroups presented by equations on jets of transformations.

A system of order q on n variables cuts a locus in the q-jet space of maps
x -> y.  Jet coordinates are spelled y_k for values and y_k_<digits> for
derivative slots, where the digits name the (sorted, 1-based) directions:
y_1_12 is d2 y^1 / dx1 dx2.  The matching linear system uses xi_k_<digits>
over the same base variables.

The linearization of the equations along the identity is recovered exactly
by differentiating the defining expressions in the jet coordinates, which
gives a second, independent route to any hand-written linearization.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol

import numpy as np

from . import series
from ._fixtures import check_box, check_count, check_keys, read_fixture
from ._multiindex import (MultiIndexContext, context, derivative_rows,
                          poly_shift, shift_table)
from .expr import ExprMap
from .sampling import halton_points

__all__ = [
    "LieEquationSystem", "PolySection",
    "jet_variable_names", "load_lie_system", "lie_system_from_dict",
    "affine_line", "projective_line", "volume_preserving", "example_r1",
    "example_r1_prime", "builtin_system", "BUILTIN_SYSTEMS",
    "closure_check", "linearization_rows_gap",
    "schwarzian", "schwarzian_of_map",
    # perfbench/tracing.py wraps these two by name for its --trace spans
    "algebroid_bracket", "sample_linear_sections",
    "JetSection",            # the section type the two above accept
    "HolonomicSection",      # LieEquationSystem.linear_residual lifts by it
]


def _suffix(mu: Iterable[int]) -> str:
    return "".join(str(i + 1) * int(e) for i, e in enumerate(mu))


def jet_variable_names(ncomp: int, nvars: int, order: int, prefix: str) -> list[str]:
    """Names in component-major, graded order: all slots of component 1 first."""
    tails = [_suffix(mu) for mu in context(nvars, order).midx]
    return [f"{prefix}_{k + 1}" + (f"_{tail}" if tail else "")
            for k in range(ncomp) for tail in tails]


def _jet_column(ncomp: int, ctx: MultiIndexContext, k: int, row: int) -> int:
    return k * ctx.count + row


class _ProlongTable(NamedTuple):
    """Flat indices that fill prolonged rows from an order-2 lift.

    *_src index the lift's coefficients flattened over (equation, slot),
    *_fac are the slots' mu! that turn them into raw derivatives, and
    *_dst index the output flattened over (row, column).  shift_src
    points into the coefficient list.  Each scatter has unique targets.
    """

    nrows: int
    ncols: int
    coef_src: np.ndarray
    coef_fac: np.ndarray
    coef_dst: np.ndarray
    shift_src: np.ndarray
    shift_dst: np.ndarray
    dx_src: np.ndarray
    dx_fac: np.ndarray
    dx_dst: np.ndarray
    chain_src: np.ndarray
    chain_fac: np.ndarray


@functools.lru_cache(maxsize=None)
def _prolong_table(nvars: int, order: int, neq: int,
                   route: str) -> _ProlongTable:
    """Gather table of LieEquationSystem._prolong, built from the index
    bookkeeping alone, so every system of the same shape shares it.

    The lift runs over the n base variables and the n*count jet slots.
    The coefficient of slot (k, row) in equation e is the first derivative
    in that slot; its x_i-derivative adds the base direction i and, on the
    derived route, the identity section's value slot of component i,
    which moves with x_i.
    """
    n = nvars
    ctx_lo, ctx_hi = context(n, order), context(n, order + 1)
    nline = n + n * ctx_lo.count
    ctx2 = context(nline, 2)
    ncols = n * ctx_hi.count

    t: dict[str, list] = {name: [] for name in _ProlongTable._fields[2:]}

    def gather(kind: str, e: int, *axes: int) -> None:
        rows, fac = derivative_rows(nline, len(axes))
        t[kind + "_src"].append(e * ctx2.count + rows[axes])
        t[kind + "_fac"].append(fac[axes])

    for e in range(neq):
        for k in range(n):
            for row in range(ctx_lo.count):
                var = n + _jet_column(n, ctx_lo, k, row)
                col = _jet_column(n, ctx_hi, k, row)
                gather("coef", e, var)
                t["coef_dst"].append(e * ncols + col)
                for i in range(n):
                    drow = (neq * (1 + i) + e) * ncols
                    up = ctx_hi.shifted(row, i)
                    t["shift_src"].append(len(t["coef_src"]) - 1)
                    t["shift_dst"].append(drow + _jet_column(n, ctx_hi, k, up))
                    gather("dx", e, var, i)
                    if route == "derived":
                        gather("chain", e, var,
                               n + _jet_column(n, ctx_lo, i, 0))
                    t["dx_dst"].append(drow + col)

    def frozen(name: str) -> np.ndarray:
        arr = np.array(t[name], dtype=float if name.endswith("_fac")
                       else np.int64)
        arr.flags.writeable = False
        return arr

    return _ProlongTable(neq * (1 + n), ncols,
                         *map(frozen, _ProlongTable._fields[2:]))


@dataclass(frozen=True)
class LieEquationSystem:
    label: str
    nvars: int
    order: int
    box: tuple[tuple[float, float], ...]
    equations: ExprMap                       # over x-vars + y-jet names
    linearization: ExprMap | None = None     # over x-vars + xi-jet names
    sampling_constraints: ExprMap | None = None

    @property
    def neq(self) -> int:
        return len(self.equations)

    def jet_ctx(self, order: int | None = None) -> MultiIndexContext:
        return context(self.nvars, self.order if order is None else order)

    def identity_jet(self, x: np.ndarray) -> np.ndarray:
        """Point of the equation variables at the q-jet of the identity;
        x of shape (..., n) gives one row per point."""
        n, ctx = self.nvars, self.jet_ctx()
        x = np.asarray(x, dtype=float)
        vals = self._lift_base(x, "hand")
        for k in range(n):
            mu = tuple(int(i == k) for i in range(n))
            vals[..., n + _jet_column(n, ctx, k, 0)] = x[..., k]
            vals[..., n + _jet_column(n, ctx, k, ctx.pos(mu))] = 1.0
        return vals

    def _lift_base(self, x: np.ndarray, route: str) -> np.ndarray:
        """Base points of a route's lift at x (..., n): the identity jet on
        the derived route, x and zero jet slots on the hand route."""
        if route == "derived":
            return self.identity_jet(x)
        x = np.asarray(x, dtype=float)
        base = np.zeros(x.shape[:-1] + (self.nvars * (1 + self.jet_ctx().count),))
        base[..., :self.nvars] = x
        return base

    def _route_map(self, route: str) -> ExprMap:
        if route == "hand":
            if self.linearization is None:
                raise ValueError(f"{self.label}: no hand linearization stored")
            return self.linearization
        if route != "derived":
            raise ValueError(f"unknown route '{route}'")
        return self.equations

    def finite_residual(self, f: ExprMap, samples: np.ndarray) -> np.ndarray:
        """Equations evaluated on the holonomic q-jet of a candidate map."""
        n, ctx = self.nvars, self.jet_ctx()
        if len(f) != n or len(f.variables) != n:
            raise ValueError(f"candidate map must take {n} variables to {n}")
        x = np.asarray(samples, float).reshape(-1, n)
        lift = f.taylor_lift(x, self.order)
        # raw derivatives in _jet_column order: component k, slot r at k*count + r
        jets = (lift.coeffs * ctx.factorial).reshape(len(x), n * ctx.count)
        return self.equations.eval(np.concatenate([x, jets], axis=-1))

    def linear_rows(self, x: np.ndarray, route: str = "hand") -> np.ndarray:
        """Coefficient matrix of the linear system at x, (..., neq, n*count)
        for x of shape (..., n); one point is the zero-batch case.

        route "hand" reads the stored linearization; route "derived"
        differentiates the defining equations at the identity jet.  Both
        are exact (jet lifts, no finite differences), and a block is
        lifted once.
        """
        lift = self._route_map(route).taylor_lift(self._lift_base(x, route), 1)
        return lift.jacobian()[..., self.nvars:]

    def prolonged_rows(self, x: np.ndarray, route: str = "hand") -> np.ndarray:
        """Rows of the system and its first formal derivatives at x.

        Output shape (..., neq*(1+n), n*count_{q+1}) for x of shape
        (..., n); the first neq rows are the original system on the
        lower-order columns.  Row block i+1 is D_i applied to the system:
        the x-derivative of each coefficient plus the coefficient moved to
        the shifted slot.
        """
        return self._prolong(self._route_map(route), x, route)

    def constraint_rows(self, x: np.ndarray) -> np.ndarray:
        """Sampling constraints and their formal derivatives at x, or no
        rows, (..., rows, n*count_{q+1}) for x of shape (..., n)."""
        if self.sampling_constraints is None:
            ncols = self.nvars * self.jet_ctx(self.order + 1).count
            return np.zeros(np.shape(x)[:-1] + (0, ncols))
        return self._prolong(self.sampling_constraints, x, "hand")

    def _prolong(self, emap: ExprMap, x: np.ndarray, route: str) -> np.ndarray:
        """Prolonged rows of emap's linear coefficients from one order-2
        lift of the whole block.

        Every cell gets the sums a point-by-point fill gives it: zeros,
        then each system cell set to its coefficient, then each
        derivative cell plus its shifted coefficient and then plus the
        coefficient's x-derivative, which the derived route sums over the
        direct and the identity-section terms first.
        """
        tab = _prolong_table(self.nvars, self.order, len(emap), route)
        lift = emap.taylor_lift(self._lift_base(x, route), 2)
        batch = lift.coeffs.shape[:-2]
        flat = lift.coeffs.reshape(batch + (len(emap) * lift.ctx.count,))
        coef = flat[..., tab.coef_src] * tab.coef_fac
        out = np.zeros(batch + (tab.nrows * tab.ncols,))
        out[..., tab.coef_dst] = coef
        out[..., tab.shift_dst] += coef[..., tab.shift_src]
        dcoef = flat[..., tab.dx_src] * tab.dx_fac
        if route == "derived":
            dcoef += flat[..., tab.chain_src] * tab.chain_fac
        out[..., tab.dx_dst] += dcoef
        return out.reshape(batch + (tab.nrows, tab.ncols))

    def linear_residual(self, xi: ExprMap, samples: np.ndarray,
                        route: str = "hand") -> np.ndarray:
        """Linear system evaluated on the holonomic jet of a vector field."""
        sec = HolonomicSection(xi, self.order)
        out = np.zeros((len(samples), self.neq))
        for s, x in enumerate(samples):
            rows = self.linear_rows(np.asarray(x, float), route)
            out[s] = rows @ sec.raw_table(np.asarray(x, float)).ravel()
        return out


def linearization_rows_gap(system: LieEquationSystem,
                           samples: np.ndarray) -> np.ndarray:
    """Entry gaps between the hand-written linearization rows and the ones
    derived from the defining equations, (M, neq, n*count)."""
    pts = np.asarray(samples, dtype=float)
    return system.linear_rows(pts, "hand") - system.linear_rows(pts, "derived")


def linearization_consistency(system: LieEquationSystem, xi: ExprMap,
                              samples: np.ndarray, eps: float = 1e-5) -> float:
    """Centered difference of the equations along id + eps*xi against the
    linear system; the gap shrinks like eps^2."""
    ident = ExprMap.identity(xi.variables)
    plus = _shifted_map(ident, xi, eps)
    minus = _shifted_map(ident, xi, -eps)
    fd = (system.finite_residual(plus, samples)
          - system.finite_residual(minus, samples)) / (2.0 * eps)
    lin = system.linear_residual(xi, samples)
    return float(np.max(np.abs(fd - lin)))


def _shifted_map(base: ExprMap, direction: ExprMap, eps: float) -> ExprMap:
    return ExprMap(base.variables,
                   [b + eps * d for b, d in zip(base, direction)])


class JetSection(Protocol):
    """Section of a jet bundle presented by its raw slot functions.

    raw_series(x, w) returns, for every component k and multi-index row,
    the x-Taylor coefficients (through order w) of the slot function
    xi^k_mu around x, shaped (ncomp, nrows, count_w).
    """

    nvars: int
    ncomp: int
    order: int

    def raw_series(self, x: np.ndarray, xorder: int) -> np.ndarray: ...


class HolonomicSection:
    """Jet of an actual map: every slot is a derivative of the same f."""

    def __init__(self, f: ExprMap, order: int):
        self.f = f
        self.nvars = len(f.variables)
        self.ncomp = len(f)
        self.order = order

    def raw_series(self, x: np.ndarray, xorder: int) -> np.ndarray:
        ctx_x = context(self.nvars, xorder)
        lift = self.f.taylor_lift(np.asarray(x, float), self.order + xorder)
        # slot of mu + kappa for every jet row mu and x-series row kappa
        rows = np.array([[lift.ctx.pos(mu + kappa) for kappa in ctx_x.midx]
                         for mu in context(self.nvars, self.order).midx])
        return lift.coeffs[:, rows] * lift.ctx.factorial[rows] / ctx_x.factorial

    def raw_table(self, x: np.ndarray) -> np.ndarray:
        return self.raw_series(x, 0)[:, :, 0]


class PolySection:
    """Section whose slots are polynomials in a shared monomial basis."""

    def __init__(self, coeffs: np.ndarray, nvars: int, order: int, degree: int):
        ctx_jet = context(nvars, order)
        ctx_b = context(nvars, degree)
        if coeffs.shape[1:] != (ctx_jet.count, ctx_b.count):
            raise ValueError("coefficient block does not match jet and basis")
        self.coeffs = coeffs
        self.nvars = nvars
        self.ncomp = coeffs.shape[0]
        self.order = order
        self.degree = degree

    def raw_series(self, x: np.ndarray, xorder: int) -> np.ndarray:
        shift = poly_shift(self.nvars, self.degree, x, xorder)
        return np.einsum("krb,bw->krw", self.coeffs, shift)

    def raw_table(self, x: np.ndarray) -> np.ndarray:
        return self.raw_series(x, 0)[:, :, 0]

    def perturb_top(self, rng: np.random.Generator, scale: float = 1.0) -> "PolySection":
        """Fresh random polynomials on the highest-order slots only."""
        ctx_jet = context(self.nvars, self.order)
        out = self.coeffs.copy()
        top = ctx_jet.degree == self.order
        out[:, top, :] += scale * rng.standard_normal(out[:, top, :].shape)
        return PolySection(out, self.nvars, self.order, self.degree)


def _bracket_tables(nvars: int, q_out: int, ctx_x: MultiIndexContext,
                    tab_a: np.ndarray, tab_b: np.ndarray) -> np.ndarray:
    """Differential bracket on raw-slot series tables.

    Inputs hold sections of order q_out + 1 as x-series tables shaped
    (..., n, rows, ctx_x.count), with leading batch axes that broadcast;
    the output holds the bracket's slots for |mu| <= q_out in the same
    form, valid through one x-order less than ctx_x carries.  Every output
    element sees the same float operations in the same order whatever the
    batch shape, so one stacked call equals one call per slice bit for bit.
    """
    n = nvars
    ctx_jet = context(n, q_out + 1)
    # C(mu, nu) and the row of mu - nu, for rows mu and nu of ctx_jet
    binom, rest = shift_table(n, q_out + 1, q_out + 1)
    rows_out = context(n, q_out).count
    batch = np.broadcast_shapes(tab_a.shape[:-3], tab_b.shape[:-3])
    out = np.zeros(batch + (n, rows_out, ctx_x.count))
    for row in range(rows_out):
        acc = out[..., row, :]        # (..., n, count): every component k
        for row_nu in range(ctx_jet.count):
            coef = binom[row, row_nu]
            if not coef:      # nu exceeds mu somewhere
                continue
            for r in range(n):
                row_rem = ctx_jet.shifted(rest[row, row_nu], r)
                term = series.mul(ctx_x, tab_a[..., r:r + 1, row_nu, :],
                                  tab_b[..., :, row_rem, :])
                term -= series.mul(ctx_x, tab_b[..., r:r + 1, row_nu, :],
                                   tab_a[..., :, row_rem, :])
                acc += coef * term
        for i in range(n):
            up = ctx_jet.shifted(row, i)
            sp_a = (series.dvar(ctx_x, tab_a[..., :, row, :], i)
                    - tab_a[..., :, up, :])
            sp_b = (series.dvar(ctx_x, tab_b[..., :, row, :], i)
                    - tab_b[..., :, up, :])
            acc += series.mul(ctx_x, tab_a[..., i:i + 1, 0, :], sp_b)
            acc -= series.mul(ctx_x, tab_b[..., i:i + 1, 0, :], sp_a)
    return out


def algebroid_bracket(a: JetSection, b: JetSection,
                      samples: np.ndarray) -> np.ndarray:
    """Bracket slot values, (M, n, count_{q-1}) for inputs of order q."""
    if a.order != b.order or a.nvars != b.nvars:
        raise ValueError("sections must share base and order")
    if a.ncomp != a.nvars:
        raise ValueError("bracket needs vector-field sections")
    pts = np.asarray(samples, dtype=float)
    tab_a = np.array([a.raw_series(x, 1) for x in pts])
    tab_b = np.array([b.raw_series(x, 1) for x in pts])
    return _bracket_tables(a.nvars, a.order - 1, context(a.nvars, 1),
                           tab_a, tab_b)[..., 0]


def bracket_jacobi_residual(a: JetSection, b: JetSection, c: JetSection,
                            samples: np.ndarray) -> float:
    """Cyclic sum [[a,b],c] + [[b,c],a] + [[c,a],b], nested via x-series."""
    n = a.nvars
    q = a.order
    if q < 2:
        raise ValueError("nesting drops two orders; need order >= 2 inputs")
    ctx1 = context(n, 1)
    rows_mid = context(n, q - 1).count
    pts = np.asarray(samples, dtype=float)
    ta, tb, tc = (np.array([s.raw_series(x, 2) for x in pts])
                  for s in (a, b, c))
    # the three cyclic terms on a leading axis, then over the points
    u, v, w = (np.stack([ta, tb, tc]), np.stack([tb, tc, ta]),
               np.stack([tc, ta, tb]))
    inner = _bracket_tables(n, q - 1, context(n, 2), u, v)
    outer = _bracket_tables(n, q - 2, ctx1, inner[..., :ctx1.count],
                            w[..., :rows_mid, :ctx1.count])
    vals = outer[..., 0]
    return float(np.max(np.abs(vals[0] + vals[1] + vals[2])))


def _solution_basis(system: LieEquationSystem, seed: int, degree: int,
                    npoints: int, route: str) -> np.ndarray:
    """Nullspace basis of the pointwise-pinned prolonged linear system.

    Rows are the system, its formal derivatives, and any sampling
    constraints evaluated at npoints chart points, expanded over a
    shared polynomial ansatz for every slot; SVD recovers the joint
    nullspace, which pins the polynomial identity once the point count
    exceeds the ansatz dimension.
    """
    ctx_b = context(system.nvars, degree)
    pts = halton_points(system.box, npoints, seed)
    rows = np.concatenate([system.prolonged_rows(pts, route),
                           system.constraint_rows(pts)], axis=1)
    basis = poly_shift(system.nvars, degree, pts, 0)[..., 0]    # x^beta
    # (point, row) by (column, monomial): each point's rows times its basis
    mat = np.einsum("prc,pb->prcb", rows, basis).reshape(
        rows.shape[0] * rows.shape[1], rows.shape[2] * ctx_b.count)
    _, sig, vt = np.linalg.svd(mat)
    rank = int(np.sum(sig > 1e-10 * sig[0]))
    if rank == vt.shape[0]:
        raise ValueError(
            f"{system.label}: no polynomial sections at degree {degree}")
    return vt[rank:]


def sample_linear_sections(system: LieEquationSystem, count: int, seed: int,
                           degree: int = 2, npoints: int = 40,
                           route: str = "hand") -> list[PolySection]:
    """Seeded random polynomial sections of the prolonged linear system."""
    basis_vecs = _solution_basis(system, seed, degree, npoints, route)
    return _draw_sections(system, basis_vecs, count, seed, degree)


def _draw_sections(system: LieEquationSystem, basis_vecs: np.ndarray,
                   count: int, seed: int, degree: int) -> list[PolySection]:
    """Seeded random combinations of a `_solution_basis` nullspace basis."""
    n, q = system.nvars, system.order
    ctx_sec = context(n, q + 1)
    ctx_b = context(n, degree)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        combo = rng.standard_normal(basis_vecs.shape[0]) @ basis_vecs
        coeffs = combo.reshape(n, ctx_sec.count, ctx_b.count)
        coeffs /= max(np.max(np.abs(coeffs)), 1e-30)
        out.append(PolySection(coeffs, n, q + 1, degree))
    return out


def closure_check(system: LieEquationSystem, npairs: int = 50, seed: int = 0,
                  neval: int = 12, degree: int = 2,
                  route: str = "hand") -> tuple[np.ndarray, np.ndarray]:
    """Brackets of random solution sections land back in the system.

    Also measures how much the bracket values move when the top-order
    slots of the inputs are replaced by fresh random polynomials; the
    formula cancels them identically, so the gap is pure roundoff.
    Returns the tuple (residuals, lift gaps): the linear system applied to
    each bracket, (npairs, neval, neq), and the bumped pairs' bracket
    values minus the first pairs', (min(npairs, 5), neval, n, rows).
    """
    n = system.nvars
    basis_vecs = _solution_basis(system, seed, degree, 40, route)
    sections = _draw_sections(system, basis_vecs, 2 * npairs, seed, degree)
    eval_pts = halton_points(system.box, neval, seed + 1)
    rng = np.random.default_rng(seed + 2)
    nlift = min(npairs, 5)
    # the bumped copies of pairs 0..nlift-1, drawn a then b, pair by pair
    sections += [s.perturb_top(rng) for s in sections[:2 * nlift]]
    shifts = poly_shift(n, degree, eval_pts, 1)
    tabs = np.einsum("skrb,pbw->spkrw", np.stack([s.coeffs for s in sections]),
                     shifts)
    # (pairs + bumped pairs, points, n, rows): every bracket in one call
    vals = _bracket_tables(n, system.order, context(n, 1),
                           tabs[0::2], tabs[1::2])[..., 0]
    rows = system.linear_rows(eval_pts, route)
    # one matrix-vector product per pair and point, on a fresh copy of the
    # bracket values: a stacked product, or one on a view, can give
    # other bits
    resid = np.array([[rows[s] @ v[s].ravel() for s in range(len(rows))]
                      for v in vals[:npairs]])
    return resid, vals[npairs:] - vals[:nlift]


def schwarzian(jet) -> float:
    """Schwarzian from the raw third-order data (f, f', f'', f''')."""
    raw = getattr(jet, "raw_table", None)
    if callable(raw):
        vals = np.asarray(raw()).ravel()
    else:
        vals = np.asarray(jet, dtype=float).ravel()
    if vals.shape[0] != 4:
        raise ValueError("need exactly the four raw entries of a 3-jet")
    f1, f2, f3 = vals[1], vals[2], vals[3]
    if f1 == 0.0:
        raise series.DomainError("vanishing first derivative")
    return float(f3 / f1 - 1.5 * (f2 / f1) ** 2)


def schwarzian_of_map(f: ExprMap, x: float) -> float:
    lift = f.taylor_lift(np.array([x], dtype=float), 3)
    return schwarzian([lift.raw(0, (k,)) for k in range(4)])


def schwarzian_variation_check(f: ExprMap, eta: ExprMap, samples: np.ndarray,
                               eps: float) -> tuple[float, float]:
    """Left-composition family z -> z + eps*eta(z) applied after f.

    Returns the worst gap between the finite quotient and the exact
    variation (f')^2 * eta'''(f(x)) at eps and at eps/2; first-order
    quotients halve the gap.
    """
    ident = ExprMap.identity(eta.variables)
    gaps = []
    for e in (eps, eps / 2.0):
        phi = _shifted_map(ident, eta, e)
        res = []
        for x in np.atleast_1d(samples):
            xa = np.atleast_1d(np.asarray(x, dtype=float))
            flift = f.taylor_lift(xa, 3)
            z0 = flift.value()
            plift = phi.taylor_lift(z0, 3)
            fr = [flift.raw(0, (k,)) for k in range(4)]
            pr = [plift.raw(0, (k,)) for k in range(4)]
            # chain rule through third order for the 1d composition
            c1 = pr[1] * fr[1]
            c2 = pr[2] * fr[1] ** 2 + pr[1] * fr[2]
            c3 = (pr[3] * fr[1] ** 3 + 3.0 * pr[2] * fr[1] * fr[2]
                  + pr[1] * fr[3])
            quots = (schwarzian([pr[0], c1, c2, c3])
                     - schwarzian_of_map(f, float(xa[0]))) / e
            exact = fr[1] ** 2 * eta.taylor_lift(z0, 3).raw(0, (3,))
            res.append(abs(quots - exact))
        # np.max, unlike a running max(), keeps a NaN
        gaps.append(float(np.max(res, initial=0.0)))
    return gaps[0], gaps[1]


def _make_system(label: str, nvars: int, order: int, box, equations: str,
                 linearization: str | None,
                 sampling_constraints: str | None = None) -> LieEquationSystem:
    xvars = [f"x{k + 1}" for k in range(nvars)]
    eq_vars = xvars + jet_variable_names(nvars, nvars, order, "y")
    li_vars = xvars + jet_variable_names(nvars, nvars, order, "xi")
    return LieEquationSystem(
        label=label,
        nvars=nvars,
        order=order,
        box=tuple(map(tuple, box)),
        equations=ExprMap.parse(equations, eq_vars),
        linearization=(ExprMap.parse(linearization, li_vars)
                       if linearization else None),
        sampling_constraints=(ExprMap.parse(sampling_constraints, li_vars)
                              if sampling_constraints else None),
    )


def affine_line() -> LieEquationSystem:
    return _make_system("affine-line", 1, 2, [[-1.0, 1.0]],
                        "y_1_11", "xi_1_11")


def projective_line() -> LieEquationSystem:
    return _make_system("projective-line", 1, 3, [[-1.0, 1.0]],
                        "y_1_111/y_1_1 - 1.5*(y_1_11/y_1_1)^2",
                        "xi_1_111")


def volume_preserving(nvars: int = 2) -> LieEquationSystem:
    if nvars < 2:
        raise ValueError("volume preservation needs at least two variables")
    terms = []
    for perm in itertools.permutations(range(nvars)):
        inv = sum(1 for a in range(nvars) for b in range(a + 1, nvars)
                  if perm[a] > perm[b])
        prod = "*".join(f"y_{k + 1}_{perm[k] + 1}" for k in range(nvars))
        terms.append(("- " if inv % 2 else "+ ") + prod)
    det = " ".join(terms).lstrip("+ ")
    trace = " + ".join(f"xi_{k + 1}_{k + 1}" for k in range(nvars))
    return _make_system(f"volume-{nvars}d", nvars, 1,
                        [[-1.0, 1.0]] * nvars, f"{det} - 1", trace)


def example_r1() -> LieEquationSystem:
    return _make_system(
        "shear-volume", 2, 1, [[0.25, 1.25], [0.25, 1.25]],
        "y_1_2, y_2*y_1_1 - x2",
        "xi_1_2, x2*xi_1_1 + xi_2",
        sampling_constraints="xi_1_1 + xi_2_2")


def example_r1_prime() -> LieEquationSystem:
    return _make_system(
        "hamiltonian-rotation", 2, 1, [[0.25, 1.25], [0.25, 1.25]],
        "y_1*y_2_2 - y_2*y_1_2 - x1, y_1*y_2_1 - y_2*y_1_1 + x2",
        "xi_1 + x1*xi_2_2 - x2*xi_1_2, x1*xi_2_1 - x2*xi_1_1 - xi_2")


BUILTIN_SYSTEMS = {
    "affine": affine_line,
    "projective": projective_line,
    "volume2": lambda: volume_preserving(2),
    "volume3": lambda: volume_preserving(3),
    "r1": example_r1,
    "r1prime": example_r1_prime,
}


def builtin_system(name: str) -> LieEquationSystem:
    try:
        return BUILTIN_SYSTEMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown system '{name}'; have {sorted(BUILTIN_SYSTEMS)}") from None


SYSTEM_KEYS = ("label", "nvars", "order", "box", "equations",
               "linearization", "sampling_constraints")


def lie_system_from_dict(data: dict) -> LieEquationSystem:
    check_keys(data, SYSTEM_KEYS, "pseudogroup fixture")
    nvars = check_count(data, "nvars", "pseudogroup fixture")
    return _make_system(
        data.get("label", "unnamed"),
        nvars,
        check_count(data, "order", "pseudogroup fixture"),
        check_box(data, "box", nvars, "pseudogroup fixture"),
        data["equations"],
        data.get("linearization"),
        data.get("sampling_constraints"),
    )


def load_lie_system(name: str) -> LieEquationSystem:
    """A fixture that read_fixture finds, else a built-in name."""
    try:
        data = read_fixture(name)
    except FileNotFoundError:
        if name in BUILTIN_SYSTEMS:
            return builtin_system(name)
        raise FileNotFoundError(f"no such system or fixture: {name}") from None
    return lie_system_from_dict(data)
