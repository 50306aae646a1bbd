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

import itertools
import json
import os
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from . import series
from ._multiindex import MultiIndexContext, binom_mu, context
from .expr import ExprMap
from .sampling import halton_points

__all__ = [
    "LieEquationSystem", "HolonomicSection", "ExprSection", "PolySection",
    "jet_variable_names", "load_lie_system", "lie_system_from_dict",
    "affine_line", "projective_line", "volume_preserving", "example_r1",
    "example_r1_prime", "builtin_system", "BUILTIN_SYSTEMS",
    "spencer", "algebroid_bracket", "bracket_jacobi_residual",
    "sample_linear_sections", "closure_check", "ClosureReport",
    "linearization_rows_gap", "linearization_consistency",
    "schwarzian", "schwarzian_variation_check",
]


def _suffix(mu: Iterable[int]) -> str:
    return "".join(str(i + 1) * int(e) for i, e in enumerate(mu))


def jet_variable_names(ncomp: int, nvars: int, order: int, prefix: str) -> list[str]:
    """Names in component-major, graded order: all slots of component 1 first."""
    ctx = context(nvars, order)
    names = []
    for k in range(ncomp):
        for row in range(ctx.count):
            tail = _suffix(ctx.midx[row])
            names.append(f"{prefix}_{k + 1}" + (f"_{tail}" if tail else ""))
    return names


def _jet_column(ncomp: int, ctx: MultiIndexContext, k: int, row: int) -> int:
    return k * ctx.count + row


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
        """Point of the equation variables at the q-jet of the identity."""
        n = self.nvars
        ctx = self.jet_ctx()
        vals = np.zeros(n + n * ctx.count)
        vals[:n] = x
        for k in range(n):
            mu = tuple(int(i == k) for i in range(n))
            vals[n + _jet_column(n, ctx, k, 0)] = x[k]
            vals[n + _jet_column(n, ctx, k, ctx.pos(mu))] = 1.0
        return vals

    def finite_residual(self, f: ExprMap, samples: np.ndarray) -> np.ndarray:
        """Equations evaluated on the holonomic q-jet of a candidate map."""
        n, ctx = self.nvars, self.jet_ctx()
        if len(f) != n or len(f.variables) != n:
            raise ValueError(f"candidate map must take {n} variables to {n}")
        out = np.zeros((len(samples), self.neq))
        for s, x in enumerate(samples):
            lift = f.taylor_lift(np.asarray(x, float), self.order)
            vals = np.zeros(n + n * ctx.count)
            vals[:n] = x
            for k in range(n):
                for row in range(ctx.count):
                    vals[n + _jet_column(n, ctx, k, row)] = lift.raw(
                        k, tuple(ctx.midx[row]))
            out[s] = self.equations.eval(vals)
        return out

    def linear_rows(self, x: np.ndarray, route: str = "hand") -> np.ndarray:
        """Coefficient matrix of the linear system at x, (neq, n*count).

        route "hand" reads the stored linearization; route "derived"
        differentiates the defining equations at the identity jet.  Both
        are exact (jet lifts, no finite differences).
        """
        n, ctx = self.nvars, self.jet_ctx()
        ncols = n * ctx.count
        if route == "hand":
            if self.linearization is None:
                raise ValueError(f"{self.label}: no hand linearization stored")
            point = np.zeros(n + ncols)
            point[:n] = x
            lift = self.linearization.taylor_lift(point, 1)
            return lift.jacobian()[:, n:]
        if route != "derived":
            raise ValueError(f"unknown route '{route}'")
        point = self.identity_jet(np.asarray(x, float))
        lift = self.equations.taylor_lift(point, 1)
        return lift.jacobian()[:, n:]

    def prolonged_rows(self, x: np.ndarray, route: str = "hand") -> np.ndarray:
        """Rows of the system and its first formal derivatives at x.

        Output shape (neq*(1+n), n*count_{q+1}); the first neq rows are
        the original system on the lower-order columns.  Row block i+1
        is D_i applied to the system: the x-derivative of each
        coefficient plus the coefficient moved to the shifted slot.
        """
        n = self.nvars
        ctx_lo = self.jet_ctx()
        ctx_hi = self.jet_ctx(self.order + 1)
        ncols_lo, ncols_hi = n * ctx_lo.count, n * ctx_hi.count

        if route == "hand":
            if self.linearization is None:
                raise ValueError(f"{self.label}: no hand linearization stored")
            neq = len(self.linearization)
            point = np.zeros(n + ncols_lo)
            point[:n] = x
            lift = self.linearization.taylor_lift(point, 2)
            chain_cols: list[int] = []
        else:
            neq = self.neq
            point = self.identity_jet(np.asarray(x, float))
            lift = self.equations.taylor_lift(point, 2)
            # coefficients ride along the identity section, whose value
            # components move with x; higher slots are constant
            chain_cols = [n + _jet_column(n, ctx_lo, k, 0) for k in range(n)]

        out = np.zeros((neq * (1 + n), ncols_hi))
        nline = n + ncols_lo
        for e in range(neq):
            for k in range(n):
                for row in range(ctx_lo.count):
                    col_lo = _jet_column(n, ctx_lo, k, row)
                    mu = [0] * nline
                    mu[n + col_lo] += 1
                    coef = lift.raw(e, tuple(mu))
                    out[e, _jet_column(n, ctx_hi, k, row)] = coef
                    for i in range(n):
                        mu2 = list(mu)
                        mu2[i] += 1
                        dcoef = lift.raw(e, tuple(mu2))
                        if chain_cols:
                            mu3 = list(mu)
                            mu3[chain_cols[i]] += 1
                            dcoef += lift.raw(e, tuple(mu3))
                        out[neq * (1 + i) + e,
                            _jet_column(n, ctx_hi, k, row)] += dcoef
                        up = ctx_hi.pos(tuple(ctx_lo.midx[row]
                                              + np.eye(n, dtype=int)[i]))
                        out[neq * (1 + i) + e,
                            _jet_column(n, ctx_hi, k, up)] += coef
        return out

    def constraint_rows(self, x: np.ndarray) -> np.ndarray:
        """Sampling constraints and their formal derivatives at x, or empty."""
        if self.sampling_constraints is None:
            return np.zeros((0, self.nvars * self.jet_ctx(self.order + 1).count))
        helper = LieEquationSystem(
            label=self.label + ":constraints",
            nvars=self.nvars,
            order=self.order,
            box=self.box,
            equations=self.equations,
            linearization=self.sampling_constraints,
        )
        return helper.prolonged_rows(x, route="hand")

    def linear_residual(self, xi: ExprMap, samples: np.ndarray,
                        route: str = "hand") -> np.ndarray:
        """Linear system evaluated on the holonomic jet of a vector field."""
        sec = HolonomicSection(xi, self.order)
        out = np.zeros((len(samples), self.neq))
        for s, x in enumerate(samples):
            rows = self.linear_rows(np.asarray(x, float), route)
            out[s] = rows @ sec.raw_table(np.asarray(x, float)).ravel()
        return out


def linearization_rows_gap(system: LieEquationSystem, samples: np.ndarray) -> float:
    """Largest entry gap between the hand-written linearization and the
    one derived from the defining equations."""
    worst = 0.0
    for x in samples:
        gap = system.linear_rows(x, "hand") - system.linear_rows(x, "derived")
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def linearization_consistency(system: LieEquationSystem, xi: ExprMap,
                              samples: np.ndarray, eps: float = 1e-5) -> float:
    """Centered difference of the equations along id + eps*xi against the
    linear system; the gap shrinks like eps^2."""
    ident_texts = ", ".join(v for v in xi.variables)
    ident = ExprMap.parse(ident_texts, list(xi.variables))
    plus = _shifted_map(ident, xi, eps)
    minus = _shifted_map(ident, xi, -eps)
    fd = (system.finite_residual(plus, samples)
          - system.finite_residual(minus, samples)) / (2.0 * eps)
    lin = system.linear_residual(xi, samples)
    return float(np.max(np.abs(fd - lin)))


def _shifted_map(base: ExprMap, direction: ExprMap, eps: float) -> ExprMap:
    comps = []
    for b, d in zip(base, direction):
        comps.append((b + eps * d).to_text())
    return ExprMap.parse(", ".join(comps), list(base.variables))


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
        n = self.nvars
        ctx_jet = context(n, self.order)
        ctx_x = context(n, xorder)
        lift = self.f.taylor_lift(np.asarray(x, float), self.order + xorder)
        out = np.zeros((self.ncomp, ctx_jet.count, ctx_x.count))
        for k in range(self.ncomp):
            for row in range(ctx_jet.count):
                mu = ctx_jet.midx[row]
                for kp in range(ctx_x.count):
                    kappa = ctx_x.midx[kp]
                    out[k, row, kp] = (lift.raw(k, tuple(mu + kappa))
                                       / ctx_x.factorial[kp])
        return out

    def raw_table(self, x: np.ndarray) -> np.ndarray:
        return self.raw_series(x, 0)[:, :, 0]


class ExprSection:
    """Possibly non-holonomic section with one expression per slot.

    Component texts follow the component-major, graded slot order of
    jet_variable_names; nothing ties a slot to the derivative of the
    value slot, which is the whole point.
    """

    def __init__(self, components: ExprMap, nvars: int, order: int):
        nrows = context(nvars, order).count
        if len(components) % nrows:
            raise ValueError("component count must fill whole jet rows")
        self.components = components
        self.nvars = nvars
        self.ncomp = len(components) // nrows
        self.order = order

    @classmethod
    def parse(cls, text: str, nvars: int, order: int) -> "ExprSection":
        xvars = [f"x{k + 1}" for k in range(nvars)]
        return cls(ExprMap.parse(text, xvars), nvars, order)

    def raw_series(self, x: np.ndarray, xorder: int) -> np.ndarray:
        ctx_x = context(self.nvars, xorder)
        lift = self.components.taylor_lift(np.asarray(x, float), xorder)
        return lift.coeffs.reshape(self.ncomp, -1, ctx_x.count)

    def raw_table(self, x: np.ndarray) -> np.ndarray:
        return self.raw_series(x, 0)[:, :, 0]


def _poly_shift(nvars: int, degree: int, x: np.ndarray,
                xorder: int) -> np.ndarray:
    """Map from monomial coefficients to x-series around x.

    Shape (count_degree, count_xorder); entry [b, kp] is
    binom(beta, kappa) * x^(beta - kappa).  It depends on the point and
    the basis only, so every PolySection at x shares it.
    """
    ctx_b = context(nvars, degree)
    ctx_x = context(nvars, xorder)
    shift = np.zeros((ctx_b.count, ctx_x.count))
    x = np.asarray(x, dtype=float)
    for b in range(ctx_b.count):
        beta = ctx_b.midx[b]
        for kp in range(ctx_x.count):
            kappa = ctx_x.midx[kp]
            if np.any(kappa > beta):
                continue
            shift[b, kp] = binom_mu(beta, kappa) * np.prod(
                x ** (beta - kappa))
    return shift


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
        return self.shifted_series(
            _poly_shift(self.nvars, self.degree, x, xorder))

    def shifted_series(self, shift: np.ndarray) -> np.ndarray:
        """raw_series from a precomputed `_poly_shift` matrix of its point."""
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


def spencer(section: JetSection, samples: np.ndarray) -> np.ndarray:
    """Spencer operator d_i xi^k_mu - xi^k_{mu+1_i} for |mu| < order.

    Vanishes identically exactly when the section is holonomic.
    """
    n = section.nvars
    ctx_jet = context(n, section.order)
    ctx1 = context(n, 1)
    upos = [ctx1.pos(tuple(int(i == j) for j in range(n))) for i in range(n)]
    rows_out = context(n, section.order - 1).count
    out = np.zeros((len(samples), section.ncomp, rows_out, n))
    for s, x in enumerate(samples):
        tab = section.raw_series(np.asarray(x, float), 1)
        for row in range(rows_out):
            for i in range(n):
                up = ctx_jet.shifted(row, i)
                out[s, :, row, i] = tab[:, row, upos[i]] - tab[:, up, 0]
    return out


def _stack_mul(ctx: MultiIndexContext, a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """series.mul over leading batch axes, bit for bit.

    Each coefficient starts at 0.0 and gains its products one at a time
    in product-table order, the order np.add.at gives series.mul.
    """
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in zip(ctx.mul_i.tolist(), ctx.mul_j.tolist(),
                       ctx.mul_k.tolist()):
        out[..., k] += a[..., i] * b[..., j]
    return out


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
    rows_out = context(n, q_out).count
    batch = np.broadcast_shapes(tab_a.shape[:-3], tab_b.shape[:-3])
    out = np.zeros(batch + (n, rows_out, ctx_x.count))
    for row in range(rows_out):
        mu = ctx_jet.midx[row]
        acc = out[..., row, :]        # (..., n, count): every component k
        for row_nu in range(ctx_jet.count):
            nu = ctx_jet.midx[row_nu]
            if np.any(nu > mu):
                continue
            coef = binom_mu(mu, nu)
            rem = mu - nu
            for r in range(n):
                rem_r = rem.copy()
                rem_r[r] += 1
                row_rem = ctx_jet.pos(tuple(rem_r))
                term = _stack_mul(ctx_x, tab_a[..., r:r + 1, row_nu, :],
                                  tab_b[..., :, row_rem, :])
                term -= _stack_mul(ctx_x, tab_b[..., r:r + 1, row_nu, :],
                                   tab_a[..., :, row_rem, :])
                acc += coef * term
        for i in range(n):
            up = ctx_jet.shifted(row, i)
            sp_a = (series.dvar(ctx_x, tab_a[..., :, row, :], i)
                    - tab_a[..., :, up, :])
            sp_b = (series.dvar(ctx_x, tab_b[..., :, row, :], i)
                    - tab_b[..., :, up, :])
            acc += _stack_mul(ctx_x, tab_a[..., i:i + 1, 0, :], sp_b)
            acc -= _stack_mul(ctx_x, tab_b[..., i:i + 1, 0, :], sp_a)
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


@dataclass(frozen=True)
class ClosureReport:
    label: str
    npairs: int
    nullspace_dim: int
    max_residual: float
    lift_gap: float


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
    blocks = []
    for x in pts:
        rows = np.vstack([system.prolonged_rows(x, route),
                          system.constraint_rows(x)])
        basis = np.array([np.prod(x ** ctx_b.midx[bb])
                          for bb in range(ctx_b.count)])
        blocks.append(np.einsum("rc,b->rcb", rows, basis).reshape(
            rows.shape[0], -1))
    mat = np.vstack(blocks)
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
                  route: str = "hand") -> ClosureReport:
    """Brackets of random solution sections land back in the system.

    Also reports how much the bracket values move when the top-order
    slots of the inputs are replaced by fresh random polynomials; the
    formula cancels them identically, so the gap is pure roundoff.
    """
    n = system.nvars
    basis_vecs = _solution_basis(system, seed, degree, 40, route)
    sections = _draw_sections(system, basis_vecs, 2 * npairs, seed, degree)
    eval_pts = halton_points(system.box, neval, seed + 1)
    rng = np.random.default_rng(seed + 2)
    nlift = min(npairs, 5)
    # the bumped copies of pairs 0..nlift-1, drawn a then b, pair by pair
    sections += [s.perturb_top(rng) for s in sections[:2 * nlift]]
    shifts = [_poly_shift(n, degree, x, 1) for x in eval_pts]
    tabs = np.array([[s.shifted_series(sh) for sh in shifts]
                     for s in sections])
    # (pairs + bumped pairs, points, n, rows): every bracket in one call
    vals = _bracket_tables(n, system.order, context(n, 1),
                           tabs[0::2], tabs[1::2])[..., 0]
    rows = [system.linear_rows(x, route) for x in eval_pts]
    resid = np.array([[rows[s] @ v[s].ravel() for s in range(len(rows))]
                      for v in vals[:npairs]])
    # np.max, unlike a running max(), keeps a NaN so the check fails
    return ClosureReport(system.label, npairs, basis_vecs.shape[0],
                         float(np.max(np.abs(resid))),
                         float(np.max(np.abs(vals[npairs:] - vals[:nlift]))))


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
    zvar = list(eta.variables)
    ident = ExprMap.parse(", ".join(zvar), zvar)
    gaps = []
    for e in (eps, eps / 2.0):
        phi = _shifted_map(ident, eta, e)
        worst = 0.0
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
            worst = max(worst, abs(quots - exact))
        gaps.append(worst)
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


def lie_system_from_dict(data: dict) -> LieEquationSystem:
    return _make_system(
        data.get("label", "unnamed"),
        int(data["nvars"]),
        int(data["order"]),
        data["box"],
        data["equations"],
        data.get("linearization"),
        data.get("sampling_constraints"),
    )


def load_lie_system(name: str) -> LieEquationSystem:
    """Built-in name, explicit JSON path, or file under JETGAUGE_FIXTURES."""
    if name in BUILTIN_SYSTEMS:
        return builtin_system(name)
    if os.path.exists(name):
        with open(name, encoding="utf-8") as fh:
            return lie_system_from_dict(json.load(fh))
    override = os.environ.get("JETGAUGE_FIXTURES")
    if override:
        candidate = os.path.join(override, f"{name}.json")
        if os.path.exists(candidate):
            with open(candidate, encoding="utf-8") as fh:
                return lie_system_from_dict(json.load(fh))
    raise FileNotFoundError(f"no such system or fixture: {name}")
