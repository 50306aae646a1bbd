"""Pseudogroups presented by equations on jets of transformations.

A system of order q on n variables cuts a locus in the q-jet space of maps
x -> y.  Jet coordinates are spelled y_k for values and y_k_<digits> for
derivative slots, where the digits name the (sorted, 1-based) directions:
y_1_12 is d2 y^1 / dx1 dx2.  The matching linear system uses xi_k_<digits>
over the same base variables.

The stored linearization is a system's one linear system: it is what is
prolonged, sampled for sections and closed under the bracket.
linearization_rows_gap checks it against the rows derived exactly by
differentiating the defining equations at the identity jet.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import series
from ._fixtures import LIE_SYSTEM, parse_map, read_fixture, validate
from ._multiindex import (MultiIndexContext, context, derivative_rows,
                          poly_shift, raised_rows, shift_table)
from .expr import ExprMap
from .sampling import halton_points

__all__ = [
    "LieEquationSystem", "PolySection",
    "jet_variable_names", "load_lie_system", "lie_system_from_dict",
    "affine_line", "projective_line", "volume_preserving", "example_r1",
    "example_r1_prime", "builtin_system", "BUILTIN_SYSTEMS",
    "closure_check", "linearization_rows_gap",
    "schwarzian", "schwarzian_of_map",
    "algebroid_bracket", "sample_linear_sections",   # closure_check's stages
    "HolonomicSection",      # a map's jets: the closed-form bracket's reference
]

SECTION_DEGREE = 2      # polynomial degree of every sampled section's slots
PIN_POINTS = 40         # chart points that pin a basis whose rows vary in x
PIN_SEED = 0            # their Halton stream, the same for every run


def _suffix(mu: Iterable[int]) -> str:
    return "".join(str(i + 1) * int(e) for i, e in enumerate(mu))


def jet_variable_names(ncomp: int, nvars: int, order: int, prefix: str) -> list[str]:
    """Names in component-major, graded order: all slots of component 1 first."""
    tails = [_suffix(mu) for mu in context(nvars, order).midx]
    return [f"{prefix}_{k + 1}" + (f"_{tail}" if tail else "")
            for k in range(ncomp) for tail in tails]


def _jet_column(ctx: MultiIndexContext, k: int, row: int) -> int:
    return k * ctx.count + row


@dataclass(frozen=True)
class LieEquationSystem:
    label: str
    nvars: int
    order: int
    box: tuple[tuple[float, float], ...]
    equations: ExprMap                       # over x-vars + y-jet names
    linearization: ExprMap                   # over x-vars + xi-jet names

    def jet_ctx(self, order: int | None = None) -> MultiIndexContext:
        return context(self.nvars, self.order if order is None else order)

    def identity_jet(self, x: np.ndarray) -> np.ndarray:
        """Point of the equation variables at the q-jet of the identity;
        x of shape (..., n) gives one row per point."""
        n, ctx = self.nvars, self.jet_ctx()
        x = np.asarray(x, dtype=float)
        vals = self._lift_base(x)
        for k in range(n):
            mu = tuple(int(i == k) for i in range(n))
            vals[..., n + _jet_column(ctx, k, 0)] = x[..., k]
            vals[..., n + _jet_column(ctx, k, ctx.pos(mu))] = 1.0
        return vals

    def _lift_base(self, x: np.ndarray) -> np.ndarray:
        """Base points of a linear lift at x (..., n): x, then zero jet
        slots."""
        x = np.asarray(x, dtype=float)
        base = np.zeros(x.shape[:-1] + (self.nvars * (1 + self.jet_ctx().count),))
        base[..., :self.nvars] = x
        return base

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

    def linear_rows(self, x: np.ndarray) -> np.ndarray:
        """Coefficient matrix of the linearization at x, (..., neq, n*count)
        for x of shape (..., n); one point is the zero-batch case.  Exact
        (a jet lift, no finite differences), and a block is lifted once.
        """
        lift = self.linearization.taylor_lift(self._lift_base(x), 1)
        return lift.jacobian()[..., self.nvars:]

    def prolonged_rows(self, x: np.ndarray) -> np.ndarray:
        """Rows of the system and its first formal derivatives at x.

        Output shape (..., neq*(1+n), n*count_{q+1}) for x of shape
        (..., n); the first neq rows are the original system on the
        lower-order columns.  Row block i+1 is D_i applied to the system:
        the x-derivative of each coefficient plus the coefficient moved to
        the shifted slot.

        All come from one order-2 lift of the whole block: the coefficients
        are the lift's first slots in the jet variables, and their
        x_i-derivatives its mixed second slots, whose mu! is 1.  Block 0 is
        set to the coefficients, so a -0.0 keeps its sign; each D_i block
        is zeros plus the coefficients shifted by e_i, then plus their
        x_i-derivatives.
        """
        n, neq = self.nvars, len(self.linearization)
        cnt, cnt_hi = self.jet_ctx().count, self.jet_ctx(self.order + 1).count
        lift = self.linearization.taylor_lift(self._lift_base(x), 2)
        batch = lift.coeffs.shape[:-2]
        coef = lift.jacobian()[..., n:].reshape(batch + (neq, n, cnt))
        # [..., e, i, var]: d/dx_i of the coefficient of jet variable var
        dx = np.take(lift.coeffs, derivative_rows(n + n * cnt, 2)[0][:n, n:],
                     -1).reshape(batch + (neq, n, n, cnt))
        out = np.zeros(batch + (1 + n, neq, n, cnt_hi))
        out[..., 0, :, :, :cnt] = coef
        for i, up in enumerate(raised_rows(n, self.order + 1)):
            # a view first: beside an index array, the int would move the
            # indexed axes to the front
            block = out[..., 1 + i, :, :, :]
            block[..., up] += coef
        out[..., 1:, :, :, :cnt] += np.swapaxes(dx, -4, -3)
        return out.reshape(batch + ((1 + n) * neq, n * cnt_hi))


def linearization_rows_gap(system: LieEquationSystem,
                           samples: np.ndarray) -> np.ndarray:
    """Entry gaps between the stored linearization's rows and the ones
    derived from the defining equations by one jet lift at the identity
    jet, (M, neq, n*count)."""
    pts = np.asarray(samples, dtype=float)
    derived = system.equations.taylor_lift(system.identity_jet(pts), 1)
    return system.linear_rows(pts) - derived.jacobian()[..., system.nvars:]


class HolonomicSection:
    """Jet of an actual map: every slot is a derivative of the same f."""

    def __init__(self, f: ExprMap, order: int):
        self.f = f
        self.nvars = len(f.variables)
        self.ncomp = len(f)
        self.order = order

    def raw_series(self, x: np.ndarray, xorder: int) -> np.ndarray:
        """x-Taylor coefficients through xorder of every raw slot xi^k_mu
        around each point of x (P, n), (P, ncomp, rows, count_xorder)."""
        ctx_x = context(self.nvars, xorder)
        lift = self.f.taylor_lift(np.asarray(x, float), self.order + xorder)
        # slot of mu + kappa for every jet row mu and x-series row kappa
        rows = np.array([[lift.ctx.pos(mu + kappa) for kappa in ctx_x.midx]
                         for mu in context(self.nvars, self.order).midx])
        return lift.coeffs[..., rows] * lift.ctx.factorial[rows] / ctx_x.factorial


class PolySection:
    """A stack of sections whose slots are polynomials in a shared monomial
    basis: coeffs[..., k, r, b] multiplies x^beta_b in slot r of component
    k, and the leading axes index the stack (none for one section)."""

    def __init__(self, coeffs: np.ndarray, nvars: int, order: int, degree: int):
        ctx_jet = context(nvars, order)
        ctx_b = context(nvars, degree)
        if coeffs.ndim < 3 or coeffs.shape[-2:] != (ctx_jet.count, ctx_b.count):
            raise ValueError("coefficient block does not match jet and basis")
        self.coeffs = coeffs
        self.nvars = nvars
        self.ncomp = coeffs.shape[-3]
        self.order = order
        self.degree = degree

    def __getitem__(self, index) -> "PolySection":
        """The sections at index on the stack axes."""
        return PolySection(self.coeffs[index], self.nvars, self.order,
                           self.degree)

    def raw_series(self, x: np.ndarray, xorder: int) -> np.ndarray:
        """x-Taylor coefficients through xorder of every slot around each
        point of x (P, n), (..., P, ncomp, rows, count_xorder)."""
        shift = poly_shift(self.nvars, self.degree, x, xorder)
        return np.einsum("...krb,pbw->...pkrw", self.coeffs, shift)

    def perturb_top(self, rng: np.random.Generator) -> "PolySection":
        """Fresh random polynomials on the top-order slots, from one draw
        over the stack: the stream of one draw per section, in order."""
        top = context(self.nvars, self.order).degree == self.order
        out = self.coeffs.copy()
        out[..., top, :] += rng.standard_normal(out[..., top, :].shape)
        return PolySection(out, self.nvars, self.order, self.degree)


@functools.lru_cache(maxsize=None)
def _bracket_plan(n: int, q_out: int) -> tuple[np.ndarray, ...]:
    """The bracket's binomial terms C(mu, nu) (a^r_nu b_{mu-nu+e_r} -
    b^r_nu a_{mu-nu+e_r}) as padded columns over the output rows mu.

    Returns r, the row of nu, the row of mu - nu + e_r and the
    coefficient, each (width, rows_out): column j holds every row's j-th
    term in loop order (nu ascending, then r), and a row with fewer terms
    is padded with row 0 and coefficient 0, which no term has.  Shared
    and read-only.
    """
    binom, rest = shift_table(n, q_out + 1, q_out + 1)
    raised = raised_rows(n, q_out + 1)
    terms = [[(r, nu, raised[r, rest[row, nu]], binom[row, nu])
              for nu in np.flatnonzero(binom[row]) for r in range(n)]
             for row in range(context(n, q_out).count)]
    width = max(map(len, terms))
    table = np.array([t + [(0, 0, 0, 0.0)] * (width - len(t))
                      for t in terms]).T          # (4, width, rows_out)
    plan = (*table[:3].astype(np.intp), table[3])
    for part in plan:
        part.flags.writeable = False
    return plan


def _bracket_tables(nvars: int, q_out: int, ctx_x: MultiIndexContext,
                    tab_a: np.ndarray, tab_b: np.ndarray) -> np.ndarray:
    """Differential bracket on raw-slot series tables.

    Inputs hold sections of order q_out + 1 as x-series tables shaped
    (..., n, rows, ctx_x.count), with leading batch axes that broadcast;
    the output holds the bracket's slots for |mu| <= q_out as series
    through x-order ctx_x.order - 1, the most its derivatives leave valid.
    Products are formed at that order alone: truncation is a prefix that
    keeps each coefficient's terms in table order, so they carry the bits
    of full products cut afterwards.  Each column of _bracket_plan is one
    stacked product pair over every output row, then the Spencer terms
    follow one direction at a time: every element gains its terms in the
    order of a loop over rows, and a pad adds 0.0 to a sum that starts at
    +0.0 and so is never -0.0.  Every output element sees the same float
    operations in the same order whatever the batch shape, so one stacked
    call equals one call per slice bit for bit.
    """
    n = nvars
    ctx_o = context(n, ctx_x.order - 1)
    batch = np.broadcast_shapes(tab_a.shape[:-3], tab_b.shape[:-3])
    out = np.zeros(batch + (n, context(n, q_out).count, ctx_o.count))
    lo_a, lo_b = tab_a[..., :ctx_o.count], tab_b[..., :ctx_o.count]
    for r, nu, rem, coef in zip(*_bracket_plan(n, q_out)):
        # (..., 1, rows_out, count) against (..., n, rows_out, count)
        term = series.mul(ctx_o, lo_a[..., r, nu, :][..., None, :, :],
                          lo_b[..., :, rem, :])
        term -= series.mul(ctx_o, lo_b[..., r, nu, :][..., None, :, :],
                           lo_a[..., :, rem, :])
        term[..., coef == 0.0, :] = 0.0     # pads: 0 * inf would be NaN
        out += coef[:, None] * term
    sp_a, sp_b = (series.spencer(ctx_x, tab_a, q_out),
                  series.spencer(ctx_x, tab_b, q_out))
    for i in range(n):
        out += series.mul(ctx_o, lo_a[..., i:i + 1, :1, :],
                          sp_b[..., i, :, :, :])
        out -= series.mul(ctx_o, lo_b[..., i:i + 1, :1, :],
                          sp_a[..., i, :, :, :])
    return out


_Section = PolySection | HolonomicSection


def algebroid_bracket(a: _Section, b: _Section,
                      samples: np.ndarray) -> np.ndarray:
    """Bracket slot values at samples (M, n), (..., M, n, count_{q-1}) for
    inputs of order q.  Stacks are bracketed pair by pair, and every
    bracket comes from one kernel call on the two blocks."""
    if a.order != b.order or a.nvars != b.nvars:
        raise ValueError("sections must share base and order")
    if a.ncomp != a.nvars:
        raise ValueError("bracket needs vector-field sections")
    pts = np.asarray(samples, dtype=float)
    return _bracket_tables(a.nvars, a.order - 1, context(a.nvars, 1),
                           a.raw_series(pts, 1), b.raw_series(pts, 1))[..., 0]


def bracket_jacobi_residual(a: _Section, b: _Section, c: _Section,
                            samples: np.ndarray) -> float:
    """Cyclic sum [[a,b],c] + [[b,c],a] + [[c,a],b], nested via x-series."""
    n, q = a.nvars, a.order
    if q < 2:
        raise ValueError("nesting drops two orders; need order >= 2 inputs")
    ctx1 = context(n, 1)
    rows_mid = context(n, q - 1).count
    pts = np.asarray(samples, dtype=float)
    ta, tb, tc = a.raw_series(pts, 2), b.raw_series(pts, 2), c.raw_series(pts, 2)
    # the three cyclic terms on a leading axis, then over the points
    u, v, w = (np.stack([ta, tb, tc]), np.stack([tb, tc, ta]),
               np.stack([tc, ta, tb]))
    inner = _bracket_tables(n, q - 1, context(n, 2), u, v)
    vals = _bracket_tables(n, q - 2, ctx1, inner,
                           w[..., :rows_mid, :ctx1.count])[..., 0]
    return float(np.max(np.abs(vals[0] + vals[1] + vals[2])))


def _nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace rows of mat, (dim, columns): the unit vectors
    of the dead columns, which no row touches, then the null rows of an
    SVD of the live columns alone, placed on them.  Zero columns add no
    singular value, so the relative rank threshold is the full matrix's;
    with no live column the result is the identity."""
    live = mat.any(axis=0)
    dead = np.flatnonzero(~live)
    null = np.zeros((0, 0))
    if live.any():
        sub = mat[:, live]
        # U is never read: a tall matrix asks for its thin U and still a
        # full vt
        _, sig, vt = np.linalg.svd(sub,
                                   full_matrices=sub.shape[0] < sub.shape[1])
        null = vt[int(np.sum(sig > 1e-10 * sig[0])):]
    out = np.zeros((len(dead) + len(null), mat.shape[1]))
    out[np.arange(len(dead)), dead] = 1.0
    out[len(dead):, live] = null
    return out


def _has_constant_rows(system: LieEquationSystem) -> bool:
    """No x occurs in the linearization."""
    xvars = {f"x{k + 1}" for k in range(system.nvars)}
    return not any(xvars & e.variables() for e in system.linearization)


@functools.lru_cache(maxsize=32)
def _solution_basis(system: LieEquationSystem,
                    degree: int) -> tuple[np.ndarray, int]:
    """Orthonormal nullspace (null, nb) of the prolonged system over a
    polynomial ansatz of the given degree: the rows of kron(null, eye(nb))
    span the sections' (column, monomial) coefficients.  Rows with no x in
    them are constant, and a polynomial solves them exactly when each
    monomial's coefficients lie in their nullspace at one point, the box's
    centre; nb is the monomial count.  Other rows are pinned at the
    PIN_POINTS Halton points of stream PIN_SEED over the ansatz, which
    fixes the polynomial identity once the points outnumber the monomials,
    and nb is 1.  No seed enters, so the basis is built once per (system,
    degree) and shared read-only."""
    nb = context(system.nvars, degree).count
    constant = _has_constant_rows(system)
    pts = (np.mean(system.box, axis=1)[None] if constant
           else halton_points(system.box, PIN_POINTS, PIN_SEED))
    rows = system.prolonged_rows(pts)
    if constant:
        null = _nullspace(rows[0])
    else:
        # (point, row) by (column, monomial): each point's rows times x^beta
        mat = np.einsum("prc,pb->prcb", rows,
                        poly_shift(system.nvars, degree, pts, 0)[..., 0])
        null, nb = _nullspace(mat.reshape(-1, rows.shape[2] * nb)), 1
    if len(null) == 0:
        raise ValueError(
            f"{system.label}: no polynomial sections at degree {degree}")
    null.flags.writeable = False
    return null, nb


def sample_linear_sections(system: LieEquationSystem, count: int,
                           seed: int) -> PolySection:
    """A stack of count seeded random sections of the prolonged linear
    system, polynomials of degree SECTION_DEGREE, each scaled to a largest
    coefficient of 1.  The seed drives the draws alone: the basis they
    combine is the system's, the same for every seed."""
    null, nb = _solution_basis(system, SECTION_DEGREE)
    n, q = system.nvars, system.order
    # one block of draws is the stream of one draw per section.  Each sum
    # starts at 0.0 and gains its null vectors' terms in order, with no
    # BLAS: step k adds every column's k-th nonzero term at once, and a
    # column past its last adds a zero entry's term, +-0.0 on a finite
    # draw, which changes no bits.
    draws = np.random.default_rng(seed).standard_normal(
        (count, len(null) * nb)).reshape(count, len(null), nb)
    combos = np.zeros((count, null.shape[1], nb))
    ranked = np.argsort(null == 0.0, axis=0, kind="stable")
    cols = np.arange(null.shape[1])
    for rows in ranked[:np.count_nonzero(null, axis=0).max()]:
        combos += null[rows, cols, None] * draws[:, rows]
    combos /= np.maximum(np.abs(combos).max(axis=(1, 2)), 1e-30)[:, None, None]
    return PolySection(combos.reshape(count, n, context(n, q + 1).count, -1),
                       n, q + 1, SECTION_DEGREE)


def closure_check(system: LieEquationSystem, npairs: int = 50, seed: int = 0,
                  neval: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Brackets of random solution sections land back in the system.

    Also measures how much the bracket values move when the top-order
    slots of the inputs are replaced by fresh random polynomials; the
    formula cancels them identically, so the gap is pure roundoff.
    Returns the tuple (residuals, lift gaps): the linear system applied to
    each bracket, (npairs, neval, neq), and the bumped pairs' bracket
    values minus the first pairs', (min(npairs, 5), neval, n, rows).
    """
    secs = sample_linear_sections(system, 2 * npairs, seed)
    nlift = min(npairs, 5)
    # the bumped copies of pairs 0..nlift-1, drawn a then b, pair by pair
    bumped = secs[:2 * nlift].perturb_top(np.random.default_rng(seed + 2))
    # the a and b halves of pairs then bumped pairs, each one contiguous
    # block: the series einsum runs faster on it than on a strided view
    a, b = (PolySection(np.concatenate([secs.coeffs[h::2],
                                        bumped.coeffs[h::2]]),
                        secs.nvars, secs.order, secs.degree) for h in (0, 1))
    eval_pts = halton_points(system.box, neval, seed + 1)
    # (pairs + bumped pairs, points, n, rows): every bracket in one call
    vals = algebroid_bracket(a, b, eval_pts)
    rows = system.linear_rows(eval_pts)
    # one stacked product on the contiguous values (a strided view moved
    # bits); it matched one product per pair and point for every builtin at
    # seeds 0-29 on OpenBLAS default, Haswell and Prescott, 1 and 2 threads
    resid = np.matmul(rows, vals[:npairs].reshape(
        npairs, len(rows), -1)[..., None])[..., 0]
    return resid, vals[npairs:] - vals[:nlift]


def schwarzian(jet) -> np.ndarray:
    """Schwarzian from raw third-order data (f, f', f'', f''') on the last
    axis: (...) for jet (..., 4)."""
    vals = np.asarray(jet, dtype=float)
    if vals.shape[-1:] != (4,):
        raise ValueError("need the four raw entries of a 3-jet on the last axis")
    f1, f2, f3 = vals[..., 1], vals[..., 2], vals[..., 3]
    if np.any(f1 == 0.0):
        raise series.DomainError("vanishing first derivative")
    return f3 / f1 - 1.5 * (f2 / f1) ** 2


def _raw3(lift) -> np.ndarray:
    """(f, f', f'', f''') of a one-variable lift, (..., 4)."""
    return np.stack([lift.raw(0, (k,)) for k in range(4)], axis=-1)


def schwarzian_of_map(f: ExprMap, xs: np.ndarray) -> np.ndarray:
    """Schwarzian of a map of one variable at each point of xs (M, 1),
    (M,) from one lift of the block."""
    return schwarzian(_raw3(f.taylor_lift(np.asarray(xs, dtype=float), 3)))


def _make_system(label: str, nvars: int, order: int, box, equations: str,
                 linearization: str,
                 what: str = "built-in system") -> LieEquationSystem:
    xvars = [f"x{k + 1}" for k in range(nvars)]
    eq_vars = xvars + jet_variable_names(nvars, nvars, order, "y")
    li_vars = xvars + jet_variable_names(nvars, nvars, order, "xi")
    return LieEquationSystem(
        label=label,
        nvars=nvars,
        order=order,
        box=tuple(map(tuple, box)),
        equations=parse_map(equations, eq_vars, what, "equations"),
        linearization=parse_map(linearization, li_vars, what, "linearization"),
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
    # y1 = f(x1), y2 = x2/f'(x1) has det(dy/dx) = 1: the third equation
    # follows from the first two, and states the hidden first-order
    # condition xi_1_1 + xi_2_2 = 0 as a row of the linearization
    return _make_system(
        "shear-volume", 2, 1, [[0.25, 1.25], [0.25, 1.25]],
        "y_1_2, y_2*y_1_1 - x2, y_1_1*y_2_2 - y_1_2*y_2_1 - 1",
        "xi_1_2, x2*xi_1_1 + xi_2, xi_1_1 + xi_2_2")


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


@functools.cache
def builtin_system(name: str) -> LieEquationSystem:
    """A built-in system, built once per process and shared."""
    try:
        return BUILTIN_SYSTEMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown system '{name}'; have {sorted(BUILTIN_SYSTEMS)}") from None


def lie_system_from_dict(data: dict) -> LieEquationSystem:
    what = "pseudogroup fixture"
    return _make_system(**validate(data, LIE_SYSTEM, what), what=what)


@functools.lru_cache(maxsize=32)
def _fixture_system(text: str) -> LieEquationSystem:
    return lie_system_from_dict(json.loads(text))


def load_lie_system(name: str) -> LieEquationSystem:
    """A fixture that read_fixture finds, else a built-in name.  A
    fixture is built once per process for each content, keyed by its
    canonical JSON, so its closure basis is too."""
    try:
        data = read_fixture(name)
    except FileNotFoundError:
        if name in BUILTIN_SYSTEMS:
            return builtin_system(name)
        raise
    return _fixture_system(json.dumps(data, sort_keys=True))
