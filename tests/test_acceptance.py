"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line with the binding residuals, then
asserts.  Tolerances are pinned here and nowhere else; negative controls
enter as shortfall residuals (max(0, floor - observed)) with bound zero.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from jetgauge.dynamics import (
    compatibility_residual, pressure_recovery, random_solenoidal_field,
    swell_family, theorem3_check, vortex_residual,
)
from jetgauge.elasticity import (
    DisplacementSection, StressState, adjoint_spencer, pairing_identity_check,
    riemann_residual, torsor_equilibrium_check,
)
from jetgauge.expr import ExprMap
from jetgauge.groups import (
    Grid, curvature, linear_gauge_dd, load_group_spec, maurer_cartan_pullback,
    right_pullback, spencer_from_action, variation_body, variation_body_fd,
    variation_space, variation_space_fd,
)
from jetgauge.pseudogroups import builtin_system, closure_check
from jetgauge.sampling import halton_points
from jetgauge._runner import _max_abs
from jetgauge._suite_dynamics import EXP_MOVED, _random_motion_family
from jetgauge._suite_group import _random_gauging
from polytext import poly_text

GRID = Grid(((-0.5, 0.5), (-0.5, 0.5)), (5, 5))
PLANE_PTS = halton_points(((-0.4, 0.6), (-0.5, 0.5)), 12, 5)
GAUGINGS = {
    "affine": "exp(0.3*x1) * (1 + 0.2*x2^2), x1 - 0.4*x2",
    "e2": "0.2*x1 - 0.3*x2^2, sin(x1*x2), 0.5*x2",
}
LAMS = {
    "affine": "0.3*x1 - 0.2*x2^2, 0.1 + 0.5*x1*x2",
    "e2": "0.3*x1 - 0.2*x2^2, 0.1 + 0.5*x1*x2, 0.2*x2 - 0.1*x1^2",
}


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_lines(capsys):
    # Criterion lines must reach the terminal even when capture is on.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _criterion(num: int, label: str, parts: list[tuple[str, float, float]]):
    ok = all(value <= bound for _, value, bound in parts)
    detail = "; ".join(f"{name} {value:.2e}<={bound:.1e}"
                       for name, value, bound in parts)
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label} [{detail}]"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num} failed: {detail}"


def _shortfall(observed: float, floor: float) -> float:
    return max(0.0, floor - observed)


def test_criterion_01_gauge_sequence_exactness():
    worst = 0.0
    for name in ("affine", "e2"):
        spec = load_group_spec(name)
        for k in range(10):
            g = _random_gauging(spec, 100 + 17 * k)
            field = maurer_cartan_pullback(spec, g, GRID)
            worst = max(worst, _max_abs(curvature(spec, field)))
    _criterion(1, "pulled-back curvature vanishes on random gaugings",
               [("max curvature", worst, 1e-9)])


def test_criterion_02_affine_line_fidelity():
    spec = load_group_spec("affine")
    g = ExprMap.parse(GAUGINGS["affine"], ["x1", "x2"])
    field = maurer_cartan_pullback(spec, g, GRID)
    form_gap = 0.0
    for x in PLANE_PTS:
        lift = g.taylor_lift(x, 1)
        expect = lift.jacobian() / lift.value()[0]   # both rows over a1
        form_gap = max(form_gap, float(np.max(np.abs(field.value_at(x) - expect))))

    c = spec.structure_constants()
    c_gap = max(abs(c[1, 0, 1] + 1.0), abs(c[1, 1, 0] - 1.0))

    # the line's adjoint is the plane one on x2-free data:
    # sigma = (s, s, 0, 0) and mu = (m, 0) give f = (s', s') and
    # m12 = m' + s, read at the points (x, 0)
    x = halton_points(((-0.9, 0.9),), 9, 19)[:, 0]
    line = StressState.parse("x1^2 - 0.4*x1, x1^2 - 0.4*x1, 0, 0",
                             "0.3*x1^3, 0")
    f, m = adjoint_spencer(line, np.column_stack([x, np.zeros_like(x)]))
    adj_gap = max(float(np.max(np.abs(f - (2.0 * x - 0.4)[:, None]))),
                  float(np.max(np.abs(m - (0.9 * x ** 2 + x ** 2 - 0.4 * x)))))
    bump = "(x1 + 1)^2 * (1 - x1)^2 * (x2 + 1)^2 * (1 - x2)^2"
    sec = DisplacementSection.parse(f"({bump}) * (0.4 + x1^2), 0",
                                    f"({bump}) * (x1 - 0.3)")
    lhs, rhs = pairing_identity_check(line, sec, ((-1.0, 1.0), (-1.0, 1.0)),
                                      order=9)

    _criterion(2, "scaling group forms, constants, and the line adjoint", [
        ("frame form", form_gap, 1e-12),
        ("c2_12 exact", c_gap, 0.0),
        ("adjoint equations", adj_gap, 1e-12),
        ("pairing gap", abs(lhs + rhs), 1e-10),
    ])


def test_criterion_03_variation_formulas_halve():
    parts = []
    for name in ("affine", "e2"):
        spec = load_group_spec(name)
        g = ExprMap.parse(GAUGINGS[name], ["x1", "x2"])
        lam = ExprMap.parse(LAMS[name], ["x1", "x2"])
        body = maurer_cartan_pullback(spec, g, GRID)
        space = right_pullback(spec, g, GRID)
        exact = variation_body(spec, body, lam, PLANE_PTS)
        e1 = np.max(np.abs(variation_body_fd(spec, g, lam, PLANE_PTS, 1e-3) - exact))
        e2 = np.max(np.abs(variation_body_fd(spec, g, lam, PLANE_PTS, 5e-4) - exact))
        parts.append((f"{name} body ratio", abs(e1 / e2 - 2.0), 0.2))
        exact = variation_space(spec, space, lam, PLANE_PTS)
        s1 = np.max(np.abs(variation_space_fd(spec, g, lam, PLANE_PTS, 1e-3) - exact))
        s2 = np.max(np.abs(variation_space_fd(spec, g, lam, PLANE_PTS, 5e-4) - exact))
        parts.append((f"{name} space ratio", abs(s1 / s2 - 2.0), 0.2))
    _criterion(3, "gauge variations match halving finite differences", parts)


def test_criterion_04_algebroid_closure():
    resid = lift = 0.0
    for name in ("affine", "projective", "volume2", "volume3", "r1"):
        rep = closure_check(builtin_system(name), npairs=50, seed=3, neval=8)
        resid = max(resid, _max_abs(rep[0]))
        lift = max(lift, _max_abs(rep[1]))
    _criterion(4, "brackets of 50 section pairs stay in each system", [
        ("constraint violation", resid, 1e-9),
        ("lift independence", lift, 1e-10),
    ])


def test_criterion_05_speed_compatibility_and_variation():
    worst_v = worst_u = 0.0
    for k in range(10):
        fam = _random_motion_family(1000 + k)
        v_form, u_form = compatibility_residual(fam, fam.sample_zx(16, 77 + k))
        worst_v = max(worst_v, _max_abs(v_form))
        worst_u = max(worst_u, _max_abs(u_form))
    exact, fd, fd_half, base = theorem3_check(
        EXP_MOVED, EXP_MOVED.sample_zx(12, 9))
    _criterion(5, "speed fields close and variations converge at rate one", [
        ("dv + [v,v]", worst_v, 1e-8),
        ("du - [u,u]", worst_u, 1e-8),
        ("route agreement", _max_abs((exact, base)), 1e-8),
        ("halving ratio", abs(_max_abs(fd) / _max_abs(fd_half) - 2.0), 0.2),
    ])


def test_criterion_06_vortex_transport():
    pts = halton_points(((-0.8, 0.8),) * 3 + ((0.0, 2.0),), 12, 41)
    worst = 0.0
    for k in range(10):
        worst = max(worst, _max_abs(
            vortex_residual(random_solenoidal_field(300 + k), pts)))
    stretch = ExprMap.parse("z1, z3, 0 - z2", ["z1", "z2", "z3", "t"])
    defect = _max_abs(vortex_residual(stretch, pts, enforce_divergence=False))
    rot = ExprMap.parse("-1.3 * z2, 1.3 * z1, 0", ["z1", "z2", "z3", "t"])
    _, path_gap = pressure_recovery(
        rot, 0.5, halton_points(((-0.7, 0.7),) * 3, 8, 23), (0.0, 0.0, 0.0))
    _criterion(6, "vorticity transport with compressible control", [
        ("transport residual", worst, 1e-8),
        ("compressible control", _shortfall(defect, 1e-3), 0.0),
        ("pressure paths", _max_abs(path_gap), 1e-7),
    ])


def test_criterion_07_swell():
    _, (drift, _, circle, frame) = swell_family(1.0, 0.1, 1.0, 0.0)
    _, (broken, _, _, _) = swell_family(1.0, 0.1, 1.0, 0.0, decay=0.25)
    _criterion(7, "rolling swell invariants with unbalanced control", [
        ("jacobian drift", _max_abs(drift), 1e-9),
        ("circularity", _max_abs(circle), 1e-10),
        ("moving frame", _max_abs(frame), 1e-9),
        ("unbalanced control", _shortfall(_max_abs(broken), 1e-3), 0.0),
    ])


def test_criterion_08_elasticity():
    pts = halton_points(((-0.8, 0.8), (-0.8, 0.8)), 16, 31)
    monos = ["x1", "x2", "x1*x2", "x1^2", "x2^2", "x1^3", "x1*x2^2",
             "x1^2*x2", "x2^3"]
    rng = np.random.default_rng(14)
    compat = 0.0
    for _ in range(5):
        sec = DisplacementSection.parse(
            f"{poly_text(rng, monos, 1.0)}, {poly_text(rng, monos, 1.0)}")
        compat = max(compat, _max_abs(riemann_residual(sec, pts)))

    bump = "(x1 + 1)^2 * (1 - x1)^2 * (x2 + 1)^2 * (1 - x2)^2"
    monos4 = monos + ["1", "x1^2*x2^2", "x1^3*x2", "x1*x2^3", "x1^4", "x2^4"]
    rng = np.random.default_rng(88)
    pair_gap = 0.0
    for _ in range(3):
        state = StressState.parse(
            ", ".join(poly_text(rng, monos4, 1.0) for _ in range(4)),
            ", ".join(poly_text(rng, monos4, 1.0) for _ in range(2)))
        sec = DisplacementSection.parse(
            f"({bump}) * ({poly_text(rng, monos4, 0.5)}), "
            f"({bump}) * ({poly_text(rng, monos4, 0.5)})",
            f"({bump}) * ({poly_text(rng, monos4, 0.5)})")
        lhs, rhs = pairing_identity_check(state, sec,
                                          ((-1.0, 1.0), (-1.0, 1.0)), order=9)
        pair_gap = max(pair_gap, abs(lhs + rhs))

    state = StressState.parse(
        "0.4*x1^2 - x2 + 0.7, 1.2*x1*x2 + 0.3, 0.5*x2^2 - 0.8*x1, x1 + x2 - 0.2",
        "0.6*x1^2 + x2, 0.9*x1*x2 - 0.4")
    f, m = adjoint_spencer(state, pts)
    x1, x2 = pts[:, 0], pts[:, 1]
    printed = max(
        float(np.max(np.abs(f[:, 0] - (0.8 * x1 + x2)))),
        float(np.max(np.abs(f[:, 1] - (1.2 * x2 + 1.0)))),
        float(np.max(np.abs(m - (2.1 * x1 + (1.2 * x1 * x2 + 0.3)
                                 - (0.5 * x2 ** 2 - 0.8 * x1))))))

    torsor = _max_abs((
        torsor_equilibrium_check(state, ((-1.0, 1.0), (-1.0, 1.0)), order=8),
        torsor_equilibrium_check(StressState.parse("x1, 0, 0, x2"),
                                 ((-1.0, 1.0), (-1.0, 1.0)), order=8)))

    shared = poly_text(rng, monos, 1.0)
    sym = StressState.parse(f"x1^2 - x2, {shared}, {shared}, x1*x2")
    _, msym = adjoint_spencer(sym, pts)
    _criterion(8, "strain compatibility, pairing, equilibrium, torsor", [
        ("compatibility of strains", compat, 1e-9),
        ("pairing gap", pair_gap, 1e-10),
        ("printed equations", printed, 1e-12),
        ("torsor balance", torsor, 1e-10),
        ("symmetric stress moment", float(np.max(np.abs(msym))), 0.0),
    ])


def test_criterion_09_action_jet_isomorphism():
    spec = load_group_spec("affine")
    lam = ExprMap.parse("0.2*x1^2 - 0.1, 0.3*x1", ["x1"])
    pts = halton_points(spec.action.box, 8, 3)
    chk = spencer_from_action(spec, lam, 1, pts)
    zero_form = ExprMap.parse("sin(x1)*x2, x1*x2^2", ["x1", "x2"])
    dd = float(np.max(np.abs(linear_gauge_dd(zero_form, 2, 2, 0, PLANE_PTS))))
    _criterion(9, "action-induced jets match the linear gauge complex", [
        ("operator mismatch", _max_abs(chk), 1e-10),
        ("dd residual", dd, 1e-9),
    ])


def test_criterion_10_determinism_and_runtime(tmp_path):
    args = [sys.executable, "-m", "jetgauge", "--suite", "all",
            "--seed", "42", "--no-timestamp"]
    t0 = time.perf_counter()
    r1 = subprocess.run(args + ["--out", str(tmp_path / "a.json")],
                        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    r2 = subprocess.run(args + ["--out", str(tmp_path / "b.json")],
                        capture_output=True, text=True)
    same = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    _criterion(10, "full run is deterministic and fast", [
        ("exit codes", float(r1.returncode + r2.returncode), 0.0),
        ("byte mismatch", 0.0 if same else 1.0, 0.0),
        ("runtime seconds", elapsed, 60.0),
    ])
