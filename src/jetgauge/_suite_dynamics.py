"""The dynamics suite: speed, mass and vorticity transport of motions."""

import math
from itertools import groupby

import numpy as np

from ._runner import SUITES, CheckSpec, SuiteConfig, _shortfall
from .dynamics import (
    MotionFamily, compatibility_residual, el_residual, load_motion_family,
    mass_conservation_residual, pressure_recovery, random_solenoidal_field,
    speed_duality_gap, theorem3_check, vortex_residual,
)
from .expr import ExprMap, PolyMap, _random_poly
from .sampling import halton_points
from .series import DomainError, InverseSolveError

FAMILY_VARS = ("y1", "y2", "x1", "x2")
FAMILY_MONOS = (("x1",), ("x2",), ("y1", "x1"), ("y1", "x2"), ("y2", "x1"),
                ("y2", "x2"), ("x1", "x2"), ("x1", "x1"), ("x2", "x2"),
                ("y1", "y2"))
SMALL_BOX = ((-0.6, 0.6), (-0.6, 0.6))
KINETIC = ExprMap.parse("0.5 * (v1^2 + v2^2)", ["v1", "v2"])
FIELD_BOX = ((-0.8, 0.8),) * 3 + ((0.0, 2.0),)
STRETCHING = ExprMap.parse("z1, z3, 0 - z2", ["z1", "z2", "z3", "t"])
SPIN = ExprMap.parse("-1.3 * z2, 1.3 * z1, 0", ["z1", "z2", "z3", "t"])

ROTATION = MotionFamily.parse(
    m=2, n=1,
    forward=("y1 * cos(0.8 * x1) - y2 * sin(0.8 * x1), "
             "y1 * sin(0.8 * x1) + y2 * cos(0.8 * x1)"),
    inverse=("z1 * cos(0.8 * x1) + z2 * sin(0.8 * x1), "
             "0 - z1 * sin(0.8 * x1) + z2 * cos(0.8 * x1)"),
    ybox=((-1.0, 1.0), (-1.0, 1.0)), xbox=((-0.5, 0.5),),
    zbox=((-1.0, 1.0), (-1.0, 1.0)), label="rotation")

EXP_MOVED = MotionFamily.parse(
    1, 1, "exp(x1) * y1", inverse="z1 * exp(0 - x1)",
    variation="exp(x1) * y1 + eps * y1^2",
    ybox=((0.3, 1.0),), xbox=((-0.5, 0.5),), zbox=((0.2, 1.5),),
    label="exp-moved")


def _random_motion_family(seed: int) -> MotionFamily:
    # identity plus a small coupled polynomial; Newton-invertible on the box.
    # Row k of np.eye(2, 5, 1) is the linear term y_k.
    forward = _random_poly(np.random.default_rng(seed), FAMILY_VARS,
                           FAMILY_MONOS, 0.12, np.eye(2, 5, 1))
    return MotionFamily(2, 2, forward, ybox=SMALL_BOX, xbox=SMALL_BOX,
                        zbox=((-0.9, 0.9), (-0.9, 0.9)),
                        label=f"random-{seed}")


def _family_roster(cfg: SuiteConfig, cache: dict) -> list[MotionFamily]:
    if "families" not in cache:
        fams = [_random_motion_family(cfg.seed + 1000 + k) for k in range(10)]
        if cfg.fixture:
            fams.append(load_motion_family(cfg.fixture))
        cache["families"] = fams
    return cache["families"]


def _stacked(fams: list[MotionFamily]) -> MotionFamily:
    # forward coeffs (K, 1, m, count), against points (K, M, m + n)
    head = fams[0]
    return MotionFamily(head.m, head.n,
                        PolyMap.stack([f.forward for f in fams]),
                        ybox=head.ybox, xbox=head.xbox, zbox=head.zbox,
                        label=f"{head.label} to {fams[-1].label}")


def _per_family(fams, residual, npts: int, seed: int, source: bool = False):
    # residual(fam, points) of the k-th family on npts points drawn at
    # seed + k: source (y, x) points with source, else target (z, x) points;
    # a family whose residual is empty checked none of them.  A run of
    # PolyMap families, the random ones, which share boxes, variables and
    # degree, is one stacked family on stacked points; on an error each
    # runs alone, so the first failing one raises what a loop over the
    # families would
    res, count, k = [], 0, 0
    for poly, run in groupby(fams, lambda f: isinstance(f.forward, PolyMap)):
        for block in [list(run)] if poly else ([f] for f in run):
            pts = np.stack([fam.sample_yx(npts, seed + k + j) if source
                            else fam.sample_zx(npts, seed + k + j)
                            for j, fam in enumerate(block)])
            k += len(block)
            try:
                r = (residual(_stacked(block), pts) if len(block) > 1
                     else residual(block[0], pts[0]))
            except (InverseSolveError, DomainError):
                for fam, p in zip(block, pts):
                    residual(fam, p)
                raise
            res.append(r)
            count += npts * len(block) * (r.size > 0)
    return tuple(res), count


def _check_speed_compatibility(cfg: SuiteConfig, cache: dict):
    return _per_family(_family_roster(cfg, cache), compatibility_residual,
                       min(cfg.samples, 16), cfg.seed + 77)


def _check_speed_duality(cfg: SuiteConfig, cache: dict):
    return _per_family(_family_roster(cfg, cache), speed_duality_gap,
                       min(cfg.samples, 16), cfg.seed + 78, source=True)


def _theorem3_report(cfg: SuiteConfig, cache: dict):
    if "theorem3" not in cache:
        zx = EXP_MOVED.sample_zx(min(cfg.samples, 12), cfg.seed + 9)
        cache["theorem3"] = theorem3_check(EXP_MOVED, zx, eps=1e-3), len(zx)
    return cache["theorem3"]


def _check_variation_transport(cfg: SuiteConfig, cache: dict):
    (exact, _, _, base), count = _theorem3_report(cfg, cache)
    return (exact, base), count


def _check_variation_transport_rate(cfg: SuiteConfig, cache: dict):
    # reduces its own inputs: the residual is a ratio of two maxima
    (_, fd, fd_half, _), count = _theorem3_report(cfg, cache)
    gap, gap_half = (float(np.max(np.abs(g), initial=0.0))
                     for g in (fd, fd_half))
    return (gap / gap_half if gap_half else math.nan) - 2.0, count


def _check_mass_transport(cfg: SuiteConfig, cache: dict):
    return _per_family([ROTATION] + _family_roster(cfg, cache)[:3],
                       lambda fam, zx: mass_conservation_residual(fam, zx)[0],
                       min(cfg.samples, 12), cfg.seed + 55)


def _check_force_density_duality(cfg: SuiteConfig, cache: dict):
    zx = ROTATION.sample_zx(min(cfg.samples, 16), cfg.seed + 13)
    return el_residual(ROTATION, KINETIC, zx)[2], len(zx)


def _check_vortex_transport(cfg: SuiteConfig, cache: dict):
    # the 10 fields as one stack, lifted once at the shared points
    pts = halton_points(FIELD_BOX, min(cfg.samples, 12), cfg.seed + 41)
    fields = PolyMap.stack([random_solenoidal_field(cfg.seed + 300 + k)
                            for k in range(10)])
    return vortex_residual(fields, pts), 10 * len(pts)


def _check_vortex_compressible_control(cfg: SuiteConfig, cache: dict):
    # the stretching field has defect |omega . div v| = 1 exactly
    pts = halton_points(FIELD_BOX, min(cfg.samples, 12), cfg.seed + 42)
    # reduces its own inputs: the residual is a shortfall of the maximum
    defect = np.max(np.abs(vortex_residual(STRETCHING, pts,
                                           enforce_divergence=False)),
                    initial=0.0)
    return _shortfall(defect, 1e-3), len(pts)


def _check_pressure_path_independence(cfg: SuiteConfig, cache: dict):
    pts = halton_points(((-0.7, 0.7),) * 3, min(cfg.samples, 10),
                        cfg.seed + 23)
    return pressure_recovery(SPIN, 0.5, pts, (0.0, 0.0, 0.0))[1], len(pts)


SUITES["dynamics"] = (
    CheckSpec("speed_compatibility",
              "speed fields satisfy the curl-bracket identities", 1e-8,
              _check_speed_compatibility),
    CheckSpec("speed_duality",
              "source and target speeds agree through the map", 1e-10,
              _check_speed_duality),
    CheckSpec("variation_transport",
              "both exact routes for the variation speed agree", 1e-8,
              _check_variation_transport),
    CheckSpec("variation_transport_rate",
              "finite variation quotients halve with eps", 0.2,
              _check_variation_transport_rate),
    CheckSpec("mass_transport", "transported density satisfies continuity",
              1e-9, _check_mass_transport),
    CheckSpec("force_density_duality",
              "source and target force densities are dual through the map",
              1e-10, _check_force_density_duality),
    CheckSpec("vortex_transport",
              "half curl of acceleration transports the vorticity", 1e-8,
              _check_vortex_transport),
    CheckSpec("vortex_compressible_control",
              "a stretching field must break vorticity transport", 0.0,
              _check_vortex_compressible_control),
    CheckSpec("pressure_path_independence",
              "staircase pressure integrals agree across axis orders", 1e-7,
              _check_pressure_path_independence),
)
