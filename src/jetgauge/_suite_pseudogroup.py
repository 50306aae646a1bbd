"""The pseudogroup suite: bracket closure on Lie equation systems."""

from functools import partial

from ._runner import SUITES, CheckSpec, SuiteConfig, _roster
from .expr import ExprMap
from .pseudogroups import (
    builtin_system, closure_check, linearization_rows_gap, load_lie_system,
    schwarzian_of_map,
)
from .sampling import halton_points

LIE_SYSTEMS = ("affine", "projective", "volume2", "volume3", "r1")


def _lie_roster(cfg: SuiteConfig, cache: dict) -> list:
    return _roster(cfg, cache, "systems",
                   lambda: [builtin_system(n) for n in LIE_SYSTEMS],
                   load_lie_system)


def _closure_reports(cfg: SuiteConfig, cache: dict) -> list:
    if "closure" not in cache:
        cache["closure"] = [
            closure_check(sys, npairs=50, seed=cfg.seed + 3, neval=8)
            for sys in _lie_roster(cfg, cache)]
    return cache["closure"]


def _check_closure_part(part: int, cfg: SuiteConfig, cache: dict):
    # part of each closure_check report: 0 the residual, 1 the lift gap
    reps = _closure_reports(cfg, cache)
    return tuple(rep[part] for rep in reps), sum(len(r) for r, _ in reps)


def _check_linearization_rows(cfg: SuiteConfig, cache: dict):
    res, count = [], 0
    for sys in _lie_roster(cfg, cache):
        pts = halton_points(sys.box, min(cfg.samples, 20), cfg.seed + 4)
        res.append(linearization_rows_gap(sys, pts))
        count += len(pts)
    return tuple(res), count


def _check_schwarzian_invariance(cfg: SuiteConfig, cache: dict):
    # moebius reparametrization of exp leaves the schwarzian unchanged
    f = ExprMap.parse("exp(x)", ["x"])
    g = ExprMap.parse("(2*exp(x) + 1)/(exp(x) + 3)", ["x"])
    xs = halton_points(((-0.8, 0.8),), min(cfg.samples, 16), cfg.seed + 8)
    return schwarzian_of_map(g, xs) - schwarzian_of_map(f, xs), len(xs)


SUITES["pseudogroup"] = (
    CheckSpec("bracket_closure",
              "brackets of solution sections solve the linear system", 1e-9,
              partial(_check_closure_part, 0)),
    CheckSpec("bracket_lift_independence",
              "bracket values ignore the top-order lift slots", 1e-10,
              partial(_check_closure_part, 1)),
    CheckSpec("linearization_rows",
              "hand linearization matches the derived rows", 1e-10,
              _check_linearization_rows),
    CheckSpec("schwarzian_invariance",
              "moebius reparametrization preserves the schwarzian", 1e-10,
              _check_schwarzian_invariance),
)
