"""Batch driver: run named check suites, load fixtures, emit reports.

Reports are JSON on stdout or --out; the swell table lands in CSV with one
block of rows per particle label, and --svg renders the same data as a
static overlay of trajectories and one instantaneous surface line.  Exit
code 0 means every check passed, 1 means at least one failed, 2 means the
run itself could not be carried out.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .dynamics import InverseSolveError, swell_rows
from .series import DomainError
from .suites import SUITE_NAMES, SuiteConfig, _swell_params, run_suite

__all__ = ["main", "build_parser", "export_swell_csv", "export_swell_svg",
           "CSV_HEADER"]

CSV_HEADER = "t,a,b,x,y,xbar,ybar"


def _swell_table(params: dict, nlabels_a: int = 6, nlabels_b: int = 3,
                 ntimes: int = 33) -> list[tuple[float, ...]]:
    k, omega = params["k"], params["omega"]
    period = 2.0 * math.pi / abs(omega) if omega else 1.0
    span = 0.6 * math.pi / k
    labels = [(a, b)
              for b in np.linspace(0.0, 2.0, nlabels_b)
              for a in np.linspace(0.0, span, nlabels_a)]
    times = np.linspace(0.0, period, ntimes)
    return swell_rows(labels=labels, times=times, **params)


def export_swell_csv(params: dict, path: str,
                     rows: list[tuple[float, ...]] | None = None) -> list:
    rows = _swell_table(params) if rows is None else rows
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    return rows


def _polyline(points: list[tuple[float, float]], stroke: str,
              width: float, dashed: bool = False) -> str:
    coords = " ".join(f"{x:.6g},{y:.6g}" for x, y in points)
    dash = ' stroke-dasharray="4 3"' if dashed else ""
    return (f'<polyline fill="none" stroke="{stroke}" '
            f'stroke-width="{width:.3g}"{dash} points="{coords}"/>')


def export_swell_svg(params: dict, path: str,
                     rows: list[tuple[float, ...]] | None = None) -> None:
    """Trajectories as closed curves plus the t = 0 surface line."""
    rows = _swell_table(params) if rows is None else rows
    blocks: dict[tuple[float, float], list[tuple[float, float]]] = {}
    for t, a, b, x, y, _, _ in rows:
        blocks.setdefault((a, b), []).append((x, y))

    R0, k, omega, c = params["R0"], params["k"], params["omega"], params["c"]
    span = 0.6 * math.pi / k
    line = []
    for a in np.linspace(0.0, span, 240):
        r = R0 * math.exp(0.0)
        ang = -(k * float(a) + c)
        line.append((float(a) + r * math.cos(ang), r * math.sin(ang)))

    xs = [p[0] for pts in blocks.values() for p in pts] + [p[0] for p in line]
    ys = [p[1] for pts in blocks.values() for p in pts] + [p[1] for p in line]
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    x0, y1 = min(xs) - pad, max(ys) + pad
    wide, high = max(xs) + pad - x0, y1 - (min(ys) - pad)

    def flip(p: tuple[float, float]) -> tuple[float, float]:
        return p[0] - x0, y1 - p[1]

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {wide:.6g} {high:.6g}">']
    stroke_w = 0.004 * max(wide, high)
    for pts in blocks.values():
        parts.append(_polyline([flip(p) for p in pts], "#1f3c88", stroke_w))
    parts.append(_polyline([flip(p) for p in line], "#b33040",
                           1.5 * stroke_w, dashed=True))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetgauge",
        description="run verification suites and emit JSON reports")
    parser.add_argument("--suite", default="all",
                        choices=[*SUITE_NAMES, "all"])
    parser.add_argument("--fixture", metavar="FILE",
                        help="extra fixture joined to the suite roster "
                             "(single suite only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=64,
                        help="low-discrepancy points per box")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every tolerance by this factor")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--csv", metavar="FILE",
                        help="write the swell trajectory table")
    parser.add_argument("--svg", metavar="FILE",
                        help="render the swell trajectories")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="zero the clock fields for byte-stable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = SuiteConfig(seed=args.seed, samples=args.samples,
                      tol_scale=args.tol_scale, fixture=args.fixture)
    try:
        report = run_suite(args.suite, cfg)
    except (ValueError, OSError, DomainError, InverseSolveError) as exc:
        print(f"jetgauge: {exc}", file=sys.stderr)
        return 2

    if args.csv or args.svg:
        # Only a swell fixture holds swell parameters.
        params = _swell_params(cfg if args.suite == "swell" else SuiteConfig())
        try:
            rows = _swell_table(params)
            if args.csv:
                export_swell_csv(params, args.csv, rows)
            if args.svg:
                export_swell_svg(params, args.svg, rows)
        except OSError as exc:
            print(f"jetgauge: {exc}", file=sys.stderr)
            return 2

    if args.no_timestamp:
        report = report.strip_clock()
    text = report.to_json()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"jetgauge: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
