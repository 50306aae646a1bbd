"""Outside-in layer tracing for the benchmark.

The tracer wraps jetgauge's public callables at each layer seam from outside
the package: it replaces the module or class attribute that callers look up,
records one span per call while an op is active, and puts every original
back on uninstall.  A span holds its id, its parent span, the op it belongs
to, its name, start, end and self time (duration minus the time its child
spans cover).  Spans stay in memory until dump() writes them out.

The series kernel is called about 10^5 times per op, so its calls are kept
as per-(op, parent, name) counters with the same self-time rule instead of
as single spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name).  "Class.method" names a class attribute.
# A module-level function is also rebound in every jetgauge module that
# imported it by name, because those modules look it up in their own
# globals (suites calls closure_check, cli calls run_suite, and so on).
TARGETS = (
    ("jetgauge.suites", "run_suite", "suite"),
    ("jetgauge.cli", "main", "cli.main"),
    ("jetgauge.report", "Report.to_json", "report.to_json"),
    ("jetgauge.pseudogroups", "closure_check", "pseudogroups.closure_check"),
    ("jetgauge.pseudogroups", "algebroid_bracket",
     "pseudogroups.algebroid_bracket"),
    ("jetgauge.pseudogroups", "sample_linear_sections",
     "pseudogroups.sample_linear_sections"),
    ("jetgauge.series", "mul", "series.mul"),
    ("jetgauge.series", "dvar", "series.dvar"),
    ("jetgauge.series", "analytic", "series.analytic"),
    ("jetgauge.expr", "ExprMap.taylor_lift", "expr.taylor_lift"),
    ("jetgauge.expr", "ExprMap.parse", "expr.parse"),
    ("jetgauge.dynamics", "MotionFamily.invert", "dynamics.invert"),
    ("jetgauge.dynamics", "swell_family", "dynamics.swell_family"),
    ("jetgauge.elasticity", "pairing_identity_check",
     "elasticity.pairing_identity_check"),
    ("jetgauge.elasticity", "torsor_equilibrium_check",
     "elasticity.torsor_equilibrium_check"),
    ("jetgauge.sampling", "halton_points", "sampling.halton_points"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("numpy.linalg", "inv", "linalg.inv"),
    ("numpy.linalg", "det", "linalg.det"),
)

COUNTED = {"series.mul", "series.dvar", "series.analytic"}


def _span_name(base: str, args: tuple, kwargs: dict) -> str:
    if base == "suite":  # one span name per suite: suite.<name>
        return f"suite.{args[0] if args else kwargs['name']}"
    return base


def _work(name: str, args: tuple) -> int:
    # multiply-adds of one series product: the size of its product table
    return len(args[0].mul_k) if name == "series.mul" else 0


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.op: int | None = None   # spans are recorded only while set
        self.spans: list[list] = []  # [id, parent, op, name, start, end, self]
        self.counters: dict[tuple, list] = {}  # (op, parent, name) -> [calls, self, work]
        self._stack: list[list] = []  # [span id, child seconds] per open call
        self._next_id = 1
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, fn, base: str):
        clock = time.perf_counter
        stack = self._stack
        counted = base in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            name = _span_name(base, args, kwargs)
            parent = stack[-1][0] if stack else 0
            if counted:
                span_id = parent
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s = duration - frame[1]
                if counted:
                    row = self.counters.setdefault((op, parent, name),
                                                   [0, 0.0, 0])
                    row[0] += 1
                    row[1] += self_s
                    row[2] += _work(name, args)
                else:
                    self.spans.append([span_id, parent, op, name, start,
                                       end, self_s])

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, base in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, base))
                else:
                    patched = self._wrap(raw, base)
                self._patch(cls, method, raw, patched)
                continue
            original = getattr(module, attr)
            patched = self._wrap(original, base)
            owners = [module] + [
                m for n, m in sorted(sys.modules.items())
                if (n == "jetgauge" or n.startswith("jetgauge."))
                and m is not module and vars(m).get(attr) is original]
            for owner in owners:
                self._patch(owner, attr, original, patched)

    def _patch(self, owner, attr: str, original, patched) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def uninstall(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patches)
        self._patches = []
        return restored

    def dump(self, path: str, **extra) -> None:
        counters = [[*key, *row] for key, row in self.counters.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": counters, **extra}, fh)


def totals(trace: dict) -> dict[str, list]:
    """Per span name: [calls, self seconds, total seconds, work] over a dump."""
    out: dict[str, list] = {}
    for _, _, _, name, start, end, self_s in trace["spans"]:
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += self_s
        row[2] += end - start
    for _, _, name, calls, self_s, work in trace["counters"]:
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += calls
        row[1] += self_s
        row[3] += work
    return out
