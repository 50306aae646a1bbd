"""Measured process of the in-process workloads (closure, transport).

Calls jetgauge.suites.run_suite as a library user would, one op per
command.  The generator that started this process sends one JSON command a
line on stdin and reads one JSON reply a line on stdout:

  {"seed": S, "phase": P, "op": K}   run one op; phase "traced" runs it
                                     under the layer tracer as op K
  {"end": true}                      remove the tracer, write its spans to
                                     --trace-out, reply and exit

Each op reply holds the op's wall time and its start and end on the
system-wide monotonic clock, its error, check result and report digest;
the generator judges them.  Anything the program prints goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

import jetgauge.suites as suites

from tracing import Tracer

OPS = {"closure": ("pseudogroup",), "transport": ("dynamics", "group")}


def run_op(workload: str, seed: int, phase: str,
           tracer: Tracer | None = None, op_id: int | None = None) -> dict:
    """One op; with a tracer, spans are recorded under op_id while the
    suites run, and not while the benchmark checks their reports."""
    cfg = suites.SuiteConfig(seed=seed)
    reports, error = [], None
    if tracer:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        for name in OPS[workload]:
            reports.append(suites.run_suite(name, cfg))
    except Exception as exc:  # a raising op is a measured failure, not a crash
        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = (f"{type(exc).__name__}: {exc} "
                 f"({where.filename.rsplit('/', 1)[-1]}:{where.lineno})")
    t1 = time.perf_counter()
    if tracer:
        tracer.op = None
    text = "".join(r.strip_clock().to_json() for r in reports)
    return {"phase": phase, "key": str(seed), "wall_s": t1 - t0,
            "window": [t0, t1], "error": error,
            "passed": error is None and all(r.passed for r in reports),
            "digest": None if error else hashlib.sha256(text.encode()).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(OPS), required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    tracer = None
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd.get("end"):
            restored = None
            if tracer:
                restored = tracer.uninstall()
                tracer.dump(args.trace_out, restored=restored)
            reply.write(json.dumps({"restored": restored}) + "\n")
            reply.flush()
            return 0
        if cmd["phase"] == "traced" and tracer is None:
            tracer = Tracer()
            tracer.install()
        rec = run_op(args.workload, cmd["seed"], cmd["phase"],
                     tracer if cmd["phase"] == "traced" else None, cmd["op"])
        reply.write(json.dumps(rec) + "\n")
        reply.flush()
    return 1


if __name__ == "__main__":
    sys.exit(main())
