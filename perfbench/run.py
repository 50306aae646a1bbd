"""jetgauge benchmark: one workload driven through the public entry points.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout; jetgauge is imported from ./src, which
needs no build step.  The workloads, and why each exists, are in README.md:

  closure     in-process run_suite("pseudogroup"): bracket closure
  transport   in-process run_suite("dynamics") then run_suite("group")
  cold_start  one fresh `python -m jetgauge` per op, elasticity and swell

This process is the only load generator.  It never imports jetgauge, runs
at most one timed child at a time, and pins BLAS and OpenMP to one thread
in every child.  Beside the timed child it keeps the reference sampler of
reference.py running, and it reports every time normalised to the
reference speed.  Op seeds are a fixed cycle derived from --seed.  Every
output is checked; the lines printed before the last give each metric with
its unit and sample count, the raw wall times, and the environment.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import sys
import time
from statistics import median
from typing import NamedTuple

import reference
import tracing
from reference import NOMINAL_S, PIN

HERE = os.path.dirname(os.path.abspath(__file__))
PY = sys.executable
WORKLOADS = ("closure", "transport", "cold_start")
# Default OpenBLAS threading on two shared cores made the SVDs of one
# closure op up to 30x slower, and unevenly so; every child is pinned (PIN).
CYCLE = 5            # op seeds derived from one workload seed
# Timed fresh interpreters for setup_s, after one that only fills the
# bytecode and file caches.  They sit before and after the workload because
# this machine's speed drifts over seconds.
PROBES_BEFORE, PROBES_AFTER = 2, 2
TAIL_BEYOND = 10     # samples that must lie beyond the tail percentile
MIN_OPS = TAIL_BEYOND + 5  # so the tail is not the minimum
MEASURE_CAP_S = 120.0
RUN_LIMIT_S = 170.0  # the whole run, children included
COLD_SUITES = ("elasticity", "swell")

END_TO_END = (("setup_s", "s"), ("verify_s", "s"), ("verify_s_tail", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("pseudogroups.closure_check_s", "s"),
    ("pseudogroups.algebroid_bracket.calls", "count"),
    ("pseudogroups.algebroid_bracket_s", "s"),
    ("pseudogroups.sample_linear_sections_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul_s", "s"),
    ("series.mul.madds", "count"),
    ("series.dvar.calls", "count"),
    ("series.dvar_s", "s"),
    ("series.analytic.calls", "count"),
    ("expr.taylor_lift.calls", "count"),
    ("expr.taylor_lift_s", "s"),
    ("expr.parse.calls", "count"),
    ("expr.parse_s", "s"),
    ("dynamics.invert.calls", "count"),
    ("dynamics.invert_s", "s"),
    ("linalg.svd.calls", "count"),
    ("linalg.svd_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg_s", "s"),
    ("sampling.halton_points.calls", "count"),
    ("sampling.halton_points_s", "s"),
    ("import.scipy_stats_s", "s"),
    ("import.jetgauge_s", "s"),
    ("cli.main_s", "s"),
    ("report.to_json_s", "s"),
    ("proc.overhead_s", "s"),
    ("elasticity.pairing_identity_check_s", "s"),
    ("elasticity.torsor_equilibrium_check_s", "s"),
    ("dynamics.swell_family_s", "s"),
    ("suite.pseudogroup_s", "s"),
    ("suite.dynamics_s", "s"),
    ("suite.group_s", "s"),
    ("suite.elasticity_s", "s"),
    ("suite.swell_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
LINALG = ("linalg.svd", "linalg.solve", "linalg.inv", "linalg.det")


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


class Child(NamedTuple):
    code: int
    wall_s: float
    maxrss_mb: float
    window: tuple[float, float]  # perf_counter at spawn and at reap
    out: str
    err: str


def op_seeds(seed: int) -> list[int]:
    return random.Random(seed).sample(range(10**6), CYCLE)


def tail(values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_BEYOND samples
    above it; the minimum, at percentile 0, when there are too few."""
    ranked = sorted(values)
    if len(ranked) <= TAIL_BEYOND:
        return ranked[0], 0.0
    rank = len(ranked) - TAIL_BEYOND - 1
    return ranked[rank], 100.0 * (rank + 1) / len(ranked)


def measure(op, seconds: float, min_ops: int) -> list[dict]:
    """Call op(1), op(2), ... until `seconds` have passed and min_ops ops
    ran, or until MEASURE_CAP_S have passed."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(op(len(ops) + 1))
        elapsed = time.perf_counter() - start
        if elapsed >= MEASURE_CAP_S or (elapsed >= seconds
                                        and len(ops) >= min_ops):
            return ops


def budget(args) -> tuple[float, int]:
    """Seconds and minimum op count of the untraced phase.  A traced run
    gives half its time to untraced ops, the base of trace.overhead_ratio."""
    if args.trace:
        return args.seconds / 2, 1
    return args.seconds, MIN_OPS


def last_line(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class Children:
    """Starts one timed child at a time and reaps it with wait4, which
    gives that child's own peak RSS, and keeps the reference sampler
    (reference.py) running beside it.  The run's time limit is a SIGALRM
    set in main; stop() kills and reaps every child still running."""

    def __init__(self, env: dict, work: str):
        self.env, self.work = env, work
        self.pid = self.sampler = None
        self.t0 = 0.0
        self.cmd = self.reply = None
        self.samples_path = os.path.join(work, "reference.samples")

    def spawn(self, argv: list[str], tag: str, pipes: bool = False) -> tuple:
        """Start argv with stdout and stderr in files of the run's scratch,
        or, with pipes, with stdin and stdout on self.cmd and self.reply."""
        out = os.path.join(self.work, f"{tag}.out")
        err = os.path.join(self.work, f"{tag}.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        if pipes:
            cmd_r, cmd_w = os.pipe()
            reply_r, reply_w = os.pipe()
            actions[0] = (os.POSIX_SPAWN_DUP2, reply_w, 1)
            actions.append((os.POSIX_SPAWN_DUP2, cmd_r, 0))
        self.t0 = time.perf_counter()
        try:
            self.pid = os.posix_spawn(argv[0], argv, self.env,
                                      file_actions=actions)
        finally:
            if pipes:
                os.close(cmd_r)
                os.close(reply_w)
        if pipes:
            self.cmd = os.fdopen(cmd_w, "w", encoding="utf-8")
            self.reply = os.fdopen(reply_r, encoding="utf-8")
        return out, err

    def reap(self) -> tuple[int, float, float]:
        """Exit code, wall time since spawn and peak RSS (MB) of the child."""
        _, status, usage = os.wait4(self.pid, 0)
        wall_s = time.perf_counter() - self.t0
        self.pid = None
        self.close_pipes()
        return (os.waitstatus_to_exitcode(status), wall_s,
                usage.ru_maxrss / 1024.0)

    def run(self, argv: list[str], tag: str) -> Child:
        out, err = self.spawn(argv, tag)
        t0 = self.t0
        code, wall_s, maxrss_mb = self.reap()
        return Child(code, wall_s, maxrss_mb, (t0, t0 + wall_s), out, err)

    def ask(self, cmd: dict) -> dict | None:
        """Send the worker one command and read its reply; None when the
        worker has gone."""
        try:
            self.cmd.write(json.dumps(cmd) + "\n")
            self.cmd.flush()
        except BrokenPipeError:
            return None
        line = self.reply.readline()
        return json.loads(line) if line else None

    def start_sampler(self) -> None:
        self.sampler = os.posix_spawn(
            PY, [PY, os.path.join(HERE, "reference.py"), self.samples_path],
            self.env)

    def stop_sampler(self) -> list[tuple[float, float]]:
        """End the sampler and return its (start, duration) samples."""
        os.kill(self.sampler, signal.SIGTERM)
        os.waitpid(self.sampler, 0)
        self.sampler = None
        samples = reference.read_samples(self.samples_path)
        if not samples:
            raise BenchError("reference sampler recorded nothing")
        return samples

    def close_pipes(self) -> None:
        for fh in (self.cmd, self.reply):
            if fh is not None:
                try:
                    fh.close()
                except OSError:
                    pass
        self.cmd = self.reply = None

    def stop(self) -> None:
        for pid in (self.pid, self.sampler):
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self.pid = self.sampler = None
        self.close_pipes()


def norm(wall_s: float, ref_s: float) -> float:
    """Wall time at the reference speed."""
    return wall_s * NOMINAL_S / ref_s


def importtime(path: str) -> tuple[float, float]:
    """(scipy.stats cumulative, jetgauge modules' own) seconds from the
    `-X importtime` log; scipy.stats reads 0 when it was not imported."""
    scipy_stats, own = 0.0, 0.0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, cum_us, name = fields[0], fields[1], fields[2].strip()
            if name == "scipy.stats" and not scipy_stats:
                scipy_stats = int(cum_us) / 1e6
            if name == "jetgauge" or name.startswith("jetgauge."):
                own += int(self_us) / 1e6
    return scipy_stats, own


def probe(children: Children, root: str, trace: int) -> dict:
    """Time `import jetgauge.cli` in one fresh interpreter."""
    argv = [PY] + (["-X", "importtime"] if trace else []) + [
        os.path.join(HERE, "probe.py")]
    child = children.run(argv, "probe")
    if child.code != 0:
        raise BenchError(f"import probe failed: {last_line(child.err)}")
    with open(child.out, encoding="utf-8") as fh:
        result = json.loads(fh.read().strip().splitlines()[-1])
    src = os.path.realpath(os.path.join(root, "src", "jetgauge"))
    if os.path.realpath(result["env"]["jetgauge"]) != src:
        raise BenchError(f"jetgauge resolved to {result['env']['jetgauge']},"
                         f" not {src}")
    if trace:
        result["scipy_stats_s"], result["jetgauge_s"] = importtime(child.err)
    result["window"] = child.window
    return result


def judge(ops: list[dict]) -> None:
    """Mark each op ok or not.  An op that raised is a failure but not a
    wrong output; a failing check or a report whose bytes differ from the
    run's first op with the same key is both."""
    first: dict[str, str] = {}
    for op in ops:
        if op["error"]:
            op["ok"], op["wrong"] = False, False
            continue
        same = first.setdefault(op["key"], op["digest"]) == op["digest"]
        op["ok"] = op["passed"] and same
        op["wrong"] = not op["ok"]


def in_process(children: Children, args, seeds: list[int],
               work: str) -> dict:
    """One worker process; this process sends it one op at a time."""
    trace_out = os.path.join(work, "worker-trace.json")
    argv = [PY, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--trace-out", trace_out]
    _, err = children.spawn(argv, "worker", pipes=True)

    def ask(cmd: dict) -> dict:
        reply = children.ask(cmd)
        if reply is None:
            raise BenchError(f"worker failed: {last_line(err)}")
        return reply

    def op(i: int, phase: str) -> dict:
        return ask({"seed": seeds[i % len(seeds)], "phase": phase, "op": i})

    ops = [op(0, "warmup")]
    ops += measure(lambda i: op(i, "measure"), *budget(args))
    if args.trace:
        ops += [op(k, "traced") for k in range(len(seeds))]
    restored = ask({"end": True})["restored"]
    code, _, rss = children.reap()
    if code != 0:
        raise BenchError(f"worker failed: {last_line(err)}")
    traces = []
    if args.trace:
        with open(trace_out, encoding="utf-8") as fh:
            traces.append(json.load(fh))
    return {"ops": ops, "rss": rss, "traces": traces, "restored": restored,
            "proc_overhead": []}


def cold_start(children: Children, args, seeds: list[int],
               work: str) -> dict:
    flagsets = [(suite, seed) for seed in seeds for suite in COLD_SUITES]
    out, csv, svg = (os.path.join(work, f"cold.{ext}")
                     for ext in ("json", "csv", "svg"))
    ops, traces, overhead, rss = [], [], [], 0.0

    def op(i: int, phase: str) -> dict:
        nonlocal rss
        suite, seed = flagsets[i % len(flagsets)]
        files = [out] + ([csv, svg] if suite == "swell" else [])
        flags = ["--suite", suite, "--seed", str(seed), "--no-timestamp",
                 "--out", out]
        if suite == "swell":
            flags += ["--csv", csv, "--svg", svg]
        for path in (out, csv, svg):
            if os.path.exists(path):
                os.remove(path)
        trace_path = os.path.join(work, f"cold-trace{i}.json")
        if phase == "traced":
            argv = [PY, os.path.join(HERE, "tracedcli.py"), trace_path, *flags]
        else:
            argv = [PY, "-m", "jetgauge", *flags]
        child = children.run(argv, "cold")
        rec = {"phase": phase, "key": f"{suite}:{seed}",
               "wall_s": child.wall_s, "window": child.window, "error": None,
               "passed": False, "digest": None}
        with open(child.err, encoding="utf-8", errors="replace") as fh:
            if "Traceback (most recent call last)" in fh.read():
                rec["error"] = last_line(child.err)
        if rec["error"] is None and all(map(os.path.exists, files)):
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            rec["passed"] = (child.code == 0 and report["suite"] == suite
                             and report["status"] == "pass")
            rec["digest"] = digest(*files)
        if phase == "traced":
            if not os.path.exists(trace_path):
                raise BenchError(f"traced op wrote no trace: "
                                 f"{last_line(child.err)}")
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            traces.append(trace)
            main_s = tracing.totals(trace).get("cli.main", [0, 0.0, 0.0])[2]
            overhead.append(child.wall_s - trace["import_s"] - main_s)
        else:
            rss = max(rss, child.maxrss_mb)
        return rec

    ops.append(op(0, "warmup"))
    ops += measure(lambda i: op(i, "measure"), *budget(args))
    restored = None
    if args.trace:
        for k in range(len(flagsets)):
            ops.append(op(k, "traced"))
        restored = all(t["restored"] for t in traces)
    return {"ops": ops, "rss": rss, "traces": traces,
            "restored": restored, "proc_overhead": overhead}


def normed(ops: list[dict], phase: str) -> list[float]:
    """Wall times of the ops of one phase at the reference speed."""
    return [norm(op["wall_s"], op["ref_s"]) for op in ops
            if op["phase"] == phase]


def layer_metrics(res: dict, probes: list[dict]) -> dict[str, float]:
    traced = normed(res["ops"], "traced")
    untraced = normed(res["ops"], "measure")
    merged: dict[str, list] = {}
    for trace in res["traces"]:
        for name, row in tracing.totals(trace).items():
            acc = merged.setdefault(name, [0, 0.0, 0.0, 0])
            for k, v in enumerate(row):
                acc[k] += v

    def per_op(name: str, field: int) -> float:
        return merged.get(name, [0, 0.0, 0.0, 0])[field] / len(traced)

    values = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = median(traced) / median(untraced) - 1.0
        elif name == "import.scipy_stats_s":
            value = median([p["scipy_stats_s"] for p in probes])
        elif name == "import.jetgauge_s":
            value = median([p["jetgauge_s"] for p in probes])
        elif name == "proc.overhead_s":
            overhead = res["proc_overhead"]
            value = sum(overhead) / len(overhead) if overhead else 0.0
        elif name == "linalg_s":
            value = sum(per_op(n, 1) for n in LINALG)
        elif name == "series.mul.madds":
            value = per_op("series.mul", 3)
        elif name.endswith(".calls"):
            value = per_op(name.removesuffix(".calls"), 0)
        else:
            value = per_op(name.removesuffix("_s"), 1)
        values[name] = value
    return values


def run(args, children: Children, root: str, work: str) -> dict:
    seeds = op_seeds(args.seed)
    children.start_sampler()
    probe(children, root, args.trace)
    probes = [probe(children, root, args.trace) for _ in range(PROBES_BEFORE)]
    runner = cold_start if args.workload == "cold_start" else in_process
    res = runner(children, args, seeds, work)
    probes += [probe(children, root, args.trace) for _ in range(PROBES_AFTER)]
    samples = children.stop_sampler()
    used = 0
    for item in res["ops"] + probes:
        item["ref_s"], n = reference.item_ref(samples, *item["window"])
        used += n
    judge(res["ops"])

    ops = res["ops"]
    attempted = len(ops)
    ok = sum(op["ok"] for op in ops)
    errors = sorted({op["error"] for op in ops if op["error"]})
    record = {"workload": args.workload, "seed": args.seed,
              "op_seeds": seeds, "trace": args.trace,
              "env": probes[0]["env"]}
    print("env", json.dumps(record, sort_keys=True))
    print(f"ops_ok_ratio {ok / attempted!r} ratio "
          f"({ok} ok of {attempted} attempted, warm-up included)")
    for error in errors:
        print(f"failure {error}")

    if args.trace:
        if res["restored"] is not True:
            raise BenchError("tracer left a wrapper in place")
        values = layer_metrics(res, probes)
        ntraced = sum(op["phase"] == "traced" for op in ops)
        nplain = sum(op["phase"] == "measure" for op in ops)
        print(f"# per traced op, over {ntraced} traced ops; "
              f"trace.overhead_ratio base: {nplain} untraced ops")
        units = dict(PER_LAYER)
        for name, value in values.items():
            print(f"{name} {value!r} {units[name]}")
    else:
        walls = normed(ops, "measure")
        setups = [norm(p["import_s"], p["ref_s"]) for p in probes]
        tail_s, pct = tail(walls)
        values = {"setup_s": median(setups), "verify_s": median(walls),
                  "verify_s_tail": tail_s, "peak_rss_mb": res["rss"]}
        raw_walls = [op["wall_s"] for op in ops if op["phase"] == "measure"]
        refs = [op["ref_s"] for op in ops if op["phase"] == "measure"]
        print(f"# times at the reference speed: wall time x {NOMINAL_S} s / "
              f"mean reference kernel time during the item; median over ops "
              f"{median(refs)!r} s; {used} of {len(samples)} kernel runs "
              f"fell in a timed item")
        print(f"setup_s {values['setup_s']!r} s "
              f"(median of {len(setups)} fresh interpreters; raw median "
              f"{median(p['import_s'] for p in probes)!r} s)")
        print(f"verify_s {values['verify_s']!r} s "
              f"(median of {len(walls)} ops, warm-up excluded; raw median "
              f"{median(raw_walls)!r} s)")
        print(f"verify_s_tail {tail_s!r} s (p{pct:.1f} of {len(walls)} ops, "
              f"{min(TAIL_BEYOND, len(walls) - 1)} above it; raw "
              f"{tail(raw_walls)[0]!r} s)")
        print(f"peak_rss_mb {values['peak_rss_mb']!r} MB "
              f"(max ru_maxrss of the measured processes)")
        print("# per op, wall s / reference s: " + " ".join(
            f"{w:.3f}/{r:.4f}" for w, r in zip(raw_walls, refs)))
        units = dict(END_TO_END)
    return {"correct": not any(op["wrong"] for op in ops),
            "attempted": attempted, "failed": attempted - ok,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def _interrupt(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jetgauge", "__init__.py")):
        print("perfbench: no jetgauge sources under ./src; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    scratch = os.path.join(root, ".perfbench")
    work = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]]
                                       if env.get("PYTHONPATH") else []))
    children = Children(env, work)
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    try:
        result = run(args, children, root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        children.stop()
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
