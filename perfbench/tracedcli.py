"""One traced cold-start op: a fresh interpreter that times the import of
jetgauge.cli, runs jetgauge.cli.main under the layer tracer and writes the
spans and both timings as JSON.

    python3 perfbench/tracedcli.py TRACE_JSON [jetgauge flags...]

Exits with jetgauge's own exit code.
"""

import time

t0 = time.perf_counter()
import jetgauge.cli  # noqa: E402
import_s = time.perf_counter() - t0

import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = jetgauge.cli.main(argv)
    finally:
        tracer.op = None
        restored = tracer.uninstall()
    tracer.dump(trace_path, import_s=import_s, restored=restored)
    return code


if __name__ == "__main__":
    sys.exit(main())
