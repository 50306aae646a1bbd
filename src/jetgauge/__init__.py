"""Verification toolkit for jet-level identities of maps, gauge fields,
and continuum models: truncated Taylor lifts with exact derivatives, plus
check suites that hold named identities to stated tolerances."""

__version__ = "0.1.0"


def kernel_name() -> str:
    return "pure"


__all__ = [
    "__version__",
    "kernel_name",     # perfbench/probe.py records it on every run
]
