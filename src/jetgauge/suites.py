"""Named verification suites over the toolkit modules.  Importing this
module loads every suite, `import jetgauge.cli` only the runner."""

from . import (_suite_dynamics, _suite_elasticity, _suite_group,  # noqa: F401
               _suite_pseudogroup, _suite_swell)
from ._runner import (SUITE_NAMES, SUITES, CheckSpec, SuiteConfig, run_suite,
                      suite_check_ids)
from .pseudogroups import closure_check  # noqa: F401  perfbench selftest seam
from .sampling import halton_points  # noqa: F401  perfbench selftest seam

__all__ = ["SUITE_NAMES", "SuiteConfig", "CheckSpec", "SUITES",
           "suite_check_ids", "run_suite"]
