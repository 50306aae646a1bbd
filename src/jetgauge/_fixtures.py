"""Where a fixture named on the command line or by a loader lives."""

from __future__ import annotations

import os


def fixture_path(name: str) -> str | None:
    """The name itself when it is a file, else `<name>.json` in the
    directory named by JETGAUGE_FIXTURES, else None; each loader keeps its
    own fallback for None."""
    if os.path.exists(name):
        return name
    override = os.environ.get("JETGAUGE_FIXTURES")
    if override:
        candidate = os.path.join(override, f"{name}.json")
        if os.path.exists(candidate):
            return candidate
    return None
