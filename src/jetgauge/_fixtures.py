"""Where a fixture named on the command line or by a loader lives, the
key check every fixture loader runs first, and the check on its counts."""

from __future__ import annotations

import os
from typing import Sequence


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


def check_keys(data, allowed: Sequence[str], what: str) -> dict:
    """data itself, once it is a JSON object with no key outside allowed;
    otherwise a ValueError that names the first stray key."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object")
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown {what} key {key!r}; have "
                             f"{', '.join(allowed)}")
    return data


def check_count(data: dict, key: str, what: str) -> int:
    """data[key], once it is a JSON integer; true and false, which Python
    counts as integers, and 2.0 are refused with a ValueError naming key."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {key!r} must be an integer, not {value!r}")
    return value
