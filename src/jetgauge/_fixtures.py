"""How every fixture loader finds and reads a fixture, the key check it
runs first, and the checks on its counts and boxes."""

from __future__ import annotations

import json
import math
import os
from typing import Sequence


def read_fixture(name: str | os.PathLike):
    """The JSON of fixture `name`, looked up in one order for every loader:
    the file `name` itself, then `<name>.json` in the directory named by
    JETGAUGE_FIXTURES.  When neither exists, opening `name` raises
    FileNotFoundError; a loader with built-in or bundled names catches it
    and tries those last."""
    path = name
    override = os.environ.get("JETGAUGE_FIXTURES")
    if override and not os.path.exists(name):
        candidate = os.path.join(override, f"{name}.json")
        if os.path.exists(candidate):
            path = candidate
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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


def _interval(pair) -> bool:
    return (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in pair)
            and pair[0] < pair[1])


def check_box(data: dict, key: str, count: int, what: str):
    """data[key], once it is count [lo, hi] pairs of finite JSON numbers
    with lo < hi; otherwise a ValueError naming key and what."""
    box = data[key]
    if (not isinstance(box, (list, tuple)) or len(box) != count
            or not all(map(_interval, box))):
        raise ValueError(f"{what} {key!r} must be {count} [lo, hi] pairs of "
                         f"finite numbers with lo < hi, not {box!r}")
    return box
