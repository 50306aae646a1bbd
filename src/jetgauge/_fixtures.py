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
    JETGAUGE_FIXTURES.  Else a FileNotFoundError names every place looked
    in; a loader with built-in or bundled names tries those, then re-raises."""
    override = os.environ.get("JETGAUGE_FIXTURES")
    places = [os.fspath(name)] + (
        [os.path.join(override, f"{name}.json")] if override else [])
    for path in filter(os.path.exists, places):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    raise FileNotFoundError(f"no fixture {places[0]!r}: looked for "
                            + " and ".join(map(repr, places)))


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


def check_text(data, key, what: str) -> str:
    """data[key], once it is a JSON string, the form of every expression;
    null, 0 and any other value are refused with a ValueError naming key."""
    value = data[key]
    if not isinstance(value, str):
        raise ValueError(f"{what} {key!r} must be an expression string, "
                         f"not {value!r}")
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
