"""How every fixture loader finds a fixture, and the one schema per kind
of fixture that its loader validates it against before building on it."""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

from .expr import ExprMap

_REQUIRED = object()
# One schema entry: a kind of _KINDS; the count key path that sizes a box,
# vector or list, or an object's schema; the default of an optional key.
Key = namedtuple("Key", "kind of default", defaults=(None, _REQUIRED))


def _finite(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _list(v, n=None) -> bool:
    return isinstance(v, (list, tuple)) and (n is None or len(v) == n)


# kind: what a value must be, and the test it passes, n the sizing count
_KINDS = {
    "count": ("an integer of 1 or more", lambda v, n: isinstance(v, int)
              and not isinstance(v, bool) and v >= 1),
    "box": ("{n} [lo, hi] pairs of finite numbers with lo < hi",
            lambda v, n: _list(v, n) and all(
                _list(p, 2) and all(map(_finite, p)) and p[0] < p[1]
                for p in v)),
    "vector": ("{n} finite numbers",
               lambda v, n: _list(v, n) and all(map(_finite, v))),
    "expr": ("an expression string", lambda v, n: isinstance(v, str)),
    "exprs": ("a list of {n} expression strings", _list),  # entries: parse_map
    "number": ("a finite number", lambda v, n: _finite(v)),
    "label": ("a label string", lambda v, n: isinstance(v, str)),
    "object": ("a JSON object", lambda v, n: isinstance(v, dict)),
}

ACTION = {"dim": Key("count"), "box": Key("box", "action.dim"),
          "generators": Key("exprs", "dim")}
GROUP = {
    "label": Key("label", default="unnamed"),
    "dim": Key("count"),
    "identity": Key("vector", "dim"),
    "box": Key("box", "dim"),
    "compose": Key("expr"),
    "inverse": Key("expr"),
    "action": Key("object", ACTION, None),
}
LIE_SYSTEM = {
    "label": Key("label", default="unnamed"),
    "nvars": Key("count"),
    "order": Key("count"),
    "box": Key("box", "nvars"),
    "equations": Key("expr"),
    "linearization": Key("expr"),
}
FAMILY_BOX = {"y": Key("box", "m", None), "x": Key("box", "n", None),
              "z": Key("box", "m", None)}
MOTION_FAMILY = {
    "m": Key("count"),
    "n": Key("count"),
    "f": Key("expr"),
    "g": Key("expr", default=None),
    "variation": Key("expr", default=None),
    "box": Key("object", FAMILY_BOX, {}),
    "label": Key("label", default="family"),
}
STRESS_STATE = {
    "sigma": Key("expr"),
    "mu": Key("expr", default="0, 0"),
    "label": Key("label", default="state"),
}
SWELL = {key: Key("number", default=value) for key, value in
         {"R0": 1.0, "k": 0.1, "omega": 1.0, "c": 0.0, "decay": None}.items()}


def read_fixture(name: str | os.PathLike):
    """The JSON of fixture `name`, looked up in one order for every loader:
    the file `name`, then `<name>.json` in the directory named by
    JETGAUGE_FIXTURES.  Else a FileNotFoundError names both places; a
    loader with built-in names tries those."""
    override = os.environ.get("JETGAUGE_FIXTURES")
    places = [os.fspath(name)] + (
        [os.path.join(override, f"{name}.json")] if override else [])
    for path in filter(os.path.exists, places):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    raise FileNotFoundError(f"no fixture {places[0]!r}: looked for "
                            + " and ".join(map(repr, places)))


def validate(data, schema: dict, what: str, _path: str = "",
             _seen: dict | None = None) -> dict:
    """data held to schema: a dict of every schema key, an optional key that
    data lacks set to its default; anything else, null included, raises a
    ValueError naming what and the key path.  A count sizes what follows."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object, not {data!r}")
    for key in data:
        if key not in schema:
            raise ValueError(f"unknown {what} key {_path + key!r}; have "
                             f"{', '.join(schema)}")
    seen = {} if _seen is None else _seen   # values by key path
    out = {}
    for key, (kind, of, default) in schema.items():
        path = _path + key
        if key not in data:
            if default is _REQUIRED:
                raise ValueError(f"{what} lacks the required key {path!r}")
            out[key] = default
            continue
        value, n = data[key], seen.get(of) if isinstance(of, str) else None
        must, holds = _KINDS[kind]
        if not holds(value, n):
            raise ValueError(f"{what} {path!r} must be {must.format(n=n)}, "
                             f"not {value!r}")
        seen[path] = value
        out[key] = (validate(value, of, what, path + ".", seen)
                    if kind == "object" else value)
    return out


def parse_map(text: str | None, variables, what: str, path: str,
              count: int | None = None) -> ExprMap | None:
    """ExprMap.parse(text, variables), or None for None.  A text that is no
    string, or parses to other than count components, raises a ValueError
    naming what and the key path; so does a ParseError, keeping its type."""
    if text is None:
        return None
    if not isinstance(text, str):
        raise ValueError(f"{what} {path!r} must be an expression string, "
                         f"not {text!r}")
    try:
        parsed = ExprMap.parse(text, variables)
        if count is not None and len(parsed) != count:
            raise ValueError(f"has {len(parsed)} components, not {count}")
    except ValueError as exc:
        exc.args = (f"{what} {path!r}: {exc}",)
        raise
    return parsed
