"""The fixture schemas in `jetgauge._fixtures`, held three ways: a
mutation sweep over every key path of one valid fixture per kind, which
no wrong value gets through as a traceback or a silent drop; the README's
fixture tables against the schemas; and the CLI's exit 2 with the key
path named, for each malformed case of each kind."""

import copy
import json
import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from jetgauge import _fixtures, _suite_swell
from jetgauge._fixtures import (GROUP, LIE_SYSTEM, MOTION_FAMILY, STRESS_STATE,
                                SWELL)
from jetgauge.cli import main
from jetgauge.dynamics import motion_family_from_dict
from jetgauge.elasticity import stress_state_from_dict
from jetgauge.expr import ExprMap
from jetgauge.groups import group_spec_from_dict
from jetgauge.pseudogroups import lie_system_from_dict
from jetgauge.suites import SuiteConfig


def _bundled(name):
    return json.loads(resources.files("jetgauge.fixtures")
                      .joinpath(f"{name}.json").read_text())


SYSTEM = {"label": "still-water", "nvars": 1, "order": 1,
          "box": [[-1.0, 1.0]], "equations": "y_1_1 - 1",
          "linearization": "xi_1_1"}
FAMILY = {"m": 1, "n": 1, "f": "exp(x1) * y1", "g": "z1 * exp(0 - x1)",
          "variation": "exp(x1) * (y1 + eps * y1^2)",
          "box": {"y": [[0.3, 1.0]], "x": [[-0.5, 0.5]], "z": [[0.2, 1.5]]},
          "label": "exp-stretch"}
STATE = {"sigma": "x1, 0, 0, x2", "mu": "0.5*x2, 0", "label": "linear"}
SWELL_PARAMS = {"R0": 1.0, "k": 0.1, "omega": 1.0, "c": 0.0, "decay": 0.25}

# suite: (loader or None for swell, schema, valid fixtures)
KINDS = {
    "group": (group_spec_from_dict, GROUP,
              [_bundled("affine"), _bundled("e2")]),
    "pseudogroup": (lie_system_from_dict, LIE_SYSTEM, [SYSTEM]),
    "dynamics": (motion_family_from_dict, MOTION_FAMILY, [FAMILY]),
    "elasticity": (stress_state_from_dict, STRESS_STATE, [STATE]),
    "swell": (None, SWELL, [SWELL_PARAMS]),
}

_DELETE = object()
# the wrong values every key path is given, and the deletion
VALUES = [None, 0, -1, 2.5, True, "", "x1", [], {}, [1], [[0, 1]], 1e308,
          "1/0", _DELETE,
          # the hand-written CLI cases' values that the list above misses
          1.0, math.nan, math.inf, [[1, 0]], [[0, "1"]], [[0, math.inf]]]


def _paths(data, prefix=()):
    """Every key path of data, nested objects included."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _entry(schema, path):
    for key in path[:-1]:
        schema = schema[key].of
    return schema[path[-1]]


def _mutated(data, path, value):
    out = copy.deepcopy(data)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def _fingerprint(obj):
    """What a loaded fixture holds, comparable with ==."""
    if isinstance(obj, ExprMap):
        return obj.variables, obj.exprs
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _fingerprint(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fingerprint(v) for v in obj]
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, _fingerprint(vars(obj))
    if hasattr(obj, "__slots__"):       # a record such as StressState
        return type(obj).__name__, _fingerprint(
            {name: getattr(obj, name) for name in obj.__slots__})
    return obj


def _loader(suite, monkeypatch):
    load = KINDS[suite][0]
    if load is not None:
        return load

    def swell(data):   # _swell_params reads its fixture by name
        monkeypatch.setattr(_suite_swell, "read_fixture", lambda name: data)
        return _suite_swell._swell_params(SuiteConfig(fixture="swell"))
    return swell


def _outcome(load, data):
    """(the loaded fixture, None), or (None, the ValueError's message);
    any other exception escapes and fails the test."""
    try:
        return load(data), None
    except ValueError as exc:
        return None, str(exc)


def _names(message, dotted):
    # the key path itself, an entry of it or a key inside it
    return re.search(rf"'{re.escape(dotted)}['.\[]", message) is not None


@pytest.mark.parametrize("suite", sorted(KINDS))
def test_mutation_sweep_names_the_key_or_loads(suite, monkeypatch):
    load, (_, schema, fixtures) = _loader(suite, monkeypatch), KINDS[suite]
    for data in fixtures:
        assert _outcome(load, data)[1] is None
        for prefix in [(), *(p for p in _paths(data)
                             if isinstance(_entry(schema, p).of, dict))]:
            path = (*prefix, "bogus")
            _, err = _outcome(load, _mutated(data, path, 1))
            assert err.startswith("unknown ") and _names(err, ".".join(path))
        for path in _paths(data):
            dotted, entry = ".".join(path), _entry(schema, path)
            absent = _outcome(load, _mutated(data, path, _DELETE))[0]
            for value in VALUES:
                got, err = _outcome(load, _mutated(data, path, value))
                case = f"{suite} {dotted} = {value!r}: {err}"
                if err is not None:
                    assert _names(err, dotted), case
                elif value is not _DELETE and value != entry.default:
                    # a value that loads must not load as its absence
                    assert absent is None or (_fingerprint(got)
                                              != _fingerprint(absent)), case


def _flat(schema, prefix=""):
    for key, entry in schema.items():
        yield prefix + key, entry
        if entry.kind == "object":
            yield from _flat(entry.of, f"{prefix}{key}.")


README_SCHEMAS = {"Group chart": GROUP, "Lie equation system": LIE_SYSTEM,
                  "Motion family": MOTION_FAMILY, "Swell parameters": SWELL,
                  "Stress state": STRESS_STATE}
KIND_WORDS = {"count": "count", "box": "box", "vector": "vector",
              "expr": "expression", "exprs": "expressions",
              "number": "number", "label": "label", "object": "object"}


def test_readme_fixture_tables_match_the_schemas():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Fixture JSON shapes\n")[1].split("\n## ")[0]
    tables = {}
    for block in section.split("\n### ")[1:]:
        title = block.split(" (", 1)[0]
        tables[title] = re.findall(
            r"^\| `([\w.]+)` \| (yes|no)\b[^|]*\| (\w+)", block, re.M)
    assert sorted(tables) == sorted(README_SCHEMAS)
    for title, schema in README_SCHEMAS.items():
        documented = {key: (required, word)
                      for key, required, word in tables[title]}
        expected = {key: ("yes" if entry.default is _fixtures._REQUIRED
                          else "no", KIND_WORDS[entry.kind])
                    for key, entry in _flat(schema)}
        assert documented == expected, title


def _cases():
    affine = _bundled("affine")
    cases = [
        ("dynamics", FAMILY, ("g",), ""),
        # a key outside the Lie-system schema, refused as unknown
        ("pseudogroup", SYSTEM, ("sampling_constraints",), ""),
        *(("group", affine, ("action",), v) for v in (0, "", [], {}, None)),
        *(("group", affine, ("action", "generators"), v)
          for v in (5, True, None, "x1")),
        ("group", affine, ("identity",), {}),
        *((suite, KINDS[suite][2][0], ("label",), ["x"])
          for suite in ("group", "pseudogroup", "dynamics", "elasticity")),
        *(("group", affine, path, _DELETE) for path in (
            ("dim",), ("identity",), ("box",), ("compose",), ("inverse",),
            ("action", "dim"), ("action", "box"), ("action", "generators"))),
        *(("pseudogroup", SYSTEM, (key,), _DELETE) for key in (
            "nvars", "order", "box", "equations", "linearization")),
        *(("dynamics", FAMILY, (key,), _DELETE) for key in ("m", "n", "f")),
        ("elasticity", STATE, ("sigma",), _DELETE),
        ("swell", SWELL_PARAMS, ("omega",), None),
        *(("swell", SWELL_PARAMS, (key,), value)
          for key, value in (("k", 0), ("R0", -1), ("k", 1e308))),
    ]
    return [pytest.param(suite, _mutated(data, path, value), ".".join(path),
                         id=f"{suite}-{'.'.join(path)}-" + (
                             "deleted" if value is _DELETE else repr(value)))
            for suite, data, path, value in cases]


@pytest.mark.parametrize("suite,data,dotted", _cases())
def test_malformed_fixture_exits_two_naming_the_key(suite, data, dotted,
                                                    tmp_path, capsys):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(data))
    code = main(["--suite", suite, "--fixture", str(fixture),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("jetgauge: ") and _names(err, dotted), err
    if dotted not in dict(_flat(KINDS[suite][1])):
        assert err.startswith(f"jetgauge: unknown {suite} fixture key "), err
    assert not (tmp_path / "r.json").exists()
