import json
import math
from importlib import resources

import numpy as np
import pytest

from jetgauge import _suite_swell
from jetgauge.cli import export_swell_csv, export_swell_svg, main
from jetgauge.dynamics import swell_rows
from jetgauge.report import CheckRecord, Report
from jetgauge.suites import SuiteConfig, run_suite

PARAMS = {"R0": 1.0, "k": 0.1, "omega": 1.0, "c": 0.0}


def test_record_pass_boundary():
    rec = CheckRecord("x", "identity", max_residual=1e-9, tolerance=1e-9,
                      samples=4, runtime_ms=1.0)
    assert rec.passed                            # inclusive bound
    assert not CheckRecord("x", "identity", 1.1e-9, 1e-9, 4, 1.0).passed


def test_report_json_is_sorted_and_versioned():
    rep = Report("swell", (CheckRecord("b", "i", 0.0, 1.0, 1, 2.0),
                           CheckRecord("a", "i", 0.0, 1.0, 1, 3.0)), seed=5)
    data = json.loads(rep.to_json())
    assert data["schema"] == 1
    assert [c["id"] for c in data["checks"]] == ["a", "b"]
    stripped = json.loads(rep.strip_clock().to_json())
    assert stripped["timestamp"] == 0.0
    assert all(c["runtime_ms"] == 0.0 for c in stripped["checks"])


def test_cli_swell_passes_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--suite", "swell", "--seed", "3", "--no-timestamp",
                 "--out", str(out1)]) == 0
    assert main(["--suite", "swell", "--seed", "3", "--no-timestamp",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["status"] == "pass"
    assert data["seed"] == 3


def test_cli_pseudogroup_stdout_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert main(["--suite", "pseudogroup", "--seed", "42",
                     "--no-timestamp"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["status"] == "pass"


def test_cli_exit_one_when_a_check_fails(tmp_path):
    # zero tolerances turn roundoff-level residuals into failures
    code = main(["--suite", "swell", "--tol-scale", "0",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["status"] == "fail"


def test_cli_rejects_bad_input(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["--suite", "nonsense"])
    assert err.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["--suite", "group", "--fixture", str(bad)]) == 2
    assert "jetgauge:" in capsys.readouterr().err
    assert main(["--suite", "all", "--fixture", str(bad)]) == 2


def test_fixture_dir_override(tmp_path, monkeypatch, capsys):
    text = resources.files("jetgauge.fixtures").joinpath("affine.json").read_text()
    (tmp_path / "affcopy.json").write_text(text)
    monkeypatch.setenv("JETGAUGE_FIXTURES", str(tmp_path))
    assert main(["--suite", "group", "--fixture", "affcopy",
                 "--out", str(tmp_path / "r.json")]) == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["status"] == "pass"


def test_fixture_dir_override_pseudogroup(tmp_path, monkeypatch):
    system = {"label": "line-copy", "nvars": 1, "order": 2,
              "box": [[-1.0, 1.0]], "equations": "y_1_11",
              "linearization": "xi_1_11"}
    (tmp_path / "linecopy.json").write_text(json.dumps(system))
    args = ["--suite", "pseudogroup", "--fixture", "linecopy",
            "--out", str(tmp_path / "r.json")]
    monkeypatch.delenv("JETGAUGE_FIXTURES", raising=False)
    assert main(args) == 2
    monkeypatch.setenv("JETGAUGE_FIXTURES", str(tmp_path))
    assert main(args) == 0


@pytest.mark.parametrize("override", [False, True])
def test_a_missing_fixture_gives_one_message(tmp_path, monkeypatch, capsys,
                                             override):
    # every suite names the fixture and each place it was looked for, and
    # the bundled and built-in fallbacks raise that same message
    monkeypatch.chdir(tmp_path)
    places = "'nosuch'"
    if override:
        monkeypatch.setenv("JETGAUGE_FIXTURES", str(tmp_path))
        places += f" and {str(tmp_path / 'nosuch.json')!r}"
    else:
        monkeypatch.delenv("JETGAUGE_FIXTURES", raising=False)
    for suite in ("group", "pseudogroup", "elasticity", "dynamics", "swell"):
        assert main(["--suite", suite, "--fixture", "nosuch"]) == 2
        assert capsys.readouterr().err == (
            f"jetgauge: no fixture 'nosuch': looked for {places}\n")


# Fixtures named through JETGAUGE_FIXTURES.  "r1" shadows a built-in
# system; its hand rows are twice the derived ones, so linearization_rows
# reads 1.0 only when the file is the system loaded.
NAMED_FIXTURES = {
    "group": ("e2", json.loads(resources.files("jetgauge.fixtures")
                               .joinpath("affine.json").read_text())),
    "pseudogroup": ("r1", {"label": "line-copy", "nvars": 1, "order": 2,
                           "box": [[-1.0, 1.0]], "equations": "y_1_11",
                           "linearization": "2*xi_1_11"}),
    "dynamics": ("myfam", {"m": 1, "n": 1, "f": "exp(x1) * y1",
                           "g": "z1 * exp(0 - x1)",
                           "box": {"y": [[0.3, 1.0]], "x": [[-0.5, 0.5]],
                                   "z": [[0.2, 1.5]]},
                           "label": "myfam"}),
}


@pytest.mark.parametrize("suite", sorted(NAMED_FIXTURES))
def test_cli_and_run_suite_resolve_a_fixture_name_alike(suite, tmp_path,
                                                        monkeypatch):
    name, data = NAMED_FIXTURES[suite]
    (tmp_path / f"{name}.json").write_text(json.dumps(data))
    monkeypatch.setenv("JETGAUGE_FIXTURES", str(tmp_path))
    out = tmp_path / "r.json"
    code = main(["--suite", suite, "--fixture", name, "--seed", "3",
                 "--no-timestamp", "--out", str(out)])
    report = run_suite(suite, SuiteConfig(seed=3, fixture=name))
    assert code == (0 if report.passed else 1)
    assert out.read_text() == report.strip_clock().to_json()


def _samples(tmp_path, suite, *extra):
    out = tmp_path / "r.json"
    assert main(["--suite", suite, "--seed", "42", "--no-timestamp",
                 "--out", str(out), *extra]) == 0
    return [c["samples"] for c in json.loads(out.read_text())["checks"]]


@pytest.mark.parametrize("suite, name", [("pseudogroup", "affine"),
                                         ("group", "affine"), ("group", "e2")])
def test_a_builtin_fixture_name_joins_the_roster_once(suite, name, tmp_path,
                                                     monkeypatch):
    # the name gives the shared built-in, which is on the roster already
    monkeypatch.delenv("JETGAUGE_FIXTURES", raising=False)
    monkeypatch.chdir(tmp_path)
    assert (_samples(tmp_path, suite, "--fixture", name)
            == _samples(tmp_path, suite))


def test_a_new_fixture_still_joins_the_roster(tmp_path, monkeypatch):
    # r1prime is built in but off the pseudogroup roster; a copy of the
    # bundled affine chart is a new chart
    monkeypatch.chdir(tmp_path)
    text = resources.files("jetgauge.fixtures").joinpath("affine.json")
    (tmp_path / "affcopy.json").write_text(text.read_text())
    monkeypatch.setenv("JETGAUGE_FIXTURES", str(tmp_path))
    assert _samples(tmp_path, "pseudogroup") == [250, 250, 100, 16]
    assert _samples(tmp_path, "pseudogroup", "--fixture", "r1prime") == [
        300, 300, 120, 16]
    assert _samples(tmp_path, "group") == [32, 500, 64, 2, 64]
    assert _samples(tmp_path, "group", "--fixture", "affcopy") == [
        48, 750, 64, 3, 64]
    # a dynamics or stress fixture is never on the roster: the family adds
    # 16 speed-duality points, the state 64 torsor nodes
    name, data = NAMED_FIXTURES["dynamics"]
    (tmp_path / f"{name}.json").write_text(json.dumps(data))
    (tmp_path / "linear.json").write_text('{"sigma": "x1, 0, 0, x2"}')
    assert _samples(tmp_path, "dynamics") == [
        16, 48, 10, 160, 160, 12, 12, 12, 120]
    assert _samples(tmp_path, "dynamics", "--fixture", name) == [
        16, 48, 10, 160, 176, 12, 12, 12, 120]
    assert _samples(tmp_path, "elasticity")[-1] == 128
    assert _samples(tmp_path, "elasticity", "--fixture", "linear")[-1] == 192


def test_swell_fixture_is_read_once_per_run(tmp_path, monkeypatch):
    fixture = tmp_path / "k.json"
    fixture.write_text('{"k": 0.1}')
    reads = []

    def counted(name):
        reads.append(name)
        return read(name)
    read = _suite_swell.read_fixture
    monkeypatch.setattr(_suite_swell, "read_fixture", counted)
    assert run_suite("swell", SuiteConfig(fixture=str(fixture))).passed
    assert reads == [str(fixture)]


def test_cli_swell_table_uses_the_parameters_the_run_read(tmp_path,
                                                          monkeypatch):
    fixture = tmp_path / "k.json"
    fixture.write_text('{"k": 0.2}')
    reads = []

    def counted(name):
        reads.append(name)
        return read(name)
    read = _suite_swell.read_fixture
    monkeypatch.setattr(_suite_swell, "read_fixture", counted)
    csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    for calls in (1, 2):
        assert main(["--suite", "swell", "--fixture", str(fixture),
                     "--csv", str(csv), "--svg", str(svg),
                     "--out", str(tmp_path / "r.json")]) == 0
        assert reads == [str(fixture)] * calls
    want = tmp_path / "want.csv"
    export_swell_csv(dict(PARAMS, k=0.2, decay=None), str(want))
    assert csv.read_text() == want.read_text()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_swell_nan_residuals_fail(tmp_path):
    # R0 = 1e200 overflows the jacobian to NaN; NaN must fail, not pass
    fixture = tmp_path / "r0.json"
    fixture.write_text('{"R0": 1e200}')
    out = tmp_path / "r.json"
    assert main(["--suite", "swell", "--fixture", str(fixture),
                 "--out", str(out)]) == 1
    status = {c["id"]: c["status"]
              for c in json.loads(out.read_text())["checks"]}
    assert status["swell_jacobian_drift"] == "fail"
    assert status["swell_jacobian_formula"] == "fail"
    assert status["swell_unbalanced_control"] == "fail"


def test_swell_csv_radius_and_frame(tmp_path):
    path = tmp_path / "swell.csv"
    rows = export_swell_csv(PARAMS, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,a,b,x,y,xbar,ybar"
    assert len(lines) == len(rows) + 1
    speed = PARAMS["omega"] / PARAMS["k"]
    for line in lines[1:]:
        t, a, b, x, y, xbar, ybar = (float(v) for v in line.split(","))
        radius = PARAMS["R0"] * math.exp(-PARAMS["k"] * b)
        assert abs(math.hypot(x - a, y - b) - radius) < 1e-10
        assert abs(xbar - (x - speed * t)) < 1e-12
        assert ybar == y
    # identical params give identical bytes
    export_swell_csv(PARAMS, str(tmp_path / "swell2.csv"))
    assert path.read_bytes() == (tmp_path / "swell2.csv").read_bytes()


def test_swell_csv_follows_the_fixture_decay(tmp_path):
    # an unbalanced table's radii shrink at the decay rate, not at k
    params = {**PARAMS, "decay": 0.25}
    rows = export_swell_csv(params, str(tmp_path / "decay.csv"))
    for t, a, b, x, y, _, _ in rows:
        radius = params["R0"] * math.exp(-params["decay"] * b)
        assert abs(math.hypot(x - a, y - b) - radius) < 1e-10
    # and the CLI writes it for a swell fixture that sets decay
    csvs = []
    for name, text in (("balanced", "{}"), ("unbalanced", '{"decay": 0.25}')):
        (tmp_path / f"{name}.json").write_text(text)
        csvs.append(tmp_path / f"{name}.csv")
        main(["--suite", "swell", "--fixture", str(tmp_path / f"{name}.json"),
              "--csv", str(csvs[-1]), "--out", str(tmp_path / "r.json")])
    assert csvs[1].read_text() == (tmp_path / "decay.csv").read_text()
    assert csvs[0].read_bytes() != csvs[1].read_bytes()


def test_swell_rows_zero_radius_sits_still():
    rows = swell_rows(0.0, 0.1, 1.0, 0.0, [(2.0, 0.5)], np.linspace(0, 3, 5))
    for t, a, b, x, y, _, _ in rows:
        assert (x, y) == (a, b)


def test_swell_svg_overlay(tmp_path):
    path = tmp_path / "swell.svg"
    export_swell_svg(PARAMS, str(path))
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 6 * 3 + 1  # trajectories + surface line
    assert "stroke-dasharray" in text


def test_cli_csv_flag_writes_table(tmp_path):
    csv = tmp_path / "out.csv"
    assert main(["--suite", "swell", "--csv", str(csv),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert csv.read_text().startswith("t,a,b,x,y,xbar,ybar\n")
    assert main(["--suite", "swell", "--csv", str(tmp_path / "no/dir.csv"),
                 "--out", str(tmp_path / "r2.json")]) == 2


def _run_fixture(tmp_path, capsys, suite, text):
    fixture = tmp_path / "fixture.json"
    fixture.write_text(text)
    code = main(["--suite", suite, "--fixture", str(fixture),
                 "--out", str(tmp_path / "r.json")])
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_group_overflow_fixture_exits_two(tmp_path, capsys):
    data = json.loads(resources.files("jetgauge.fixtures")
                      .joinpath("affine.json").read_text())
    data["label"] = "overflow"
    data["compose"] = "a1*b1 + 0*exp(1000*a1), a1*b2 + a2"
    code, err = _run_fixture(tmp_path, capsys, "group", json.dumps(data))
    assert code == 2
    assert err.startswith("jetgauge: overflow: group axioms violated")


@pytest.mark.parametrize("family,message", [
    ({"m": 1, "n": 1, "f": "x1 + 0*y1"}, "singular source jacobian"),
    ({"m": 1, "n": 1, "f": "y1 + log(x1)"}, "log of nonpositive value"),
    ({"m": 1, "n": 1, "f": "x1 + 0*y1", "label": "flat"},
     "singular source jacobian in flat"),
    ({"m": 1, "n": 1, "f": "y1 + log(x1)", "label": "logfam"},
     "log of nonpositive value"),
])
def test_dynamics_fixture_that_cannot_run_exits_two(tmp_path, capsys,
                                                    family, message):
    code, err = _run_fixture(tmp_path, capsys, "dynamics", json.dumps(family))
    assert code == 2
    assert err.startswith("jetgauge: ") and message in err
    assert err.rstrip().endswith(f" in {family.get('label', 'family')}")


def test_dynamics_fixture_with_a_long_sum_runs(tmp_path, capsys):
    # 1,200 terms make a left-deep tree deeper than Python's recursion limit
    family = {"m": 1, "n": 1, "f": "y1 + x1" + " + 0*x1" * 1198}
    code, err = _run_fixture(tmp_path, capsys, "dynamics", json.dumps(family))
    assert code == 0
    assert "Traceback" not in err


_AFFINE = json.loads(resources.files("jetgauge.fixtures")
                     .joinpath("affine.json").read_text())


@pytest.mark.parametrize("suite,data,key", [
    ("group", {**_AFFINE, "bogus": 1}, "'bogus'"),
    # a nested key is named by its dotted path; explicit ids keep the names
    # these cases have always run under
    pytest.param("group", {**_AFFINE, "action": {**_AFFINE["action"],
                                                 "gens": ["x1"]}},
                 "'action.gens'", id="group-data1-'gens'"),
    ("dynamics", {"m": 1, "n": 1, "f": "y1 + x1", "inverse": "z1 - x1"},
     "'inverse'"),
    pytest.param("dynamics", {"m": 1, "n": 1, "f": "y1 + x1",
                              "box": {"w": [[0, 1]]}},
                 "'box.w'", id="dynamics-data3-'w'"),
])
def test_group_and_dynamics_fixtures_refuse_unknown_keys(tmp_path, capsys,
                                                         suite, data, key):
    # the bundled affine and e2 charts pass the same check on every run
    code, err = _run_fixture(tmp_path, capsys, suite, json.dumps(data))
    assert code == 2
    assert err.startswith("jetgauge: unknown ") and key in err


_STILL_WATER = {"label": "still-water", "nvars": 1, "order": 1,
                "box": [[-1.0, 1.0]], "equations": "y_1_1 - 1",
                "linearization": "xi_1_1"}


def test_pseudogroup_fixture_without_linearization_exits_two(tmp_path,
                                                            capsys):
    data = {k: v for k, v in _STILL_WATER.items() if k != "linearization"}
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(data))
    assert main(["--suite", "pseudogroup", "--fixture", str(fixture)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("jetgauge: ") and "'linearization'" in err


@pytest.mark.parametrize("suite,data", [
    ("pseudogroup", _STILL_WATER),
    ("elasticity", {"sigma": "x1, 0, 0, x2", "label": "linear"}),
])
def test_pseudogroup_and_stress_fixtures_refuse_unknown_keys(tmp_path, capsys,
                                                             suite, data):
    code, err = _run_fixture(tmp_path, capsys, suite, json.dumps(data))
    assert code == 0
    # a Lie system is its equations and its linearization: a fixture that
    # still sets sampling_constraints is refused like any unknown key
    for key in ("bogus", "sampling_constraints"):
        code, err = _run_fixture(tmp_path, capsys, suite,
                                 json.dumps({**data, key: "xi_1"}))
        assert code == 2
        assert err.startswith("jetgauge: unknown ") and f"'{key}'" in err


@pytest.mark.parametrize("suite,data,key", [
    ("group", {**_AFFINE, "dim": 2.7}, "'dim'"),
    ("group", {**_AFFINE, "dim": True}, "'dim'"),
    pytest.param("group", {**_AFFINE, "action": {**_AFFINE["action"],
                                                 "dim": 1.0}},
                 "'action.dim'", id="group-data2-'dim'"),
    ("dynamics", {"m": 1.5, "n": 1, "f": "y1 + x1"}, "'m'"),
    ("dynamics", {"m": 1, "n": True, "f": "y1 + x1"}, "'n'"),
    ("pseudogroup", {**_STILL_WATER, "nvars": "1"}, "'nvars'"),
    ("pseudogroup", {**_STILL_WATER, "order": 1.0}, "'order'"),
])
def test_fixture_counts_must_be_integers(tmp_path, capsys, suite, data, key):
    code, err = _run_fixture(tmp_path, capsys, suite, json.dumps(data))
    assert code == 2
    assert err.startswith("jetgauge: ") and key in err
    assert "must be an integer" in err


@pytest.mark.parametrize("suite,data,key", [
    ("pseudogroup", {**_STILL_WATER, "linearization": 3}, "'linearization'"),
    ("pseudogroup", {**_STILL_WATER, "equations": 0}, "'equations'"),
    ("dynamics", {"m": 1, "n": 1, "f": 5}, "'f'"),
    ("dynamics", {"m": 1, "n": 1, "f": "y1 + x1", "g": None}, "'g'"),
    ("elasticity", {"sigma": 5}, "'sigma'"),
    ("group", {**_AFFINE, "compose": 5}, "'compose'"),
    pytest.param("group", {**_AFFINE, "action": {**_AFFINE["action"],
                                                 "generators": ["x1", 1]}},
                 "'action.generators[1]'",
                 id="group-data6-'generators' entry 1"),
])
def test_fixture_expressions_must_be_strings(tmp_path, capsys, suite, data,
                                             key):
    # a number or null is refused with the key's name, never a traceback
    # or, for an optional key, a silent drop
    code, err = _run_fixture(tmp_path, capsys, suite, json.dumps(data))
    assert code == 2
    assert err.startswith("jetgauge: ") and key in err
    assert "must be an expression string" in err


@pytest.mark.parametrize("text,key", [
    ('{"R0": 0.5, "bogus": 3}', "'bogus'"),
    ('{"R0": NaN}', "'R0'"),
    ('{"k": "0.1"}', "'k'"),
    ('{"decay": true}', "'decay'"),
])
def test_swell_fixture_keys_and_values_are_checked(tmp_path, capsys,
                                                   text, key):
    code, err = _run_fixture(tmp_path, capsys, "swell", text)
    assert code == 2
    assert err.startswith("jetgauge: ") and key in err


@pytest.mark.parametrize("suite,data,key,what", [
    ("group", {**_AFFINE, "box": [[0.5, 2.0]]}, "'box'", "group fixture"),
    ("group", {**_AFFINE, "identity": [1.0]}, "'identity'", "group fixture"),
    pytest.param("group", {**_AFFINE, "action": {**_AFFINE["action"],
                                                 "box": [[1.0, -1.0]]}},
                 "'action.box'", "group fixture",
                 id="group-data2-'box'-group action"),
    pytest.param("dynamics", {"m": 1, "n": 1, "f": "y1 + x1",
                              "box": {"x": [[0.0, "1"]]}},
                 "'box.x'", "dynamics fixture",
                 id="dynamics-data3-'x'-dynamics box"),
    pytest.param("dynamics", {"m": 2, "n": 1, "f": "y1 + x1, y2",
                              "box": {"z": [[-1.0, 1.0]]}},
                 "'box.z'", "dynamics fixture",
                 id="dynamics-data4-'z'-dynamics box"),
    ("pseudogroup", {**_STILL_WATER, "box": [[-1.0, 1e999]]}, "'box'",
     "pseudogroup fixture"),
])
def test_fixture_boxes_are_checked_at_load(tmp_path, capsys, suite, data, key,
                                           what):
    # a box needs one finite [lo, hi] pair with lo < hi per axis
    code, err = _run_fixture(tmp_path, capsys, suite, json.dumps(data))
    assert code == 2
    assert err.startswith(f"jetgauge: {what} {key} must ")


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("suite", ["group", "pseudogroup", "dynamics",
                                   "swell", "elasticity", "all"])
def test_cli_refuses_fewer_than_one_sample(tmp_path, capsys, suite, samples):
    out = tmp_path / "r.json"
    assert main(["--suite", suite, "--samples", str(samples),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("jetgauge: samples must be at least 1")
    assert not out.exists()


def test_run_suite_refuses_no_samples_before_any_check(monkeypatch):
    from jetgauge import _runner
    calls = []
    spy = _runner.CheckSpec("spy", "records its call", 0.0,
                            lambda cfg, cache: calls.append(cfg) or (0.0, 0))
    _runner.suite_check_ids("all")               # imports every suite
    for name in _runner.SUITE_NAMES:
        monkeypatch.setitem(_runner.SUITES, name, (spy,))
    with pytest.raises(ValueError, match="samples"):
        run_suite("all", SuiteConfig(samples=0))
    assert calls == []
    assert run_suite("all", SuiteConfig(samples=1)).passed
    assert len(calls) == len(_runner.SUITE_NAMES)


def _sample_counts(report):
    return {r.id: r.samples for r in report.records}


def test_sample_counts_leave_out_rows_that_checked_nothing(tmp_path):
    # a swell fixture with its own decay has no closed-form jacobian row
    (tmp_path / "decay.json").write_text('{"decay": 0.25}')
    counts = _sample_counts(run_suite(
        "swell", SuiteConfig(fixture=str(tmp_path / "decay.json"))))
    assert counts["swell_jacobian_formula"] == 0
    assert counts["swell_jacobian_drift"] == 24
    # a one-parameter family has no parameter pair to curl over
    (tmp_path / "one.json").write_text(
        '{"m": 1, "n": 1, "f": "exp(x1) * y1", "label": "one"}')
    counts = _sample_counts(run_suite(
        "dynamics", SuiteConfig(fixture=str(tmp_path / "one.json"))))
    assert counts["speed_compatibility"] == 10 * 16
    assert counts["speed_duality"] == 11 * 16
    # the default rosters keep their counts
    assert _sample_counts(run_suite("swell"))["swell_jacobian_formula"] == 24
    assert _sample_counts(run_suite("dynamics"))["speed_compatibility"] == 160
