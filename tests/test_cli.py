import json
import math
from importlib import resources

import numpy as np
import pytest

from jetgauge.cli import export_swell_csv, export_swell_svg, main
from jetgauge.dynamics import swell_rows
from jetgauge.report import CheckRecord, Report

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
