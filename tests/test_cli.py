import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from slidim import cli, pipeline
from slidim.config import Tolerances
from slidim.errors import ConfigError
from slidim.runconfig import load_config, parse_config

LN3_LN4 = np.log(3) / np.log(4)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "slidim.cli", *args],
                          capture_output=True, text=True)


def test_model_geometric_closed_form(tmp_path):
    out = tmp_path / "m"
    r = run_cli("--out", str(out), "model", "--model", "geometric",
                "--lambda", "4", "--a", "1", "--imin", "1", "--imax-model", "10")
    assert r.returncode == 0, r.stderr
    doc = json.loads((out / "model.json").read_text())
    assert abs(doc["pressure_root"] - LN3_LN4) < 1e-10
    assert doc["tail"]["lam"] == 4.0


def test_dimension_fixture_report_and_exit(tmp_path):
    out = tmp_path / "d"
    r = run_cli("--out", str(out), "dimension", "--model", "geometric")
    assert r.returncode == 0, r.stderr
    doc = json.loads((out / "report.json").read_text())
    assert doc["verdict"]["passed"]
    assert doc["cantor"]["passed"]
    assert 0 < doc["report"]["moran_lower"] <= doc["report"]["pressure_root"] < 1
    assert abs(doc["report"]["pressure_root"] - LN3_LN4) < 1e-10
    rows = (out / "covers.csv").read_text().strip().splitlines()
    assert rows[0] == "lo,hi,level"


def test_dimension_runs_are_bit_identical(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        r = run_cli("--out", str(out), "dimension", "--model", "geometric")
        assert r.returncode == 0, r.stderr
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_attractor_middle_thirds_depth3(tmp_path):
    out = tmp_path / "a"
    r = run_cli("--out", str(out), "--depth", "3", "attractor",
                "--model", "middle-thirds")
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader((out / "covers.csv").open()))
    level3 = [row for row in rows if row["level"] == "3"]
    assert len(level3) == 8
    widths = [float(r_["hi"]) - float(r_["lo"]) for r_ in level3]
    assert np.allclose(widths, 2 / 27)
    scaffold = list(csv.DictReader((out / "scaffold.csv").open()))
    zero_rows = [r_ for r_ in scaffold if r_["word_length"] == "0"]
    assert len(zero_rows) == 1 and float(zero_rows[0]["coordinate"]) == 0.0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"]


def test_classify_bench(tmp_path):
    out = tmp_path / "c"
    r = run_cli("--out", str(out), "classify", "--grid", "21")
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader((out / "classify.csv").open()))
    assert rows, "no manifold points classified"
    for row in rows:
        x = float(row["x"])
        if x < 1 - 1e-9:
            assert row["label"] == "sliding"
        elif x > 1 + 1e-9:
            assert row["label"] == "crossing"
        else:
            assert row["label"] == "tangency_x"
    assert not any(row["label"] == "escaping" for row in rows)


def test_simulate_crossing(tmp_path):
    out = tmp_path / "s"
    r = run_cli("--out", str(out), "simulate", "--u0", "1.5,0,-0.2", "--T", "0.4")
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader((out / "trajectory.csv").open()))
    modes = {row["mode"] for row in rows}
    assert modes == {"Y", "X"}


ESCAPE_CONFIG = {
    "version": 1,
    "system": {
        "X": "0.4*x - y, x + 0.4*y, x - 1",
        "Y": "0, 0, -1",
        "g": "z",
        "params": {},
    },
    "connection": {"p_seed": [0, 0, 0], "q_seed": [1, 0, 0]},
}


def test_simulate_escaping_policy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ESCAPE_CONFIG))
    out = tmp_path / "e"
    r = run_cli("--config", str(cfg), "--out", str(out), "simulate",
                "--u0", "2,0,0", "--T", "0.5")
    assert r.returncode == 2
    r = run_cli("--config", str(cfg), "--out", str(out), "--policy", "x",
                "simulate", "--u0", "2,0,0", "--T", "0.5")
    assert r.returncode == 0, r.stderr


def test_config_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("--config", str(bad), "--out", str(tmp_path), "classify")
    assert r.returncode == 1
    missing = dict(ESCAPE_CONFIG)
    missing = {**missing, "connection": {"p_seed": [0, 0, 0]}}
    cfg = tmp_path / "missing.json"
    cfg.write_text(json.dumps(missing))
    r = run_cli("--config", str(cfg), "--out", str(tmp_path), "classify")
    assert r.returncode == 1
    assert "q_seed" in r.stderr
    broken = {**ESCAPE_CONFIG,
              "system": {**ESCAPE_CONFIG["system"], "X": "x*(, y, z"}}
    cfg2 = tmp_path / "broken.json"
    cfg2.write_text(json.dumps(broken))
    r = run_cli("--config", str(cfg2), "--out", str(tmp_path), "classify")
    assert r.returncode == 1
    # a command-line override is validated like the file's own value
    cfg3 = tmp_path / "escape.json"
    cfg3.write_text(json.dumps(ESCAPE_CONFIG))
    r = run_cli("--config", str(cfg3), "--radius", "-1", "--out", str(tmp_path), "classify")
    assert r.returncode == 1
    assert "analysis.r" in r.stderr


@pytest.mark.parametrize("override, path", [
    ({"system": 5}, "system"),
    ({"connection": [0, 0, 0]}, "connection"),
    ({"analysis": [1]}, "analysis"),
    ({"tolerances": "tight"}, "tolerances"),
    ({"analysis": {"i_max": "three"}}, "analysis.i_max"),
    ({"analysis": {"schedule": [2, "four"]}}, "analysis.schedule[1]"),
    ({"tolerances": {"rtol": "tight"}}, "tolerances.rtol"),
    ({"system": {**ESCAPE_CONFIG["system"], "params": {"a": True}}}, "system.params.a"),
    ({"analysis": {"i_max": 2.7}}, "analysis.i_max"),
    ({"analysis": {"schedule": [2, 4.5]}}, "analysis.schedule[1]"),
    # a prefix of no maps has no Moran root
    ({"analysis": {"schedule": [1, 0]}}, "analysis.schedule[1]"),
    # a number that is not finite, or that overflows a float, would compile
    # into the kernels as a bare name (nan, inf) or pass the range checks
    ({"system": {**ESCAPE_CONFIG["system"], "params": {"a": float("nan")}}},
     "system.params.a"),
    ({"system": {**ESCAPE_CONFIG["system"], "params": {"a": -float("inf")}}},
     "system.params.a"),
    ({"system": {**ESCAPE_CONFIG["system"], "params": {"a": 10 ** 400}}},
     "system.params.a"),
    ({"tolerances": {"event": float("inf")}}, "tolerances.event"),
    ({"analysis": {"r": float("nan")}}, "analysis.r"),
    ({"connection": {"p_seed": [0, float("nan"), 0], "q_seed": [1, 0, 0]}},
     "connection.p_seed"),
    ({"system": {**ESCAPE_CONFIG["system"], "X": "1e400*x - y, x + 0.4*y, x - 1"}},
     "system: number 1e400 overflows"),
    # a decreasing prefix size would lower the Moran bound after the whole run
    ({"analysis": {"schedule": [4, 2]}}, "analysis.schedule[1] must exceed"),
    # an expression source is one string
    ({"system": {**ESCAPE_CONFIG["system"], "X": 5}}, "system.X must be a string"),
    ({"system": {**ESCAPE_CONFIG["system"], "Y": None}}, "system.Y must be a string"),
    ({"system": {**ESCAPE_CONFIG["system"], "g": ["z"]}}, "system.g must be a string"),
], ids=[
    # the names the first cases had when pytest numbered them by position
    "override0-system", "override1-connection", "override2-analysis",
    "override3-tolerances", "override4-analysis.i_max", "override5-analysis.schedule[1]",
    "override6-tolerances.rtol", "override7-system.params.a", "override8-analysis.i_max",
    "override9-analysis.schedule[1]", "override10-analysis.schedule[1]",
    "override11-system.params.a", "override12-system.params.a",
    "override13-system.params.a", "override14-tolerances.event", "override15-analysis.r",
    "override16-connection.p_seed", "override17-system: number 1e400 overflows",
    "override18-analysis.schedule[1] must exceed",
    "system.X-number", "system.Y-null", "system.g-list",
])
def test_config_sections_and_values_are_checked(tmp_path, override, path):
    # a section that is not an object, or a value of the wrong type (a
    # count that is not an integer) or out of range, is a one-line config
    # error naming its field path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**ESCAPE_CONFIG, **override}))
    r = run_cli("--config", str(cfg), "--out", str(tmp_path), "classify")
    assert r.returncode == 1
    assert r.stderr.startswith("config error:") and path in r.stderr
    assert "Traceback" not in r.stderr and len(r.stderr.splitlines()) == 1


@pytest.mark.parametrize("args, option", [
    # an empty scan has no window to name
    (("--scan", "0", "return-map"), "analysis.n_scan"),
    # a fixture run has no run configuration to check its depth
    (("--depth", "0", "dimension", "--model", "middle-thirds"), "--depth"),
    (("--depth", "0", "attractor", "--model", "middle-thirds"), "--depth"),
    # argparse reads nan and inf as floats; the run configuration refuses them
    (("--radius", "nan", "return-map"), "analysis.r"),
    (("--tol-event", "inf", "return-map"), "tolerances.event"),
], ids=["scan", "depth-dimension", "depth-attractor", "radius-nan", "tol-event-inf"])
def test_an_option_out_of_range_is_a_one_line_config_error(tmp_path, args, option):
    # the front end says which option
    r = run_cli("--out", str(tmp_path), *args)
    assert r.returncode == 1
    assert r.stderr.startswith("config error:") and option in r.stderr
    assert "Traceback" not in r.stderr and len(r.stderr.splitlines()) == 1


def test_config_seed_key_is_ignored():
    # no command draws random numbers; an old config's seed loads like any
    # other unknown key
    cfg = parse_config({**ESCAPE_CONFIG, "seed": 7})
    assert not hasattr(cfg, "seed")


def test_config_tolerances_reach_the_run(tmp_path):
    doc = {**ESCAPE_CONFIG,
           "tolerances": {"event": 1e-13, "rtol": 1e-9, "atol": 1e-11}}
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps(doc))
    tol = load_config(cfg).tolerances
    assert (tol.event, tol.rtol, tol.atol) == (1e-13, 1e-9, 1e-11)
    assert tol.manifold == Tolerances().manifold
    with pytest.raises(ConfigError, match="tolerances.atol"):
        parse_config({**ESCAPE_CONFIG, "tolerances": {"atol": 0}})


def test_dimension_passes_depth_to_the_pipeline(tmp_path, monkeypatch):
    class Reached(Exception):
        pass

    seen = {}

    def fake_pipeline(*args, **kwargs):
        seen.update(kwargs)
        raise Reached

    monkeypatch.setattr(pipeline, "run_dimension_pipeline", fake_pipeline)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ESCAPE_CONFIG))
    with pytest.raises(Reached):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "--depth", "4",
                  "dimension"])
    assert seen["cantor_depth"] == 4
    assert seen["i_max"] == 3  # analysis.i_max default
    with pytest.raises(Reached):
        cli.main(["--config", str(cfg), "--out", str(tmp_path), "--imax", "2",
                  "dimension"])
    assert seen["i_max"] == 2


def test_attractor_system_path_writes_the_pipeline_result(tmp_path, monkeypatch,
                                                          bench_pipeline):
    seen = {}

    def fake_pipeline(*args, **kwargs):
        seen.update(kwargs)
        return bench_pipeline

    monkeypatch.setattr(pipeline, "run_dimension_pipeline", fake_pipeline)
    assert cli.main(["--out", str(tmp_path), "--depth", "6", "attractor"]) == 0
    assert seen["cover_depth"] == seen["cantor_depth"] == 6

    covers = bench_pipeline.covers[:6]
    assert [c.level for c in covers] == list(range(1, 7))
    rows = list(csv.reader((tmp_path / "covers.csv").open()))[1:]
    assert [(float(lo), float(hi), int(level)) for lo, hi, level in rows] == \
        [(lo, hi, c.level) for c in covers for lo, hi in c.intervals]
    rows = list(csv.reader((tmp_path / "scaffold.csv").open()))[1:]
    assert np.array_equal([float(p) for p, _ in rows], bench_pipeline.scaffold.points)
    assert np.array_equal([int(w) for _, w in rows],
                          bench_pipeline.scaffold.word_lengths)
    doc = json.loads((tmp_path / "certificate.json").read_text())
    cantor = bench_pipeline.cantor
    assert set(doc) == {"passed", "depth", "clauses"}
    assert (doc["passed"], doc["depth"]) == (cantor.passed, cantor.depth)
    assert doc["clauses"] == json.loads(json.dumps(cli._jsonable(cantor.clauses)))


@pytest.mark.parametrize("args, message", [
    (("--depth", "5", "dimension", "--model", "middle-thirds"),
     "need at least 1000 points, got 32"),
    (("--depth", "12", "attractor", "--model", "geometric", "--imax-model", "3"),
     "cover tower stopped at level"),
    (("--depth", "1", "attractor", "--model", "middle-thirds"),
     "need at least two cover levels, got 1"),
], ids=["args0-need at least 1000 points, got 32", "args1-cover tower stopped at level",
        "args2-need at least two cover levels, got 1"])
def test_too_small_inputs_are_one_line_dynamics_errors(tmp_path, args, message):
    r = run_cli("--out", str(tmp_path), *args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dynamics error:") and message in lines[0]


def test_return_map_command(tmp_path):
    out = tmp_path / "rm"
    r = run_cli("--out", str(out), "--imax", "1", "--scan", "2000", "return-map")
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader((out / "branches.csv").open()))
    sides = {row["side"] for row in rows}
    assert sides == {"L", "R"}
    assert all(row["surjective"] == "1" for row in rows)
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["residual"] < 1e-9
