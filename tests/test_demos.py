"""Smoke runs of the demo scripts.

Demos 05 and 06 run as shipped (exact arithmetic, well under a second).
Demo 04 reads the shared pipeline result instead of running the pipeline
again, and a canned forward/backward report instead of integrating.
"""

import runpy
from pathlib import Path

import numpy as np
import pytest

import slidim
from slidim import cifs, pipeline

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _run(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name, expected", [
    ("05_analytic_fixtures.py", "Cantor certificate depth 12: PASS"),
    ("06_box_counting_oracle.py", "corrupted verdict: FAIL"),
])
def test_fixture_demos_run(name, expected, capsys):
    assert expected in _run(name, capsys)


def test_dimension_pipeline_demo(bench, bench_pipeline, monkeypatch, capsys):
    canned = cifs.EquivalenceReport(1.0, 4000, 0, 3, np.empty(0))
    monkeypatch.setattr(slidim, "make_bench", lambda: bench)
    monkeypatch.setattr(pipeline, "run_dimension_pipeline",
                        lambda *args, **kwargs: bench_pipeline)
    monkeypatch.setattr(pipeline, "forward_backward_check",
                        lambda *args, **kwargs: canned)
    out = _run("04_dimension_pipeline.py", capsys)
    assert "oracle verdict: PASS" in out
    assert "agreement 1.00000 on 4000 points" in out
