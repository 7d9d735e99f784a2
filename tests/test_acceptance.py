"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The reference-system pipeline is shared through the
session fixture, so its wall time is reported once.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from slidim import cifs, oracle
from slidim.pipeline import forward_backward_check, run_fixture_pipeline

LN2_LN3 = np.log(2) / np.log(3)
LN3_LN4 = np.log(3) / np.log(4)


def _line(num, text):
    print(f"\nACCEPTANCE {num}: PASS ({text})")


def test_criterion_1_moran_closed_forms():
    t0 = time.time()
    for k, c, want in ((2, 1 / 3, LN2_LN3), (3, 1 / 4, LN3_LN4), (5, 1 / 5, 1.0)):
        s, t = cifs.moran_bounds(cifs.equal_ratio_system(k, c))
        assert abs(s - want) < 1e-10 and abs(t - want) < 1e-10
    solo = cifs.IfsSystem([cifs._affine_map(-0.5, 0.0, "only")])
    assert cifs.moran_bounds(solo) == (0.0, 0.0)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _line(1, f"Moran closed forms to 1e-10, {elapsed:.2f}s")


def test_criterion_2_pressure_closed_form():
    t0 = time.time()
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 12)
    root = cifs.pressure_root(sys_)
    assert abs(root - LN3_LN4) < 1e-10
    sched = cifs.dimension_sup(sys_)
    assert abs(sched[-1][1] - root) < 1e-4
    lowers = [s for _, s in sched]
    assert all(b >= a - 1e-13 for a, b in zip(lowers, lowers[1:]))
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _line(2, f"pressure root ln3/ln4 to {abs(root - LN3_LN4):.1e}, "
             f"suprema within {abs(sched[-1][1] - root):.1e}, {elapsed:.2f}s")


def test_criterion_3_dimension_bracket_and_decay(bench_pipeline):
    rep = bench_pipeline.report
    assert 0 < rep.moran_lower <= rep.pressure_root <= rep.moran_upper < 1
    lens = [c.total_length for c in bench_pipeline.covers]
    assert len(lens) == 8
    cap = bench_pipeline.sum_c
    assert 0 < cap < 1
    for a, b in zip(lens, lens[1:]):
        assert b <= cap * a * (1 + 1e-9)
    wall = bench_pipeline.timings["wall_total"]
    assert wall < 300.0
    _line(3, f"0 < {rep.moran_lower:.4f} <= {rep.pressure_root:.4f} <= "
             f"{rep.moran_upper:.4f} < 1; decay <= {cap:.4f} per level (k<=8); "
             f"pipeline {wall:.0f}s")


def test_criterion_4_cantor_certificates(bench_pipeline):
    assert bench_pipeline.cantor.passed
    assert bench_pipeline.cantor.depth == 6

    for fixture in (cifs.middle_thirds(), cifs.make_geometric_model(1.0, 4.0, 1, 1)):
        covers = [cifs.attractor_iterate(fixture, k) for k in range(1, 13)]
        scaffold = cifs.closure_scaffold(fixture, 0.0, 8)
        cert = cifs.cantor_certify(covers, scaffold)
        assert cert.passed and cert.depth == 12
        lookup = {c.level: c for c in covers}
        for pt, wl in zip(scaffold.points, scaffold.word_lengths):
            for j in range(1, int(wl) + 1):
                assert lookup[j].contains(np.array([pt]))[0]

    scaffold = bench_pipeline.scaffold
    lookup = {c.level: c for c in bench_pipeline.covers}
    for pt, wl in zip(scaffold.points, scaffold.word_lengths):
        for j in range(1, int(wl) + 1):
            assert lookup[j].contains(np.array([pt]))[0]
    _line(4, "Cantor clauses pass: reference depth 6, fixtures depth 12; "
             "scaffold points inside all ancestor covers")


def test_criterion_5_forward_backward_equivalence(bench, bench_pipeline):
    t0 = time.time()
    rep = forward_backward_check(bench.system, bench_pipeline, k=3,
                                 n_points=10000)
    assert rep.agreement >= 0.999
    assert rep.n_used >= 9000
    _line(5, f"agreement {rep.agreement:.5f} on {rep.n_used} points at k=3, "
             f"{time.time() - t0:.0f}s")


def test_criterion_6_expansion_and_round_trip(bench_pipeline):
    s = max(b.deriv_hi for b in bench_pipeline.branches)
    assert s < 1
    for b in bench_pipeline.branches:
        assert np.all(b.samples_dpi >= 1 / s)
        assert np.all(b.samples_dpi > 1)
    worst = float(bench_pipeline.roundtrip.max())
    assert worst < 1e-9
    _line(6, f"|pi'| >= {1 / s:.2f} > 1 on every branch; "
             f"round trip max {worst:.1e} < 1e-9")


def test_criterion_7_branch_geometry_vs_linearization(bench_pipeline):
    lam = bench_pipeline.cert.lambda_hat
    checked = 0
    for side in ("L", "R"):
        seq = sorted((b for b in bench_pipeline.branches if b.side == side),
                     key=lambda b: b.index)
        for a, b in zip(seq, seq[1:]):
            ratio = b.width / a.width
            assert abs(ratio * lam - 1) < 0.05
            checked += 1
    vals = list(bench_pipeline.lambda_estimates.values())
    spread = max(vals) / min(vals) - 1
    assert spread < 0.10
    _line(7, f"{checked} width ratios within 5% of 1/lambda; "
             f"rate estimates agree to {spread:.2%}")


def test_criterion_8_oracle_concordance():
    for name, fixture, depth in (
            ("middle-thirds", cifs.middle_thirds(), 12),
            ("geometric", cifs.make_geometric_model(1.0, 4.0, 1, 1), 12)):
        report = cifs.dimension_report(fixture)
        sample = oracle.sample_word_images(fixture, depth)
        covers = [cifs.attractor_iterate(fixture, k) for k in range(1, depth + 1)]
        verdict = oracle.crosscheck(report, sample, covers,
                                    decay_cap=sum(m.c for m in fixture.maps) + 1e-9)
        assert verdict.passed, name
        assert report.moran_lower - 0.03 <= verdict.box_slope <= report.moran_upper + 0.03

    corrupted = cifs.DimensionReport(0.1, 0.2)
    sample = oracle.sample_word_images(cifs.middle_thirds(), 12)
    covers = [cifs.attractor_iterate(cifs.middle_thirds(), k) for k in range(1, 9)]
    assert not oracle.crosscheck(corrupted, sample, covers).passed
    _line(8, "box slopes inside Moran brackets +-0.03 on both fixtures; "
             "corrupted bounds FAIL")


def test_criterion_9_determinism(tmp_path):
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "slidim.cli", "--out", str(out),
             "dimension", "--model", "geometric"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["verdict"]["passed"]
    _line(9, "two dimension runs with identical config are bit-identical")
