"""Typed errors of the dimension pipeline, reached without integration.

The return map is replaced by a synthetic ``first_return_batch``, and in
the pipeline tests the connection certificate and the fold segment by
stand-ins.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from slidim import bench as bench_module
from slidim import cli, pipeline, returnmap
from slidim.errors import (BranchResolutionExceeded, LambdaDisagreement,
                           RoundTripExceeded, SlidimError)
from slidim.filippov import make_system

LAM = 10.0
CERT = SimpleNamespace(lambda_hat=LAM, lambda_decay=LAM, residual=1e-12,
                       flight_time_scale=1.0, p=np.zeros(3), q=np.zeros(3))
FOLD = SimpleNamespace(r=0.25)
N_SAMPLES = 5
N_PIPELINE_SAMPLES = 65   # the sweep nodes per branch of enumerate_branches' default


def _banded_map(bands, calls=None, shift=0.0, lost=False, held_out=False,
                n_samples=N_SAMPLES):
    """first_return_batch of a map that sends each chart band (lo, hi, turns)
    linearly onto [-1, 1] and misses the section elsewhere.  Off the bands
    the exit coordinate is the linear extension of the nearest band, as on
    the real map.  Every batch after the first (the precise sweep) moves
    the exit coordinates by ``shift``, and with ``lost`` its first row has
    none; with ``held_out`` both apply only to the held-out rows, the last
    N_CHECK of each branch's ``n_samples + N_CHECK``.  ``calls`` collects
    batch sizes."""
    lo, hi, k = (np.array(c, dtype=float)[:, None] for c in zip(*bands))
    calls = [] if calls is None else calls

    def first_return_batch(sys, fold, ws, center, t_slide_max=2000.0):
        ws = np.asarray(ws, dtype=float)
        calls.append(ws.size)
        near = np.argmin(np.maximum(lo - ws, ws - hi), axis=0)   # <= 0 inside
        b_lo, b_hi = lo[near, 0], hi[near, 0]
        coord = 2 * (ws - b_lo) / (b_hi - b_lo) - 1
        if len(calls) > 1:
            rows = np.arange(ws.size)
            if held_out:
                rows = rows[rows % (n_samples + returnmap.N_CHECK) >= n_samples]
            coord[rows] += shift
            if lost:
                coord[rows[0]] = np.nan
        turns = np.where(np.isnan(coord), np.nan, k[near, 0])
        return coord, turns, np.abs(coord) <= 1

    return first_return_batch


def _mirrored(bands):
    return bands + [(-hi, -lo, k) for lo, hi, k in bands]


SYNTHETIC = _mirrored([(0.3, 0.5, 1.0), (0.03, 0.05, 2.0)])
SYSTEM = make_system("x - y, x + y, x - 1", "0, 0, 1", "z")


def _enumerate(monkeypatch, bands, **kw):
    monkeypatch.setattr(returnmap, "first_return_batch", _banded_map(bands, **kw))
    return returnmap.enumerate_branches(SYSTEM, FOLD, CERT, 2, n_scan=400,
                                        n_samples=N_SAMPLES)


def test_synthetic_bands_are_found(monkeypatch):
    calls = []
    branches = _enumerate(monkeypatch, SYNTHETIC, calls=calls)
    assert [(b.side, b.index) for b in branches] == [("L", 1), ("L", 2), ("R", 2), ("R", 1)]
    # two batches: the scan, and one precise sweep of every branch's fit
    # and held-out nodes
    assert calls == [400, (N_SAMPLES + returnmap.N_CHECK) * 4]
    assert np.allclose([b.interval for b in branches],
                       [(-0.5, -0.3), (-0.05, -0.03), (0.03, 0.05), (0.3, 0.5)],
                       rtol=0, atol=1e-12)
    # |psi'| = width / 2 on a linear band
    half_widths = np.array([0.1, 0.01, 0.01, 0.1])
    assert np.allclose([(b.deriv_lo, b.deriv_hi) for b in branches],
                       np.outer(half_widths, [1 / returnmap.SAFETY, returnmap.SAFETY]),
                       rtol=1e-9, atol=0)
    # psi is exact on a linear band, so the round trip is rounding
    assert max(b.roundtrip for b in branches) < 1e-14


def test_windings_not_consecutive(monkeypatch):
    with pytest.raises(BranchResolutionExceeded, match="windings not consecutive"):
        _enumerate(monkeypatch, _mirrored([(0.3, 0.5, 1.0), (0.03, 0.05, 3.0)]))


def test_no_branch_inside_the_scan_window(monkeypatch):
    # the only bands reach the ends of the window [-1, 1], so every run is clipped
    with pytest.raises(BranchResolutionExceeded, match=r"scan window \[-1, 1\]"):
        _enumerate(monkeypatch, _mirrored([(0.9, 1.0, 1.0)]))


def test_too_few_scan_points(monkeypatch):
    # the scan steps |w| by a factor 1.044: [0.03, 0.032] holds one or two points
    with pytest.raises(BranchResolutionExceeded, match="R2: . scan points, fewer than 8"):
        _enumerate(monkeypatch, [(0.3, 0.5, 1.0), (0.03, 0.032, 2.0)])


def test_sweep_node_without_exit_coordinate(monkeypatch):
    with pytest.raises(BranchResolutionExceeded, match="L1: 1 sweep nodes have no exit"):
        _enumerate(monkeypatch, SYNTHETIC, lost=True)


def test_sweep_misses_the_nodes_of_the_first_series(monkeypatch):
    # the precise sweep disagrees with the scan by twice END_MISS
    with pytest.raises(BranchResolutionExceeded, match="L1: the sweep misses a node"):
        _enumerate(monkeypatch, SYNTHETIC, shift=2 * returnmap.END_MISS)


@pytest.fixture
def synthetic(monkeypatch):
    """The pipeline's connection and fold stages answer with CERT and FOLD,
    and its return map is the banded map of SYNTHETIC; ``synthetic(**kw)``
    installs that map with the options ``kw`` and returns its batch sizes."""
    monkeypatch.setattr(returnmap, "verify_connection", lambda *a, **k: CERT)
    monkeypatch.setattr(returnmap, "build_fold_segment", lambda *a, **k: FOLD)

    def install(**kw):
        calls = []
        monkeypatch.setattr(returnmap, "first_return_batch",
                            _banded_map(SYNTHETIC, calls, held_out=True,
                                        n_samples=N_PIPELINE_SAMPLES, **kw))
        return calls
    return install


def _run_pipeline():
    return pipeline.run_dimension_pipeline(SYSTEM, None, None, i_max=2, n_scan=400)


def test_round_trip_over_budget(synthetic):
    # the held-out rows of the one precise sweep miss by twice the budget
    calls = synthetic(shift=2 * pipeline.ROUNDTRIP_BUDGET)
    with pytest.raises(RoundTripExceeded, match=r"round trip 2\.00e-09 above 1e-09"):
        _run_pipeline()
    assert calls == [400, (N_PIPELINE_SAMPLES + returnmap.N_CHECK) * 4]


def test_held_out_node_without_exit_exceeds_the_round_trip(synthetic):
    # the first held-out row of L1 has no exit: an infinite residual, not NaN
    synthetic(lost=True)
    with pytest.raises(RoundTripExceeded, match="L1: inverse-branch round trip inf"):
        _run_pipeline()


def test_lambda_disagreement(synthetic, monkeypatch):
    synthetic()
    monkeypatch.setattr(returnmap, "branch_width_lambda", lambda branches: 1.2 * LAM)
    with pytest.raises(LambdaDisagreement):
        _run_pipeline()


def test_typed_errors_exit_as_dynamics_errors(synthetic, monkeypatch, bench, tmp_path,
                                              capsys):
    assert issubclass(RoundTripExceeded, SlidimError)
    assert issubclass(LambdaDisagreement, SlidimError)
    synthetic(shift=2 * pipeline.ROUNDTRIP_BUDGET)
    monkeypatch.setattr(bench_module, "make_bench", lambda tol=None: bench)
    assert cli.main(["--out", str(tmp_path), "--imax", "2", "--scan", "400",
                     "dimension"]) == 2
    assert "round trip" in capsys.readouterr().err
