"""The bench's first-return map at frozen chart points, compared exactly.

``golden/return_map_bench.csv`` holds ``w, coord, turns`` of
``first_return_batch`` at 40 chart points of the bench's fold segment, at
17 significant digits: uniform points, points log-uniform in |w| down to
1e-8 (many turns about the focus), and points with no return (NaN).  The
map is one X-flight and one sliding flow per point, so any change that
reorders floating-point work in the step, the projection, the events or
the winding shows here as a changed digit.  After a deliberate change of
the numbers, rewrite the file with
``PYTHONPATH=src python tests/test_golden_return_map.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from slidim import returnmap

GOLDEN = Path(__file__).resolve().parent / "golden" / "return_map_bench.csv"
RADIUS = 0.25


def chart_points():
    """16 uniform points on [-1, 1], 18 log-uniform in |w| on [1e-8, 1] with
    both signs, the segment's end, and the center and points next to it,
    whose flights land within the focus's noise floor: no return."""
    rng = np.random.default_rng(20231)
    uniform = rng.uniform(-1.0, 1.0, 16)
    deep = rng.choice([-1.0, 1.0], 18) * 10.0 ** rng.uniform(-8.0, 0.0, 18)
    return np.concatenate([uniform, deep, [1.0, 0.0, 1e-12, -1e-12, 1e-13, -1e-13]])


def sample(bench):
    """The map at ``chart_points()`` as CSV text, header included."""
    system = bench.system
    cert = returnmap.verify_connection(system, bench.p_seed, bench.q_seed)
    fold = returnmap.build_fold_segment(system, cert.q, RADIUS)
    w = chart_points()
    coord, turns, _ = returnmap.first_return_batch(system, fold, w, cert.p,
                                                   12 * cert.flight_time_scale)
    lines = ["w,coord,turns"]
    lines += [",".join("%.17g" % v for v in row) for row in zip(w, coord, turns)]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def frozen():
    return GOLDEN.read_text()


def test_golden_sample_has_returns_and_misses(frozen):
    values = np.array([[float(v) for v in line.split(",")]
                       for line in frozen.splitlines()[1:]])
    w, coord = values[:, 0], values[:, 1]
    assert len(values) == 40
    assert np.isnan(coord).sum() == 5 and np.isfinite(coord[np.abs(w) < 1e-7]).any()


def test_return_map_matches_golden_rows(bench, frozen):
    assert sample(bench) == frozen


if __name__ == "__main__":
    from slidim.bench import make_bench

    GOLDEN.write_text(sample(make_bench()))
