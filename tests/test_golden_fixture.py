"""The analytic fixtures' IFS analysis against a frozen file, compared exactly.

``golden/fixture_analysis.json`` holds, for the benchmark's 8-map
``make_geometric_model(1, 4, 2, 5)`` at depth 6 and for the middle-thirds
pair at depth 12, the Moran bracket, the four Cantor clause dicts, and the
box-counting counts, slope and R^2 of ``run_fixture_pipeline``.  No
integration runs, so every number is a deterministic function of the code:
a change that reorders floating-point work in the covers, the scaffold, the
certificate or the box counts shows here as a changed digit.

The box counts and the clause dicts are what a reordering refactor would
change, and they should match on any host.  The slope and R^2
(``np.polyfit``, a LAPACK least-squares solve through the BLAS) and the Moran
roots (a bisection over numpy's vectorised powers) are exact only on the
BLAS build and CPU kernels that wrote the file (numpy 2.4 with OpenBLAS
0.3.31 on x86_64 with AVX-512): on another host, a failure in those fields
alone can be a difference of the numerical libraries rather than a
regression of this code.

After a deliberate change of the numbers, rewrite the file with
``PYTHONPATH=src python tests/test_golden_fixture.py``.
"""

import json
from pathlib import Path

import pytest

from slidim import cifs, oracle, pipeline

GOLDEN = Path(__file__).resolve().parent / "golden" / "fixture_analysis.json"

CASES = {
    "geometric-8-maps-depth-6": (lambda: cifs.make_geometric_model(1.0, 4.0, 2, 5), 6),
    "middle-thirds-depth-12": (cifs.middle_thirds, 12),
}


def analysis_values(make, depth):
    """The frozen fields of one fixture analysis, as written to the golden file."""
    ifs = make()
    res = pipeline.run_fixture_pipeline(ifs, cover_depth=depth, box_depth=depth)
    fit = oracle.box_counting(oracle.sample_word_images(ifs, depth))
    assert fit.slope == res.verdict.box_slope
    return {
        "moran_lower": res.report.moran_lower,
        "moran_upper": res.report.moran_upper,
        "cantor_passed": res.cantor.passed,
        "cantor_clauses": res.cantor.clauses,
        "box_counts": fit.counts.tolist(),
        "box_slope": fit.slope,
        "box_r_squared": fit.r_squared,
    }


def current():
    # a JSON round trip, so tuples, numpy scalars and inf compare as written
    return json.loads(_dumps({name: analysis_values(*case) for name, case in CASES.items()}))


def _dumps(values):
    return json.dumps(values, indent=2, sort_keys=True, default=lambda o: o.item()) + "\n"


@pytest.fixture(scope="module")
def pair():
    return current(), json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixture_analysis_is_bit_identical(pair, name):
    got, want = pair
    for key in want[name]:
        assert got[name][key] == want[name][key], key
    assert got[name].keys() == want[name].keys()


if __name__ == "__main__":
    GOLDEN.write_text(_dumps(current()))
