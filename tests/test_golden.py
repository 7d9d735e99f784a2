"""The default bench pipeline against a frozen report.

``golden/bench_report.json`` holds ``golden_values`` of the session
``bench_pipeline``: ``make_bench()`` and ``run_dimension_pipeline`` at their
defaults (i_max 3, n_scan 3000).  After a deliberate change of the numbers,
rewrite it with ``PYTHONPATH=src python tests/test_golden.py``, which first
prints each field's |delta| against its budget.  The budgets below were
set for an earlier design that solved for the branch boundaries (roots of
|exit_s| - 1) and measured |pi'| by finite differences; the pipeline now
takes both from the fitted inverse series psi, and the values were last
written by it.  They are written at the connection of today's shooting, the root of the landing map as integrated
at the default tolerances (see ``bench.solve_connection_params``).  That
root carries the tableau's truncation error: going from a 5(4) pair to
DOP853 moved u1 by 1.2e-7 and the branch boundaries by 2.9e-9 W (L1) to
4.2e-7 W (L3), far beyond their budget below, while at one shared
connection the two tableaus agree within 1.7e-9 W.  So the values are
refrozen with a change of tableau, after ``python tests/test_golden.py``
has printed every field's move against its budget.  No tolerance is a
free choice; each one follows from a budget the pipeline itself states:

* round trip: the pipeline's ``roundtrip_budget``, 1e-9 (absolute).  The
  round trip is max |pi(w_k) - psi.solve(w_k)| over each branch's 24
  held-out nodes w_k = psi_0(y_k), which ride in the precise branch sweep
  without entering the fit;
* branch boundaries: 1e-9 of the branch width W, the golden solver's own
  budget.  It stopped once its bracket was narrower than 1e-9 of a scan
  bracket (a fraction of the branch), or where ||exit_s| - 1| <= 1e-10,
  which is 5e-11 W where |pi'| takes its mean 2 / W.  The ends psi(-+1)
  of the series must meet those roots within it;
* derivative bounds: extremes of |pi'| over an interior Chebyshev grid of
  the branch, scaled by the safety factor 1.05.  The golden |pi'| are
  central differences |pi(w + d) - pi(w - d)| / 2d with d = 2e-4 W; the
  pipeline's are 1 / |psi'| at the grid's preimages.  The tolerance bounds
  the fit against those finite-difference values: one precise evaluation
  of pi is trusted to the round-trip budget eps, so a golden difference
  moves by at most eps / d, which is eps * deriv_hi / (1.05 * 2e-4 * W)
  relative to the smallest |pi'| of the branch (about 4.3e-6).  The grid
  moves with the boundaries (1e-9 W), which adds 10 * 1e-9 at most;
* a_hat = min 1 / (deriv_hi * lambda_hat^winding): the derivative budget
  plus the winding (at most 2) times the lambda_hat budget;
* lambda_hat: within 1e-9 of exp(2 pi a / b) on every run
  (``test_certificate_residual_and_rate``), so 2e-9 between two runs;
* lambda_decay: within 1e-4 of the closed form, so 2e-4 between runs;
* lambda from branch widths: each width moves by at most 2e-9 relative
  (two boundaries), a width ratio by 4e-9, and so their geometric mean;
* Moran roots of sum r_i^s = 1: scaling every ratio by at most a relative
  delta moves the root by at most s * delta / ln(1 / r_max), plus the
  solver's residual 1e-12.  The upper root's tail ratios move with a_hat
  and, for the indices that matter (up to about 6), 5 * lambda_hat;
* box slope: the word-image points move by about the round-trip budget,
  so a box count can change only for a point within that of a box edge.
  One box more or less at any one fit scale moves the least-squares
  slope by at most 1.5e-3 (computed from the fit: the largest
  |x_i - mean| / sum (x - mean)^2 * ln(1 + 1/N_i)).
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from slidim.bench import BENCH_DOMAIN, BENCH_G, BENCH_X, BENCH_Y
from slidim.filippov import make_system
from slidim.pipeline import run_dimension_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden" / "bench_report.json"

ROUNDTRIP_BUDGET = 1e-9
BOUNDARY_REL = 1e-9
FD_STEP_REL = 2e-4
SAFETY = 1.05
LAMBDA_HAT_REL = 2e-9
LAMBDA_DECAY_REL = 2e-4
LAMBDA_WIDTHS_REL = 4e-9
ROOT_RESIDUAL = 1e-12
BOX_SLOPE_ABS = 1.5e-3


def golden_values(res):
    """The frozen fields of a pipeline result, as written to the golden file."""
    return {
        "moran_lower": res.report.moran_lower,
        "moran_upper": res.report.moran_upper,
        "branches": [{"side": b.side, "index": b.index, "lo": b.interval[0],
                      "hi": b.interval[1], "deriv_lo": b.deriv_lo,
                      "deriv_hi": b.deriv_hi} for b in res.branches],
        "i_min": res.i_min,
        "a_hat": res.a_hat,
        "lambda_estimates": dict(res.lambda_estimates),
        "box_slope": res.verdict.box_slope,
        "roundtrip_max": float(res.roundtrip.max()),
    }


@pytest.fixture(scope="module")
def pair(bench_pipeline):
    return golden_values(bench_pipeline), json.loads(GOLDEN.read_text())


def _deriv_rel(branch):
    width = branch["hi"] - branch["lo"]
    return (ROUNDTRIP_BUDGET * branch["deriv_hi"] / (SAFETY * FD_STEP_REL * width)
            + 10 * BOUNDARY_REL)


def _rel(got, want):
    return abs(got - want) / abs(want)


def budget_table(got, want):
    """{field: (|delta|, budget)} for every frozen number, relative where
    the field's name ends in ``(rel)``; each budget is derived above."""
    table = {}
    for g, w in zip(got["branches"], want["branches"]):
        name = f"{w['side']}{w['index']}"
        width = w["hi"] - w["lo"]
        for end in ("lo", "hi"):
            table[f"{name}.{end}"] = (abs(g[end] - w[end]), BOUNDARY_REL * width)
        for key in ("deriv_lo", "deriv_hi"):
            table[f"{name}.{key} (rel)"] = (_rel(g[key], w[key]), _deriv_rel(w))
    lam_got, lam_want = got["lambda_estimates"], want["lambda_estimates"]
    for key, budget in (("eigenvalue", LAMBDA_HAT_REL), ("backward_decay", LAMBDA_DECAY_REL),
                        ("branch_widths", LAMBDA_WIDTHS_REL)):
        table[f"lambda_estimates.{key} (rel)"] = (_rel(lam_got[key], lam_want[key]), budget)
    deriv = max(_deriv_rel(b) for b in want["branches"])
    a_rel = deriv + 2 * LAMBDA_HAT_REL
    table["a_hat (rel)"] = (_rel(got["a_hat"], want["a_hat"]), a_rel)
    b_max = max(b["deriv_lo"] for b in want["branches"])
    c_max = max(b["deriv_hi"] for b in want["branches"])
    s, t = want["moran_lower"], want["moran_upper"]
    table["moran_lower"] = (abs(got["moran_lower"] - s),
                            s * deriv / np.log(1 / b_max) + ROOT_RESIDUAL)
    table["moran_upper"] = (abs(got["moran_upper"] - t),
                            t * max(deriv, a_rel + 5 * LAMBDA_HAT_REL) / np.log(1 / c_max)
                            + ROOT_RESIDUAL)
    table["box_slope"] = (abs(got["box_slope"] - want["box_slope"]), BOX_SLOPE_ABS)
    table["roundtrip_max"] = (abs(got["roundtrip_max"] - want["roundtrip_max"]),
                              ROUNDTRIP_BUDGET)
    return table


def _within(pair, prefixes):
    for name, (delta, budget) in budget_table(*pair).items():
        if name.startswith(prefixes):
            assert delta <= budget, (name, delta, budget)


def test_branch_table(pair):
    got, want = pair
    assert [(b["side"], b["index"]) for b in got["branches"]] == \
        [(b["side"], b["index"]) for b in want["branches"]]
    assert len(got["branches"]) == 6
    assert got["i_min"] == want["i_min"]
    _within(pair, ("L", "R"))


def test_rates_and_cutoff(pair):
    _within(pair, ("lambda_estimates.", "a_hat"))


def test_moran_bracket(pair):
    _within(pair, ("moran_",))


def test_box_slope_and_round_trip(pair):
    got, _ = pair
    assert got["roundtrip_max"] <= ROUNDTRIP_BUDGET
    _within(pair, ("box_slope", "roundtrip_max"))


# --- invariance oracles ---------------------------------------------------------
#
# The bench is exact or special in several places: g = z, so the projection
# onto M is (x, y, 0); Y is constant, so its fold event is left out; the fold
# is the line x = 1, so the chart coordinate is the y of a point.  Three
# transforms of the bench keep its dimension and its branch ends but leave
# that structure:
# * a time change: X and Y both times h = exp(0.3 x) > 0, so Y is no longer
#   constant.  Orbits, and so pi, stay the same; h(p) = 1 and the fields
#   vanish at p, so the focus rate stays the same too;
# * a rotation of (x, y) by 0.7 rad: the branches rotate with the system, the
#   tangent chart is isometric, so the branch ends stay the same, and the fold
#   runs off the axes;
# * g times k = 2 + y, positive near the connection: M, its sides and so the
#   Filippov flow stay the same, but grad g is no longer (0, 0, 1), Yg is not
#   constant, so its fold event is kept, and the sliding field keeps its z
#   component.


def _components(src):
    return [c.strip() for c in src.split(",")]


def _time_change():
    h = "exp(0.3*x)"
    x_src, y_src = (", ".join(f"{h}*({c})" for c in _components(src))
                    for src in (BENCH_X, BENCH_Y))
    return x_src, y_src, BENCH_G, np.eye(3)


def _rotation(theta=0.7):
    c, s = float(np.cos(theta)), float(np.sin(theta))
    # each component at R^T u, then the vector rotated by R
    inverse = {"x": f"({c!r}*x + {s!r}*y)", "y": f"({-s!r}*x + {c!r}*y)"}
    a, b, z = (re.sub(r"\b[xy]\b", lambda m: inverse[m.group()], comp)
               for comp in _components(BENCH_X))
    x_src = f"{c!r}*({a}) - {s!r}*({b}), {s!r}*({a}) + {c!r}*({b}), {z}"
    return x_src, BENCH_Y, BENCH_G, np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _switching_scale():
    return BENCH_X, BENCH_Y, "z*(2 + y)", np.eye(3)


@pytest.mark.parametrize("transform", [_time_change, _rotation, _switching_scale],
                         ids=["time-change", "rotation", "switching-scale"])
def test_transformed_bench_keeps_every_golden_number(bench, bench_pipeline, transform):
    x_src, y_src, g_src, rot = transform()
    system = make_system(x_src, y_src, g_src, params=dict(bench.system.params),
                         domain=BENCH_DOMAIN)
    got = golden_values(run_dimension_pipeline(system, rot @ bench.p_seed,
                                               rot @ bench.q_seed))
    want = golden_values(bench_pipeline)
    assert [(b["side"], b["index"]) for b in got["branches"]] == \
        [(b["side"], b["index"]) for b in want["branches"]]
    assert got["i_min"] == want["i_min"]
    for name, (delta, budget) in budget_table(got, want).items():
        assert delta <= budget, (name, delta, budget)


if __name__ == "__main__":
    from slidim.bench import make_bench

    bench = make_bench()
    got = golden_values(run_dimension_pipeline(bench.system, bench.p_seed, bench.q_seed))
    for name, (delta, budget) in budget_table(got, json.loads(GOLDEN.read_text())).items():
        print(f"{name:38s} |delta| {delta:.3e}  budget {budget:.3e}"
              f"  {delta / budget:8.3f} of it")
    GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
