"""The benchmark's workloads: inputs made from the seed, the timed body, checks.

A workload is a small object with six methods:

    setup()                      program set-up; timed as ``setup_s``
    load(state)                  the benchmark's own reference data (untimed)
    inputs(state, data, seed, k) inputs of operation k, made before timing
    run(state, inputs)           the timed body of one operation
    check(state, data, inputs, out) -> (attempted, failed, problems)
    evaluations(inputs, out)     units of work done, for ``evals_per_s``

Every call into slidim goes through a module attribute (``pipeline.x``,
never ``from slidim.pipeline import x``), so the traced run can wrap the
name where the program itself looks it up.
"""

import json
import math
from pathlib import Path

import numpy as np

from slidim import bench, cifs, pipeline, returnmap

DATA = Path(__file__).resolve().parent / "data"

ALPHA, BETA = 0.4, 1.0          # bench focus: lambda = exp(2 pi alpha / beta)
RADIUS = 0.25                   # fold-segment half-length (pipeline default)

# return-map-sweep: chart points come from a fixed pool with a stored
# reference.  The pool has SWEEP_STRATA strata, two candidates each; an
# operation takes one candidate per stratum, so every seed costs about the
# same work and every point it sends has a reference answer.
SWEEP_STRATA = 10000
# A point passes when its (ok, pi) matches the reference to
#   |pi - pi_ref| <= SWEEP_TOL + SWEEP_ERR_FACTOR * err,
# err being the reference's own error estimate (make_reference.py): a
# correct change to the integrator may move an answer by about its error.
SWEEP_TOL = 1e-8
SWEEP_ERR_FACTOR = 10.0

# fixture-ifs: 8 affine maps with ratios 4^-i (i = 2..5, both sides) plus the
# exact tail i >= 6.  Moran equation in x = 4^-s:
#   listed maps only   2 (x^2 + x^3 + x^4 + x^5) = 1
#   with the tail      2 x^2 / (1 - x) = 1, so x = 1/2 and s = 1/2.
FIXTURE = dict(a=1.0, lam=4.0, i_min=2, i_max=5)
FIXTURE_DEPTH = 6
FIXTURE_FB_LEVEL = 3


def _rel(got, want):
    return abs(got - want) / abs(want)


def op_seed(seed, k):
    """Seed of operation k of a run: fixed by (seed, k) alone."""
    return int(np.random.default_rng([seed, k]).integers(2 ** 31))


class BenchPipeline:
    """make_bench + run_dimension_pipeline at the ``quick`` profile.

    The pipeline is deterministic, so this workload ignores the seed.
    """

    name = "bench-pipeline"

    def setup(self):
        return bench.make_bench(alpha=ALPHA, beta=BETA)

    def load(self, state):
        return json.loads((DATA / "reference.json").read_text())["bench-pipeline"]

    def inputs(self, state, data, seed, k):
        return None

    def run(self, state, inputs):
        return pipeline.run_dimension_pipeline(
            state.system, state.p_seed, state.q_seed, radius=RADIUS,
            i_max=2, n_scan=4000)

    def check(self, state, ref, inputs, r):
        problems = []
        if not r.verdict.passed:
            problems.append("box-counting verdict failed")
        if not r.cantor.passed:
            problems.append("Cantor certificate failed")
        lam = math.exp(2 * math.pi * ALPHA / BETA)
        if _rel(r.cert.lambda_hat, lam) > ref["lambda_rel_tol"]:
            problems.append(f"lambda_hat {r.cert.lambda_hat!r} vs exp(2 pi a/b) {lam!r}")
        if float(r.roundtrip.max()) > ref["roundtrip_budget"]:
            problems.append(f"round trip {float(r.roundtrip.max()):.3e}")
        got = {"moran_lower": r.report.moran_lower,
               "moran_upper": r.report.moran_upper,
               "pressure_root": r.report.pressure_root,
               "a_hat": r.a_hat}
        for key, value in got.items():
            if value is None or _rel(value, ref[key]) > ref["rel_tol"]:
                problems.append(f"{key} {value!r} vs reference {ref[key]!r}")
        if r.i_min != ref["i_min"]:
            problems.append(f"i_min {r.i_min} vs reference {ref['i_min']}")
        if len(r.branches) != ref["branches"]:
            problems.append(f"{len(r.branches)} branches vs reference {ref['branches']}")
        return 1, int(bool(problems)), problems

    def evaluations(self, inputs, out):
        return 1


class SweepState:
    def __init__(self, system, cert, fold):
        self.system, self.cert, self.fold = system, cert, fold


def sweep_setup():
    """Bench system, connection certificate and fold segment."""
    b = bench.make_bench(alpha=ALPHA, beta=BETA)
    cert = returnmap.verify_connection(b.system, b.p_seed, b.q_seed)
    fold = returnmap.build_fold_segment(b.system, cert.q, RADIUS)
    return SweepState(b.system, cert, fold)


def sweep_pass(state, w):
    """pi over the points w, then pi again over the points that returned."""
    pi = pipeline.return_map_fn(state.system, state.fold, state.cert)
    v1, ok1 = pi(w)
    v2, ok2 = pi(v1[ok1])
    return v1, ok1, v2, ok2


class ReturnMapSweep:
    """The wide-batch regime: one return-map call over ~10^4 seeded points.

    Half of the pool is uniform on [-1, 1], half log-uniform in |w| on
    [1e-8, 1], so deep many-turn orbits are included.  The second iterate
    is a small batch of long orbits: the straggler case.
    """

    name = "return-map-sweep"

    def setup(self):
        return sweep_setup()

    def load(self, state):
        with np.load(DATA / "sweep_reference.npz") as z:
            return {key: z[key] for key in z.files}

    def inputs(self, state, ref, seed, k):
        pick = np.random.default_rng([seed, k]).integers(0, 2, SWEEP_STRATA)
        idx = 2 * np.arange(SWEEP_STRATA) + pick
        return idx, ref["w"][idx]

    def run(self, state, inputs):
        return sweep_pass(state, inputs[1])

    def check(self, state, ref, inputs, out):
        idx, w = inputs
        v1, ok1, v2, ok2 = out
        idx2 = idx[ok1]
        bad1 = _mismatch(ok1, v1, *(ref[k][idx] for k in ("ok1", "pi1", "err1", "ok1_stable")))
        bad2 = _mismatch(ok2, v2, *(ref[k][idx2] for k in ("ok2", "pi2", "err2", "ok2_stable")))
        failed = int(bad1.sum() + bad2.sum())
        problems = []
        if failed:
            first = np.concatenate([idx[bad1], idx2[bad2]])[0]
            problems.append(f"{int(bad1.sum())} first and {int(bad2.sum())} second "
                            f"iterates disagree with the reference, e.g. from "
                            f"w = {ref['w'][first]!r}")
        return int(idx.size + idx2.size), failed, problems

    def evaluations(self, inputs, out):
        return int(inputs[1].size + out[2].size)


def _mismatch(ok, vals, ok_ref, pi_ref, err_ref, ok_stable):
    """Rows whose return lies off [-1, 1], whose ok differs from a stable
    reference ok, or whose value is off the reference beyond its error."""
    off_section = ok & ~(np.abs(vals) <= 1.0)
    wrong_ok = ok_stable & (ok != ok_ref)
    both = ok & ok_ref
    wrong_pi = np.zeros_like(ok)
    wrong_pi[both] = ~(np.abs(vals[both] - pi_ref[both])
                       <= SWEEP_TOL + SWEEP_ERR_FACTOR * err_ref[both])
    return off_section | wrong_ok | wrong_pi


class FixtureIfs:
    """Analytic 8-map fixture: covers, Cantor certificate and oracle only.

    No integration runs here, so an integrator change must read "no change".
    The seed drives the forward/backward check's point sample.
    """

    name = "fixture-ifs"

    def setup(self):
        return cifs.make_geometric_model(**FIXTURE)

    def load(self, state):
        x = [r.real for r in np.roots([2, 2, 2, 2, 0, -1])
             if abs(r.imag) < 1e-12 and 0 < r.real < 1]
        return {"moran_lower": -math.log(x[0]) / math.log(4.0),
                "moran_upper": 0.5, "pressure_root": 0.5}

    def inputs(self, state, data, seed, k):
        return op_seed(seed, k)

    def run(self, ifs, fb_seed):
        res = pipeline.run_fixture_pipeline(ifs, cover_depth=FIXTURE_DEPTH,
                                            box_depth=FIXTURE_DEPTH)
        counted = _Counted(cifs.piecewise_expanding(ifs))
        eq = cifs.verify_forward_backward(counted, ifs, FIXTURE_FB_LEVEL, seed=fb_seed)
        return res, eq, counted.points

    def check(self, ifs, exact, fb_seed, out):
        res, eq, _ = out
        problems = []
        for key in ("moran_lower", "moran_upper", "pressure_root"):
            got = getattr(res.report, key)
            if got is None or abs(got - exact[key]) > 1e-9:
                problems.append(f"{key} {got!r} vs analytic {exact[key]!r}")
        if not res.cantor.passed:
            problems.append("Cantor certificate failed")
        if not res.verdict.passed:
            problems.append("box-counting verdict failed")
        if eq.n_used == 0 or eq.agreement < 0.999:
            problems.append(f"forward/backward agreement {eq.agreement} on {eq.n_used} points")
        return 1, int(bool(problems)), problems

    def evaluations(self, fb_seed, out):
        return out[2]


class _Counted:
    """The fixture's return map, counting the points it is asked for."""

    def __init__(self, pi):
        self.pi, self.points = pi, 0

    def __call__(self, points):
        self.points += len(points)
        return self.pi(points)


WORKLOADS = {w.name: w for w in (BenchPipeline(), ReturnMapSweep(), FixtureIfs())}
