"""Regenerate the benchmark's stored reference data in perfbench/data/.

    python3 perfbench/make_reference.py sweep      # sweep_reference.npz
    python3 perfbench/make_reference.py pipeline   # reference.json

Run it from the repository root, and only on a commit whose results are
accepted as correct: every later run is checked against what it writes.
The committed files were recorded on the commit that added the benchmark.

sweep_reference.npz holds the return-map-sweep pool: 2 candidates in each
of workloads.SWEEP_STRATA strata (half uniform on [-1, 1], half
log-uniform in |w| on [1e-8, 1], random sign), and for each candidate the
(ok, pi) of the first and second iterate at the default tolerances.  Each
iterate is rerun at the tightened tolerances of returnmap.precise, which
are about 100 times more accurate:

  ok*_stable  both runs agree on ok (false for orbits that graze a branch
              boundary: there ok is not determined by the tolerances)
  err*        |pi - pi_precise|, the error of the default-tolerance answer
              (inf where either run missed the section)

Deep branches amplify integration error by about lambda per turn, so err
spans from ~1e-12 on shallow orbits to ~1e-2 on the deepest; the check in
workloads.py scales its tolerance with it.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from slidim import returnmap  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20231217
LOG_DECADES = 8


def make_pool():
    """Candidates in stratum order: pool[2 s] and pool[2 s + 1] share stratum s."""
    rng = np.random.default_rng(POOL_SEED)
    half = workloads.SWEEP_STRATA // 2
    jitter = rng.uniform(0.0, 1.0, (workloads.SWEEP_STRATA, 2))
    base = np.arange(workloads.SWEEP_STRATA)[:, None]
    uniform = -1.0 + 2.0 * (base[:half] + jitter[:half]) / half
    exponent = -LOG_DECADES * (1.0 - (base[half:] - half + jitter[half:]) / half)
    sign = np.where(rng.uniform(size=exponent.shape) < 0.5, -1.0, 1.0)
    logs = sign * 10.0 ** exponent
    return np.concatenate([uniform, logs]).ravel()


def both_iterates(state, w):
    v1, ok1, v2, ok2 = workloads.sweep_pass(state, w)
    pi2 = np.full(w.size, np.nan)
    okk2 = np.zeros(w.size, dtype=bool)
    pi2[ok1], okk2[ok1] = v2, ok2
    return ok1, v1, okk2, pi2


def error(ok, val, ok_p, val_p):
    both = ok & ok_p
    err = np.full(ok.size, np.inf)
    err[both] = np.abs(val[both] - val_p[both])
    return err


def sweep():
    state = workloads.sweep_setup()
    w = make_pool()
    t0 = time.perf_counter()
    ok1, pi1, ok2, pi2 = both_iterates(state, w)
    t1 = time.perf_counter()
    fine = workloads.SweepState(returnmap.precise(state.system), state.cert, state.fold)
    ok1p, pi1p, ok2p, pi2p = both_iterates(fine, w)
    t2 = time.perf_counter()
    ref = dict(w=w, ok1=ok1, pi1=pi1, ok2=ok2, pi2=pi2,
               ok1_stable=ok1 == ok1p, ok2_stable=ok2 == ok2p,
               err1=error(ok1, pi1, ok1p, pi1p), err2=error(ok2, pi2, ok2p, pi2p))
    np.savez_compressed(workloads.DATA / "sweep_reference.npz", **ref)
    print(f"pool {w.size}: default {t1 - t0:.1f}s, precise {t2 - t1:.1f}s; "
          f"first returns {ok1.sum()}, second {ok2.sum()}; ok unstable "
          f"{(~ref['ok1_stable']).sum()} + {(~ref['ok2_stable']).sum()}")


def pipeline():
    wl = workloads.WORKLOADS["bench-pipeline"]
    r = wl.run(wl.setup(), None)
    path = workloads.DATA / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    ref["bench-pipeline"] = {
        "moran_lower": r.report.moran_lower,
        "moran_upper": r.report.moran_upper,
        "pressure_root": r.report.pressure_root,
        "a_hat": r.a_hat,
        "i_min": r.i_min,
        "branches": len(r.branches),
        # derivative bounds come from finite differences over 2e-4 of a
        # branch width, so integration error of ~1e-10 in pi moves them,
        # and the Moran values with them, by up to ~1e-5 relative
        "rel_tol": 1e-4,
        "lambda_rel_tol": 1e-9,
        "roundtrip_budget": 1e-9,
    }
    path.write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref["bench-pipeline"], indent=2))


if __name__ == "__main__":
    {"sweep": sweep, "pipeline": pipeline}[sys.argv[1]]()
