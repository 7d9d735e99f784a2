"""One fresh benchmark process; run.py starts it and reads its last line.

    worker.py setup   WORKLOAD                       cold set-up time only
    worker.py measure WORKLOAD SEED SECONDS          set-up, then the timed loop
    worker.py trace   WORKLOAD SEED                  per-layer metrics of operation 0

Set-up is timed from before the first import of the package, because the
package caches shooting results in-process (``bench._cached_params``): only
a fresh process measures the cold path a user pays.  The loop is closed,
with one caller: operation k + 1 starts when operation k and its check
are done.  It keeps starting operations while the next one, taking as long
as the last, still ends inside SECONDS; there is always at least one.
"""

import json
import resource
import sys
import time
import traceback
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _setup(name):
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    wl = workloads.WORKLOADS[name]
    state = wl.setup()
    return wl, state, time.perf_counter() - t0


def _op(run, state, inputs):
    """Run one operation; returns (seconds, output, problems)."""
    t0 = time.perf_counter()
    try:
        out = run(state, inputs)
    except Exception:
        return time.perf_counter() - t0, None, [traceback.format_exc()]
    return time.perf_counter() - t0, out, []


def setup(name):
    return {"setup_s": _setup(name)[2]}


def measure(name, seed, seconds):
    wl, state, setup_s = _setup(name)
    data = wl.load(state)
    op_s, evals, problems = [], [], []
    attempted = failed = 0
    k = 0
    while True:
        inputs = wl.inputs(state, data, seed, k)
        dt, out, errs = _op(wl.run, state, inputs)
        if out is None:
            attempted, failed = attempted + 1, failed + 1
            problems += errs
            break
        n, bad, notes = wl.check(state, data, inputs, out)
        attempted, failed, problems = attempted + n, failed + bad, problems + notes
        op_s.append(dt)
        evals.append(wl.evaluations(inputs, out))
        k += 1
        if sum(op_s) + dt > seconds:
            break
    return {"setup_s": setup_s, "op_s": op_s, "evals": evals,
            "attempted": attempted, "failed": failed, "problems": problems,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(name, seed):
    """Traced cold set-up, one traced operation, then the layer
    micro-benchmarks.  Spans go to .perfbench/ under the repository root."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads
    wl = workloads.WORKLOADS[name]
    setup_tr = tracing.Tracer()
    with tracing.instrument(setup_tr):
        state = setup_tr.timed("perfbench.setup", "perfbench", wl.setup)
    data = wl.load(state)
    inputs = wl.inputs(state, data, seed, 0)
    body = tracing.Tracer()
    with tracing.instrument(body):
        dt, out, problems = _op(partial(body.timed, "perfbench.op", "perfbench", wl.run),
                                state, inputs)
    if out is None:
        return {"metrics": {}, "attempted": 1, "failed": 1, "problems": problems}
    attempted, failed, problems = wl.check(state, data, inputs, out)
    metrics = tracing.layer_metrics(body, setup_tr)
    metrics.update(tracing.micro_benchmarks(seed))
    metrics["trace.run_s"] = dt
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{name}-{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed,
         "fields": ["name", "start", "end", "parent"],
         "setup_spans": setup_tr.spans, "spans": body.spans}))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}


if __name__ == "__main__":
    mode, name, *rest = sys.argv[1:]
    if mode == "setup":
        result = setup(name)
    elif mode == "measure":
        result = measure(name, int(rest[0]), float(rest[1]))
    else:
        result = trace(name, int(rest[0]))
    print(json.dumps(result))
