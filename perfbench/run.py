"""Benchmark of the slidim dimension pipeline, end to end and per layer.

    python3 perfbench/run.py --workload return-map-sweep --seed 0 --seconds 40 --trace 0

Run from the repository root.  Workloads (see workloads.py):

  return-map-sweep  return map over ~10^4 seeded chart points, then the
                    second iterate: the wide-batch regime
  fixture-ifs       analytic 8-map fixture through the fixture pipeline and
                    the forward/backward check: cifs and oracle only
  bench-pipeline    make_bench + run_dimension_pipeline(i_max=2,
                    n_scan=4000); about 160 s per operation on a 2-core
                    x86 machine, so it is not in BENCHMARK.json's workloads

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics (metrics.END_TO_END); with --trace 1 with the
per-layer metrics (metrics.PER_LAYER).  Either way a table of every metric
with its unit goes to standard error.  Every operation's output is checked
(workloads.py); ``failed`` counts the evaluations or runs that raised or
disagreed with the reference, and ``correct`` is true when none did.

Each workload runs in fresh processes (worker.py) with BLAS/OpenMP
threads pinned to 1, one at a time: 2 set-up-only processes, then the
measuring process, whose own cold set-up is the third set-up sample.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("return-map-sweep", "fixture-ifs", "bench-pipeline")
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 900
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child(*args):
    """Run worker.py in a fresh process and parse its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {' '.join(map(str, args))} exited "
                          f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def end_to_end(workload, seed, seconds):
    setups = [child("setup", workload)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    m = child("measure", workload, seed, seconds)
    setups.append(m["setup_s"])
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": m["rss_mb"]}
    if m["op_s"]:
        values["run_s"] = statistics.median(m["op_s"])
        values["evals_per_s"] = statistics.median(
            n / dt for n, dt in zip(m["evals"], m["op_s"]))
    return values, m


def traced(workload, seed):
    """Per-layer metrics of operation 0, and the tracing overhead: the
    traced operation against the same operation untraced, each the first
    operation of a fresh process."""
    plain = child("measure", workload, seed, 0)
    result = child("trace", workload, seed)
    values = result["metrics"]
    if plain["op_s"] and "trace.run_s" in values:
        values["trace.untraced_run_s"] = plain["op_s"][0]
        values["trace.overhead_s"] = values["trace.run_s"] - plain["op_s"][0]
    for key in ("attempted", "failed", "problems"):
        result[key] += plain[key]
    return values, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "slidim" / "__init__.py").is_file():
        print(f"no slidim package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        if args.trace:
            values, result = traced(args.workload, args.seed)
            names = [n for n, *_ in metrics.PER_LAYER]
        else:
            values, result = end_to_end(args.workload, args.seed, args.seconds)
            names = [n for n, *_ in metrics.END_TO_END]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    for problem in result["problems"][:10]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print(f"{args.workload} seed {args.seed}: {attempted} attempted, {failed} failed, "
          f"error_rate {failed / max(attempted, 1):.3g}", file=sys.stderr)
    for name in names:
        if name in values:
            print(f"  {name:40s} {values[name]:>16.6g} {metrics.UNITS[name]}",
                  file=sys.stderr)
    missing = [n for n in names if n not in values]
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": metrics.UNITS[n]}
                    for n in names if n in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
