"""The benchmark's own test.

    python3 perfbench/selfcheck.py [--seed N] [WORKLOAD ...]

1. BENCHMARK.json lists exactly the metrics of metrics.py, with the same
   units, directions and bounds.
2. Two traced runs of each workload (default: those in BENCHMARK.json) on
   one seed report the same value for every count (metrics.EXACT): the
   work counters are measured from outside the integrator, and must repeat
   exactly for a fixed input.  Both runs must pass their checks.

Exits 1 and says what differs when either part fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def declared_metrics(benchmark):
    problems = []
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": d}
                for n, u, b, d in metrics.END_TO_END]
    if benchmark["end_to_end"] != want_e2e:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    want_layer = [{"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER]
    if benchmark["per_layer"] != want_layer:
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    return problems


def traced(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["correct"], {k: v["value"] for k, v in result["metrics"].items()}


def main():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in benchmark["workloads"]])
    args = ap.parse_args()
    problems = declared_metrics(benchmark)
    for workload in args.workloads:
        (ok_a, a), (ok_b, b) = traced(workload, args.seed), traced(workload, args.seed)
        if not (ok_a and ok_b):
            problems.append(f"{workload}: a traced run failed its correctness check")
        differ = [f"{n}: {a[n]} vs {b[n]}" for n in metrics.EXACT if a[n] != b[n]]
        problems += [f"{workload}: {d}" for d in differ]
        run_s = a["trace.run_s"]
        print(f"{workload}: {len(metrics.EXACT) - len(differ)}/{len(metrics.EXACT)} "
              f"counts repeat; odeint.row_steps {a['odeint.row_steps']}, "
              f"odeint.rhs_calls {a['odeint.rhs_calls']}, first_return.calls "
              f"{a['returnmap.first_return.calls']}, box_counting.calls "
              f"{a['oracle.box_counting.calls']}; enumerate_branches "
              f"{a['returnmap.enumerate_branches.s'] / run_s:.0%} of traced run_s")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
