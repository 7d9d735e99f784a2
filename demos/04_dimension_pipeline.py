"""The full dimension pipeline on the reference system.

Produces the Moran bracket and pressure root for the local invariant set of
the first return map, interval covers certifying Lebesgue decay, the
Cantor-structure certificate, and the box-counting cross-check.

Takes a few minutes end to end.
"""

import numpy as np

from slidim import make_bench
from slidim.pipeline import forward_backward_check, run_dimension_pipeline

bench = make_bench()
res = run_dimension_pipeline(bench.system, bench.p_seed, bench.q_seed)

rep = res.report
print("dimension bracket for the local invariant set")
print(f"  Moran lower bound  s  = {rep.moran_lower:.6f}")
print(f"  pressure root      t~ = {rep.pressure_root:.6f}")
print(f"  Moran upper bound  t  = {rep.moran_upper:.6f}")
print("  truncation curve:", [(n, round(v, 5)) for n, v in rep.truncation_schedule])

lens = [c.total_length for c in res.covers]
print("\ncover lengths by level (Lebesgue decay):")
for k, ln in enumerate(lens, start=1):
    print(f"  level {k}: {ln:.3e}")
print(f"  worst per-level ratio {max(b / a for a, b in zip(lens, lens[1:])):.4f} "
      f"<= sum of contraction bounds {res.sum_c:.4f}")

print("\nCantor certificate (depth", res.cantor.depth, "):",
      "PASS" if res.cantor.passed else "FAIL")
for name, clause in res.cantor.clauses.items():
    print(f"  clause {name}: {clause['passed']}")

print(f"\nbox-counting slope {res.verdict.box_slope:.4f} "
      f"(R^2 = {res.verdict.margins['r_squared']:.4f}) vs bracket "
      f"[{rep.moran_lower:.4f}, {rep.moran_upper:.4f}]")
print("oracle verdict:", "PASS" if res.verdict.passed else "FAIL")

fb = forward_backward_check(bench.system, res, k=3, n_points=4000)
print(f"\nforward-iteration vs cover membership at k=3: "
      f"agreement {fb.agreement:.5f} on {fb.n_used} points")
