"""Closed-form contraction systems exercising the dimension machinery.

The middle-thirds pair has dimension ln2/ln3; the two-sided geometric
family with ratios lam^-i has pressure root solving
2 q / (1 - q) = 1 with q = lam^-t, i.e. t = ln3/ln4 for lam = 4.
Everything here is exact arithmetic, no integration.
"""

import numpy as np

from slidim import (cantor_certify, closure_scaffold, cover_tower,
                    dimension_report, make_geometric_model, middle_thirds,
                    moran_bounds, pressure, pressure_root, word_intervals)

mt = middle_thirds()
s, t = moran_bounds(mt)
print(f"middle thirds: Moran bounds ({s:.12f}, {t:.12f}), "
      f"exact ln2/ln3 = {np.log(2) / np.log(3):.12f}")

covers = cover_tower(mt, 12)
print("cover lengths:", " ".join(f"{c.total_length:.4f}" for c in covers[:6]), "...")
print("two-route word intervals agree:",
      np.abs(word_intervals(mt, 4) - covers[3].intervals).max() == 0.0)

cert = cantor_certify(covers, closure_scaffold(mt, 0.0, 8))
print("Cantor certificate depth 12:", "PASS" if cert.passed else "FAIL",
      f"(gap ratio at depth 12: {cert.clauses['iii']['min_gap']:.3e})")

gm = make_geometric_model(1.0, 4.0, 1, 12)
root = pressure_root(gm)
print(f"\ngeometric family lam=4: pressure root {root:.12f}, "
      f"exact ln3/ln4 = {np.log(3) / np.log(4):.12f}")
print("pressure is strictly decreasing:",
      pressure(gm, 0.3) > pressure(gm, 0.6) > pressure(gm, 0.9))

rep = dimension_report(gm)
print("truncation suprema converge from below:")
for n, v in rep.truncation_schedule[::4]:
    print(f"  {n:2d} maps: {v:.8f}")
print(f"  full root: {root:.8f}")
