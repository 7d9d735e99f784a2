"""Branch structure of the first return map on the fold section.

Orbits leave the section along the flight of X, land near the focus, and
spiral back out to the section.  Only seeds whose spiral exits through the
section return at all: the domain splits into branches accumulating at the
connection point, one per extra turn around the focus, with widths shrinking
by the focus rate.  This script enumerates a few branches and prints the
measured geometry against the closed forms.

Runs in a few seconds (3000-point scan plus one precise sweep of the branches).
"""

import numpy as np

from slidim import (build_fold_segment, enumerate_branches, make_bench,
                    branch_width_lambda, select_u, verify_connection)

bench = make_bench()
cert = verify_connection(bench.system, bench.p_seed, bench.q_seed)
fold = build_fold_segment(bench.system, cert.q, 0.25)

branches = enumerate_branches(bench.system, fold, cert, i_max=3)
print(f"{len(branches)} branches (chart coordinates on [-1, 1]):")
for b in branches:
    print(f"  {b.side}{b.index}: [{b.interval[0]:+.8f}, {b.interval[1]:+.8f}] "
          f"width {b.width:.3e}  |psi'| in [{b.deriv_lo:.2e}, {b.deriv_hi:.2e}] "
          f"turns {b.raw_turns:.2f}")

lam = cert.lambda_hat
print(f"\nwidth ratios between consecutive branches vs lambda = {lam:.4f}:")
for side in ("L", "R"):
    seq = sorted((b for b in branches if b.side == side), key=lambda b: b.index)
    for a, b in zip(seq, seq[1:]):
        print(f"  {side}{a.index}/{side}{b.index}: {a.width / b.width:.4f}")
print("pooled width estimate:", round(branch_width_lambda(branches), 4))

i_min, a_hat = select_u(branches, lam)
print(f"\nindex cutoff: i_min = {i_min} with A = {a_hat:.4f} "
      f"(modeled tail sum {2 * lam ** -(i_min - 1) / (a_hat * (1 - 1 / lam)):.4f} < 1)")
