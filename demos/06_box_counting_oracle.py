"""Box counting as an independent check on the analytic dimension values.

The slope of log N(eps) against log(1/eps) over a geometric scale grid
estimates the dimension of a point sample with no reference to contraction
bounds; the cross-check requires it to land inside the Moran bracket.
"""

import numpy as np

from slidim import (box_counting, cover_tower, crosscheck,
                    dimension_report, make_geometric_model, middle_thirds,
                    sample_word_images)
from slidim.cifs import DimensionReport

for name, sys_ in (("middle thirds", middle_thirds()),
                   ("geometric lam=4, i=1", make_geometric_model(1.0, 4.0, 1, 1))):
    sample = sample_word_images(sys_, 12)
    fit = box_counting(sample)
    rep = dimension_report(sys_)
    print(f"{name}: {sample.points.size} points, slope {fit.slope:.4f} "
          f"(R^2 {fit.r_squared:.4f}), bracket [{rep.moran_lower:.4f}, "
          f"{rep.moran_upper:.4f}]")
    covers = cover_tower(sys_, 12)
    verdict = crosscheck(rep, sample, covers,
                         decay_cap=sum(m.c for m in sys_.maps) + 1e-9)
    print("  verdict:", "PASS" if verdict.passed else "FAIL",
          " margins:", {k: round(v, 4) for k, v in verdict.margins.items()})

print("\nnegative control: corrupted bounds must fail")
sample = sample_word_images(middle_thirds(), 12)
covers = cover_tower(middle_thirds(), 8)
bad = crosscheck(DimensionReport(0.1, 0.2), sample, covers)
print("  corrupted verdict:", "PASS" if bad.passed else "FAIL")
