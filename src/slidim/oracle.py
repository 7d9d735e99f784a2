"""Brute-force cross-checks for the analytic dimension machinery.

Box counting over a geometric scale grid gives an independent slope
estimate that must land inside the Moran bracket (within a finite-sample
band), and exact cover lengths certify the per-level Lebesgue decay.
These share no code with the contraction-system solvers they check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InsufficientData

SAMPLE_POINT = 0.0          # the point whose word images make the sample
BOX_WINDOW = (1e-6, 1e-2)   # the scales of the slope fit, as fractions of the extent
BOX_MIN_POINTS = 1000       # smallest sample box counting accepts


@dataclass
class PointSample:
    points: np.ndarray

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float))
        keep = np.ones(pts.size, dtype=bool)
        keep[1:] = np.diff(pts) > 1e-14
        self.points = pts[keep]


def sample_word_images(sys, depth):
    """All depth-``depth`` word images of SAMPLE_POINT under the system's maps."""
    pts = np.array([SAMPLE_POINT])
    for _ in range(depth):
        pts = np.concatenate([np.asarray(m.eval(pts), dtype=float) for m in sys.maps])
    return PointSample(pts)


@dataclass
class BoxCountFit:
    slope: float
    r_squared: float
    scales: np.ndarray
    counts: np.ndarray
    window: tuple


def box_counting(sample, scales=None, r2_floor=0.99):
    """Least-squares slope of log N(eps) against log(1/eps).

    ``scales`` defaults to 51 geometric scales from 1e-6 to 0.1.  Scales
    below the sample's own resolution (set by the generating cover depth)
    are excluded from the fit window.  A degenerate single-point sample
    reports slope 0 by convention.
    """
    pts = sample.points
    scales = np.geomspace(1e-6, 1e-1, 51) if scales is None else np.asarray(scales, dtype=float)
    if pts.size == 1:
        return BoxCountFit(0.0, 1.0, scales, np.ones(scales.size, dtype=int), BOX_WINDOW)
    if pts.size < BOX_MIN_POINTS:
        raise InsufficientData(f"need at least {BOX_MIN_POINTS} points, got {pts.size}")
    span = np.log10(scales.max() / scales.min())
    if span < 3:
        raise InsufficientData(f"scales span {span:.2f} decades; need at least 3")

    # canonical unit frame: counts (hence the slope) are invariant under
    # affine rescaling of the sample, and scales read as fractions of the
    # sample extent
    width = pts.max() - pts.min()
    norm = (pts - pts.min()) / width
    # relies on PointSample points being sorted and deduplicated (floor stays
    # sorted, so the boxes are the runs of equal floors)
    boxes = np.empty_like(norm)
    counts = np.empty(scales.size, dtype=int)
    for k, eps in enumerate(scales):
        np.floor(np.divide(norm, eps, out=boxes), out=boxes)
        counts[k] = np.count_nonzero(boxes[1:] != boxes[:-1]) + 1

    gaps = np.diff(norm)
    resolution = gaps[gaps > 0].min()
    lo = max(BOX_WINDOW[0], 4.0 * resolution)
    hi = BOX_WINDOW[1]
    use = (scales >= lo) & (scales <= hi) & (counts > 1)
    if use.sum() < 4:
        raise DegenerateFit(
            f"only {int(use.sum())} scales inside the window [{lo:.2e}, {hi:.2e}]")
    x = np.log(1.0 / scales[use])
    y = np.log(counts[use].astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < r2_floor:
        raise DegenerateFit(f"R^2 = {r2:.4f} below {r2_floor}")
    return BoxCountFit(float(slope), r2, scales, counts, (lo, hi))


def cover_length(cover):
    """Exact total length of one cover level."""
    return float(np.sum(cover.intervals[:, 1] - cover.intervals[:, 0]))


@dataclass
class Verdict:
    passed: bool
    box_slope: float
    bracket: tuple
    band: float
    decay_ok: bool
    max_decay_ratio: float
    margins: dict


def crosscheck(report, sample, covers, band=0.03, decay_cap=None):
    """Box slope inside the Moran bracket (+- band) and geometric decay.

    ``covers`` are cover levels from the shallowest down.  ``decay_cap``
    defaults to just above the system's sum of contraction bounds when
    provided, else to 1.
    """
    fit = box_counting(sample)
    lo = report.moran_lower - band
    hi = report.moran_upper + band
    slope_ok = lo <= fit.slope <= hi
    lengths = [cover_length(c) for c in covers]
    ratios = np.array(lengths[1:]) / np.array(lengths[:-1])
    cap = decay_cap if decay_cap is not None else 1.0
    decay_ok = bool(np.all(ratios <= cap)) and lengths[-1] < lengths[0]
    return Verdict(
        passed=bool(slope_ok and decay_ok),
        box_slope=fit.slope,
        bracket=(report.moran_lower, report.moran_upper),
        band=band,
        decay_ok=decay_ok,
        max_decay_ratio=float(ratios.max()) if ratios.size else 0.0,
        margins={
            "slope_above_lower": fit.slope - lo,
            "slope_below_upper": hi - fit.slope,
            "r_squared": fit.r_squared,
        },
    )
