"""Brute-force cross-checks for the analytic dimension machinery.

Box counting over a geometric scale grid gives an independent slope
estimate that must land inside the Moran bracket (within a finite-sample
band), and exact cover lengths certify the per-level Lebesgue decay.
These share no code with the contraction-system solvers they check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, InsufficientData


@dataclass
class PointSample:
    points: np.ndarray

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float))
        keep = np.ones(pts.size, dtype=bool)
        keep[1:] = np.diff(pts) > 1e-14
        self.points = pts[keep]


def sample_word_images(sys, depth, x0=0.0):
    """All depth-``depth`` word images of x0 under the system's maps."""
    pts = np.array([float(x0)])
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


def default_scales(lo=1e-6, hi=1e-1, n=51):
    return np.geomspace(lo, hi, n)


def box_counting(sample, scales=None, window=(1e-6, 1e-2), min_points=1000,
                 r2_floor=0.99):
    """Least-squares slope of log N(eps) against log(1/eps).

    Scales below the sample's own resolution (set by the generating cover
    depth) are excluded from the fit window.  A degenerate single-point
    sample reports slope 0 by convention.
    """
    pts = sample.points
    if pts.size == 1:
        sc = scales if scales is not None else default_scales()
        return BoxCountFit(0.0, 1.0, sc, np.ones(sc.size, dtype=int), window)
    if pts.size < min_points:
        raise InsufficientData(f"need at least {min_points} points, got {pts.size}")
    scales = np.asarray(scales, dtype=float) if scales is not None else default_scales()
    span = np.log10(scales.max() / scales.min())
    if span < 3:
        raise InsufficientData(f"scales span {span:.2f} decades; need at least 3")

    # canonical unit frame: counts (hence the slope) are invariant under
    # affine rescaling of the sample, and scales read as fractions of the
    # sample extent
    width = pts.max() - pts.min()
    norm = (pts - pts.min()) / width
    counts = np.array([np.unique(np.floor(norm / eps)).size for eps in scales])

    gaps = np.diff(norm)
    resolution = gaps[gaps > 0].min()
    lo = max(window[0], 4.0 * resolution)
    hi = window[1]
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

    ``decay_cap`` defaults to just above the system's sum of contraction
    bounds when provided, else to 1.
    """
    fit = box_counting(sample)
    lo = report.moran_lower - band
    hi = report.moran_upper + band
    slope_ok = lo <= fit.slope <= hi
    lengths = [cover_length(c) for c in sorted(covers, key=lambda c: c.level)]
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
