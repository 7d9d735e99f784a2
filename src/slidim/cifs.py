"""Finite and countable systems of contractions on [-1, 1].

The engine consumes families of injective contractions with two-sided
derivative bounds (b <= |f'| <= c < 1; exact for the analytic fixtures,
sampled for return-map branches) and disjoint images, and
provides: conformality condition checks, dimension bounds from the Moran
equations sum b_i^s = 1 and sum c_i^t = 1, finite-subsystem suprema,
the pressure function P(t) = sum c_i^t (with closed-form geometric tails
for countable families), interval covers of the attractor, preimage-tree
scaffolds of a marked point, and a Cantor-structure certificate at finite
resolution.

Countable families are represented as a finite prefix plus an analytic
tail descriptor: every tail quantity used here is a geometric series, so
truncation error is exact rather than estimated.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (CertificateFailure, ConditionViolated, DegenerateSystem,
                     EquivalenceFailure, InsufficientData, InsufficientMaps,
                     NonMonotone, NoRootInUnitInterval, ParameterInfeasible,
                     TailDiverges)

AMBIENT = (-1.0, 1.0)


# --- data model ---------------------------------------------------------------


@dataclass
class ContractionMap:
    """One contraction on [-1, 1] with derivative bounds b <= |f'| <= c.

    Exact for the analytic fixtures; for return-map inverse branches they
    are sampled (finite-difference extremes times a safety factor).
    """

    eval: object                 # callable, vectorized [-1, 1] -> image
    image: tuple                 # closed image interval (lo, hi)
    b: float                     # 0 < b <= inf |f'|
    c: float                     # sup |f'| <= c < 1
    deriv: object = None         # optional callable |f'|
    inverse: object = None       # optional exact inverse (fixtures)
    tag: str = ""

    def __post_init__(self):
        lo, hi = self.image
        if not (AMBIENT[0] - 1e-12 <= lo < hi <= AMBIENT[1] + 1e-12):
            raise ValueError(f"map {self.tag!r}: image {self.image} outside the ambient interval")
        if not 0 < self.b <= self.c:
            raise DegenerateSystem(f"map {self.tag!r}: bounds b={self.b}, c={self.c}")
        if self.c >= 1:
            raise ValueError(f"map {self.tag!r}: not a contraction (c={self.c})")


@dataclass(frozen=True)
class TailModel:
    """Analytic tail: for i >= i_start and both sides, sup|f'| = (a lam^(i-1))^-1."""

    a: float
    lam: float
    i_start: int

    def pressure(self, t):
        if self.lam <= 1:
            raise TailDiverges(f"tail rate lam={self.lam} <= 1")
        q = self.lam ** -t
        return 2.0 * self.a ** -t * self.lam ** (-t * (self.i_start - 1)) / (1.0 - q)


@dataclass
class IfsSystem:
    """Ordered finite family of contractions, optionally with a tail model."""

    maps: list
    tail: TailModel = None
    validate: bool = True

    def __post_init__(self):
        if self.validate:
            _check_disjoint(self.maps)

    @property
    def uniform_contraction(self):
        return max(m.c for m in self.maps)

    def sorted_by_size(self):
        return sorted(self.maps, key=lambda m: (-m.b, m.image[0]))


@dataclass
class CoverSet:
    """Finite union of disjoint closed intervals: one cover level."""

    intervals: np.ndarray         # (M, 2) sorted by lower endpoint
    level: int
    truncated: bool = False

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float).reshape(-1, 2)
        order = np.argsort(iv[:, 0])
        self.intervals = iv[order]
        gaps = self.intervals[1:, 0] - self.intervals[:-1, 1]
        if gaps.size and gaps.min() < -1e-12:
            raise ValueError(f"cover level {self.level}: intervals overlap by {-gaps.min():.3e}")

    @property
    def total_length(self):
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))

    def contains(self, points):
        points = np.asarray(points, dtype=float)
        idx = np.searchsorted(self.intervals[:, 0], points, side="right") - 1
        idx = np.clip(idx, 0, len(self.intervals) - 1)
        return (points >= self.intervals[idx, 0]) & (points <= self.intervals[idx, 1])


@dataclass
class DimensionReport:
    """Moran bracket, pressure root and the truncation lower-bound curve."""

    moran_lower: float
    moran_upper: float
    pressure_root: float = None
    truncation_schedule: list = field(default_factory=list)
    capped: bool = False

    def __post_init__(self):
        if not 0 <= self.moran_lower <= self.moran_upper:
            raise ValueError("Moran bracket out of order")
        lowers = [s for _, s in self.truncation_schedule]
        if any(b < a - 1e-13 for a, b in zip(lowers, lowers[1:])):
            raise NonMonotone("truncation lower bounds decreased")


# --- conformality conditions -----------------------------------------------------


@dataclass
class ConditionReport:
    passed: bool
    details: dict


def check_conditions(sys, n_samples=64, holder_alpha=0.5, holder_cap=1e4):
    """Evaluate the conformality conditions C1-C6 on sampled data.

    C1 injectivity (strict monotonicity on a grid), C2 uniform contraction,
    C3 open set condition via image disjointness, C4 derivative data
    available, C5 the interior-density constant of an interval (1/2 at the
    endpoints), C6 a finite-sample Hoelder surrogate for the derivative
    modulus.  Raises ConditionViolated with the id and a witness.
    """
    grid = np.linspace(AMBIENT[0], AMBIENT[1], n_samples)
    details = {}
    for m in sys.maps:
        vals = np.asarray(m.eval(grid), dtype=float)
        steps = np.diff(vals)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ConditionViolated("C1", m.tag, "sampled map is not strictly monotone")
        if vals.min() < AMBIENT[0] - 1e-12 or vals.max() > AMBIENT[1] + 1e-12:
            raise ConditionViolated("C1", m.tag, "image leaves the ambient interval")
    details["C1"] = {"maps": len(sys.maps)}

    worst = sys.uniform_contraction
    if worst >= 1:
        raise ConditionViolated("C2", worst, "no uniform contraction constant below 1")
    details["C2"] = {"s": worst}

    _check_disjoint(sys.maps)
    details["C3"] = {"min_gap": _min_gap(sys)}

    missing = [m.tag for m in sys.maps if m.deriv is None]
    if missing:
        raise ConditionViolated("C4", missing, "maps without derivative data")
    details["C4"] = {"declared": True}

    details["C5"] = {"density_constant": 0.5}

    pairs = np.linspace(AMBIENT[0], AMBIENT[1], 17)
    worst_l = 0.0
    for m in sys.maps:
        d = np.abs(np.asarray(m.deriv(pairs), dtype=float))
        dx = np.abs(pairs[:, None] - pairs[None, :])
        dd = np.abs(d[:, None] - d[None, :])
        mask = dx > 1e-12
        ratios = dd[mask] / (m.b * dx[mask] ** holder_alpha)
        lmax = float(ratios.max()) if ratios.size else 0.0
        worst_l = max(worst_l, lmax)
        if lmax > holder_cap:
            raise ConditionViolated("C6", m.tag,
                                    f"Hoelder surrogate constant {lmax:.3g} above cap")
    details["C6"] = {"alpha": holder_alpha, "constant": worst_l}
    return ConditionReport(True, details)


def _min_gap(sys):
    ivs = sorted(m.image for m in sys.maps)
    gaps = [b[0] - a[1] for a, b in zip(ivs, ivs[1:])]
    return float(min(gaps)) if gaps else np.inf


def _check_disjoint(maps):
    ivs = sorted(((m.image, m.tag) for m in maps), key=lambda p: p[0][0])
    for (ia, ta), (ib, tb) in zip(ivs, ivs[1:]):
        if ia[1] > ib[0] + 1e-14:
            raise ConditionViolated("C3", (ta, tb), "image interiors overlap")


# --- Moran equations and pressure ---------------------------------------------------


def _sum_root(ratios, tail=None, residual=1e-12, hi_cap=64.0):
    """Unique u >= 0 with sum ratios^u (+ tail(u)) = 1, by bisection."""
    ratios = np.asarray(ratios, dtype=float)

    def f(u):
        total = float(np.sum(ratios ** u))
        if tail is not None:
            total += tail.pressure(u)
        return total - 1.0

    if ratios.size == 1 and tail is None:
        return 0.0  # c^0 = 1 exactly
    lo = 1e-300   # open at 0 when a tail makes f(0+) unbounded
    hi = 1.0
    while f(hi) > 0:
        hi *= 2
        if hi > hi_cap:
            raise ValueError("no Moran root below the bracket cap")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 and abs(f(0.5 * (lo + hi))) < residual:
            break
    root = 0.5 * (lo + hi)
    if abs(f(root)) > residual:
        raise ValueError(f"Moran bisection residual {abs(f(root)):.2e} above {residual:.0e}")
    return float(root)


def moran_bounds(sys):
    """(s, t) with sum b_i^s = 1 and sum c_i^t = 1 over the listed maps."""
    bs = np.array([m.b for m in sys.maps])
    cs = np.array([m.c for m in sys.maps])
    if np.any(bs <= 0):
        raise DegenerateSystem("a lower derivative bound is zero")
    s = _sum_root(bs)
    t = _sum_root(cs)
    return s, t


def dimension_positive(sys):
    """Two-map witness that the attractor dimension is positive."""
    if len(sys.maps) < 2:
        raise InsufficientMaps("need at least two maps")
    top = sorted(sys.maps, key=lambda m: -m.b)[:2]
    b = min(m.b for m in top)
    raw = np.log(2.0) / np.log(1.0 / b)
    capped = raw > 1.0
    return {
        "witnesses": (top[0].tag, top[1].tag),
        "b": b,
        "lower_bound": min(raw, 1.0),   # ambient is an interval
        "raw": float(raw),
        "capped": capped,
    }


def dimension_sup(sys, schedule=None):
    """Nondecreasing Moran lower bounds over finite prefixes.

    Prefixes take the strongest maps first; the resulting curve converges
    to the countable system's dimension from below.
    """
    maps = sys.sorted_by_size()
    if schedule is None:
        schedule = list(range(1, len(maps) + 1))
    out = []
    prev = -np.inf
    for size in schedule:
        size = min(size, len(maps))
        bs = [m.b for m in maps[:size]]
        s = _sum_root(bs)
        if s < prev - 1e-13:
            raise NonMonotone(f"prefix of {size} maps lowered the bound")
        prev = max(prev, s)
        out.append((size, s))
    return out


def pressure(sys, t):
    """P(t) = sum c_i^t over listed maps plus the analytic tail."""
    if t <= 0:
        raise ValueError("pressure needs t > 0")
    total = float(np.sum(np.array([m.c for m in sys.maps]) ** t))
    if sys.tail is not None:
        total += sys.tail.pressure(t)
    return total


def pressure_root(sys, residual=1e-12):
    """The root of P(t) = 1 in (0, 1]; requires P(1) < 1."""
    p1 = pressure(sys, 1.0)
    if p1 >= 1.0:
        raise NoRootInUnitInterval(
            f"P(1) = {p1:.6f} >= 1; shrink the family (larger index cutoff)")
    return _sum_root([m.c for m in sys.maps], tail=sys.tail, residual=residual)


def dimension_report(sys, schedule=None):
    """Bracket + root + truncation curve for one system."""
    sched = dimension_sup(sys, schedule)
    lower = sched[-1][1]
    upper_raw = _sum_root([m.c for m in sys.maps], tail=sys.tail)
    root = upper_raw if pressure(sys, 1.0) < 1.0 else None
    capped = upper_raw > 1.0
    upper = min(upper_raw, 1.0)
    return DimensionReport(min(lower, 1.0), upper,
                           pressure_root=root, truncation_schedule=sched,
                           capped=capped)


# --- covers and scaffolds --------------------------------------------------------------


def _map_interval_batch(m, intervals):
    lo = np.asarray(m.eval(intervals[:, 0]), dtype=float)
    hi = np.asarray(m.eval(intervals[:, 1]), dtype=float)
    return np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=1)


def attractor_iterate(sys, k, budget=10 ** 6):
    """Level-k interval cover: the union of depth-k word images of [-1, 1].

    Maps are strictly monotone, so interval images come from endpoint
    evaluation.  When the interval count would exceed the budget, the
    deepest completed level is returned flagged as truncated.
    """
    if k < 1:
        raise ValueError("cover level must be >= 1")
    cover = np.array(sorted(m.image for m in sys.maps), dtype=float)
    level = 1
    while level < k:
        if cover.shape[0] * len(sys.maps) > budget:
            return CoverSet(cover, level, truncated=True)
        cover = np.concatenate([_map_interval_batch(m, cover) for m in sys.maps])
        level += 1
    return CoverSet(cover, level)


@dataclass
class ScaffoldSet:
    """Preimage-tree points of the marked point q with word lengths."""

    points: np.ndarray
    word_lengths: np.ndarray
    truncated: bool = False


def closure_scaffold(sys, q_coord, k, budget=10 ** 6):
    """All psi-word images of q up to word length k, plus q itself."""
    pts = [np.array([float(q_coord)])]
    lengths = [np.array([0])]
    frontier = pts[0]
    truncated = False
    for depth in range(1, k + 1):
        if frontier.size * len(sys.maps) > budget:
            truncated = True
            break
        frontier = np.concatenate([np.asarray(m.eval(frontier), dtype=float)
                                   for m in sys.maps])
        pts.append(frontier)
        lengths.append(np.full(frontier.size, depth))
    points = np.concatenate(pts)
    word_lengths = np.concatenate(lengths)
    del pts, lengths, frontier
    # concatenated by word length: a stable sort keeps the shortest word first
    order = np.argsort(points, kind="stable")
    points, word_lengths = points[order], word_lengths[order]
    keep = np.ones(points.size, dtype=bool)
    keep[1:] = np.abs(np.diff(points)) > 1e-14
    return ScaffoldSet(points[keep], word_lengths[keep], truncated)


def word_intervals(sys, k):
    """Depth-k word images via explicit composition (oracle for the recursion)."""
    out = []

    def rec(interval, depth):
        if depth == k:
            out.append(interval)
            return
        arr = np.array([interval])
        for m in sys.maps:
            img = _map_interval_batch(m, arr)[0]
            rec((img[0], img[1]), depth + 1)

    rec(AMBIENT, 0)
    return np.array(sorted(out))


# --- forward/backward equivalence --------------------------------------------------


@dataclass
class EquivalenceReport:
    agreement: float
    n_used: int
    n_collar_excluded: int
    k: int
    disagreements: np.ndarray


def verify_forward_backward(pi_fn, sys, k, n_points=10000, collar=1e-8,
                            seed=0, threshold=0.999):
    """Membership in the level-(k+1) cover vs explicit forward iteration.

    ``pi_fn(points) -> (values, ok)`` must evaluate the first return map.
    Points within ``collar`` of any cover endpoint (levels 1..k+1) are
    excluded from the statistic.  Raises EquivalenceFailure below the
    agreement threshold.
    """
    covers = [attractor_iterate(sys, j) for j in range(1, k + 2)]
    target = covers[-1]
    rng = np.random.default_rng(seed)
    half = n_points // 2
    uniform = rng.uniform(AMBIENT[0], AMBIENT[1], half)
    lens = target.intervals[:, 1] - target.intervals[:, 0]
    idx = rng.choice(len(lens), n_points - half, p=lens / lens.sum())
    inside = target.intervals[idx, 0] + rng.uniform(0, 1, n_points - half) * lens[idx]
    pts = np.concatenate([uniform, inside])

    ends = np.concatenate([c.intervals.ravel() for c in covers])
    ends.sort()
    pos = np.searchsorted(ends, pts)
    near = np.zeros(pts.size, dtype=bool)
    for shift in (0, 1):
        j = np.clip(pos - shift, 0, ends.size - 1)
        near |= np.abs(pts - ends[j]) <= collar
    used = pts[~near]

    predicted = target.contains(used)
    domain = covers[0]
    alive = np.ones(used.size, dtype=bool)
    x = used.copy()
    for step in range(k + 1):
        inside_dom = domain.contains(x) & alive
        alive = inside_dom
        if step == k or not alive.any():
            break
        vals, ok = pi_fn(x[alive])
        nxt = np.full(x.shape, np.nan)
        nxt[alive] = np.where(ok, vals, np.nan)
        alive_idx = np.nonzero(alive)[0]
        alive[alive_idx[~ok]] = False
        x = np.where(np.isnan(nxt), x, nxt)
    actual = alive
    agree = predicted == actual
    rate = float(np.mean(agree)) if used.size else 1.0
    report = EquivalenceReport(rate, int(used.size), int(near.sum()), k,
                               used[~agree])
    if rate < threshold:
        raise EquivalenceFailure(
            f"agreement {rate:.5f} below {threshold}; first witness "
            f"{report.disagreements[:1]}")
    return report


# --- Cantor-structure certificate -----------------------------------------------------


@dataclass
class CantorCertificate:
    passed: bool
    depth: int
    clauses: dict

    def require(self):
        for name, clause in self.clauses.items():
            if not clause["passed"]:
                raise CertificateFailure(name, clause)
        return self


def cantor_certify(covers, scaffold, q_coord=0.0):
    """Four finite-resolution clauses for the Cantor structure of the closure.

    (i) cover lengths decay geometrically toward zero; (ii) every interval
    contains at least two disjoint children (perfectness surrogate);
    (iii) neighboring intervals are separated by positive gaps (total
    disconnectedness surrogate); (iv) each cover level j holds every scaffold
    point of word length >= j (one check per level), and the marked point
    is approximated by cover midpoints down to the truncation resolution.
    """
    covers = sorted(covers, key=lambda c: c.level)
    levels = [c.level for c in covers]
    if len(levels) < 2:
        raise InsufficientData(f"need at least two cover levels, got {len(levels)}")
    if len(set(levels)) != len(levels):
        raise InsufficientData("duplicate cover levels (tower truncated by its interval budget)")
    depth = covers[-1].level
    lengths = np.array([c.total_length for c in covers])
    ratios = lengths[1:] / lengths[:-1]
    clause_i = {
        "passed": bool(np.all(ratios < 1.0)) and lengths[-1] < lengths[0],
        "lengths": lengths.tolist(),
        "max_ratio": float(ratios.max()) if ratios.size else None,
    }

    min_children = np.inf
    for parent, child in zip(covers, covers[1:]):
        counts = _children_counts(parent.intervals, child.intervals)
        min_children = min(min_children, counts.min())
    clause_ii = {"passed": bool(min_children >= 2), "min_children": int(min_children)}

    min_gap = np.inf
    for c in covers:
        gaps = c.intervals[1:, 0] - c.intervals[:-1, 1]
        if gaps.size:
            min_gap = min(min_gap, float(gaps.min()))
    clause_iii = {"passed": bool(min_gap > 0), "min_gap": min_gap}

    ok = all(c.contains(scaffold.points[scaffold.word_lengths >= c.level]).all()
             for c in covers)
    mids = 0.5 * (covers[-1].intervals[:, 0] + covers[-1].intervals[:, 1])
    d_q = float(np.min(np.abs(mids - q_coord)))
    lvl1 = covers[0].intervals
    gap_q = float(np.min(np.maximum(lvl1[:, 0] - q_coord, q_coord - lvl1[:, 1]).clip(0))
                  + np.min(lvl1[:, 1] - lvl1[:, 0]))
    clause_iv = {"passed": ok and d_q <= 2 * gap_q,
                 "marked_point_distance": d_q,
                 "resolution_bound": 2 * gap_q}

    clauses = {"i": clause_i, "ii": clause_ii, "iii": clause_iii, "iv": clause_iv}
    return CantorCertificate(all(c["passed"] for c in clauses.values()), depth, clauses)


def _children_counts(parents, children):
    """Children per parent by midpoint containment (scale-free)."""
    mids = 0.5 * (children[:, 0] + children[:, 1])
    idx = np.searchsorted(parents[:, 0], mids, side="right") - 1
    idx = np.clip(idx, 0, len(parents) - 1)
    inside = (mids >= parents[idx, 0]) & (mids <= parents[idx, 1])
    return np.bincount(idx[inside], minlength=len(parents))


# --- analytic fixtures -------------------------------------------------------------------


def _affine_map(lo, hi, tag, mirrored=False):
    ratio = 0.5 * (hi - lo)
    if mirrored:
        def ev(x, lo=lo, r=ratio):
            return hi - (np.asarray(x, dtype=float) + 1.0) * r

        def inv(y, r=ratio):
            return (hi - np.asarray(y, dtype=float)) / r - 1.0
    else:
        def ev(x, lo=lo, r=ratio):
            return lo + (np.asarray(x, dtype=float) + 1.0) * r

        def inv(y, r=ratio):
            return (np.asarray(y, dtype=float) - lo) / r - 1.0

    def dv(x, r=ratio):
        return np.full(np.shape(x), r)

    return ContractionMap(ev, (lo, hi), ratio, ratio, deriv=dv, inverse=inv, tag=tag)


def make_geometric_model(a, lam, i_min, i_max, gap_fraction=0.5):
    """Two-sided affine family with ratios a*lam^-i and an exact tail.

    Left images accumulate at 0 from below, mirrored on the right;
    consecutive images are separated by gap_fraction of the inner width.
    """
    if lam <= 1:
        raise ParameterInfeasible("tail rate lam must exceed 1")
    if a <= 0 or a * lam ** -i_min >= 1:
        raise ParameterInfeasible("ratio a*lam^-i_min must lie in (0, 1)")
    if i_max < i_min:
        raise ParameterInfeasible("need i_max >= i_min")
    widths = {i: 2.0 * a * lam ** -i for i in range(i_min, i_max + 1)}
    extent = gap_fraction * widths[i_max] + \
        (1 + gap_fraction) * sum(widths.values())
    if extent > 1.0:
        raise ParameterInfeasible(
            f"images span {extent:.3f} > 1 per side; reduce a or raise i_min")
    maps = []
    offset = gap_fraction * widths[i_max]
    for i in range(i_max, i_min - 1, -1):
        w = widths[i]
        lo, hi = -(offset + w), -offset
        maps.append(_affine_map(lo, hi, f"L{i}"))
        maps.append(_affine_map(-hi, -lo, f"R{i}", mirrored=True))
        offset += w * (1 + gap_fraction)
    tail = TailModel(a=lam / a, lam=lam, i_start=i_max + 1)
    maps.sort(key=lambda m: m.image[0])
    return IfsSystem(maps, tail)


def middle_thirds():
    """The classical middle-thirds pair on [-1, 1]."""
    return IfsSystem([_affine_map(-1.0, -1.0 / 3.0, "L"),
                      _affine_map(1.0 / 3.0, 1.0, "R")])


def equal_ratio_system(k, c):
    """k maps of equal ratio c with evenly distributed images."""
    if k < 1 or not 0 < c < 1 or k * c > 1 + 1e-12:
        raise ParameterInfeasible(f"cannot fit {k} disjoint images of ratio {c}")
    gap = (2.0 - 2.0 * k * c) / (k + 1)
    maps = []
    lo = AMBIENT[0]
    for i in range(k):
        lo += gap
        maps.append(_affine_map(lo, lo + 2 * c, f"E{i + 1}"))
        lo += 2 * c
    return IfsSystem(maps)


def piecewise_expanding(sys):
    """The expanding interval map whose inverse branches are the system.

    Realizes the fixture return map: x in image_i maps to f_i^{-1}(x);
    outside every image the map is undefined.  Every map must carry its
    exact ``inverse``.  Returns a callable pi(points) -> (values, ok).
    """
    for m in sys.maps:
        if m.inverse is None:
            raise ValueError(f"map {m.tag!r} has no exact inverse")
    intervals = np.array([m.image for m in sys.maps])
    order = np.argsort(intervals[:, 0])
    maps = [sys.maps[i] for i in order]
    intervals = intervals[order]

    def pi(points):
        points = np.asarray(points, dtype=float)
        idx = np.searchsorted(intervals[:, 0], points, side="right") - 1
        idx = np.clip(idx, 0, len(maps) - 1)
        ok = (points >= intervals[idx, 0]) & (points <= intervals[idx, 1])
        vals = np.full(points.shape, np.nan)
        for j, m in enumerate(maps):
            sel = ok & (idx == j)
            if sel.any():
                vals[sel] = m.inverse(points[sel])
        return vals, ok

    return pi
