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

An ``IfsSystem`` keeps its maps in image order, and each cover level is
built once, from the one before, in sorted order without a sort.

Countable families are represented as a finite prefix plus an analytic
tail descriptor: every tail quantity used here is a geometric series, so
truncation error is exact rather than estimated.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConditionViolated, DegenerateSystem, EquivalenceFailure,
                     InsufficientData, NonMonotone, NoRootInUnitInterval,
                     ParameterInfeasible, TailDiverges)

AMBIENT = (-1.0, 1.0)
CONDITION_SAMPLES = 64             # C1: grid points per map
HOLDER_ALPHA, HOLDER_CAP = 0.5, 1e4   # C6: Hoelder exponent, cap of the surrogate constant
MORAN_RESIDUAL = 1e-12             # |sum c^u - 1| at an accepted Moran root
INTERVAL_BUDGET = 10 ** 6          # intervals (or scaffold points) one level may make
GAP_FRACTION = 0.5                 # gaps of the geometric model, in inner widths
FB_COLLAR, FB_THRESHOLD = 1e-8, 0.999  # forward/backward check: endpoint collar, agreement


# --- data model ---------------------------------------------------------------


@dataclass
class ContractionMap:
    """One contraction on [-1, 1] with derivative bounds b <= |f'| <= c.

    Exact for the analytic fixtures; for return-map inverse branches they
    are sampled (extremes of the fitted series' |psi'| on a grid, times a
    safety factor).
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

    @cached_property
    def decreasing(self):
        """Whether the map reverses order, decided once from its values at
        the ends of [-1, 1]: covers and scaffolds reverse its block by it."""
        left, right = np.asarray(self.eval(np.array(AMBIENT)), dtype=float)
        return bool(left > right)


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
    """Finite family of contractions, optionally with a tail model; ``maps``
    is kept in image order (by lower image end), which the covers rely on."""

    maps: list
    tail: TailModel = None

    def __post_init__(self):
        self.maps = sorted(self.maps, key=lambda m: m.image[0])
        _check_disjoint(self.maps)

    @property
    def uniform_contraction(self):
        return max(m.c for m in self.maps)


@dataclass
class CoverSet:
    """Finite union of disjoint closed intervals: one cover level, given
    sorted by lower end (checked here, not sorted)."""

    intervals: np.ndarray         # (M, 2) sorted by lower endpoint
    level: int

    def __post_init__(self):
        self.intervals = np.asarray(self.intervals, dtype=float).reshape(-1, 2)
        if np.any(self.intervals[1:, 0] < self.intervals[:-1, 0]):
            raise ValueError(f"cover level {self.level}: lower ends not in order")
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


def check_conditions(sys):
    """Evaluate the conformality conditions C1-C6 on sampled data.

    C1 injectivity (strict monotonicity on a grid), C2 uniform contraction,
    C3 open set condition via image disjointness, C4 derivative data
    available, C5 the interior-density constant of an interval (1/2 at the
    endpoints), C6 a finite-sample Hoelder surrogate for the derivative
    modulus.  Raises ConditionViolated with the id and a witness.
    """
    grid = np.linspace(AMBIENT[0], AMBIENT[1], CONDITION_SAMPLES)
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

    details["C3"] = {"min_gap": _check_disjoint(sys.maps)}

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
        ratios = dd[mask] / (m.b * dx[mask] ** HOLDER_ALPHA)
        lmax = float(ratios.max()) if ratios.size else 0.0
        worst_l = max(worst_l, lmax)
        if lmax > HOLDER_CAP:
            raise ConditionViolated("C6", m.tag,
                                    f"Hoelder surrogate constant {lmax:.3g} above cap")
    details["C6"] = {"alpha": HOLDER_ALPHA, "constant": worst_l}
    return ConditionReport(True, details)


def _check_disjoint(maps):
    """Smallest gap between neighbouring images of maps in image order; an
    overlap violates C3."""
    for a, b in zip(maps, maps[1:]):
        if a.image[1] > b.image[0] + 1e-14:
            raise ConditionViolated("C3", (a.tag, b.tag), "image interiors overlap")
    gaps = [b.image[0] - a.image[1] for a, b in zip(maps, maps[1:])]
    return float(min(gaps)) if gaps else np.inf


# --- Moran equations and pressure ---------------------------------------------------


def _sum_root(ratios, tail=None, hi_cap=64.0):
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
        if hi - lo < 1e-15 and abs(f(0.5 * (lo + hi))) < MORAN_RESIDUAL:
            break
    root = 0.5 * (lo + hi)
    if abs(f(root)) > MORAN_RESIDUAL:
        raise ValueError(f"Moran bisection residual {abs(f(root)):.2e} above {MORAN_RESIDUAL:.0e}")
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


def dimension_sup(sys, schedule=None):
    """Nondecreasing Moran lower bounds over finite prefixes.

    Prefixes take the strongest maps first; the resulting curve converges
    to the countable system's dimension from below.
    """
    maps = sorted(sys.maps, key=lambda m: -m.b)   # stable: ties stay in image order
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


def pressure_root(sys):
    """The root of P(t) = 1 in (0, 1]; requires P(1) < 1."""
    p1 = pressure(sys, 1.0)
    if p1 >= 1.0:
        raise NoRootInUnitInterval(
            f"P(1) = {p1:.6f} >= 1; shrink the family (larger index cutoff)")
    return _sum_root([m.c for m in sys.maps], tail=sys.tail)


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
    """Images of sorted intervals under the strictly monotone map ``m``, from
    endpoint evaluation, sorted: a decreasing map's block is reversed."""
    lo = np.asarray(m.eval(intervals[:, 0]), dtype=float)
    hi = np.asarray(m.eval(intervals[:, 1]), dtype=float)
    block = np.stack([np.minimum(lo, hi), np.maximum(lo, hi)], axis=1)
    return block[::-1] if m.decreasing else block


def attractor_iterate(sys, cover):
    """The cover level after ``cover``: its images map by map in image order,
    disjoint sorted blocks, so the level comes out sorted."""
    blocks = [_map_interval_batch(m, cover.intervals) for m in sys.maps]
    return CoverSet(np.concatenate(blocks), cover.level + 1)


def cover_tower(sys, depth, budget=INTERVAL_BUDGET):
    """Cover levels 1..depth, level 1 the declared images and each next one
    ``attractor_iterate`` of the last.  Raises InsufficientData, naming the
    last level built, when the next would hold more than ``budget`` intervals."""
    if depth < 1:
        raise ValueError("cover depth must be >= 1")
    tower = [CoverSet([m.image for m in sys.maps], 1)]
    while len(tower) < depth:
        if len(tower[-1].intervals) * len(sys.maps) > budget:
            raise InsufficientData(
                f"cover tower stopped at level {len(tower)} of {depth}: the next "
                f"level would exceed the interval budget {budget}")
        tower.append(attractor_iterate(sys, tower[-1]))
    return tower


@dataclass
class ScaffoldSet:
    """Preimage-tree points of the marked point q with their word lengths,
    in word order as ``closure_scaffold`` returns them."""

    points: np.ndarray
    word_lengths: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.word_lengths = np.asarray(self.word_lengths)


def closure_scaffold(sys, q_coord, k):
    """All psi-word images of q up to word length k in word order: q, then
    each word length's block, built from the last as the cover levels are.
    With b maps, the point at position i of the length-L block lies in
    level-j interval i // b^(L-j), its own prefix's.  Raises InsufficientData,
    naming the last word length built, when the next would hold more than
    ``INTERVAL_BUDGET`` points."""
    blocks = [np.array([float(q_coord)])]
    for depth in range(1, k + 1):
        if blocks[-1].size * len(sys.maps) > INTERVAL_BUDGET:
            raise InsufficientData(
                f"closure scaffold stopped at word length {depth - 1} of {k}: the "
                f"next would exceed the interval budget {INTERVAL_BUDGET}")
        images = [np.asarray(m.eval(blocks[-1]), dtype=float) for m in sys.maps]
        blocks.append(np.concatenate([x[::-1] if m.decreasing else x
                                      for m, x in zip(sys.maps, images)]))
    word_lengths = np.repeat(np.arange(k + 1), [x.size for x in blocks])
    return ScaffoldSet(np.concatenate(blocks), word_lengths)


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


def verify_forward_backward(pi_fn, sys, k, n_points=10000, seed=0):
    """Membership in the level-(k+1) cover vs explicit forward iteration.

    ``pi_fn(points) -> (values, ok)`` must evaluate the first return map.
    Points within ``FB_COLLAR`` of any cover endpoint (levels 1..k+1) are
    excluded from the statistic.  Raises EquivalenceFailure below the
    agreement ``FB_THRESHOLD``.
    """
    covers = cover_tower(sys, k + 1)
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
        near |= np.abs(pts - ends[j]) <= FB_COLLAR
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
    if rate < FB_THRESHOLD:
        raise EquivalenceFailure(
            f"agreement {rate:.5f} below {FB_THRESHOLD}; first witness "
            f"{report.disagreements[:1]}")
    return report


# --- Cantor-structure certificate -----------------------------------------------------


@dataclass
class CantorCertificate:
    passed: bool
    depth: int
    clauses: dict


def cantor_certify(covers, scaffold, q_coord=0.0):
    """Four finite-resolution clauses for the Cantor structure of the closure.

    ``covers`` (from level 1 down) and ``scaffold`` are in word order, as
    ``cover_tower`` and ``closure_scaffold`` return them: with b maps, b^j
    intervals at level j and b^L points of word length L, else ValueError.

    (i) cover lengths decay geometrically toward zero; (ii) every interval
    contains at least two disjoint children (perfectness surrogate);
    (iii) neighboring intervals are separated by positive gaps (total
    disconnectedness surrogate); (iv) every scaffold point of word length
    L >= j lies in the level-j interval of its own length-j prefix, and the
    marked point is approximated by cover midpoints down to the truncation
    resolution.  Both (ii), by child midpoint, and (iv) check each point in
    its own interval only (``_in_own_interval``).
    """
    if len(covers) < 2:
        raise InsufficientData(f"need at least two cover levels, got {len(covers)}")
    n_maps = len(covers[0].intervals)
    for c in covers:
        if len(c.intervals) != n_maps ** c.level:
            raise ValueError(f"cover level {c.level} holds {len(c.intervals)} "
                             f"intervals, not {n_maps}^{c.level}")
    blocks = []   # scaffold points of word length 1, 2, ...
    for length in range(1, int(scaffold.word_lengths.max(initial=0)) + 1):
        blocks.append(scaffold.points[scaffold.word_lengths == length])
        if blocks[-1].size != n_maps ** length:
            raise ValueError(f"scaffold word length {length} holds {blocks[-1].size} "
                             f"points, not {n_maps}^{length}")

    depth = covers[-1].level
    lengths = np.array([c.total_length for c in covers])
    ratios = lengths[1:] / lengths[:-1]
    clause_i = {
        "passed": bool(np.all(ratios < 1.0)) and lengths[-1] < lengths[0],
        "lengths": lengths.tolist(),
        "max_ratio": float(ratios.max()) if ratios.size else None,
    }

    mids = [0.5 * (c.intervals[:, 0] + c.intervals[:, 1]) for c in covers]
    min_children = min(_in_own_interval(parent.intervals, m).sum(axis=1).min()
                       for parent, m in zip(covers, mids[1:]))
    clause_ii = {"passed": bool(min_children >= 2), "min_children": int(min_children)}

    min_gap = np.inf
    for c in covers:
        gaps = c.intervals[1:, 0] - c.intervals[:-1, 1]
        if gaps.size:
            min_gap = min(min_gap, float(gaps.min()))
    clause_iii = {"passed": bool(min_gap > 0), "min_gap": min_gap}

    ok = all(_in_own_interval(c.intervals, pts).all()
             for c in covers for pts in blocks[c.level - 1:])
    d_q = float(np.min(np.abs(mids[-1] - q_coord)))
    lvl1 = covers[0].intervals
    gap_q = float(np.min(np.maximum(lvl1[:, 0] - q_coord, q_coord - lvl1[:, 1]).clip(0))
                  + np.min(lvl1[:, 1] - lvl1[:, 0]))
    clause_iv = {"passed": ok and d_q <= 2 * gap_q,
                 "marked_point_distance": d_q,
                 "resolution_bound": 2 * gap_q}

    clauses = {"i": clause_i, "ii": clause_ii, "iii": clause_iii, "iv": clause_iv}
    return CantorCertificate(all(c["passed"] for c in clauses.values()), depth, clauses)


def _in_own_interval(intervals, points):
    """Whether each point lies in its own interval, for points in word order
    under M intervals of one level: with n = M r points, point p belongs to
    interval p // r.  Returns the (M, r) table, row i for interval i."""
    rows = points.reshape(len(intervals), -1)
    return (rows >= intervals[:, :1]) & (rows <= intervals[:, 1:])


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


def make_geometric_model(a, lam, i_min, i_max):
    """Two-sided affine family with ratios a*lam^-i and an exact tail.

    Left images accumulate at 0 from below, mirrored on the right;
    consecutive images are separated by GAP_FRACTION of the inner width.
    """
    if lam <= 1:
        raise ParameterInfeasible("tail rate lam must exceed 1")
    if a <= 0 or a * lam ** -i_min >= 1:
        raise ParameterInfeasible("ratio a*lam^-i_min must lie in (0, 1)")
    if i_max < i_min:
        raise ParameterInfeasible("need i_max >= i_min")
    widths = {i: 2.0 * a * lam ** -i for i in range(i_min, i_max + 1)}
    extent = GAP_FRACTION * widths[i_max] + (1 + GAP_FRACTION) * sum(widths.values())
    if extent > 1.0:
        raise ParameterInfeasible(
            f"images span {extent:.3f} > 1 per side; reduce a or raise i_min")
    maps = []
    offset = GAP_FRACTION * widths[i_max]
    for i in range(i_max, i_min - 1, -1):
        w = widths[i]
        lo, hi = -(offset + w), -offset
        maps.append(_affine_map(lo, hi, f"L{i}"))
        maps.append(_affine_map(-hi, -lo, f"R{i}", mirrored=True))
        offset += w * (1 + GAP_FRACTION)
    tail = TailModel(a=lam / a, lam=lam, i_start=i_max + 1)
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
    maps = sys.maps
    intervals = np.array([m.image for m in maps])

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
