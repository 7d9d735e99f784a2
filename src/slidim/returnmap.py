"""First return map on the fold section near a sliding Shilnikov connection.

Given a system with an unstable pseudo-saddle-focus p in the sliding region
whose backward sliding orbit through a visible fold-regular point q reaches
p, and whose X-flight from q lands on p in finite time, the machinery here

* builds the fold section through q with its tangent chart onto [-1, 1]:
  the coordinate along the unit fold tangent t at q, over r,
* certifies the connection (flight residual, backward decay, focus rate),
* evaluates the first return map pi = (sliding flow back to the section)
  after (X-flight off the section) as one contract,
  ``first_return_batch -> (coord, turns, ok)``: the fold-exit coordinate
  and focus turns of every orbit that leaves through the fold, and
  ``ok = |coord| <= 1`` where that exit is on the section,
* enumerates the branches of Dom(pi) accumulating at q, and
* realizes each inverse branch psi_J as a Chebyshev series of its own, a
  contraction map on [-1, 1] fitted to one precise sweep of the branch.
  The branch carries it (``Branch.psi``), so the branch boundaries
  psi_J(-+1), the derivative bounds and the IFS map all come from that
  one fit; held-out nodes in the same sweep give its round trip
  (``Branch.roundtrip``).

Everything expensive is evaluated in batches: each orbit is an X-flight
(``filippov.fly``) followed by a sliding flow (``filippov.slide``).
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import odeint
from .errors import (BackwardDivergence, BranchResolutionExceeded,
                     ConnectionResidualTooLarge, CurveEscapesDomain,
                     FoldRegularityLost, LambdaDisagreement, NoHit, NotAFocus,
                     NoValidCutoff)
from .filippov import (FilippovSystem, find_pseudo_equilibrium, fly, fold_events,
                       is_visible_fold_regular, slide, winding_frame)
# not called here: perfbench/tracing.py wraps this name in every module that imports it
from .filippov import manifold_project  # noqa: F401

FLIGHT_T_MAX = 60.0   # time budget of an X-flight from the section to M
SPARE_TURNS = 5       # sliding time budget: (deepest index + SPARE_TURNS) focus turns
SAFETY = 1.05         # widening of the sampled derivative extremes
MIN_PAIRS = 8         # scan points a branch needs for its first inverse series
END_MISS = 1e-3       # largest |pi(psi_0(x_j)) - x_j| at the sweep nodes x_j
N_CHECK = 24          # held-out round-trip nodes per branch in the precise sweep
NEWTON_STEPS = 20     # Newton steps of BranchInverseMap.solve
FOLD_NEWTON = 30      # Newton steps of _fold_newton
FOLD_N_PER_SIDE = 64  # checked fold-section points on each side of q
N_DECAY_TURNS = 8     # focus turns of the backward sliding decay estimate
# integration control of precise(): rtol, atol and the event tolerance
PRECISE_TOL = {"rtol": 1e-13, "atol": 1e-18, "event": 1e-14}


def _fold_tangent(sys, u):
    """Unit fold tangent grad g x grad Xg at the point u (3,)."""
    _, ggrad = sys.g.value_and_gradient(u)
    _, xggrad = sys.xg.value_and_gradient(u)
    t = np.cross(ggrad, xggrad)
    norm = np.linalg.norm(t)
    if norm == 0:
        raise FoldRegularityLost(f"no fold tangent at {u}: grad g and grad Xg are parallel")
    return t / norm


def _fold_newton(sys, pred, t):
    """Newton onto {g = 0, Xg = 0} of points ``pred`` (..., 3), each kept in
    the plane through it normal to ``t`` (3,), a fold tangent of any length.
    A residual of exactly 0 returns at once; once it is below 1e-13, one
    more step is the last."""
    u = pred
    t = np.broadcast_to(t, np.shape(pred))
    for _ in range(FOLD_NEWTON):
        gval, ggrad = sys.g.value_and_gradient(u)
        xg, xggrad = sys.xg.value_and_gradient(u)
        res = max(np.max(np.abs(gval)), np.max(np.abs(xg)))
        if res == 0:
            return u
        r3 = np.stack([gval, xg, np.sum((u - pred) * t, axis=-1)], axis=-1)
        jac = np.stack([ggrad, xggrad, t], axis=-2)
        u = u - np.linalg.solve(jac, r3[..., None])[..., 0]
        if res < 1e-13:
            return u
    raise FoldRegularityLost("fold-curve corrector failed to converge")


# --- fold segment with its tangent chart ---------------------------------------


@dataclass
class FoldSegment:
    """Fold section through q with the tangent chart h(q) = 0.

    ``t`` is the unit fold tangent grad g x grad Xg at q.  The fold point of
    coordinate w in [-1, 1] is the one in the plane normal to t through
    q + w r t, and h(u) = (u - q) . t / r reads it back; the same formula
    continues the chart linearly beyond the segment.  On a straight fold,
    such as the bench's, h is arclength / r.
    """

    q: np.ndarray
    r: float
    t: np.ndarray          # unit fold tangent at q
    sys: FilippovSystem    # whose fold this is

    def point_at(self, w):
        """Chart coordinate(s) in [-1, 1] to point(s) on the fold."""
        w = np.asarray(w, dtype=float)
        if np.any(np.abs(w) > 1 + 1e-12):
            raise ValueError("chart coordinate outside [-1, 1]")
        s = np.clip(w, -1, 1) * self.r
        return _fold_newton(self.sys, self.q + s[..., None] * self.t, self.t)

    def coord_of(self, pts):
        """Chart coordinate (u - q) . t / r of points on (or beyond) the fold."""
        w = (np.asarray(pts, dtype=float) - self.q) @ self.t / self.r
        return float(w) if w.ndim == 0 else w


def build_fold_segment(sys, q, r):
    """The fold section of half-width r about q, with its tangent chart.

    q is refined onto the fold; then the points of 2 ``FOLD_N_PER_SIDE`` + 1
    evenly spaced coordinates, nearest to q first, must lie in the domain
    and be visible fold-regular.
    """
    q = np.asarray(q, dtype=float)
    q = _fold_newton(sys, q, _fold_tangent(sys, q))
    if not is_visible_fold_regular(sys, q):
        raise FoldRegularityLost("base point is not visible fold-regular")
    fold = FoldSegment(q, r, _fold_tangent(sys, q), sys)
    w = np.linspace(-1.0, 1.0, 2 * FOLD_N_PER_SIDE + 1)
    w = w[np.argsort(np.abs(w), kind="stable")]
    try:
        pts = fold.point_at(w)
    except FoldRegularityLost:
        raise FoldRegularityLost(
            f"the fold turns away from its tangent at q within r = {r:.4g}: "
            "take a smaller radius") from None
    lo, hi = sys.domain
    for wi, u in zip(w, pts):
        if np.any(u < lo) or np.any(u > hi):
            raise CurveEscapesDomain(f"fold curve left the domain at {u}")
        if not is_visible_fold_regular(sys, u):
            raise FoldRegularityLost(
                f"fold point at distance {abs(wi) * r:.4g} from q degenerated")
    return fold


# --- connection certificate -------------------------------------------------------


@dataclass
class ShilnikovCertificate:
    p: np.ndarray
    q: np.ndarray
    t_q: float
    residual: float
    backward_decay: np.ndarray     # |phi^{-t}(q) - p| sampled each half-turn
    lambda_hat: float              # exp(2 pi Re mu / |Im mu|) from eigenvalues
    lambda_decay: float            # per-turn rate fitted from backward decay
    eigenvalues: np.ndarray
    flight_time_scale: float       # 2 pi / |Im mu|: sliding turn time near p


def verify_connection(sys, p_seed, q_seed):
    """Check both defining conditions of the connection and estimate rates."""
    pe = find_pseudo_equilibrium(sys, p_seed)
    if not pe.is_pseudo_saddle_focus:
        raise NotAFocus(f"refined equilibrium is not a pseudo-saddle-focus: {pe}")
    p = pe.point
    mu = pe.eigenvalues[np.argmax(pe.eigenvalues.imag)]
    lambda_hat = float(np.exp(2 * np.pi * mu.real / abs(mu.imag)))
    turn_time = 2 * np.pi / abs(mu.imag)

    q_seed = np.asarray(q_seed, dtype=float)
    q = _fold_newton(sys, q_seed, _fold_tangent(sys, q_seed))
    if not is_visible_fold_regular(sys, q):
        raise FoldRegularityLost("refined q is not visible fold-regular")

    res = fly(sys, sys.X, q[None, :], FLIGHT_T_MAX)
    if res.status[0] != odeint.EVENT:
        raise NoHit("X-flight from q found no manifold return")
    hit = res.u[0]
    t_q = float(res.t[0])
    residual = float(np.linalg.norm(hit - p))
    if residual > sys.tol.connection:
        raise ConnectionResidualTooLarge(
            f"|flight(q) - p| = {residual:.3e} > {sys.tol.connection:.1e}")

    # backward sliding decay toward p, sampled at half-turns of the winding
    _, e1, e2 = winding_frame(sys, p)
    back = slide(sys, q[None, :], (N_DECAY_TURNS + 1) * turn_time, sign=-1.0,
                 record=True)
    pts = np.array([u for _, u in back.samples[0]])
    d = pts - p
    theta = np.unwrap(np.arctan2(d @ e2, d @ e1))
    total = theta[-1] - theta[0]
    sgn = np.sign(total)
    marks = np.arange(1, int(abs(total) / np.pi)) * np.pi * sgn + theta[0]
    # for a focus the log-distance, not the distance, is linear in the angle
    log_decay = np.interp(marks * sgn, theta * sgn, np.log(np.linalg.norm(d, axis=1)))
    decay = np.exp(log_decay)
    if decay.size < 4:
        raise BackwardDivergence("backward orbit completed too few half-turns")
    if not np.all(np.diff(decay) < 0):
        raise BackwardDivergence("backward distances to p are not strictly decreasing")
    slope = np.polyfit(marks, log_decay, 1)[0]
    lambda_decay = float(np.exp(2 * np.pi * abs(slope)))
    return ShilnikovCertificate(p, q, t_q, residual, decay, lambda_hat,
                                lambda_decay, pe.eigenvalues, turn_time)


def check_lambda_agreement(values, rel=0.10):
    """Abort when independent estimates of the focus rate disagree."""
    lo, hi = min(values), max(values)
    if hi / lo - 1 > rel:
        raise LambdaDisagreement(f"focus-rate estimates disagree beyond {rel:.0%}: {values}")
    return values[0]


# --- the first return map -----------------------------------------------------------


def first_return_batch(sys, fold, ws, center, t_slide_max=2000.0):
    """Vectorized pi: chart coords -> (exit coord, turns, ok).

    ``coord`` and ``turns`` are set wherever the sliding orbit leaves
    through the fold, and NaN where it does not (the flight finds no
    manifold return, or the orbit exits the sliding region elsewhere or
    never leaves the focus within the time budget).  The chart's center
    w = 0 is q, whose flight is the connection: it lands on the focus and
    stays, so pi is not defined there.  Numerically every flight that
    lands within 10 ``tol.event`` of ``center`` (the floor of
    ``noise_floor_imax``) is that case: the landing is located only to
    about ``tol.event``, and the orbit would leave after a number of turns
    set by its rounding; such a row is NaN without a sliding flow.  On
    the bench at default tolerances that is |w| below about 3e-11, q's
    own flight landing 1.1e-13 from the focus (6.1e-12 at ``precise``
    tolerances, above their floor: the connection is shot at the default
    ones, so q gets a return there).  Beyond the segment
    ``coord`` is the chart's linear extension, which still places branch
    ends; ``ok = |coord| <= 1`` marks the returns to the section.
    """
    ws = np.asarray(ws, dtype=float)
    flight = fly(sys, sys.X, fold.point_at(ws), FLIGHT_T_MAX)
    off_focus = np.linalg.norm(flight.u - center, axis=1) > 10 * sys.tol.event
    landed = np.nonzero((flight.status == odeint.EVENT) & off_focus)[0]
    coord = np.full(ws.size, np.nan)
    turns = np.full(ws.size, np.nan)
    if landed.size:
        orbit = slide(sys, flight.u[landed], t_slide_max, fold_events(sys), center=center)
        hit_fold = (orbit.status == odeint.EVENT) & (orbit.event == 0)
        rows = landed[hit_fold]
        if rows.size:
            coord[rows] = fold.coord_of(orbit.u[hit_fold])
            turns[rows] = np.abs(orbit.winding[hit_fold]) / (2 * np.pi)
    return coord, turns, np.abs(coord) <= 1.0


# --- branch enumeration ------------------------------------------------------------


@dataclass
class Branch:
    side: str                 # "L" (chart < 0) or "R" (chart > 0)
    index: int                # i >= 1, increasing toward the fold point; c_J = i - 1 turns
    interval: tuple           # (lo, hi): the ends psi(-+1), in chart coordinates
    deriv_lo: float           # sampled, not certified: min |psi'| over the grid / SAFETY
    deriv_hi: float           # sampled, not certified: max |psi'| over the grid * SAFETY
    raw_turns: float          # median winding of the scan run
    psi: "BranchInverseMap"   # the inverse branch, fitted to the precise sweep
    roundtrip: float          # max |pi(w) - psi.solve(w)| over the held-out w; inf: no exit

    @property
    def width(self):
        return self.interval[1] - self.interval[0]


def noise_floor_imax(lam, r, residual, tol_event):
    floor = max(residual, tol_event)
    return int(np.floor(np.log(r / (10 * floor)) / np.log(lam)))


def precise(sys):
    """Copy of the system with the tightened integration control PRECISE_TOL.

    The branch sweep, which also holds the round-trip nodes, needs the
    orbit accuracy (in particular, the flight-landing slop set by the event
    tolerance is amplified by the spiral on deep branches), while bulk
    scans do not; the pipeline keeps the defaults everywhere else.  With
    DOP853 steps the default pipeline's round trip is 1.7e-10 at
    1e-13 / 1e-18 and 2.0e-10 at rtol 1e-12 / atol 1e-17; checked at
    psi(y_k) in a batch of its own instead, it was 1.0e-10 and 5.1e-10,
    half its 1e-9 budget.
    """
    return replace(sys, tol=replace(sys.tol, **PRECISE_TOL))


def enumerate_branches(sys, fold, cert, i_max, n_scan=3000, n_samples=65):
    """Scan the chart for branches, then fit each one's inverse branch psi_J.

    The branches are the scan's runs of in-section points; runs clipped by
    the scan window are dropped (this removes the possibly non-surjective
    outermost components), and a sweep that misses a node raises, so every
    branch returned maps onto the whole section.  A first series psi_0,
    fitted to a run's scan pairs (pi(w), w), places ``n_samples`` nodes
    w_j = psi_0(x_j) at the Chebyshev extrema x_j of [-1, 1], and ``N_CHECK``
    held-out nodes psi_0(y_k) at the Chebyshev points y_k of the first kind.
    One precise sweep evaluates the nodes of every branch together; the
    pairs at the x_j alone fix the branch's series psi
    (:class:`BranchInverseMap`), whose ends psi(-+1) are the branch
    boundaries.  The held-out pairs give the branch's round trip
    max_k |pi(w_k) - psi.solve(w_k)| (``Branch.roundtrip``), infinite where
    a held-out node has no exit.  The sweep must land within ``END_MISS``
    of every x_j: at a distance d past [-1, 1] a Chebyshev term of degree n
    grows to cosh(n sqrt(2 d)), about 2 for the default n = 32, so the ends
    psi(-+1) keep the accuracy of the fit.  |pi'| = 1 / |psi'| at the preimages of
    an interior Chebyshev grid of the branch gives the derivative bounds.
    Each branch keeps its series as ``Branch.psi``.
    """
    lam = cert.lambda_hat
    cap = noise_floor_imax(lam, fold.r, cert.residual, sys.tol.event)
    if i_max > cap:
        raise BranchResolutionExceeded(
            f"i_max = {i_max} beyond the noise floor index {cap}")
    t_slide_max = (i_max + SPARE_TURNS) * cert.flight_time_scale
    w_min = 2e-3 * lam ** -(i_max - 1)
    half = n_scan // 2
    mags = np.geomspace(1.0, w_min, half)
    ws = np.concatenate([-mags, mags[::-1]])
    ws.sort()

    ret, turns, ok = first_return_batch(sys, fold, ws, cert.p, t_slide_max)

    runs = []
    for side, sel in (("L", ws < 0), ("R", ws > 0)):
        idx = np.nonzero(sel)[0]
        spans = []
        for a, b in _runs(ok[idx]):
            clipped = (a == 0) or (b == len(idx) - 1)
            if clipped:
                continue  # drops the possibly non-surjective outermost piece
            gi = idx[a:b + 1]
            spans.append((gi[0], gi[-1], float(np.median(turns[gi]))))
        if not spans:
            continue
        # outermost first; a scan dropout splitting a branch breaks the
        # consecutive windings
        spans.sort(key=lambda s: -abs(ws[s[0]]))
        spans = spans[:i_max]
        base = spans[0][2]
        for rank, (a, b, turn) in enumerate(spans):
            if not (-0.25 < turn - base - rank < 0.25):
                raise BranchResolutionExceeded(
                    f"{side}-branch windings not consecutive: rank {rank + 1} "
                    f"has {turn:.2f} turns vs base {base:.2f}; refine the scan")
        for rank, (a, b, turn) in enumerate(spans):
            rows = a + np.flatnonzero(ok[a:b + 1])
            if rows.size < MIN_PAIRS:
                raise BranchResolutionExceeded(
                    f"{side}{rank + 1}: {rows.size} scan points, fewer than "
                    f"{MIN_PAIRS}; refine the scan")
            runs.append((side, rank + 1, turn, BranchInverseMap(ret[rows], ws[rows])))
    if not runs:
        raise BranchResolutionExceeded(
            f"no branch inside the scan window [{ws[0]:.6g}, {ws[-1]:.6g}]: "
            "every run of in-section points touches its ends")

    # one precise sweep of every branch: the nodes psi_0(x_j), which fix psi
    # (an end node may exit just beyond the section, where its exit
    # coordinate serves), then the held-out nodes psi_0(y_k), which check it
    nodes = np.cos(np.pi * np.arange(n_samples) / (n_samples - 1))
    held_out = np.cos(np.pi * (np.arange(N_CHECK) + 0.5) / N_CHECK)
    allw = np.concatenate([psi0(np.concatenate([nodes, held_out])) for *_, psi0 in runs])
    coord, _, _ = first_return_batch(precise(sys), fold, allw, cert.p, t_slide_max)
    # interior Chebyshev-extrema grid of the branch, where |pi'| is estimated
    grid = np.cos(np.pi * np.arange(1, n_samples + 1) / (n_samples + 1))[::-1]
    branches = []
    for (side, index, turn, _), w_all, x_all in zip(runs, np.split(allw, len(runs)),
                                                    np.split(coord, len(runs))):
        w, w_check = np.split(w_all, [n_samples])
        x, x_check = np.split(x_all, [n_samples])
        if not np.isfinite(x).all():
            raise BranchResolutionExceeded(
                f"{side}{index}: {np.count_nonzero(~np.isfinite(x))} sweep nodes "
                "have no exit coordinate")
        miss = np.abs(x - nodes).max()
        if miss > END_MISS:
            raise BranchResolutionExceeded(
                f"{side}{index}: the sweep misses a node of psi_0 by {miss:.2e} "
                f"> {END_MISS:.0e}; refine the scan")
        psi = BranchInverseMap(x, w)
        lo, hi = sorted(psi(np.array([-1.0, 1.0])))
        dpsi = psi.deriv(psi.solve(0.5 * (lo + hi) + 0.5 * (hi - lo) * grid))
        # a held-out node with no exit (NaN) counts as an infinite residual
        resid = np.nan_to_num(np.abs(x_check - psi.solve(w_check)), nan=np.inf)
        branches.append(Branch(side, index, (float(lo), float(hi)),
                               float(dpsi.min() / SAFETY), float(dpsi.max() * SAFETY),
                               turn, psi, float(resid.max())))
    branches.sort(key=lambda br: br.interval[0])
    return branches


def _runs(mask):
    """Maximal index runs of True in a boolean array, as (start, end)."""
    runs = []
    start = None
    for i, v in enumerate(mask):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


def branch_width_lambda(branches):
    """Focus rate from the geometric decay of branch widths (per side)."""
    rates = []
    for side in ("L", "R"):
        seq = sorted((b for b in branches if b.side == side), key=lambda b: b.index)
        widths = np.array([b.width for b in seq])
        ratios = widths[:-1] / widths[1:]
        if ratios.size:
            rates.append(np.exp(np.mean(np.log(ratios))))
    if not rates:
        raise BranchResolutionExceeded("no branch pair to estimate the rate from")
    return float(np.exp(np.mean(np.log(rates))))


# --- inverse branches ----------------------------------------------------------------


def select_u(branches, lam, a_hat=None):
    """Smallest index cutoff making the inverse family uniformly summable.

    Requires every branch with index >= i_min to have contraction bound
    < 1, and the modeled tail sum
    sum_{i >= i_min, both sides} (a_hat * lam^(i-1))^(-1) < 1.
    """
    if lam <= 1:
        raise NoValidCutoff("focus rate must exceed 1")
    if a_hat is None:
        a_hat = min(1.0 / (b.deriv_hi * lam ** (b.index - 1)) for b in branches)
    i_top = max(b.index for b in branches)
    for i_min in range(1, i_top + 1):
        chosen = [b for b in branches if b.index >= i_min]
        if not all(b.deriv_hi < 1 for b in chosen):
            continue
        tail = 2.0 * lam ** (-(i_min - 1)) / (a_hat * (1 - 1 / lam))
        if tail < 1:
            return i_min, float(a_hat)
    raise NoValidCutoff("no enumerated index satisfies the smallness condition")


# --- contraction realization of the inverse branches -----------------------------------


class BranchInverseMap:
    """psi_J on [-1, 1] as a Chebyshev series of its own.

    The pairs (x, w) = (pi(w), w) fix the local coordinate
    s = (2w - a - b) / (b - a), with [a, b] the span of the w, as a
    least-squares series in x.  The degree is half the pair count:
    interpolating through all the mapped nodes is ill-conditioned.  psi and
    |psi'| are one ``chebval`` each, so a call costs microseconds and no
    integration.  The fitted pairs stay on the map as ``x`` and ``w``.
    """

    def __init__(self, x, w):
        self.x, self.w = x, w
        self._mid, self._halfwidth = 0.5 * (w.max() + w.min()), 0.5 * (w.max() - w.min())
        self.coef = cheb.chebfit(x, (w - self._mid) / self._halfwidth, w.size // 2)
        self.dcoef = cheb.chebder(self.coef)

    def __call__(self, x):
        return self._mid + self._halfwidth * cheb.chebval(x, self.coef)

    def deriv(self, x):
        """|psi'(x)| from the derivative series."""
        return np.abs(cheb.chebval(x, self.dcoef)) * self._halfwidth

    def solve(self, w):
        """The x with psi(x) = w, by Newton's method on the series.

        psi is monotone and close to affine, so the affine guess through its
        ends starts every row inside the basin of its root.
        """
        s = (np.asarray(w, dtype=float) - self._mid) / self._halfwidth
        ends = cheb.chebval(np.array([-1.0, 1.0]), self.coef)
        x = -1.0 + 2.0 * (s - ends[0]) / (ends[1] - ends[0])
        for _ in range(NEWTON_STEPS):
            step = (cheb.chebval(x, self.coef) - s) / cheb.chebval(x, self.dcoef)
            x = x - step
            if np.max(np.abs(step)) < 1e-15:
                break
        return x


def branch_contractions(branches):
    """One BranchInverseMap per branch, in branch order: each branch's own
    series, whose ends are its boundaries."""
    return [b.psi for b in branches]


def validate_inverse_maps(branches):
    """Worst held-out round trip |pi(w) - psi.solve(w)| per branch, as the
    branch sweep measured it; integrates nothing."""
    return np.array([b.roundtrip for b in branches])
