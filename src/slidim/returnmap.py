"""First return map on the fold section near a sliding Shilnikov connection.

Given a system with an unstable pseudo-saddle-focus p in the sliding region
whose backward sliding orbit through a visible fold-regular point q reaches
p, and whose X-flight from q lands on p in finite time, the machinery here

* builds the fold segment through q with its arclength chart onto [-1, 1],
* certifies the connection (flight residual, backward decay, focus rate),
* evaluates the first return map pi = (sliding flow back to the section)
  after (X-flight off the section),
* enumerates the branches of Dom(pi) accumulating at q together with
  derivative bounds sampled by finite differences, and
* realizes each inverse branch psi_J as a Chebyshev series of its own, a
  contraction map on [-1, 1].

Everything expensive is evaluated in batches: each orbit is an X-flight
(``filippov.fly``) followed by a sliding flow (``filippov.slide``).
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from . import odeint
from .errors import (BackwardDivergence, BranchResolutionExceeded,
                     ConnectionResidualTooLarge, CurveEscapesDomain,
                     FoldRegularityLost, HitOutsideSliding, LambdaDisagreement,
                     NoHit, NotAFocus, NoValidCutoff, SectionMiss)
from .filippov import (Region, classify_region, find_pseudo_equilibrium, fly,
                       fold_events, is_visible_fold_regular, slide,
                       winding_frame)
# not called here: perfbench/tracing.py wraps this name in every module that imports it
from .filippov import manifold_project  # noqa: F401

FLIGHT_T_MAX = 60.0   # time budget of an X-flight from the section to M


def project_to_fold(sys, seed, max_iter=40):
    """Newton refinement of a point onto {g = 0, Xg = 0} (min-norm steps)."""
    u = np.asarray(seed, dtype=float)
    for _ in range(max_iter):
        gval, ggrad = sys.g.value_and_gradient(u)
        xg, xggrad = sys.xg.value_and_gradient(u)
        r = np.array([float(gval), float(xg)])
        if np.max(np.abs(r)) < 1e-13:
            return u
        jac = np.vstack([ggrad, xggrad])
        u = u - np.linalg.pinv(jac) @ r
    raise NoHit("could not project the seed onto the fold curve")


# --- fold segment with its arclength chart -------------------------------------


def _natural_cubic(xs, ys):
    """Natural cubic spline coefficients; returns an evaluator f(x)."""
    n = len(xs) - 1
    h = np.diff(xs)
    rhs = np.zeros(n + 1)
    rhs[1:n] = 3 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1])
    mat = np.zeros((n + 1, n + 1))
    mat[0, 0] = mat[n, n] = 1.0
    for i in range(1, n):
        mat[i, i - 1] = h[i - 1]
        mat[i, i] = 2 * (h[i - 1] + h[i])
        mat[i, i + 1] = h[i]
    c = np.linalg.solve(mat, rhs)
    b = (ys[1:] - ys[:-1]) / h - h * (2 * c[:-1] + c[1:]) / 3
    d = (c[1:] - c[:-1]) / (3 * h)

    def f(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(xs, x) - 1, 0, n - 1)
        t = x - xs[i]
        return ys[i] + b[i] * t + c[i] * t * t + d[i] * t ** 3

    def df(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(xs, x) - 1, 0, n - 1)
        t = x - xs[i]
        return b[i] + 2 * c[i] * t + 3 * d[i] * t * t

    return f, df


@dataclass
class FoldSegment:
    """Curve of visible fold-regular points through q with chart h(q) = 0.

    The chart is normalized arclength: h maps the segment onto [-1, 1] with
    |h'| = 1/r, and extends linearly along the end tangents so that points
    slightly (or far) beyond the segment still get a coordinate.
    """

    q: np.ndarray
    r: float
    arcs: np.ndarray       # signed arclength of the nodes, in [-r, r]
    nodes: np.ndarray      # (M, 3)

    def __post_init__(self):
        self._fx, self._dfx = _natural_cubic(self.arcs, self.nodes[:, 0])
        self._fy, self._dfy = _natural_cubic(self.arcs, self.nodes[:, 1])
        self._fz, self._dfz = _natural_cubic(self.arcs, self.nodes[:, 2])

    def _curve(self, s):
        return np.stack([self._fx(s), self._fy(s), self._fz(s)], axis=-1)

    def _tangent(self, s):
        t = np.stack([self._dfx(s), self._dfy(s), self._dfz(s)], axis=-1)
        return t / np.linalg.norm(t, axis=-1, keepdims=True)

    def point_at(self, w):
        """Chart coordinate(s) in [-1, 1] to point(s) on the segment."""
        w = np.asarray(w, dtype=float)
        if np.any(np.abs(w) > 1 + 1e-12):
            raise ValueError("chart coordinate outside [-1, 1]")
        return self._curve(np.clip(w, -1, 1) * self.r)

    def coord_of(self, pts):
        """Signed arclength/r of points on (or beyond) the fold curve.

        Beyond the built segment the coordinate continues linearly along the
        end tangents; only its sign and rough size matter out there.
        """
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = pts[None, :] if single else pts
        i = np.argmin(np.linalg.norm(p[:, None, :] - self.nodes[None, :, :], axis=-1), axis=1)
        s = self.arcs[i]
        for _ in range(40):
            c = self._curve(s)
            tvec = np.stack([self._dfx(s), self._dfy(s), self._dfz(s)], axis=-1)
            num = np.sum((p - c) * tvec, axis=-1)
            den = np.sum(tvec * tvec, axis=-1)
            step = num / den
            s = np.clip(s + step, -self.r, self.r)
            if np.max(np.abs(step)) < 1e-15:
                break
        c = self._curve(s)
        tang = self._tangent(s)
        overshoot = np.sum((p - c) * tang, axis=-1)
        w = (s + overshoot) / self.r
        return float(w[0]) if single else w


def build_fold_segment(sys, q, r, n_per_side=64):
    """Predictor-corrector continuation of {g = 0, Xg = 0} through q.

    Every node is re-verified as a visible fold-regular point; the chart is
    normalized cumulative arclength.
    """
    q = project_to_fold(sys, q)
    if not is_visible_fold_regular(sys, q):
        raise FoldRegularityLost("base point is not visible fold-regular")
    ds = r / n_per_side
    lo, hi = sys.domain

    def tangent_at(u, ref=None):
        _, ggrad = sys.g.value_and_gradient(u)
        _, xggrad = sys.xg.value_and_gradient(u)
        t = np.cross(ggrad, xggrad)
        t = t / np.linalg.norm(t)
        if ref is not None and np.dot(t, ref) < 0:
            t = -t
        return t

    def correct(pred, t):
        u = pred
        for _ in range(30):
            gval, ggrad = sys.g.value_and_gradient(u)
            xg, xggrad = sys.xg.value_and_gradient(u)
            r3 = np.array([float(gval), float(xg), float(np.dot(u - pred, t))])
            if np.max(np.abs(r3[:2])) < 1e-13:
                return u
            jac = np.vstack([ggrad, xggrad, t])
            u = u - np.linalg.solve(jac, r3)
        raise FoldRegularityLost("fold-curve corrector failed to converge")

    def walk(direction):
        pts, arcs = [], []
        u, s = q.copy(), 0.0
        t = tangent_at(q) * direction
        while s < r - 1e-14:
            step = min(ds, r - s)
            t = tangent_at(u, ref=t)
            u_next = correct(u + step * t, t)
            if np.any(u_next < lo) or np.any(u_next > hi):
                raise CurveEscapesDomain(f"fold curve left the domain at {u_next}")
            if not is_visible_fold_regular(sys, u_next):
                raise FoldRegularityLost(f"node at arclength {s + step:.4g} degenerated")
            s += float(np.linalg.norm(u_next - u))
            pts.append(u_next)
            arcs.append(s)
            u = u_next
        return pts, arcs

    pts_p, arcs_p = walk(+1.0)
    pts_m, arcs_m = walk(-1.0)
    nodes = np.array(list(reversed(pts_m)) + [q] + pts_p)
    arcs = np.array([-a for a in reversed(arcs_m)] + [0.0] + arcs_p)
    # normalize ends exactly to +-r (arclength accumulation is chordal)
    arcs = arcs / max(arcs[-1], -arcs[0]) * r if arcs[-1] != r else arcs
    return FoldSegment(q, r, arcs, nodes)


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


def verify_connection(sys, p_seed, q_seed, n_decay_turns=8):
    """Check both defining conditions of the connection and estimate rates."""
    pe = find_pseudo_equilibrium(sys, p_seed)
    if not pe.is_pseudo_saddle_focus:
        raise NotAFocus(f"refined equilibrium is not a pseudo-saddle-focus: {pe}")
    p = pe.point
    mu = pe.eigenvalues[np.argmax(pe.eigenvalues.imag)]
    lambda_hat = float(np.exp(2 * np.pi * mu.real / abs(mu.imag)))
    turn_time = 2 * np.pi / abs(mu.imag)

    q = project_to_fold(sys, q_seed)
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
    back = slide(sys, q[None, :], (n_decay_turns + 1) * turn_time, sign=-1.0,
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
    values = [v for v in values if v is not None]
    lo, hi = min(values), max(values)
    if hi / lo - 1 > rel:
        raise LambdaDisagreement(f"focus-rate estimates disagree beyond {rel:.0%}: {values}")
    return values[0]


# --- the first return map -----------------------------------------------------------


def theta_x(sys, fold, w):
    """Flight of X from the chart point w to its first manifold return."""
    res = fly(sys, sys.X, np.atleast_2d(fold.point_at(w)), FLIGHT_T_MAX)
    if res.status[0] != odeint.EVENT:
        raise NoHit("flight found no manifold return")
    hit = res.u[0]
    region = classify_region(sys, hit)
    if region not in (Region.SLIDING,) and not region.is_tangency:
        raise HitOutsideSliding(f"flight landed in {region}")
    return hit


def first_return_batch(sys, fold, ws, center, t_slide_max=2000.0):
    """Vectorized pi: chart coords -> (return coord, turns, ok, raw exit coord).

    ``ok`` is False where the orbit misses the section (exits the sliding
    region elsewhere, or never leaves the focus within the time budget); the
    raw exit coordinate (linear extension beyond the segment) remains useful
    for locating branch boundaries.
    """
    ws = np.asarray(ws, dtype=float)
    flight = fly(sys, sys.X, fold.point_at(ws), FLIGHT_T_MAX)
    ok = flight.status == odeint.EVENT
    n = ws.size
    out_w = np.full(n, np.nan)
    exit_s = np.full(n, np.nan)
    turns = np.full(n, np.nan)
    if not ok.any():
        return out_w, turns, ok, exit_s

    idx = np.nonzero(ok)[0]
    orbit = slide(sys, flight.u[idx], t_slide_max, fold_events(sys), center=center)
    hit_fold = (orbit.status == odeint.EVENT) & (orbit.event == 0)
    rows = idx[hit_fold]
    if rows.size:
        coords = fold.coord_of(orbit.u[hit_fold])
        exit_s[rows] = coords
        turns[rows] = np.abs(orbit.winding[hit_fold]) / (2 * np.pi)
        inside = np.abs(coords) <= 1.0
        out_w[rows[inside]] = coords[inside]
        ok[rows[~inside]] = False
    ok[idx[~hit_fold]] = False
    ok &= ~np.isnan(out_w)
    return out_w, turns, ok, exit_s


def first_return(sys, fold, w, center=None):
    """pi(w): return chart coordinate and the winding count of the orbit."""
    if center is None:
        center = find_pseudo_equilibrium(sys, theta_x(sys, fold, 0.0)).point
    out_w, turns, ok, _ = first_return_batch(sys, fold, np.array([w]), center)
    if not ok[0]:
        raise SectionMiss(f"orbit from w = {w} left the sliding region off-section")
    return float(out_w[0]), float(turns[0])


# --- branch enumeration ------------------------------------------------------------


@dataclass
class Branch:
    side: str                 # "L" (chart < 0) or "R" (chart > 0)
    index: int                # i >= 1, increasing toward the fold point
    winding: int              # c_J = index - 1
    interval: tuple           # (lo, hi) in chart coordinates
    deriv_lo: float           # sampled, not certified: min |psi'| over FD samples / safety
    deriv_hi: float           # sampled, not certified: max |psi'| over FD samples * safety
    surjective: bool
    raw_turns: float          # measured winding of the midpoint orbit
    samples_w: np.ndarray
    samples_pi: np.ndarray
    samples_dpi: np.ndarray   # |pi'| at samples_w

    @property
    def width(self):
        return self.interval[1] - self.interval[0]


def noise_floor_imax(lam, r, residual, tol_event):
    floor = max(residual, tol_event)
    return int(np.floor(np.log(r / (10 * floor)) / np.log(lam)))


def precise(sys, rtol=1e-12, atol=1e-17, event=1e-14):
    """Copy of the system with tightened integration control.

    Branch boundaries, derivative samples and round-trip validation need
    the orbit accuracy (in particular, the flight-landing slop set by the
    event tolerance is amplified by the spiral on deep branches), while
    bulk scans do not; the pipeline keeps the defaults everywhere else.
    """
    from dataclasses import replace
    return replace(sys, tol=sys.tol.updated(rtol=rtol, atol=atol, event=event))


def enumerate_branches(sys, fold, cert, i_max, n_scan=20000, n_samples=65,
                       safety=1.05, t_slide_max=None):
    """Scan-and-bisect branch detection on the chart.

    Branch boundaries are chart values whose orbit exits exactly through an
    endpoint of the section; they are localized by bisection on the
    in-section predicate (at tightened integration control).  Runs clipped
    by the scan window are dropped (this removes the possibly
    non-surjective outermost components).
    """
    lam = cert.lambda_hat
    cap = noise_floor_imax(lam, fold.r, cert.residual, sys.tol.event)
    if i_max > cap:
        raise BranchResolutionExceeded(
            f"i_max = {i_max} beyond the noise floor index {cap}")
    if t_slide_max is None:
        t_slide_max = (i_max + 5) * cert.flight_time_scale
    w_min = 2e-3 * lam ** -(i_max - 1)
    half = n_scan // 2
    mags = np.geomspace(1.0, w_min, half)
    ws = np.concatenate([-mags, mags[::-1]])
    ws.sort()
    sys_hi = precise(sys)

    def pi_batch(w):
        return first_return_batch(sys_hi, fold, w, cert.p, t_slide_max)

    def pi_scan(w):
        return first_return_batch(sys, fold, w, cert.p, t_slide_max)

    ret, turns, ok, _ = pi_scan(ws)

    branches = []
    for side, sel in (("L", ws < 0), ("R", ws > 0)):
        idx = np.nonzero(sel)[0]
        spans = []
        for a, b in _runs(ok[idx]):
            clipped = (a == 0) or (b == len(idx) - 1)
            if clipped:
                continue  # drops the possibly non-surjective outermost piece
            gi = idx[a:b + 1]
            spans.append([gi[0], gi[-1], float(np.median(turns[gi]))])
        if not spans:
            continue
        # scan dropouts can split one branch; merge spans with equal winding
        spans.sort(key=lambda s: s[2])
        merged = [spans[0]]
        for s in spans[1:]:
            if abs(s[2] - merged[-1][2]) < 0.4:
                merged[-1][0] = min(merged[-1][0], s[0])
                merged[-1][1] = max(merged[-1][1], s[1])
            else:
                merged.append(s)
        merged.sort(key=lambda s: -abs(ws[s[0]]))  # outermost first
        merged = merged[:i_max]
        base = merged[0][2]
        for rank, (a, b, turn) in enumerate(merged):
            if not (-0.25 < turn - base - rank < 0.25):
                raise BranchResolutionExceeded(
                    f"{side}-branch windings not consecutive: rank {rank + 1} "
                    f"has {turn:.2f} turns vs base {base:.2f}; refine the scan")
        for rank, (a, b, turn) in enumerate(merged):
            branches.append([side, rank + 1, turn, ws[a - 1], ws[a], ws[b], ws[b + 1]])

    # localize every boundary of every branch in one vector bisection sweep
    outs = np.array([[b[3], b[6]] for b in branches]).ravel()
    ins = np.array([[b[4], b[5]] for b in branches]).ravel()
    edges = _predicate_bisect(pi_batch, outs, ins).reshape(-1, 2)
    intervals = [(min(e), max(e)) for e in edges]
    return _measure_branches(sys_hi, fold, cert,
                             [(b[0], b[1], iv, b[2]) for b, iv in zip(branches, intervals)],
                             n_samples, safety, t_slide_max)


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


def _predicate_bisect(pi_batch, w_out, w_in, target=None, max_iter=70):
    """Vector bisection of the in-section predicate between bracket arrays.

    ``target`` is a per-row absolute bracket width; boundary placement must
    be accurate relative to the branch width, which spans many decades.
    """
    lo = np.array(w_out, dtype=float)
    hi = np.array(w_in, dtype=float)
    if target is None:
        target = np.maximum(1e-9 * np.abs(hi - lo), 1e-17)
    for _ in range(max_iter):
        if np.all(np.abs(hi - lo) <= target):
            break
        mid = 0.5 * (lo + hi)
        _, _, ok, _ = pi_batch(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def _measure_branches(sys, fold, cert, specs, n_samples, safety, t_slide_max):
    """Sample pi and |pi'| on interior grids of all branches in one batch.

    Nodes follow Chebyshev-extrema spacing (inset from the ends); the pairs
    (pi(w), w) are the data of the inverse branch's series.
    """
    # interior Chebyshev-extrema nodes; the two end nodes of the full grid
    # are the bisected branch boundaries themselves (pi = -+1 there)
    local = np.cos(np.pi * np.arange(1, n_samples + 1) / (n_samples + 1))[::-1]
    grids, deltas = [], []
    for _side, _index, (lo, hi), _turn in specs:
        width = hi - lo
        w = 0.5 * (lo + hi) + 0.5 * width * local
        grids.append(w)
        deltas.append(width * 2e-4)
    allw = np.concatenate([np.concatenate([w, w - d, w + d])
                           for w, d in zip(grids, deltas)])
    ret, _, ok, _ = first_return_batch(sys, fold, allw, cert.p, t_slide_max)
    branches = []
    for k, (side, index, interval, turn) in enumerate(specs):
        s = k * 3 * n_samples
        piv = ret[s:s + n_samples]
        lo_v = ret[s + n_samples:s + 2 * n_samples]
        hi_v = ret[s + 2 * n_samples:s + 3 * n_samples]
        good = ok[s:s + 3 * n_samples]
        if not good.all():
            raise BranchResolutionExceeded(
                f"{side}{index}: {np.count_nonzero(~good)} interior samples "
                "missed the section")
        dpi = np.abs(hi_v - lo_v) / (2 * deltas[k])
        deriv_lo = (1.0 / dpi.max()) / safety
        deriv_hi = safety / dpi.min()
        surjective = (piv.max() - piv.min()) > 1.0
        branches.append(Branch(side, index, index - 1, interval,
                               float(deriv_lo), float(deriv_hi),
                               bool(surjective), float(turn),
                               grids[k], piv, dpi))
    branches.sort(key=lambda br: br.interval[0])
    return branches


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

    Requires every branch with index >= i_min to be surjective with
    contraction bound < 1, and the modeled tail sum
    sum_{i >= i_min, both sides} (a_hat * lam^(i-1))^(-1) < 1.
    """
    if lam <= 1:
        raise NoValidCutoff("focus rate must exceed 1")
    if a_hat is None:
        a_hat = min(1.0 / (b.deriv_hi * lam ** b.winding) for b in branches)
    i_top = max(b.index for b in branches)
    for i_min in range(1, i_top + 1):
        chosen = [b for b in branches if b.index >= i_min]
        if not chosen:
            break
        if not all(b.surjective and b.deriv_hi < 1 for b in chosen):
            continue
        tail = 2.0 * lam ** (-(i_min - 1)) / (a_hat * (1 - 1 / lam))
        if tail < 1:
            return i_min, float(a_hat)
    raise NoValidCutoff("no enumerated index satisfies the smallness condition")


# --- contraction realization of the inverse branches -----------------------------------


class BranchInverseMap:
    """psi_J on [-1, 1] as a Chebyshev series of its own.

    The branch samples give pairs (pi(w), w); with the boundary anchors
    (pi = -+1 at the branch ends) they fix the local coordinate
    s = (2w - lo - hi) / (hi - lo) as a least-squares series in x = pi(w).
    The degree is half the sample count: interpolating through all the
    mapped nodes is ill-conditioned.  psi and |psi'| are one ``chebval``
    each, so a call costs microseconds and no integration.
    """

    def __init__(self, branch):
        lo, hi = branch.interval
        self.tag = f"{branch.side}{branch.index}"
        self._mid, self._halfwidth = 0.5 * (lo + hi), 0.5 * (hi - lo)
        direction = np.sign(branch.samples_pi[-1] - branch.samples_pi[0])
        x = np.concatenate([branch.samples_pi, [-direction, direction]])
        s = np.concatenate([(branch.samples_w - self._mid) / self._halfwidth,
                            [-1.0, 1.0]])
        self.coef = cheb.chebfit(x, s, branch.samples_w.size // 2)
        self.dcoef = cheb.chebder(self.coef)

    def __call__(self, x):
        return self._mid + self._halfwidth * cheb.chebval(x, self.coef)

    def deriv(self, x):
        """|psi'(x)| from the derivative series."""
        return np.abs(cheb.chebval(x, self.dcoef)) * self._halfwidth


def branch_contractions(branches):
    """One BranchInverseMap per branch, keyed in branch order."""
    return [BranchInverseMap(b) for b in branches]


def validate_inverse_maps(sys, fold, cert, branches, maps, n_check=24,
                          t_slide_max=None):
    """Worst round-trip |pi(psi_J(x)) - x| per branch, in one batch."""
    if t_slide_max is None:
        t_slide_max = (max(b.index for b in branches) + 5) * cert.flight_time_scale
    grid = np.cos(np.pi * (np.arange(n_check) + 0.5) / n_check)
    allw = np.concatenate([m(grid) for m in maps])
    ret, _, ok, exit_s = first_return_batch(sys, fold, allw, cert.p, t_slide_max)
    vals = np.where(ok, ret, exit_s)
    resid = np.abs(vals.reshape(len(maps), -1) - grid[None, :])
    return resid.max(axis=1)
