"""Piecewise-smooth systems Z = (X, Y)_g and their trajectory machinery.

The switching manifold M = g^{-1}(0) splits into crossing, sliding,
escaping and tangency regions by the signs of the Lie derivatives Xg, Yg.
On the sliding/escaping part the motion follows the unique convex
combination of X and Y tangent to M (the sliding field).  Trajectories of
the full system concatenate flows of X, Y and the sliding field; visible
fold-regular points of the boundary are where sliding orbits leave the
manifold along the visible field.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from . import odeint
from .config import Tolerances
from .dmath import Dual, value as dvalue
from .errors import (DegenerateTangency, DenominatorVanishes, LeftSlidingRegion,
                     NoConvergence, NoHit, NonFinite, NonUniqueForward,
                     NotHyperbolic, OffManifold, StepFailure)
from .expressions import SwitchingFunction, VectorFieldExpr, parse_field

DEFAULT_DOMAIN = (np.full(3, -50.0), np.full(3, 50.0))


class Region(enum.Enum):
    CROSSING = "crossing"
    SLIDING = "sliding"
    ESCAPING = "escaping"
    TANGENCY_X = "tangency_x"
    TANGENCY_Y = "tangency_y"
    TANGENCY_BOTH = "tangency_both"

    @property
    def is_tangency(self):
        return self in (Region.TANGENCY_X, Region.TANGENCY_Y, Region.TANGENCY_BOTH)


class Mode(enum.Enum):
    FLOW_X = "X"
    FLOW_Y = "Y"
    FLOW_SLIDING = "SLIDE"


class TerminalEvent(enum.Enum):
    MANIFOLD_HIT = "manifold_hit"
    FOLD_HIT = "fold_hit"
    SECTION_HIT = "section_hit"
    TIME_OUT = "time_out"
    DOMAIN_EXIT = "domain_exit"


class EscapePolicy(enum.Enum):
    FOLLOW_X = "x"
    FOLLOW_Y = "y"
    FOLLOW_SLIDING = "slide"


@dataclass
class FilippovSystem:
    """Pair (X, Y) with switching function g over one parameter namespace."""

    X: VectorFieldExpr
    Y: VectorFieldExpr
    g: SwitchingFunction
    domain: tuple = DEFAULT_DOMAIN
    tol: Tolerances = field(default_factory=Tolerances)

    @property
    def params(self):
        return self.g.params or self.X.params

    def with_params(self, **updates):
        return FilippovSystem(self.X.with_params(**updates),
                              self.Y.with_params(**updates),
                              self.g.with_params(**updates) if self.g.params else self.g,
                              self.domain, self.tol)


def make_system(x_src, y_src, g_src, params=None, domain=None, tol=None):
    """Parse X, Y, g from sources sharing a single parameter namespace."""
    params = {k: float(v) for k, v in (params or {}).items()}
    return FilippovSystem(
        parse_field(x_src, params),
        parse_field(y_src, params),
        SwitchingFunction(g_src, params),
        domain if domain is not None else DEFAULT_DOMAIN,
        tol if tol is not None else Tolerances(),
    )


# --- Lie derivatives ---------------------------------------------------------


def lie_derivative(F, g, u):
    """Fg(u) = <F(u), grad g(u)>, gradient by one dual pass."""
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        fu = F(u)
        _, grad = g.value_and_gradient(u)
        out = np.sum(fu * grad, axis=-1)
    if not np.all(np.isfinite(out)):
        raise NonFinite("Lie derivative evaluated to a non-finite value")
    return out


def lie_pair(sys, u):
    """(Xg, Yg) sharing one gradient evaluation."""
    u = np.asarray(u, dtype=float)
    _, grad = sys.g.value_and_gradient(u)
    return np.sum(sys.X(u) * grad, axis=-1), np.sum(sys.Y(u) * grad, axis=-1)


def second_lie_derivative(F, g, u):
    """F(Fg)(u): one dual pass over the scalar field Fg (nested duals)."""
    u = np.asarray(u, dtype=float)
    sx = Dual(u[..., 0], (1.0, 0.0, 0.0))
    sy = Dual(u[..., 1], (0.0, 1.0, 0.0))
    sz = Dual(u[..., 2], (0.0, 0.0, 1.0))
    comps = F.eval_components(sx, sy, sz)
    inner = g.expr.fn(Dual(sx, (1.0, 0.0, 0.0)),
                      Dual(sy, (0.0, 1.0, 0.0)),
                      Dual(sz, (0.0, 0.0, 1.0)))
    if not isinstance(inner, Dual):
        return np.zeros(u.shape[:-1])
    fg = sum(c * p for c, p in zip(comps, inner.partials))
    if not isinstance(fg, Dual):
        return np.zeros(u.shape[:-1])
    out = sum(dvalue(c) * dvalue(p) for c, p in zip(comps, fg.partials))
    return np.broadcast_to(np.asarray(out, dtype=float), u.shape[:-1])


# --- region and tangency classification --------------------------------------


def classify_region(sys, u):
    """Label a manifold point by the signs of Xg and Yg."""
    u = np.asarray(u, dtype=float)
    gval = float(sys.g(u))
    if abs(gval) > sys.tol.manifold:
        raise OffManifold(f"|g(u)| = {abs(gval):.3e} > tol_manifold")
    xg, yg = (float(v) for v in lie_pair(sys, u))
    return _label(xg, yg, sys.tol.tangency)


def _label(xg, yg, tol):
    tx, ty = abs(xg) <= tol, abs(yg) <= tol
    if tx and ty:
        return Region.TANGENCY_BOTH
    if tx:
        return Region.TANGENCY_X
    if ty:
        return Region.TANGENCY_Y
    if xg * yg > tol * tol:
        return Region.CROSSING
    if xg < -tol and yg > tol:
        return Region.SLIDING
    return Region.ESCAPING


def region_grid(sys, points):
    """Vectorized classification codes for on-manifold points.

    Returns (labels, xg, yg); labels are Region values, one per point.
    """
    points = np.asarray(points, dtype=float)
    xg, yg = lie_pair(sys, points)
    labels = [_label(a, b, sys.tol.tangency) for a, b in zip(np.atleast_1d(xg), np.atleast_1d(yg))]
    return labels, xg, yg


@dataclass
class FoldLabel:
    field: str            # "X" or "Y"
    visible: bool
    regular: bool         # the other Lie derivative does not vanish
    boundary: str | None  # "s", "e" or None when not regular
    second_lie: float
    other_lie: float


def classify_tangency(sys, u):
    """Fold taxonomy at a tangency point of X or Y."""
    u = np.asarray(u, dtype=float)
    xg, yg = (float(v) for v in lie_pair(sys, u))
    tol = sys.tol.tangency
    if abs(xg) > tol and abs(yg) > tol:
        raise OffManifold("not a tangency point: both Lie derivatives nonzero")
    if abs(xg) <= tol:
        xxg = float(np.asarray(second_lie_derivative(sys.X, sys.g, u)))
        if abs(xxg) <= tol:
            raise DegenerateTangency(f"|X^2g| = {abs(xxg):.3e} below tolerance")
        regular = abs(yg) > tol
        boundary = None if not regular else ("s" if yg > 0 else "e")
        return FoldLabel("X", xxg > 0, regular, boundary, xxg, yg)
    yyg = float(np.asarray(second_lie_derivative(sys.Y, sys.g, u)))
    if abs(yyg) <= tol:
        raise DegenerateTangency(f"|Y^2g| = {abs(yyg):.3e} below tolerance")
    regular = abs(xg) > tol
    boundary = None if not regular else ("s" if xg < 0 else "e")
    return FoldLabel("Y", yyg < 0, regular, boundary, yyg, xg)


def is_visible_fold_regular(sys, u):
    try:
        lab = classify_tangency(sys, u)
    except (OffManifold, DegenerateTangency):
        return False
    return lab.visible and lab.regular


# --- sliding field ------------------------------------------------------------


def sliding_field(sys, u):
    """(Yg X - Xg Y)/(Yg - Xg): the convex combination tangent to M."""
    u = np.asarray(u, dtype=float)
    xu, yu = sys.X(u), sys.Y(u)
    _, grad = sys.g.value_and_gradient(u)
    xg = np.sum(xu * grad, axis=-1)
    yg = np.sum(yu * grad, axis=-1)
    den = yg - xg
    if np.any(np.abs(den) < sys.tol.tangency):
        raise DenominatorVanishes("Yg - Xg below tolerance; point is not in M^{s,e}")
    return (yg[..., None] * xu - xg[..., None] * yu) / den[..., None]


def _sliding_rhs(sys, sign=1.0):
    X, Y, g = sys.X, sys.Y, sys.g

    def rhs(u):
        xu, yu = X(u), Y(u)
        _, grad = g.value_and_gradient(u)
        xg = np.sum(xu * grad, axis=-1)
        yg = np.sum(yu * grad, axis=-1)
        den = yg - xg
        return sign * (yg[..., None] * xu - xg[..., None] * yu) / den[..., None]

    return rhs


def manifold_project(g, u, iterations=2):
    """Newton steps toward g = 0 along grad g."""
    for _ in range(iterations):
        val, grad = g.value_and_gradient(u)
        n2 = np.sum(grad * grad, axis=-1)
        u = u - (val / n2)[..., None] * grad
    return u


def tangent_basis(grad):
    """Deterministic orthonormal basis of the plane orthogonal to grad."""
    n = grad / np.linalg.norm(grad)
    a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = a - np.dot(a, n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


# --- pseudo-equilibria ----------------------------------------------------------


@dataclass
class PseudoEquilibrium:
    point: np.ndarray
    eigenvalues: np.ndarray    # eigenvalues of the in-chart sliding Jacobian
    region: Region
    is_focus: bool
    is_pseudo_saddle_focus: bool
    residual: float


def find_pseudo_equilibrium(sys, seed, max_newton=60, fd_step=1e-7):
    """Newton on the sliding field in a 2D chart of M around the seed."""
    u = manifold_project(sys.g, np.asarray(seed, dtype=float), 4)

    def resid(point):
        zt = sliding_field(sys, point)
        return zt

    for _ in range(max_newton):
        zt = resid(u)
        if np.linalg.norm(zt) < 1e-11:
            break
        _, grad = sys.g.value_and_gradient(u)
        e1, e2 = tangent_basis(grad)

        def chart(s1, s2):
            pt = manifold_project(sys.g, u + s1 * e1 + s2 * e2)
            f = resid(pt)
            return np.array([np.dot(f, e1), np.dot(f, e2)])

        r0 = chart(0.0, 0.0)
        jac = np.column_stack([
            (chart(fd_step, 0.0) - chart(-fd_step, 0.0)) / (2 * fd_step),
            (chart(0.0, fd_step) - chart(0.0, -fd_step)) / (2 * fd_step),
        ])
        try:
            delta = np.linalg.solve(jac, -r0)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular in-chart Jacobian") from exc
        step_cap = 1.0
        delta = delta * min(1.0, step_cap / max(np.linalg.norm(delta), 1e-300))
        u = manifold_project(sys.g, u + delta[0] * e1 + delta[1] * e2)
    else:
        raise NoConvergence(f"Newton stalled at |Z~| = {np.linalg.norm(resid(u)):.3e}")

    residual = float(np.linalg.norm(resid(u)))
    region = classify_region(sys, u)
    _, grad = sys.g.value_and_gradient(u)
    e1, e2 = tangent_basis(grad)

    def chart_field(s1, s2):
        pt = manifold_project(sys.g, u + s1 * e1 + s2 * e2)
        f = sliding_field(sys, pt)
        return np.array([np.dot(f, e1), np.dot(f, e2)])

    h = fd_step
    jac = np.column_stack([
        (chart_field(h, 0.0) - chart_field(-h, 0.0)) / (2 * h),
        (chart_field(0.0, h) - chart_field(0.0, -h)) / (2 * h),
    ])
    eig = np.linalg.eigvals(jac)
    is_focus = bool(abs(eig[0].imag) > sys.tol.hyperbolic)
    re = float(eig[0].real)
    if is_focus and abs(re) < sys.tol.hyperbolic:
        raise NotHyperbolic(
            f"|Re eigenvalue| = {abs(re):.3e} below tol_hyperbolic")
    pseudo_saddle_focus = is_focus and (
        (region == Region.SLIDING and re > sys.tol.hyperbolic)
        or (region == Region.ESCAPING and re < -sys.tol.hyperbolic))
    return PseudoEquilibrium(u, eig, region, is_focus, pseudo_saddle_focus, residual)


# --- trajectory segments ----------------------------------------------------------


@dataclass
class TrajectorySegment:
    mode: Mode
    samples: list               # ordered (time, point) pairs, time increasing
    terminal_event: TerminalEvent
    direction: int = 1          # -1 for backward sliding flows
    winding: float = 0.0        # accumulated rotation when tracked

    @property
    def t_end(self):
        return self.samples[-1][0]

    @property
    def u_end(self):
        return self.samples[-1][1]

    @property
    def t_start(self):
        return self.samples[0][0]

    def shifted(self, dt):
        seg = TrajectorySegment(self.mode, [(t + dt, u) for t, u in self.samples],
                                self.terminal_event, self.direction, self.winding)
        return seg


_STATUS_TO_EVENT = {
    odeint.TIMEOUT: TerminalEvent.TIME_OUT,
    odeint.DOMAIN_EXIT: TerminalEvent.DOMAIN_EXIT,
}


def _segment_from(res, mode, hit_kind, direction=1):
    samples = res.samples[0]
    if res.status[0] == odeint.EVENT:
        ev = hit_kind(int(res.event[0]))
    elif res.status[0] in _STATUS_TO_EVENT:
        ev = _STATUS_TO_EVENT[res.status[0]]
    else:
        raise StepFailure("adaptive step control failed")
    return TrajectorySegment(mode, samples, ev, direction, float(res.winding[0]))


def flow_to_manifold(F, g, u0, t_max, *, tol=None, mode=Mode.FLOW_X, domain=None):
    """Flow F from u0 until the first (departed) crossing of g = 0.

    The trivial root at t = 0 is excluded: crossings only count after |g|
    exceeded tol.event at an accepted sample.
    """
    tol = tol or Tolerances()
    ev = odeint.EventSpec(lambda pts: g(pts))
    res = odeint.integrate_batch(F, np.asarray(u0, dtype=float), t_max, [ev],
                                 rtol=tol.rtol, atol=tol.atol, tol_event=tol.event,
                                 record=True, domain=domain)
    if res.status[0] != odeint.EVENT:
        if res.status[0] == odeint.STEP_FAIL:
            raise StepFailure("adaptive step control underflowed")
        raise NoHit(f"no manifold hit within t_max (status {res.status[0]})")
    return _segment_from(res, mode, lambda _i: TerminalEvent.MANIFOLD_HIT)


@dataclass
class FoldBoundary:
    """Stop when Xg rises through 0 or Yg falls through 0."""


@dataclass
class SectionStop:
    fn: object                 # callable (N, 3) -> (N,)


@dataclass
class TimeStop:
    t: float


def fold_events(sys):
    """Events Xg = 0 (index 0) and Yg = 0 (index 1): the sliding region's folds."""
    X, Y, g = sys.X, sys.Y, sys.g

    def xg(pts):
        _, grad = g.value_and_gradient(pts)
        return np.sum(X(pts) * grad, axis=-1)

    def yg(pts):
        _, grad = g.value_and_gradient(pts)
        return np.sum(Y(pts) * grad, axis=-1)

    return [odeint.EventSpec(xg), odeint.EventSpec(yg)]


def _sliding_events(sys, stop):
    if isinstance(stop, FoldBoundary):
        return fold_events(sys), None
    if isinstance(stop, SectionStop):
        return [odeint.EventSpec(stop.fn)], None
    if isinstance(stop, TimeStop):
        return [], stop.t
    raise TypeError(f"unsupported stop {stop!r}")


def flow_sliding(sys, w0, stop, direction="forward", t_max=1e4, winding_center=None):
    """Integrate the sliding field within M^s from w0 until the stop rule.

    Drift off the manifold is corrected each accepted step by one Newton
    projection along grad g.
    """
    u0 = manifold_project(sys.g, np.asarray(w0, dtype=float), 4)
    region = classify_region(sys, u0)
    if region not in (Region.SLIDING, Region.ESCAPING) and not region.is_tangency:
        raise LeftSlidingRegion(f"start point classified {region}")
    events, t_stop = _sliding_events(sys, stop)
    if isinstance(stop, SectionStop) and abs(float(stop.fn(u0[None, :])[0])) <= sys.tol.event:
        return TrajectorySegment(Mode.FLOW_SLIDING, [(0.0, u0)], TerminalEvent.SECTION_HIT,
                                 1 if direction == "forward" else -1)
    sign = 1.0 if direction == "forward" else -1.0
    rhs = _sliding_rhs(sys, sign)
    wind = None
    if winding_center is not None:
        _, grad = sys.g.value_and_gradient(np.asarray(winding_center, dtype=float))
        e1, e2 = tangent_basis(grad)
        wind = (np.asarray(winding_center, dtype=float), e1, e2)
    res = odeint.integrate_batch(
        rhs, u0, t_stop if t_stop is not None else t_max, events,
        rtol=sys.tol.rtol, atol=sys.tol.atol, tol_event=sys.tol.event,
        project=lambda pts: manifold_project(sys.g, pts, 1),
        winding=wind, record=True, domain=sys.domain)
    drift = max(abs(float(sys.g(u))) for _, u in res.samples[0])
    if drift > sys.tol.manifold:
        raise LeftSlidingRegion(f"manifold drift {drift:.3e} exceeded tol_manifold")
    if isinstance(stop, FoldBoundary):
        kinds = lambda _i: TerminalEvent.FOLD_HIT
    else:
        kinds = lambda _i: TerminalEvent.SECTION_HIT
    return _segment_from(res, Mode.FLOW_SLIDING, kinds,
                         1 if direction == "forward" else -1)


# --- full hybrid trajectories --------------------------------------------------------


def filippov_trajectory(sys, u0, T, escaping_policy=None, max_segments=200):
    """Concatenate X/Y/sliding flows from u0 for total time T.

    Deterministic given the escaping policy; raises NonUniqueForward when a
    forward trajectory from an escaping point is requested without one.
    """
    u = np.asarray(u0, dtype=float)
    segments = []
    t_used = 0.0
    mode = _initial_mode(sys, u, escaping_policy)
    for _ in range(max_segments):
        remaining = T - t_used
        if remaining <= sys.tol.event:
            break
        if mode == Mode.FLOW_SLIDING:
            seg = _slide_segment(sys, u, remaining)
        else:
            seg = _smooth_segment(sys, u, remaining, mode)
        segments.append(seg.shifted(t_used))
        t_used += seg.t_end
        u = seg.u_end
        if seg.terminal_event in (TerminalEvent.TIME_OUT, TerminalEvent.DOMAIN_EXIT):
            break
        mode = _next_mode(sys, u, seg)
        if mode is None:
            break
    return segments


def _initial_mode(sys, u, policy):
    gval = float(sys.g(u))
    if gval > sys.tol.manifold:
        return Mode.FLOW_X
    if gval < -sys.tol.manifold:
        return Mode.FLOW_Y
    region = classify_region(sys, u)
    if region == Region.SLIDING:
        return Mode.FLOW_SLIDING
    if region == Region.CROSSING:
        xg, _ = (float(v) for v in lie_pair(sys, u))
        return Mode.FLOW_X if xg > 0 else Mode.FLOW_Y
    if region == Region.ESCAPING:
        if policy is None:
            raise NonUniqueForward("escaping start point requires an escaping_policy")
        return {EscapePolicy.FOLLOW_X: Mode.FLOW_X,
                EscapePolicy.FOLLOW_Y: Mode.FLOW_Y,
                EscapePolicy.FOLLOW_SLIDING: Mode.FLOW_SLIDING}[policy]
    lab = classify_tangency(sys, u)
    if lab.field == "X" and lab.visible and lab.regular and lab.boundary == "s":
        return Mode.FLOW_X
    if lab.field == "Y" and lab.visible and lab.regular and lab.boundary == "s":
        return Mode.FLOW_Y
    raise DegenerateTangency(f"unsupported start at tangency {lab}")


def _smooth_segment(sys, u, t_max, mode):
    F = sys.X if mode == Mode.FLOW_X else sys.Y
    ev = odeint.EventSpec(lambda pts: sys.g(pts))
    res = odeint.integrate_batch(F, u, t_max, [ev], rtol=sys.tol.rtol,
                                 atol=sys.tol.atol, tol_event=sys.tol.event,
                                 record=True, domain=sys.domain)
    return _segment_from(res, mode, lambda _i: TerminalEvent.MANIFOLD_HIT)


def _slide_segment(sys, u, t_max):
    return flow_sliding(sys, u, FoldBoundary(), t_max=t_max)


def _next_mode(sys, u, seg):
    if seg.terminal_event == TerminalEvent.MANIFOLD_HIT:
        region = classify_region(sys, u)
        if region == Region.SLIDING:
            return Mode.FLOW_SLIDING
        if region == Region.CROSSING:
            return Mode.FLOW_Y if seg.mode == Mode.FLOW_X else Mode.FLOW_X
        if region.is_tangency:
            lab = classify_tangency(sys, u)
            incoming = seg.mode.value
            if lab.field == incoming and lab.visible:
                return seg.mode  # graze and continue on the same side
            raise DegenerateTangency(f"trajectory met tangency {lab}")
        raise NonUniqueForward("trajectory reached the escaping region")
    if seg.terminal_event == TerminalEvent.FOLD_HIT:
        lab = classify_tangency(sys, u)
        if not (lab.visible and lab.regular):
            raise DegenerateTangency(f"sliding orbit left through {lab}")
        return Mode.FLOW_X if lab.field == "X" else Mode.FLOW_Y
    return None
