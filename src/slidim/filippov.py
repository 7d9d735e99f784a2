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
from functools import cached_property, partial

import numpy as np

from . import odeint
from .config import Tolerances
from .errors import (DegenerateTangency, DenominatorVanishes, LeftSlidingRegion,
                     NoConvergence, NonFinite, NonUniqueForward,
                     NotHyperbolic, OffManifold, StepFailure)
from .expressions import (VARIABLES, ScalarExpr, SwitchingFunction, VectorFieldExpr,
                          _div, _mul, _neg, _sub, _variables, parse_field)

DEFAULT_DOMAIN = (np.full(3, -50.0), np.full(3, 50.0))
MAX_NEWTON = 60      # Newton steps of find_pseudo_equilibrium
FD_STEP = 1e-7       # central-difference step of the in-chart sliding Jacobian
MAX_SEGMENTS = 200   # flows concatenated by filippov_trajectory


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
    TIME_OUT = "time_out"
    DOMAIN_EXIT = "domain_exit"


@dataclass
class FilippovSystem:
    """Pair (X, Y) with switching function g over one parameter namespace.

    The Lie derivatives Xg, Yg and the second derivatives X(Xg), Y(Yg) are
    differentiated and compiled on first use, once per system.
    """

    X: VectorFieldExpr
    Y: VectorFieldExpr
    g: SwitchingFunction
    domain: tuple = DEFAULT_DOMAIN
    tol: Tolerances = field(default_factory=Tolerances)

    @property
    def params(self):
        return self.g.params or self.X.params

    @cached_property
    def xg(self):
        return self.X.lie(self.g)

    @cached_property
    def yg(self):
        return self.Y.lie(self.g)

    @cached_property
    def xxg(self):
        return self.X.lie(self.xg)

    @cached_property
    def yyg(self):
        return self.Y.lie(self.yg)

    @cached_property
    def sliding(self):
        """The sliding field (Yg X - Xg Y)/(Yg - Xg), compiled as one kernel."""
        xg, yg = self.xg, self.yg
        den = _sub(yg.tree, xg.tree)
        return VectorFieldExpr([
            ScalarExpr(f"Z~_{v}", {**xg.params, **yg.params},
                       _div(_sub(_mul(yg.tree, a.tree), _mul(xg.tree, b.tree)), den))
            for v, a, b in zip(VARIABLES, self.X.components, self.Y.components)], VARIABLES)

    @cached_property
    def backward_sliding(self):
        """The negated sliding field, compiled as one kernel: the backward
        sliding flow."""
        return VectorFieldExpr([ScalarExpr(f"-{c.text}", c.params, _neg(c.tree))
                                for c in self.sliding.components], VARIABLES)


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
    """Fg(u) = <F(u), grad g(u)>."""
    u = np.asarray(u, dtype=float)
    with np.errstate(all="ignore"):
        fu = F(u)
        _, grad = g.value_and_gradient(u)
        out = np.sum(fu * grad, axis=-1)
    if not np.all(np.isfinite(out)):
        raise NonFinite("Lie derivative evaluated to a non-finite value")
    return out


# --- region and tangency classification --------------------------------------


def classify_region(sys, u):
    """Label a manifold point by the signs of Xg and Yg."""
    u = np.asarray(u, dtype=float)
    gval = float(sys.g(u))
    if abs(gval) > sys.tol.manifold:
        raise OffManifold(f"|g(u)| = {abs(gval):.3e} > tol_manifold")
    return _label(float(sys.xg(u)), float(sys.yg(u)), sys.tol.tangency)


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
    xg, yg = sys.xg(points), sys.yg(points)
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
    xg, yg = float(sys.xg(u)), float(sys.yg(u))
    tol = sys.tol.tangency
    if abs(xg) > tol and abs(yg) > tol:
        raise OffManifold("not a tangency point: both Lie derivatives nonzero")
    if abs(xg) <= tol:
        xxg = float(sys.xxg(u))
        if abs(xxg) <= tol:
            raise DegenerateTangency(f"|X^2g| = {abs(xxg):.3e} below tolerance")
        regular = abs(yg) > tol
        boundary = None if not regular else ("s" if yg > 0 else "e")
        return FoldLabel("X", xxg > 0, regular, boundary, xxg, yg)
    yyg = float(sys.yyg(u))
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
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.any(np.abs(sys.yg(u) - sys.xg(u)) < sys.tol.tangency):
            raise DenominatorVanishes("Yg - Xg below tolerance; point is not in M^{s,e}")
        return sys.sliding(u)


def manifold_project(g, u, iterations=2):
    """Newton steps toward g = 0 along grad g (``g.newton_step``) from a
    point (3,) or points (N, 3).  Points (N, 3) come back as the transpose
    of a (3, N) array, so each coordinate is one contiguous row."""
    u = np.asarray(u, dtype=float)
    v = u.reshape(-1, 3).T
    for _ in range(iterations):
        v = g.newton_step(v)
    return v.T.reshape(u.shape)


def tangent_basis(grad):
    """Deterministic orthonormal basis of the plane orthogonal to grad."""
    n = grad / np.linalg.norm(grad)
    a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = a - np.dot(a, n) * n
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def winding_frame(sys, center):
    """(center, e1, e2): the tangent frame of M at center, in which the
    integrator accumulates the rotation of an orbit about the center."""
    center = np.asarray(center, dtype=float)
    _, grad = sys.g.value_and_gradient(center)
    return (center, *tangent_basis(grad))


# --- pseudo-equilibria ----------------------------------------------------------


@dataclass
class PseudoEquilibrium:
    point: np.ndarray
    eigenvalues: np.ndarray    # eigenvalues of the in-chart sliding Jacobian
    region: Region
    is_focus: bool
    is_pseudo_saddle_focus: bool
    residual: float


def _chart_jacobian(sys, u, h):
    """The sliding field read in the tangent chart of M at u, at the chart
    origin and as a central-difference Jacobian of step h; with the frame."""
    _, grad = sys.g.value_and_gradient(u)
    e1, e2 = tangent_basis(grad)

    def chart(s1, s2):
        f = sliding_field(sys, manifold_project(sys.g, u + s1 * e1 + s2 * e2))
        return np.array([np.dot(f, e1), np.dot(f, e2)])

    jac = np.column_stack([(chart(h, 0.0) - chart(-h, 0.0)) / (2 * h),
                           (chart(0.0, h) - chart(0.0, -h)) / (2 * h)])
    return chart(0.0, 0.0), jac, e1, e2


def find_pseudo_equilibrium(sys, seed):
    """Newton on the sliding field in a 2D chart of M around the seed."""
    u = manifold_project(sys.g, np.asarray(seed, dtype=float), 4)
    for _ in range(MAX_NEWTON):
        if np.linalg.norm(sliding_field(sys, u)) < 1e-11:
            break
        r0, jac, e1, e2 = _chart_jacobian(sys, u, FD_STEP)
        try:
            delta = np.linalg.solve(jac, -r0)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular in-chart Jacobian") from exc
        delta = delta * min(1.0, 1.0 / max(np.linalg.norm(delta), 1e-300))
        u = manifold_project(sys.g, u + delta[0] * e1 + delta[1] * e2)
    else:
        raise NoConvergence(
            f"Newton stalled at |Z~| = {np.linalg.norm(sliding_field(sys, u)):.3e}")

    residual = float(np.linalg.norm(sliding_field(sys, u)))
    region = classify_region(sys, u)
    _, jac, _, _ = _chart_jacobian(sys, u, FD_STEP)
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

    @property
    def t_end(self):
        return self.samples[-1][0]

    @property
    def u_end(self):
        return self.samples[-1][1]


_STATUS_TO_EVENT = {
    odeint.TIMEOUT: TerminalEvent.TIME_OUT,
    odeint.DOMAIN_EXIT: TerminalEvent.DOMAIN_EXIT,
}


def _segment_from(res, mode, hit, t0):
    """The recorded single-row result, its times shifted by t0, as a segment
    ending in ``hit`` (when an event stopped it), a time-out or a domain exit."""
    if res.status[0] == odeint.EVENT:
        ev = hit
    elif res.status[0] in _STATUS_TO_EVENT:
        ev = _STATUS_TO_EVENT[res.status[0]]
    else:
        raise StepFailure("adaptive step control failed")
    return TrajectorySegment(mode, [(t + t0, u) for t, u in res.samples[0]], ev)


# --- the two flows every orbit is made of -------------------------------------------


def fly(sys, F, u0, t_max, record=False):
    """Flow the smooth field F from the rows of u0 to the first departed
    crossing of g = 0.

    The trivial root at t = 0 is excluded: a crossing counts only after |g|
    exceeded tol.event at an accepted sample.
    """
    return odeint.integrate_batch(odeint.Stepper(F), u0, t_max, [odeint.EventSpec(sys.g)],
                                  rtol=sys.tol.rtol, atol=sys.tol.atol,
                                  tol_event=sys.tol.event, record=record,
                                  domain=sys.domain)


def slide(sys, u0, t_max, events=(), sign=1.0, center=None, record=False):
    """Flow the sliding field (sign = 1) or its negation (sign = -1) from the
    rows of u0 until an event.

    Drift off M is corrected after each step by one Newton step along
    grad g (``manifold_project``, compiled per switching function).  With
    ``center`` given, the rotation of each orbit about it is accumulated
    (``BatchResult.winding``).
    """
    field = sys.sliding if sign > 0 else sys.backward_sliding
    return odeint.integrate_batch(
        odeint.Stepper(field), u0, t_max, events,
        rtol=sys.tol.rtol, atol=sys.tol.atol, tol_event=sys.tol.event,
        project=partial(manifold_project, sys.g, iterations=1),
        winding=None if center is None else winding_frame(sys, center),
        record=record, domain=sys.domain)


def fold_events(sys):
    """Events Xg = 0 (index 0) and Yg = 0 (index 1): the sliding region's
    folds.  Where Yg folds to a constant (Y = (0, 0, 1) on g = z) its event
    is left out: it can never cross or land."""
    events = [odeint.EventSpec(sys.xg)]
    if _variables(sys.yg.tree):
        events.append(odeint.EventSpec(sys.yg))
    return events


# --- full hybrid trajectories --------------------------------------------------------


def filippov_trajectory(sys, u0, T, escaping_policy=None):
    """Concatenate X/Y/sliding flows from u0 for total time T.

    ``escaping_policy`` is the Mode to follow from an escaping start point;
    NonUniqueForward is raised when such a start has none.
    """
    u = np.asarray(u0, dtype=float)
    segments = []
    t_used = 0.0
    mode = _initial_mode(sys, u, escaping_policy)
    for _ in range(MAX_SEGMENTS):
        remaining = T - t_used
        if remaining <= sys.tol.event:
            break
        if mode == Mode.FLOW_SLIDING:
            res = slide(sys, manifold_project(sys.g, u, 4), remaining, fold_events(sys),
                        record=True)
            drift = max(abs(float(sys.g(p))) for _, p in res.samples[0])
            if drift > sys.tol.manifold:
                raise LeftSlidingRegion(f"manifold drift {drift:.3e} exceeded tol_manifold")
            seg = _segment_from(res, mode, TerminalEvent.FOLD_HIT, t_used)
        else:
            res = fly(sys, sys.X if mode == Mode.FLOW_X else sys.Y, u, remaining, record=True)
            seg = _segment_from(res, mode, TerminalEvent.MANIFOLD_HIT, t_used)
        segments.append(seg)
        t_used = seg.t_end
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
        return Mode.FLOW_X if float(sys.xg(u)) > 0 else Mode.FLOW_Y
    if region == Region.ESCAPING:
        if policy is None:
            raise NonUniqueForward("escaping start point requires an escaping_policy")
        return policy
    lab = classify_tangency(sys, u)
    if lab.field == "X" and lab.visible and lab.regular and lab.boundary == "s":
        return Mode.FLOW_X
    if lab.field == "Y" and lab.visible and lab.regular and lab.boundary == "s":
        return Mode.FLOW_Y
    raise DegenerateTangency(f"unsupported start at tangency {lab}")


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
