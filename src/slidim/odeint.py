"""Batched embedded Runge-Kutta 5(4) integration with event localization.

All flows in the package go through :func:`integrate_batch`.  It advances N
trajectories simultaneously, each with its own adaptive step size, which is
what makes scans over thousands of return-map seeds affordable.  Events are
bracketed by a sign change over an accepted step, which ends the row; once
no row is running, Illinois (modified false position) iteration locates the
crossing fraction of every bracketed step, one batched pass per event.
Every probe re-integrates one short step from the state at the start of
the step (no dense output), down to ``|event| <= tol_event``.

The scheme is the Dormand-Prince 5(4) pair; the 5th-order solution is
propagated.
"""

import numpy as np

# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])

# terminal status codes
RUNNING = 0
EVENT = 1
TIMEOUT = 2
DOMAIN_EXIT = 3
STEP_FAIL = 4
STEPS_EXHAUSTED = 5

H0 = 1e-4              # first trial step of every row
H_MAX = 0.25           # largest step
MAX_ROUNDS = 300000    # step attempts before STEPS_EXHAUSTED
ILLINOIS_MAX_PROBES = 80
ILLINOIS_WIDTH = 1e-16  # narrowest Illinois bracket on the fraction scale [0, 1]


class EventSpec:
    """A scalar event function with crossing direction and departure rule.

    ``require_departure`` implements the policy that excludes the trivial
    root at t=0: crossings only count once |fn| exceeded tol_event at some
    earlier accepted sample.
    """

    def __init__(self, fn, direction=0, require_departure=True):
        self.fn = fn
        self.direction = direction
        self.require_departure = require_departure


class BatchResult:
    def __init__(self, n):
        self.t = np.zeros(n)
        self.u = np.zeros((n, 3))
        self.status = np.full(n, RUNNING, dtype=int)
        self.event = np.full(n, -1, dtype=int)
        self.winding = np.zeros(n)
        self.steps = np.zeros(n, dtype=int)
        self.samples = None


def _rk_step(f, u, h):
    """One DP54 step of sizes ``h`` for states ``u``; returns (u_new, err)."""
    hcol = h[:, None]
    ks = np.empty((7,) + u.shape)
    ks[0] = f(u)
    for i, row in enumerate(_A[1:], 1):
        du = row[0] * ks[0]
        for coef, ki in zip(row[1:], ks[1:i]):
            du += coef * ki
        du *= hcol
        du += u
        ks[i] = f(du)
    u_new = u + hcol * np.tensordot(_B5, ks, axes=(0, 0))
    err = hcol * np.tensordot(_ERR, ks, axes=(0, 0))
    return u_new, err


def _angles(u, winding):
    center, e1, e2 = winding
    d = u - center
    return np.arctan2(d @ e2, d @ e1)


def _wrap(a):
    return (a + np.pi) % (2 * np.pi) - np.pi


def integrate_batch(f, u0, t_max, events=(), *, rtol=1e-10, atol=1e-12,
                    tol_event=1e-12, project=None, winding=None, domain=None,
                    record=False, row_args=None):
    """Advance every row of ``u0`` until an event, t_max, or domain exit.

    f        : (M, 3) -> (M, 3) field (sign-folded by the caller for
               backward flows); t does not appear (autonomous systems).
    events   : sequence of EventSpec; first localized crossing terminates.
    project  : optional (M, 3) -> (M, 3) applied after each step
               (manifold drift correction); like the event functions it
               also sees the end points of rejected steps, which are
               dropped.
    winding  : optional (center, e1, e2) accumulating the rotation angle
               of u around center in the (e1, e2) frame.
    record   : keep per-trajectory (t, u) samples (scalar use only).
    row_args : optional (N, K) per-trajectory constants; f is then called
               as f(u, args) with rows aligned.

    The loop steps only the rows still running, kept as contiguous arrays
    that shrink on the rounds where some row ends.  A row whose accepted
    step brackets or lands on an event ends there, whatever the crossing
    fraction turns out to be.  Its bracket is kept, and after the loop one
    Illinois pass per event localizes all kept crossings together.  The
    earliest crossing of a row wins, the lower event index on a tie; a
    landing counts as a crossing at the end of the step.
    """
    u = np.array(u0, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    n = u.shape[0]
    res = BatchResult(n)
    res.u[:] = u
    if record:
        res.samples = [[(0.0, u[i].copy())] for i in range(n)]

    # the working set: one entry per running row, in row order
    ids = np.arange(n)
    t = np.zeros(n)
    h = np.full(n, H0)
    t_max = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()
    t_end = t_max - np.maximum(1e-14, 1e-14 * t_max)
    steps = np.zeros(n, dtype=int)
    theta = _angles(u, winding) if winding is not None else np.zeros(n)
    turned = np.zeros(n)

    n_ev = len(events)
    direction = np.array([ev.direction for ev in events])
    ev_prev = np.zeros((n, n_ev))
    departed = np.zeros((n, n_ev), dtype=bool)
    for j, ev in enumerate(events):
        vals = np.asarray(ev.fn(u), dtype=float)
        ev_prev[:, j] = vals
        departed[:, j] = np.abs(vals) > tol_event if ev.require_departure else True

    # by row, the step over which a row that ends at an event crossed or
    # landed on it: start state, size and angle, the event values at both
    # ends, and which events it crossed or landed on.  Its start time, end
    # point, steps and winding go to res straight away.
    bracket = (np.empty((n, 3)), np.empty(n), np.empty(n), np.empty((n, n_ev)),
               np.empty((n, n_ev)), np.empty((n, n_ev), dtype=bool),
               np.empty((n, n_ev), dtype=bool))
    fi = _bind(f, row_args, ids)
    with np.errstate(all="ignore"):
        for _ in range(MAX_ROUNDS):
            if not ids.size:
                break
            hs = np.minimum(h, t_max - t)
            u_new, err = _rk_step(fi, u, hs)
            scale = atol + rtol * np.maximum(np.abs(u), np.abs(u_new))
            q = err / scale
            q *= q
            errnorm = np.sqrt((q[:, 0] + q[:, 1] + q[:, 2]) / 3)   # RMS over components
            errnorm[~np.isfinite(errnorm)] = np.inf
            accept = errnorm <= 1.0

            # step-size update (factor clipped to [0.2, 5]); a rejected row
            # retries with its new size, and fails once that underflows
            fac = 0.9 * errnorm ** -0.2
            fac[errnorm == 0.0] = 5.0
            h = np.minimum(hs * np.clip(fac, 0.2, 5.0), H_MAX)
            stop = np.where(~accept & (h < 1e-14 * np.maximum(1.0, t)), STEP_FAIL, RUNNING)

            ua = u_new if project is None else project(u_new)
            hit = None
            if n_ev:
                vals = np.empty_like(ev_prev)
                for j, ev in enumerate(events):
                    vals[:, j] = ev.fn(ua)
                dep = departed & accept[:, None]
                crossed = dep & (ev_prev * vals < 0.0) & (
                    (direction == 0) | ((direction > 0) == (vals > ev_prev)))
                landed = dep & (np.abs(vals) <= tol_event) & ~crossed
                hit = (crossed | landed).any(axis=1)
                if hit.any():
                    r = ids[hit]
                    res.status[r] = stop[hit] = EVENT
                    res.t[r], res.u[r], res.steps[r], res.winding[r] = (
                        t[hit], ua[hit], steps[hit], turned[hit])
                    for kept, x in zip(bracket, (u, hs, theta, ev_prev, vals, crossed,
                                                 landed)):
                        kept[r] = x[hit]
                departed |= accept[:, None] & (np.abs(vals) > tol_event)
                ev_prev = np.where(accept[:, None], vals, ev_prev)

            # every accepted row moves on; the hit rows end below, their
            # results already kept
            if winding is not None:
                th = _angles(ua, winding)
                turn = _wrap(th - theta)
                turned += np.where(accept, turn, 0.0)
                theta = np.where(accept, th, theta)
            u = np.where(accept[:, None], ua, u)
            t = np.where(accept, t + hs, t)
            steps = steps + accept

            go = accept if hit is None else accept & ~hit
            if record:
                for i in np.flatnonzero(go):
                    res.samples[ids[i]].append((t[i], u[i].copy()))
            if domain is not None:
                lo, hi_box = domain
                out = (ua < lo) | (ua > hi_box)
                stop[go & (out[:, 0] | out[:, 1] | out[:, 2])] = DOMAIN_EXIT
            stop[go & (t >= t_end)] = TIMEOUT

            if stop.any():
                _write_out(res, stop, ids, t, u, steps, turned)
                keep = stop == RUNNING
                ids, u, t, h, t_max, t_end, steps, theta, turned, ev_prev, departed = (
                    x[keep] for x in (ids, u, t, h, t_max, t_end, steps, theta, turned,
                                      ev_prev, departed))
                fi = _bind(f, row_args, ids)

        _write_out(res, np.full(ids.size, STEPS_EXHAUSTED), ids, t, u, steps, turned)
        _localize(res, bracket, f, events, tol_event, project, winding, row_args, record)
    return res


def _write_out(res, stop, ids, t, u, steps, turned):
    """Write the rows ending with ``stop`` to ``res``, except the EVENT rows:
    _localize writes those."""
    out = (stop != RUNNING) & (stop != EVENT)
    r = ids[out]
    res.status[r] = stop[out]
    res.t[r], res.u[r], res.steps[r], res.winding[r] = t[out], u[out], steps[out], turned[out]


def _localize(res, bracket, f, events, tol_event, project, winding, row_args, record):
    """Localize the crossings of every row that ended at an event: one
    Illinois pass per event over all its crossings, then the earliest
    crossing of each row (a landing counts as the end of its step)."""
    ids = np.flatnonzero(res.status == EVENT)
    m = ids.size
    if not m:
        return
    u0, h, theta, prev, vals, crossed, landed = (x[ids] for x in bracket)
    u1 = res.u[ids]
    hit_event = np.full(m, -1, dtype=int)
    hit_frac = np.full(m, np.inf)
    hit_u = np.empty((m, 3))
    for j, ev in enumerate(events):
        for kind, mask in (("cross", crossed[:, j]), ("land", landed[:, j])):
            if not mask.any():
                continue
            sub = np.nonzero(mask)[0]
            if kind == "cross":
                probe = _step_probe(f, row_args, project, ev.fn, ids[sub], u0[sub], h[sub])
                frac, u_land = illinois(probe, prev[sub, j], vals[sub, j], u1[sub],
                                        tol_event)
            else:
                frac, u_land = np.ones(sub.size), u1[sub]
            better = frac < hit_frac[sub]
            hit_event[sub[better]] = j
            hit_frac[sub[better]] = frac[better]
            hit_u[sub[better]] = u_land[better]

    res.event[ids] = hit_event
    res.t[ids] += hit_frac * h
    res.u[ids] = hit_u
    if winding is not None:
        res.winding[ids] += _wrap(_angles(hit_u, winding) - theta)
    if record:
        for i, row in enumerate(ids):
            res.samples[row].append((res.t[row], hit_u[i].copy()))


def _bind(f, row_args, idx):
    """f restricted to the rows ``idx`` of ``row_args`` (f itself without them)."""
    if row_args is None:
        return f
    return lambda uu, _a=row_args[idx]: f(uu, _a)  # noqa: E731


def _step_probe(f, row_args, project, ev_fn, rows, u0, h):
    """Illinois probe: event and state one (projected) step of x * h from u0."""

    def probe(live, x):
        u1, _ = _rk_step(_bind(f, row_args, rows[live]), u0[live], x * h[live])
        u1 = project(u1) if project is not None else u1
        return ev_fn(u1), u1

    return probe


def illinois(probe, f_lo, f_hi, at_hi, tol):
    """Batched Illinois false position (Dowell & Jarratt, BIT 11 (1971) 168).

    Row i searches the fraction x in [0, 1] of a bracket with values
    ``f_lo[i]`` at 0 and ``f_hi[i]`` at 1, of opposite sign, and the point
    ``at_hi[i]`` at 1.  ``probe(rows, x)`` returns values and points at the
    fractions ``x`` of the unconverged ``rows``.  A false-position point not
    finite or not strictly inside the bracket is replaced by the midpoint.
    Returns the fraction and point of each row: the probe with ``|value| <=
    tol``, else the upper end once the bracket is narrower than
    ``ILLINOIS_WIDTH`` or ``ILLINOIS_MAX_PROBES`` probes are spent.
    """
    m = len(f_lo)
    lo, hi = np.zeros(m), np.ones(m)
    f_lo = np.array(f_lo, dtype=float)
    f_hi = np.array(f_hi, dtype=float)
    out = np.array(at_hi, dtype=float)
    side = np.zeros(m, dtype=int)      # bracket end the last probe replaced
    live = np.arange(m)
    for _ in range(ILLINOIS_MAX_PROBES):
        if not live.size:
            break
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        with np.errstate(all="ignore"):
            x = a - fa * (b - a) / (fb - fa)
        off = ~(np.isfinite(x) & (x > a) & (x < b))
        x[off] = 0.5 * (a[off] + b[off])
        vals, points = probe(live, x)
        vals = np.asarray(vals, dtype=float)

        done = np.abs(vals) <= tol
        low = ~done & (np.sign(vals) == np.sign(fa))
        up = ~done & ~low
        # converged rows collapse the bracket onto the probe
        r = live[done]
        hi[r], out[r] = x[done], points[done]
        # Illinois: halve the value kept at an end retained twice in a row
        r = live[low]
        lo[r], f_lo[r] = x[low], vals[low]
        f_hi[r[side[r] == -1]] *= 0.5
        side[r] = -1
        r = live[up]
        hi[r], f_hi[r], out[r] = x[up], vals[up], points[up]
        f_lo[r[side[r] == 1]] *= 0.5
        side[r] = 1

        live = live[~done]
        live = live[hi[live] - lo[live] >= ILLINOIS_WIDTH]
    return hi, out
