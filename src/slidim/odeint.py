"""Batched embedded Runge-Kutta 5(4) integration with event localization.

All flows in the package go through :func:`integrate_batch`.  It advances N
trajectories simultaneously, each with its own adaptive step size, which is
what makes scans over thousands of return-map seeds affordable.  Events are
located by sign-change bracketing followed by Illinois (modified false
position) iteration on the crossing fraction of the step; every probe
re-integrates one short step from the last accepted state (no dense
output), down to ``|event| <= tol_event``.

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
    k = [f(u)]
    for row in _A[1:]:
        du = row[0] * k[0]
        for coef, ki in zip(row[1:], k[1:]):
            du = du + coef * ki
        k.append(f(u + hcol * du))
    ks = np.stack(k)
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
                    tol_event=1e-12, h0=1e-4, h_max=0.25, project=None,
                    winding=None, domain=None, record=False,
                    max_rounds=300000, row_args=None):
    """Advance every row of ``u0`` until an event, t_max, or domain exit.

    f        : (M, 3) -> (M, 3) field (sign-folded by the caller for
               backward flows); t does not appear (autonomous systems).
    events   : sequence of EventSpec; first localized crossing terminates.
    project  : optional (M, 3) -> (M, 3) applied after each accepted step
               (manifold drift correction).
    winding  : optional (center, e1, e2) accumulating the rotation angle
               of u around center in the (e1, e2) frame.
    record   : keep per-trajectory (t, u) samples (scalar use only).
    row_args : optional (N, K) per-trajectory constants; f is then called
               as f(u, args) with rows aligned.
    """
    u = np.array(u0, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    n = u.shape[0]
    res = BatchResult(n)
    res.u[:] = u
    if record:
        res.samples = [[(0.0, u[i].copy())] for i in range(n)]

    t = np.zeros(n)
    h = np.full(n, min(h0, h_max))
    t_max = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()

    n_ev = len(events)
    ev_prev = np.zeros((n, n_ev))
    departed = np.zeros((n, n_ev), dtype=bool)
    for j, ev in enumerate(events):
        vals = np.asarray(ev.fn(u), dtype=float)
        ev_prev[:, j] = vals
        departed[:, j] = np.abs(vals) > tol_event if ev.require_departure else True

    theta = _angles(u, winding) if winding is not None else None

    active = np.ones(n, dtype=bool)
    tiny = np.maximum(1e-14, 1e-14 * t_max)
    for _ in range(max_rounds):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        ui, ti, hi = u[idx], t[idx], h[idx]
        hi = np.minimum(hi, t_max[idx] - ti)
        fi = _bind(f, row_args, idx)

        with np.errstate(all="ignore"):
            u_new, err = _rk_step(fi, ui, hi)
            scale = atol + rtol * np.maximum(np.abs(ui), np.abs(u_new))
            errnorm = np.sqrt(np.mean((err / scale) ** 2, axis=1))
        bad = ~np.isfinite(errnorm)
        errnorm[bad] = np.inf
        accept = errnorm <= 1.0

        # step-size update (factor clipped to [0.2, 5])
        with np.errstate(all="ignore"):
            fac = 0.9 * errnorm ** -0.2
        fac[errnorm == 0.0] = 5.0
        fac = np.clip(fac, 0.2, 5.0)
        h_new = np.minimum(hi * fac, h_max)

        # rejected rows: shrink and retry (STEP_FAIL on underflow)
        rej = idx[~accept]
        if rej.size:
            h[rej] = h_new[~accept]
            fail = h[rej] < 1e-14 * np.maximum(1.0, t[rej])
            if fail.any():
                frows = rej[fail]
                res.status[frows] = STEP_FAIL
                res.t[frows], res.u[frows] = t[frows], u[frows]
                active[frows] = False

        if not accept.any():
            continue
        rows = idx[accept]
        ua, ta = u_new[accept], ti[accept] + hi[accept]
        ha = hi[accept]
        if project is not None:
            ua = project(ua)

        # event handling on accepted rows
        hit_event = np.full(rows.size, -1, dtype=int)
        hit_frac = np.full(rows.size, np.inf)
        hit_u = np.empty((rows.size, 3))
        if n_ev:
            for j, ev in enumerate(events):
                vals = np.asarray(ev.fn(ua), dtype=float)
                prev = ev_prev[rows, j]
                dep = departed[rows, j]
                crossed = dep & (prev * vals < 0.0)
                if ev.direction > 0:
                    crossed &= vals > prev
                elif ev.direction < 0:
                    crossed &= vals < prev
                landed = dep & (np.abs(vals) <= tol_event) & ~crossed
                for kind, mask in (("cross", crossed), ("land", landed)):
                    if not mask.any():
                        continue
                    sub = np.nonzero(mask)[0]
                    if kind == "cross":
                        args = row_args[rows[sub]] if row_args is not None else None
                        frac, u_land = _refine(f, u[rows[sub]], ha[sub], ev.fn,
                                               prev[sub], vals[sub], ua[sub],
                                               tol_event, project, args)
                    else:
                        frac, u_land = np.ones(sub.size), ua[sub]
                    better = frac < hit_frac[sub]
                    hit_event[sub[better]] = j
                    hit_frac[sub[better]] = frac[better]
                    hit_u[sub[better]] = u_land[better]
                ev_prev[rows, j] = vals
                departed[rows, j] |= np.abs(vals) > tol_event

        hit = hit_event >= 0
        if hit.any():
            sub = np.nonzero(hit)[0]
            tau = hit_frac[sub] * ha[sub]
            u_hit = hit_u[sub]
            rr = rows[sub]
            if winding is not None:
                th = _angles(u_hit, winding)
                res.winding[rr] += _wrap(th - theta[rr])
            res.status[rr] = EVENT
            res.event[rr] = hit_event[sub]
            res.t[rr] = t[rr] + tau
            res.u[rr] = u_hit
            active[rr] = False
            if record:
                for i, row in enumerate(rr):
                    res.samples[row].append((res.t[row], u_hit[i].copy()))

        go = ~hit
        rows, ua, ta = rows[go], ua[go], ta[go]
        if rows.size:
            if winding is not None:
                th = _angles(ua, winding)
                res.winding[rows] += _wrap(th - theta[rows])
                theta[rows] = th
            u[rows], t[rows] = ua, ta
            h[rows] = h_new[accept][go]
            res.steps[rows] += 1
            if record:
                for i, row in enumerate(rows):
                    res.samples[row].append((t[row], ua[i].copy()))

            if domain is not None:
                lo, hi_box = domain
                out = np.any((ua < lo) | (ua > hi_box), axis=1)
                if out.any():
                    orows = rows[out]
                    res.status[orows] = DOMAIN_EXIT
                    res.t[orows], res.u[orows] = t[orows], u[orows]
                    active[orows] = False

            done = t[rows] >= t_max[rows] - tiny[rows]
            if done.any():
                drows = rows[done]
                res.status[drows] = TIMEOUT
                res.t[drows], res.u[drows] = t[drows], u[drows]
                active[drows] = False

    still = res.status == RUNNING
    if still.any():
        res.status[still] = STEPS_EXHAUSTED
        res.t[still], res.u[still] = t[still], u[still]
    return res


def _bind(f, row_args, idx):
    """f restricted to the rows ``idx`` of ``row_args`` (f itself without them)."""
    if row_args is None:
        return f
    return lambda uu, _a=row_args[idx]: f(uu, _a)  # noqa: E731


def _substep(f, u0, tau, project):
    """One RK step of per-row size tau from u0, with projection."""
    u1, _ = _rk_step(f, u0, tau)
    return project(u1) if project is not None else u1


def _refine(f, u0, h, ev_fn, ev_lo, ev_hi, u_hi, tol_event, project,
            row_args=None, max_iter=80):
    """Illinois iteration for the crossing fraction in (0, 1] of each row's step.

    ``ev_lo`` / ``ev_hi`` are the event values, of opposite sign, at the
    accepted pre-step state ``u0`` (fraction 0) and at the end of the step
    ``u_hi`` (fraction 1), so the first probe is the secant point.  Each
    probe re-integrates one step of size frac * h from ``u0``; only rows not
    yet converged are probed, with their rows of ``row_args``.  A
    false-position point that is not finite or not strictly inside the
    bracket is replaced by the midpoint.  Returns the fraction and the
    (projected) state there: the probe with ``|event| <= tol_event``, else
    the upper bracket end once the bracket is narrower than 1e-16 or
    ``max_iter`` probes are spent.
    """
    m = u0.shape[0]
    lo, hi = np.zeros(m), np.ones(m)
    f_lo = np.array(ev_lo, dtype=float)
    f_hi = np.array(ev_hi, dtype=float)
    u_out = np.array(u_hi, dtype=float)
    side = np.zeros(m, dtype=int)      # bracket end the last probe replaced
    live = np.arange(m)
    for _ in range(max_iter):
        if not live.size:
            break
        a, b, fa, fb = lo[live], hi[live], f_lo[live], f_hi[live]
        with np.errstate(all="ignore"):
            x = a - fa * (b - a) / (fb - fa)
        off = ~(np.isfinite(x) & (x > a) & (x < b))
        x[off] = 0.5 * (a[off] + b[off])
        probe = _substep(_bind(f, row_args, live), u0[live], x * h[live], project)
        vals = np.asarray(ev_fn(probe), dtype=float)

        done = np.abs(vals) <= tol_event
        low = ~done & (np.sign(vals) == np.sign(fa))
        up = ~done & ~low
        # converged rows collapse the bracket onto the probe
        r = live[done]
        hi[r], u_out[r] = x[done], probe[done]
        # Illinois: halve the value kept at an end retained twice in a row
        r = live[low]
        lo[r], f_lo[r] = x[low], vals[low]
        f_hi[r[side[r] == -1]] *= 0.5
        side[r] = -1
        r = live[up]
        hi[r], f_hi[r], u_out[r] = x[up], vals[up], probe[up]
        f_lo[r[side[r] == 1]] *= 0.5
        side[r] = 1

        live = live[~done]
        live = live[hi[live] - lo[live] >= 1e-16]
    return hi, u_out
