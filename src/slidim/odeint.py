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
propagated.  One routine, :class:`Stepper`, takes every step, on the
contiguous component arrays of the states and through the field's stage
kernel (``VectorFieldExpr.stages``):

* the stage sums run left to right in the tableau's order, term by term,
  for each row alone, so a row's result does not depend on the batch it
  rides in;
* the 5th-order solution is the argument of the 7th stage (the tableau's
  last row equals its weights), and the error estimate is summed in the
  same index order;
* a component whose field folds to the constant 0 keeps its start value
  and is not integrated, and the subtrees that use only such components
  and parameters are evaluated once per step;
* first same as last (FSAL): where no projection follows a step, the 7th
  stage of an accepted step is the 1st stage of the next one, and the 1st
  stage of a bracketed step is reused by every localization probe.

The states of the running rows stay one (3, n) component array from the
start of :func:`integrate_batch` to its end.  The step, the projection and
the event functions get its (n, 3) transpose, whose columns are contiguous
(they count rows as ``shape[0]``), and hand back points the same way; the
error norm, the winding angle, the domain test, the state update and the
compaction of the working set run on its rows.  No round builds a
row-major (n, 3) array.
"""

import numpy as np

# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6
# (1980) 19): the stage rows, whose last row is also the 5th-order weights,
# and the error weights (5th minus 4th order)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

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
_TWO_PI = 2 * np.pi


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


# the same, as (stage, coefficient) pairs without the zeros: every sum
# below runs over them left to right
_A_TERMS = tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in _A)
_ERR_TERMS = tuple((i, c) for i, c in enumerate(_ERR) if c)


class Stepper:
    """One Dormand-Prince 5(4) step of a field, for every row at once.

    ``field`` has a stage kernel ``field.stages(x, y, z, params)`` and the
    indices ``field.varying`` of its m components that change along the
    flow (``expressions.VectorFieldExpr``).  ``step(u, h, k1, params)``
    takes states ``u`` (N, 3), the transpose of a (3, N) component array as
    ``integrate_batch`` passes them (any (N, 3) array works, more slowly),
    sizes ``h`` (N,), the 1st stage ``k1`` (m, N) at ``u`` where it is known
    (FSAL; else None) and the per-row parameters (or None).  It returns
    ``(u_new, err, k1, k7)``: the new states (N, 3), the transpose of a
    fresh (3, N) array, the error estimate (3, N) by component (0 for a
    constant one), and the first and last stages (m, N).
    """

    def __init__(self, field):
        self.field = field
        self._rows = list(field.varying)
        self._constant = [j for j in range(3) if j not in field.varying]

    def __call__(self, u, h, k1, params):
        ut = u.T
        stage = self.field.stages(ut[0], ut[1], ut[2], params)
        start = ut[self._rows]
        ks = [stage(start) if k1 is None else k1]
        for terms in _A_TERMS[1:]:
            (s0, c0), *rest = terms
            acc = c0 * ks[s0]
            for s, c in rest:
                acc += c * ks[s]
            acc *= h
            acc += start
            ks.append(stage(acc))
        u_new = np.empty((3, len(h)))
        u_new[self._rows] = acc     # the 7th stage's argument
        for j in self._constant:
            u_new[j] = ut[j]
        (s0, c0), *rest = _ERR_TERMS
        err = c0 * ks[s0]
        for s, c in rest:
            err += c * ks[s]
        err *= h
        if self._constant:
            err, e = np.zeros((3, len(h))), err
            err[self._rows] = e
        return u_new.T, err, ks[0], ks[6]


def _angles(U, winding):
    """The angle of each point of the component rows ``U`` (3, N) about the
    center, in the (e1, e2) frame."""
    center, e1, e2 = winding
    d = U - center[:, None]
    return np.arctan2(e2 @ d, e1 @ d)


def _wrap(a):
    """(a + pi) % (2 pi) - pi for a difference a of two angles in [-pi, pi]
    (or NaN), bit for bit: over that range the remainder is one subtraction
    of 2 pi (exact, by Sterbenz's lemma) or one addition."""
    x = a + np.pi
    x -= _TWO_PI * (x >= _TWO_PI)
    x += _TWO_PI * (x < 0.0)
    x -= np.pi
    return x


def integrate_batch(step, u0, t_max, events=(), *, rtol=1e-10, atol=1e-12,
                    tol_event=1e-12, project=None, winding=None, domain=None,
                    record=False, row_params=None):
    """Advance every row of ``u0`` until an event, t_max, or domain exit.

    step       : the field's :class:`Stepper` (or a callable of the same
                 signature), called as ``step(u, h, k1, params)``; t does
                 not appear (autonomous systems).
    events     : sequence of EventSpec; first localized crossing terminates.
    project    : optional (M, 3) -> (M, 3) applied after each step
                 (manifold drift correction, ``filippov.manifold_project``);
                 like the event functions it also sees the end points of
                 rejected steps, which are dropped.  It gets and should
                 return the transpose of a (3, M) array.  Without it the
                 last stage of each accepted step is the first of the next
                 (FSAL).
    winding    : optional (center, e1, e2) accumulating the rotation angle
                 of u around center in the (e1, e2) frame.
    record     : keep per-trajectory (t, u) samples (scalar use only).
    row_params : optional {name: (N,) array} of per-trajectory parameter
                 values, passed to ``step`` with rows aligned.

    The loop steps only the rows still running, in the component layout
    of the module docstring; the working set shrinks on the rounds where
    some row ends.  A row whose accepted step brackets or lands on an event
    ends there, whatever the crossing fraction turns out to be.  Its
    bracket is kept, and after the loop one Illinois pass per event
    localizes all kept crossings together.  The earliest crossing of a row
    wins, the lower event index on a tie; a landing counts as a crossing at
    the end of the step.
    """
    u0 = np.array(u0, dtype=float)
    if u0.ndim == 1:
        u0 = u0[None, :]
    n = u0.shape[0]
    res = BatchResult(n)
    res.u[:] = u0
    if record:
        res.samples = [[(0.0, u0[i].copy())] for i in range(n)]

    # the working set: one entry per running row, in row order; the states
    # are the columns of U (3, n), the event values the columns of (n_ev, n)
    ids = np.arange(n)
    U = np.ascontiguousarray(u0.T)
    t = np.zeros(n)
    h = np.full(n, H0)
    t_max = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()
    t_end = t_max - np.maximum(1e-14, 1e-14 * t_max)
    steps = np.zeros(n, dtype=int)
    theta = _angles(U, winding) if winding is not None else np.zeros(n)
    turned = np.zeros(n)
    params = row_params
    fsal = project is None
    k1 = None
    if domain is not None:
        lo, hi_box = (np.asarray(b, dtype=float)[:, None] for b in domain)

    n_ev = len(events)
    direction = np.array([ev.direction for ev in events])[:, None]
    either, rising = direction == 0, direction > 0
    ev_prev = np.empty((n_ev, n))
    departed = np.empty((n_ev, n), dtype=bool)
    for j, ev in enumerate(events):
        ev_prev[j] = ev.fn(U.T)
        departed[j] = np.abs(ev_prev[j]) > tol_event if ev.require_departure else True

    # by row, the step over which a row that ends at an event crossed or
    # landed on it: start state (3, n), size and angle, the event values at
    # both ends, and which events it crossed or landed on (n_ev, n); on FSAL
    # legs also its first stage (m, n).  Its start time, end point, steps
    # and winding go to res straight away.
    bracket = (np.empty((3, n)), np.empty(n), np.empty(n), np.empty((n_ev, n)),
               np.empty((n_ev, n)), np.empty((n_ev, n), dtype=bool),
               np.empty((n_ev, n), dtype=bool))
    bracket_k1 = None
    with np.errstate(all="ignore"):
        for _ in range(MAX_ROUNDS):
            if not ids.size:
                break
            hs = np.minimum(h, t_max - t)
            u_new, err, k_first, k_last = step(U.T, hs, k1, params)
            # RMS over the components; a constant one has error 0 and adds 0
            q = np.maximum(np.abs(U), np.abs(u_new.T))
            q *= rtol
            q += atol
            np.divide(err, q, out=q)
            q *= q
            errnorm = np.fmin(np.sqrt((q[0] + q[1] + q[2]) / 3), np.inf)  # NaN -> inf
            accept = errnorm <= 1.0

            # step-size update (factor clipped to [0.2, 5]; 5 for a zero
            # error); a rejected row retries with its new size, and fails
            # once that underflows
            h = errnorm ** -0.2
            h *= 0.9
            np.maximum(h, 0.2, out=h)
            np.minimum(h, 5.0, out=h)
            h *= hs
            np.minimum(h, H_MAX, out=h)
            stop = np.where(~accept & (h < 1e-14 * np.maximum(1.0, t)), STEP_FAIL, RUNNING)

            ua = u_new if project is None else project(u_new)
            Ua = ua.T
            hit = None
            if n_ev:
                vals = np.empty_like(ev_prev)
                for j, ev in enumerate(events):
                    vals[j] = ev.fn(ua)
                # a departed event crossed (changed sign, in its direction)
                # or landed (|value| <= tol_event) over an accepted step
                sign_change = ev_prev * vals < 0.0
                sign_change &= either | (rising == (vals > ev_prev))
                size = np.abs(vals)
                met = size <= tol_event
                met |= sign_change
                met &= departed
                met &= accept
                hit = met.any(axis=0)
                if hit.any():
                    r = ids[hit]
                    res.status[r] = stop[hit] = EVENT
                    res.t[r], res.u[r], res.steps[r], res.winding[r] = (
                        t[hit], ua[hit], steps[hit], turned[hit])
                    met, crossed = met[:, hit], sign_change[:, hit]
                    for kept, x in zip(bracket, (U[:, hit], hs[hit], theta[hit],
                                                 ev_prev[:, hit], vals[:, hit],
                                                 met & crossed, met & ~crossed)):
                        kept[..., r] = x
                    if fsal:
                        if bracket_k1 is None:
                            bracket_k1 = np.empty((len(k_first), n))
                        bracket_k1[:, r] = k_first[:, hit]
                departed |= accept & (size > tol_event)
                np.copyto(ev_prev, vals, where=accept)

            # every accepted row moves on; the hit rows end below, their
            # results already kept
            if fsal:
                k1 = np.where(accept, k_last, k_first)
            if winding is not None:
                th = _angles(Ua, winding)
                np.add(turned, _wrap(th - theta), out=turned, where=accept)
                np.copyto(theta, th, where=accept)
            np.copyto(U, Ua, where=accept)
            np.add(t, hs, out=t, where=accept)
            steps += accept

            go = accept if hit is None else accept & ~hit
            if record:
                for i in np.flatnonzero(go):
                    res.samples[ids[i]].append((t[i], U[:, i].copy()))
            if domain is not None:
                out = Ua < lo
                out |= Ua > hi_box
                stop[go & out.any(axis=0)] = DOMAIN_EXIT
            stop[go & (t >= t_end)] = TIMEOUT

            if stop.any():
                _write_out(res, stop, ids, t, U, steps, turned)
                keep = stop == RUNNING
                ids, t, h, t_max, t_end, steps, theta, turned = (
                    x[keep] for x in (ids, t, h, t_max, t_end, steps, theta, turned))
                # np.compress returns C-contiguous rows; U[:, keep] would not
                U, ev_prev, departed = (np.compress(keep, x, axis=1)
                                        for x in (U, ev_prev, departed))
                params = _rows_of(params, keep)
                if fsal:
                    k1 = np.compress(keep, k1, axis=1)

        _write_out(res, np.full(ids.size, STEPS_EXHAUSTED), ids, t, U, steps, turned)
        _localize(res, bracket, bracket_k1, step, events, tol_event, project, winding,
                  row_params, record)
    return res


def _write_out(res, stop, ids, t, U, steps, turned):
    """Write the rows ending with ``stop`` to ``res``, except the EVENT rows:
    _localize writes those."""
    out = (stop != RUNNING) & (stop != EVENT)
    r = ids[out]
    res.status[r] = stop[out]
    res.t[r], res.u[r], res.steps[r], res.winding[r] = (
        t[out], U[:, out].T, steps[out], turned[out])


def _localize(res, bracket, bracket_k1, step, events, tol_event, project, winding,
              row_params, record):
    """Localize the crossings of every row that ended at an event: one
    Illinois pass per event over all its crossings, then the earliest
    crossing of each row (a landing counts as the end of its step)."""
    ids = np.flatnonzero(res.status == EVENT)
    m = ids.size
    if not m:
        return
    u0, h, theta, prev, vals, crossed, landed = (x.take(ids, axis=-1) for x in bracket)
    k1 = None if bracket_k1 is None else bracket_k1.take(ids, axis=1)
    u1 = res.u[ids]
    hit_event = np.full(m, -1, dtype=int)
    hit_frac = np.full(m, np.inf)
    hit_u = np.empty((m, 3))
    for j, ev in enumerate(events):
        for kind, mask in (("cross", crossed[j]), ("land", landed[j])):
            if not mask.any():
                continue
            sub = np.nonzero(mask)[0]
            if kind == "cross":
                probe = _step_probe(step, project, ev.fn, u0.take(sub, axis=1), h[sub],
                                    None if k1 is None else k1.take(sub, axis=1),
                                    _rows_of(row_params, ids[sub]))
                frac, u_land = illinois(probe, prev[j, sub], vals[j, sub], u1[sub],
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
        res.winding[ids] += _wrap(_angles(hit_u.T, winding) - theta)
    if record:
        for i, row in enumerate(ids):
            res.samples[row].append((res.t[row], hit_u[i].copy()))


def _rows_of(params, idx):
    """The per-row parameters of the rows ``idx`` (None without any)."""
    return None if params is None else {k: v[idx] for k, v in params.items()}


def _step_probe(step, project, ev_fn, u0, h, k1, params):
    """Illinois probe: event and state one (projected) step of x * h from
    the component rows u0 (3, rows), with the first stage k1 (m, rows)
    where it is known."""

    def probe(live, x):
        u1 = step(u0.take(live, axis=1).T, x * h[live],
                  None if k1 is None else k1.take(live, axis=1), _rows_of(params, live))[0]
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
