"""Batched embedded Runge-Kutta 8(5,3) integration with event localization.

All flows in the package go through :func:`integrate_batch`.  It advances N
trajectories simultaneously, each with its own adaptive step size, which is
what makes scans over thousands of return-map seeds affordable.  Events are
bracketed by a sign change over an accepted step, which ends the row; once
no row is running, Illinois (modified false position) iteration locates the
crossing fraction of every bracketed step, one batched pass per event.
Every probe re-integrates one short step from the state at the start of
the step (no dense output), down to ``|event| <= tol_event``.

The scheme is Dormand and Prince's eighth-order pair DOP853 (Hairer,
Norsett & Wanner, *Solving Ordinary Differential Equations I*, 2nd ed.
1993, section II.10).  The 8th-order solution is propagated, and the step
size follows the combined norm of its 5th- and 3rd-order error estimates.
One routine, :class:`Stepper`, takes every step through the field's stage
kernel (``VectorFieldExpr.stages``), on the contiguous component arrays of
states with one component per field component (the bench shooting's are
(x, y, z, u1, u2)):

* the stage sums run left to right in the tableau's order, term by term,
  for each row alone, so a row's result does not depend on the batch it
  rides in;
* a step evaluates the field 12 times.  The 13th stage (the field at the
  new state, which DOP853's dense output uses) is not computed: the error
  estimates weight only stages 1 and 6-12, so first-same-as-last would
  save no evaluation.  The 1st stage of a step that brackets an event is
  reused by every localization probe, which costs 11 evaluations;
* a component whose field folds to the constant 0 keeps its start value
  and is not integrated, the subtrees that use only such components and
  parameters are evaluated once per step, and the error norm runs over
  the other components only: a per-row constant rides in the state;
* an 8th-order step can be long enough to jump an event's sign change and
  its return within the same step (a sliding orbit that leaves past the
  fold and comes back).  So the events are also evaluated at the argument
  of stage 6 (fraction 1/3 of the step), and each row's next step is
  capped by its events (:func:`_event_cap`): the quadratic through an
  event's values at 0, 1/3 and 1 of the accepted step predicts its next
  zero and the length of the excursion past it, and the step stays below
  half the larger of the two.  A grazing exit, whose excursion is short,
  is then met by steps shorter than the excursion, and a transversal
  crossing or a distant event leaves the step to the tolerance.

The states of the running rows stay one (m, n) component array from the
start of :func:`integrate_batch` to its end.  The step, the projection and
the event functions get its (n, m) transpose, whose columns are contiguous
(they count rows as ``shape[0]``), and hand back points the same way; the
error norm, the winding angle, the domain test, the state update and the
compaction of the working set run on its rows.  No round builds a
row-major (n, m) array.
"""

import numpy as np

# The DOP853 tableau (Hairer, Norsett & Wanner, loc. cit.; the constants of
# their code dop853.f): the nodes c, the stage rows and the 8th-order
# weights b as (stage, coefficient) pairs without the zeros, and the 5th-
# and 3rd-order error weights.  Every sum below runs over the pairs left
# to right.
_C = (0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
      0.118350341907227396726757197510, 0.281649658092772603273242802490,
      1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0)
_A = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2), (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2), (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1), (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2), (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2), (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1), (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1), (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1), (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1), (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1), (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1), (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1), (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1), (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654), (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1), (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762), (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449), (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444), (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1), (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258), (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)),
)
_B = ((0, 5.42937341165687622380535766363e-2), (5, 4.45031289275240888144113950566),
      (6, 1.89151789931450038304281599044), (7, -5.8012039600105847814672114227),
      (8, 3.1116436695781989440891606237e-1), (9, -1.52160949662516078556178806805e-1),
      (10, 2.01365400804030348374776537501e-1), (11, 4.47106157277725905176885569043e-2))
_E5 = ((0, 0.1312004499419488073250102996e-1), (5, -0.1225156446376204440720569753e1),
       (6, -0.4957589496572501915214079952), (7, 0.1664377182454986536961530415e1),
       (8, -0.3503288487499736816886487290), (9, 0.3341791187130174790297318841),
       (10, 0.8192320648511571246570742613e-1), (11, -0.2235530786388629525884427845e-1))
# the 3rd-order weights, nonzero at stages 1, 9 and 12: the 3rd-order
# estimate is sum b_i k_i minus their sum
_BHH = ((0, 0.244094488188976377952755905512), (8, 0.733846688281611857341361741547),
        (11, 0.220588235294117647058823529412e-1))
_SAMPLE_STAGE = 5     # the step cap's event sample: stage 6's argument, at 1/3

# terminal status codes
RUNNING = 0
EVENT = 1
TIMEOUT = 2
DOMAIN_EXIT = 3
STEP_FAIL = 4
STEPS_EXHAUSTED = 5

H0 = 1e-4              # first trial step of every row
# largest step, a sanity cap: the winding angle (_wrap) needs every step to
# turn less than pi about the center (a bench step turns at most 0.5 rad)
H_MAX = 1.0
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
    """The ends of a batch of trajectories from the start states ``u0`` (n, m)."""

    def __init__(self, u0):
        n = len(u0)
        self.t = np.zeros(n)
        self.u = np.array(u0, dtype=float)
        self.status = np.full(n, RUNNING, dtype=int)
        self.event = np.full(n, -1, dtype=int)
        self.winding = np.zeros(n)
        self.steps = np.zeros(n, dtype=int)
        self.samples = None


def _combine(terms, ks):
    """sum c * ks[s] over the (stage, coefficient) pairs, left to right."""
    (s0, c0), *rest = terms
    acc = c0 * ks[s0]
    for s, c in rest:
        acc += c * ks[s]
    return acc


class Stepper:
    """One DOP853 step of a field, for every row at once.

    ``field`` has m components over the variables ``field.variables``, a
    stage kernel ``field.stages(rows)`` and the indices ``field.varying`` of
    its k components that change along the flow
    (``expressions.VectorFieldExpr``).  ``step(u, h, k1)`` takes states
    ``u`` (N, m), the transpose of an (m, N) component array as
    ``integrate_batch`` passes them (any (N, m) array works, more slowly),
    sizes ``h`` (N,) and the 1st stage ``k1`` (k, N) at ``u`` where it is
    known (else None).  It returns ``(u_new, k1, inner, err)``:

    * the new states (N, m), the transpose of a fresh (m, N) array;
    * the 1st stage (k, N);
    * the states (N, m) at the argument of stage 6 (fraction 1/3 of the
      step), the transpose of an (m, N) array, for the step cap;
    * ``(y0, y1, e5, e3)``: the k varying components at the start and the
      end of the step and their 5th- and 3rd-order error estimates, not
      yet multiplied by h, each (k, N).  A constant component has error 0
      and is left out.
    """

    def __init__(self, field):
        self.field = field
        self._rows = list(field.varying)
        self._constant = [j for j in range(len(field.variables)) if j not in field.varying]

    def _state(self, ut, v):
        """The (m, N) states whose varying components are ``v`` (k, N) and
        whose constant ones are those of ``ut``."""
        if not self._constant:
            return v
        out = np.empty(ut.shape)
        out[self._rows] = v
        for j in self._constant:
            out[j] = ut[j]
        return out

    def __call__(self, u, h, k1):
        ut = u.T
        stage = self.field.stages(ut)
        start = ut[self._rows]
        ks = [stage(start) if k1 is None else k1]
        for i, terms in enumerate(_A[1:], 1):
            acc = _combine(terms, ks)
            acc *= h
            acc += start
            if i == _SAMPLE_STAGE:
                inner = self._state(ut, acc).T
            ks.append(stage(acc))
        end = _combine(_B, ks)
        e3 = end - _combine(_BHH, ks)
        end *= h
        end += start
        return (self._state(ut, end).T, ks[0], inner,
                (start, end, _combine(_E5, ks), e3))


def _error_norm(err, h, rtol, atol):
    """The DOP853 error norm of steps of sizes ``h`` (Hairer, Norsett &
    Wanner, loc. cit.): with the scaled estimates s_j = e_j / (atol + rtol
    max(|y0_j|, |y1_j|)) of ``err = (y0, y1, e5, e3)``,

        h * S5 / sqrt(3 (S5 + S3 / 100)),   S = sum over components of s^2,

    over the components of a state; a constant one adds 0.  NaN (a non-
    finite field value) becomes inf."""
    y0, y1, e5, e3 = err
    sk = np.abs(y0)
    np.maximum(sk, np.abs(y1), out=sk)
    sk *= rtol
    sk += atol
    sums = []
    for e in (e5, e3):
        e /= sk
        e *= e
        total = e[0].copy()
        for row in e[1:]:
            total += row
        sums.append(total)
    s5, s3 = sums
    s3 *= 0.01
    s3 += s5
    s3 += s3 == 0.0         # both estimates 0: the norm is 0, not 0 / 0
    s3 *= 3.0
    np.sqrt(s3, out=s3)
    s5 *= h
    s5 /= s3
    return np.fmin(s5, np.inf)


def _angles(U, winding):
    """The angle of each point of the component rows ``U`` (3, N) about the
    center, in the (e1, e2) frame (the frame of x, y, z)."""
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


def _event_cap(f0, f3, f1):
    """The next step's cap, as a fraction of the step just taken, from
    each event's values ``f0``, ``f3`` and ``f1`` at the fractions 0, 1/3
    and 1 of it (Shampine & Thompson, "Event location for ordinary
    differential equations", Comput. Math. Appl. 39 (2000)).

    The quadratic through the three values, f1 + d1 y + d2 y^2 at the
    fraction 1 + y, has its roots a distance tau apart; where the later
    one lies ahead (y > 0) the cap is half the larger of the earlier
    root and tau, else it is inf.  So a grazing excursion past zero,
    short tau, is met by steps shorter than it, whose ends see its sign
    change, and a transversal crossing (tau long, inf for a straight
    approach) or no predicted zero leaves the step to the tolerance."""
    d2 = 1.5 * (f1 - f3) - 3.0 * (f3 - f0)     # the divided difference f[0, 1/3, 1]
    d1 = 1.5 * (f1 - f3) + (2.0 / 3.0) * d2     # the slope at the end
    tau = np.sqrt(d1 * d1 - 4.0 * d2 * f1) / np.abs(d2)
    mid = -0.5 * d1 / d2                        # the vertex
    cap = 0.5 * np.fmax(mid - 0.5 * tau, tau)
    cap[~(mid + 0.5 * tau > 0.0)] = np.inf
    return cap


def integrate_batch(step, u0, t_max, events=(), *, rtol=1e-10, atol=1e-12,
                    tol_event=1e-12, project=None, winding=None, domain=None,
                    record=False):
    """Advance every row of ``u0`` until an event, t_max, or domain exit.

    u0         : start states (N, m), m the field's width, or one state.
    step       : the field's :class:`Stepper` (or a callable of the same
                 signature), called as ``step(u, h, k1)``; t does not
                 appear (autonomous systems).
    events     : sequence of EventSpec; first localized crossing terminates.
    project    : optional (M, m) -> (M, m) applied after each step
                 (manifold drift correction, ``filippov.manifold_project``);
                 like the event functions it also sees the end points of
                 rejected steps, which are dropped.  It gets and should
                 return the transpose of an (m, M) array.
    winding    : optional (center, e1, e2) accumulating the rotation angle
                 of u around center in the (e1, e2) frame.
    domain     : optional (lo, hi) bounds, (m,) each; a row leaving the
                 box ends with DOMAIN_EXIT.
    record     : keep per-trajectory (t, u) samples (scalar use only).

    The loop steps only the rows still running, in the component layout
    of the module docstring; the working set shrinks on the rounds where
    some row ends.  A row whose accepted step brackets or lands on an event
    ends there, whatever the crossing fraction turns out to be.  Its
    bracket is kept, and after the loop one Illinois pass per event
    localizes all kept crossings together.  The earliest crossing of a row
    wins, the lower event index on a tie; a landing counts as a crossing at
    the end of the step.
    """
    u0 = np.atleast_2d(np.array(u0, dtype=float))
    n = u0.shape[0]
    res = BatchResult(u0)
    if record:
        res.samples = [[(0.0, u0[i].copy())] for i in range(n)]

    # the working set: one entry per running row, in row order; the states
    # are the columns of U (m, n), the event values the columns of (n_ev, n)
    ids = np.arange(n)
    U = np.ascontiguousarray(u0.T)
    t = np.zeros(n)
    h = np.full(n, H0)
    t_max = np.broadcast_to(np.asarray(t_max, dtype=float), (n,)).copy()
    t_end = t_max - np.maximum(1e-14, 1e-14 * t_max)
    steps = np.zeros(n, dtype=int)
    theta = _angles(U, winding) if winding is not None else np.zeros(n)
    turned = np.zeros(n)
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
    # landed on it: start state (m, n), size and angle, the event values at
    # both ends, and which events it crossed or landed on (n_ev, n); and its
    # first stage (k, n).  Its start time, end point, steps and winding go
    # to res straight away.
    bracket = (np.empty(U.shape), np.empty(n), np.empty(n), np.empty((n_ev, n)),
               np.empty((n_ev, n)), np.empty((n_ev, n), dtype=bool),
               np.empty((n_ev, n), dtype=bool))
    bracket_k1 = None
    with np.errstate(all="ignore"):
        for _ in range(MAX_ROUNDS):
            if not ids.size:
                break
            hs = np.minimum(h, t_max - t)
            u_new, k_first, inner, err = step(U.T, hs, None)
            errnorm = _error_norm(err, hs, rtol, atol)
            accept = errnorm <= 1.0

            # step-size update (factor clipped to [0.2, 5]; 5 for a zero
            # error); a rejected row retries with its new size
            h = errnorm ** -0.125
            h *= 0.9
            np.maximum(h, 0.2, out=h)
            np.minimum(h, 5.0, out=h)
            h *= hs
            np.minimum(h, H_MAX, out=h)

            ua = u_new if project is None else project(u_new)
            Ua = ua.T
            # a rejected row fails once its step size underflows
            stop = np.where(~accept & (h < 1e-14 * np.maximum(1.0, t)), STEP_FAIL, RUNNING)

            hit = None
            if n_ev:
                # the values at the end, and at fraction 1/3 for the step cap
                vals, inside = np.empty_like(ev_prev), np.empty_like(ev_prev)
                for j, ev in enumerate(events):
                    vals[j] = ev.fn(ua)
                    inside[j] = ev.fn(inner)
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
                    if bracket_k1 is None:
                        bracket_k1 = np.empty((len(k_first), n))
                    bracket_k1[:, r] = k_first[:, hit]
                departed |= accept & (size > tol_event)
                # an accepted row's next step stays below what each departed
                # event predicts of its next crossing
                cap = np.where(departed, _event_cap(ev_prev, inside, vals), np.inf)
                cap = cap.min(axis=0)
                cap *= hs
                np.minimum(h, cap, out=h, where=accept)
                np.copyto(ev_prev, vals, where=accept)

            # every accepted row moves on; the hit rows end below, their
            # results already kept
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

        _write_out(res, np.full(ids.size, STEPS_EXHAUSTED), ids, t, U, steps, turned)
        _localize(res, bracket, bracket_k1, step, events, tol_event, project, winding,
                  record)
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
              record):
    """Localize the crossings of every row that ended at an event: one
    Illinois pass per event over all its crossings, then the earliest
    crossing of each row (a landing counts as the end of its step)."""
    ids = np.flatnonzero(res.status == EVENT)
    m = ids.size
    if not m:
        return
    u0, h, theta, prev, vals, crossed, landed = (x.take(ids, axis=-1) for x in bracket)
    k1 = bracket_k1.take(ids, axis=1)
    u1 = res.u[ids]
    hit_event = np.full(m, -1, dtype=int)
    hit_frac = np.full(m, np.inf)
    hit_u = np.empty((m, u1.shape[1]))
    for j, ev in enumerate(events):
        for kind, mask in (("cross", crossed[j]), ("land", landed[j])):
            if not mask.any():
                continue
            sub = np.nonzero(mask)[0]
            if kind == "cross":
                probe = _step_probe(step, project, ev.fn, u0.take(sub, axis=1), h[sub],
                                    k1.take(sub, axis=1))
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


def _step_probe(step, project, ev_fn, u0, h, k1):
    """Illinois probe: event and state one (projected) step of x * h from
    the component rows u0 (m, rows), with their first stage k1 (k, rows)."""

    def probe(live, x):
        u1 = step(u0.take(live, axis=1).T, x * h[live], k1.take(live, axis=1))[0]
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
