import numpy as np
import pytest

from slidim import odeint
from slidim.expressions import parse_field
from slidim.odeint import EventSpec, Stepper, integrate_batch

descent = Stepper(parse_field("0, 0, -1"))
harmonic = Stepper(parse_field("y, -x, 0"))


def test_event_localized_below_tolerance():
    ev = EventSpec(lambda u: u[:, 2])
    res = integrate_batch(descent, np.array([[0.0, 0.0, 1.0]]), 10.0, [ev])
    assert res.status[0] == odeint.EVENT
    assert abs(res.t[0] - 1.0) < 1e-11
    assert abs(res.u[0, 2]) < 1e-12


def test_harmonic_accuracy_and_winding():
    # clockwise rotation: winding accumulates one negative turn
    res = integrate_batch(harmonic, np.array([[1.0, 0.0, 0.0]]), 2 * np.pi,
                          winding=(np.zeros(3), np.eye(3)[0], np.eye(3)[1]))
    assert res.status[0] == odeint.TIMEOUT
    assert np.linalg.norm(res.u[0] - [1, 0, 0]) < 5e-10
    assert res.winding[0] / (2 * np.pi) == pytest.approx(-1.0, abs=1e-9)


def test_departure_excludes_trivial_root():
    # z(t) = t - t^2/2 starts on the event surface and returns at t = 2
    f = Stepper(parse_field("y, -1, 0"))
    ev = EventSpec(lambda u: u[:, 0])
    res = integrate_batch(f, np.array([[0.0, 1.0, 0.0]]), 10.0, [ev])
    assert res.status[0] == odeint.EVENT
    assert res.t[0] == pytest.approx(2.0, abs=1e-11)


def test_timeout_and_domain_exit():
    res = integrate_batch(descent, np.array([[0.0, 0.0, 1.0]]), 0.5, [])
    assert res.status[0] == odeint.TIMEOUT
    box = (np.array([-1.0, -1.0, 0.2]), np.array([1.0, 1.0, 2.0]))
    res = integrate_batch(descent, np.array([[0.0, 0.0, 1.0]]), 10.0, [], domain=box)
    assert res.status[0] == odeint.DOMAIN_EXIT


def test_batch_matches_scalar_runs():
    # rows evolve independently, and every stage and error sum runs term by
    # term in a fixed order for each row alone, so a row agrees bit for bit
    ev = EventSpec(lambda u: u[:, 2])
    starts = np.array([[0.0, 0.0, 1.0], [0.2, -0.1, 0.5], [1.0, 2.0, 2.5]])
    batch = integrate_batch(descent, starts, 10.0, [ev])
    for k, u0 in enumerate(starts):
        one = integrate_batch(descent, u0[None, :], 10.0, [ev])
        assert one.steps[0] == batch.steps[k]
        assert one.t[0] == batch.t[k]
        assert np.array_equal(one.u[0], batch.u[k])


def test_rows_are_bit_identical_alone_and_in_a_batch():
    # x' = 0.7 y, y' = -0.7 x, z' = -0.3 from six start angles to z = 0: the
    # error estimate is not rounding noise here, so any batch-shape
    # dependent rounding in it would change the step sizes
    f = Stepper(parse_field("0.7*y, -0.7*x, -0.3"))
    ev = EventSpec(lambda u: u[:, 2])
    angles = np.linspace(0.0, 2 * np.pi, 6, endpoint=False) + 0.3
    starts = np.column_stack([np.cos(angles), np.sin(angles), np.ones(6)])
    batch = integrate_batch(f, starts, 10.0, [ev], record=True)
    assert np.all(batch.status == odeint.EVENT)
    for k in range(6):
        one = integrate_batch(f, starts[k:k + 1], 10.0, [ev], record=True)
        assert one.steps[0] == batch.steps[k]
        assert one.t[0] == batch.t[k]
        assert np.array_equal(one.u[0], batch.u[k])
        assert len(one.samples[0]) == len(batch.samples[k])
        for (t1, u1), (t2, u2) in zip(one.samples[0], batch.samples[k]):
            assert t1 == t2
            assert np.array_equal(u1, u2)


def test_same_shape_runs_are_bit_identical():
    ev = EventSpec(lambda u: u[:, 2])
    starts = np.array([[0.0, 0.0, 1.0], [0.2, -0.1, 0.5]])
    a = integrate_batch(descent, starts, 10.0, [ev])
    b = integrate_batch(descent, starts, 10.0, [ev])
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.u, b.u)


def test_a_step_evaluates_the_field_12_times_and_a_probe_11():
    # DOP853's 13th stage is not computed, with or without a projection
    # (the identity projection must give the same bits); every
    # localization probe reuses the 1st stage of its bracketing step.  A
    # step evaluates each event at its end and at fraction 1/3 (for the
    # step cap), a probe at its end, and the start state once
    field = parse_field("y, -x, 0.1*x*y")
    evaluations, steps = [], []

    class Counted:
        variables = field.variables
        varying = field.varying

        def stages(self, rows):
            stage = field.stages(rows)
            return lambda *v: evaluations.append(1) or stage(*v)

    stepper = Stepper(Counted())

    def step(u, h, k1):
        steps.append(k1 is None)
        return stepper(u, h, k1)

    u0 = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.2]])
    free = integrate_batch(step, u0, 3.0, record=True)
    assert len(evaluations) == 12 * len(steps) and all(steps)
    evaluations.clear()
    steps.clear()
    projected = integrate_batch(step, u0, 3.0, record=True, project=lambda u: u)
    assert len(evaluations) == 12 * len(steps)
    assert np.array_equal(free.t, projected.t) and np.array_equal(free.u, projected.u)
    assert [t for t, _ in free.samples[1]] == [t for t, _ in projected.samples[1]]
    evaluations.clear()
    steps.clear()
    events = []
    res = integrate_batch(step, u0, 10.0,
                          [EventSpec(lambda u: events.append(1) or u[:, 0])])
    assert np.all(res.status == odeint.EVENT)
    probes = steps.count(False)
    assert probes > 0 and len(evaluations) == 12 * steps.count(True) + 11 * probes
    assert len(events) == 1 + 2 * steps.count(True) + probes


def _tableau():
    """The DOP853 coefficients as dense arrays: A (12, 12), b, E5 and E3
    (b minus the 3rd-order weights)."""
    A = np.zeros((12, 12))
    for i, row in enumerate(odeint._A):
        for s, c in row:
            A[i, s] = c
    b, e5, bhh = (np.zeros(12) for _ in range(3))
    for w, terms in zip((b, e5, bhh), (odeint._B, odeint._E5, odeint._BHH)):
        for s, c in terms:
            w[s] = c
    return A, b, e5, b - bhh


def test_tableau_order_conditions():
    A, b, e5, e3 = _tableau()
    c = np.array(odeint._C)
    assert np.abs(A.sum(axis=1) - c).max() < 1e-15
    for k in range(1, 9):
        assert b @ c ** (k - 1) == pytest.approx(1 / k, abs=1e-15), k
    assert abs(e5.sum()) < 1e-15 and abs(e3.sum()) < 1e-15
    # both estimates weight only stages 1 and 6-12
    assert not (e5[1:5].any() or e3[1:5].any())


def test_measured_global_order_is_eight():
    # fixed steps of x' = y, y' = -x from (1, 0, 0) to t = 4 against
    # (cos t, -sin t): halving the step divides the error by about 2^8
    def error(n):
        u = np.array([[1.0, 0.0, 0.0]])
        h = np.full(1, 4.0 / n)
        for _ in range(n):
            u = harmonic(u, h, None)[0]
        return np.abs(u[0, :2] - [np.cos(4.0), -np.sin(4.0)]).max()

    errors = [error(n) for n in (4, 8, 16)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((7.5 < orders) & (orders < 8.5)), orders


def test_row_args_carry_per_trajectory_constants():
    # the parameter a becomes a 4th state component whose field is 0: each
    # row carries its own a, which is not integrated and keeps its bits
    field = parse_field("0, 0, -a", {"a": 0.0}).with_constants(("a",))
    assert field.variables == ("x", "y", "z", "a") and field.varying == (2,)
    ev = EventSpec(lambda u: u[:, 2])
    a = np.array([1.0, 2.0, 4.0])
    res = integrate_batch(Stepper(field), np.column_stack([np.tile([0.0, 0.0, 1.0], (3, 1)), a]),
                          10.0, [ev])
    assert np.allclose(res.t, [1.0, 0.5, 0.25], atol=1e-10)
    assert np.array_equal(res.u[:, 3], a)


def test_event_direction_filter():
    # oscillator crosses x = 0 downward first when started at the top
    ev_up = EventSpec(lambda u: u[:, 0], direction=+1)
    ev_dn = EventSpec(lambda u: u[:, 0], direction=-1)
    u0 = np.array([[1.0, 0.0, 0.0]])
    up = integrate_batch(harmonic, u0, 10.0, [ev_up])
    dn = integrate_batch(harmonic, u0, 10.0, [ev_dn])
    assert dn.t[0] < up.t[0]
    assert dn.t[0] == pytest.approx(np.pi / 2, abs=1e-9)
    assert up.t[0] == pytest.approx(3 * np.pi / 2, abs=1e-9)


def test_records_monotone_times():
    res = integrate_batch(harmonic, np.array([[1.0, 0.0, 0.0]]), 3.0, [],
                          record=True)
    times = [t for t, _ in res.samples[0]]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_nonlinear_event_located_in_few_probes():
    # x = cos t crosses 0 downward at t = pi/2; every evaluation after the
    # one at the end of the crossing step is a localization probe.  At rtol
    # 1e-12 the orbit's own error lies well below the bound on t
    values = []

    def x_event(u):
        values.append(u[0, 0])
        return u[:, 0]

    res = integrate_batch(harmonic, np.array([[1.0, 0.0, 0.0]]), 10.0,
                          [EventSpec(x_event)], rtol=1e-12)
    assert res.status[0] == odeint.EVENT
    assert abs(res.u[0, 0]) <= 1e-12
    assert res.t[0] == pytest.approx(np.pi / 2, abs=1e-11)
    crossing = next(i for i, v in enumerate(values) if v < 0)
    assert len(values) - crossing - 1 <= 10


def test_row_args_follow_rows_still_refining(monkeypatch):
    # x' = a0, y' = x, z' = -a1 - a2 x - a3 y from (0, 0, 1), the a's
    # constant state components: z is a polynomial in t, so z = 0 has a
    # closed-form time per row.  All four crossings are localized together;
    # the linear row converges on the first probe, the others need more, so
    # later probes carry a subset.
    names = ("a0", "a1", "a2", "a3")
    field = parse_field("a0, x, -a1 - a2*x - a3*y", dict.fromkeys(names, 0.0))
    stepper = Stepper(field.with_constants(names))

    def f(u, h, k1):
        seen_args.append(u[:, 3:].copy())
        seen_k1.append(k1)
        return stepper(u, h, k1)

    args = np.array([[0.0, 1.0, 0.0, 0.0],     # z = 1 - t
                     [1.0, 0.0, 2.0, 0.0],     # z = 1 - t^2
                     [1.0, 0.0, 0.0, 8.0],     # z = 1 - 4 t^3 / 3
                     [1.0, 0.1, 1.5, 0.0]])    # z = 1 - 0.1 t - 0.75 t^2
    t_exact = [1.0, 1.0, 0.75 ** (1 / 3), (-0.1 + np.sqrt(3.01)) / 1.5]
    probed, seen_args, seen_k1, starts = [], [], [], []

    def z_event(u):
        probed.append(u[:, 2].copy())
        return u[:, 2]

    def marked(*a):
        starts.append((len(probed), len(seen_args)))
        return illinois(*a)

    illinois = odeint.illinois
    monkeypatch.setattr(odeint, "illinois", marked)
    tol = 1e-12
    res = integrate_batch(f, np.column_stack([np.tile([0.0, 0.0, 1.0], (4, 1)), args]),
                          10.0, [EventSpec(z_event)], tol_event=tol)
    assert np.all(res.status == odeint.EVENT)
    assert np.allclose(res.t, t_exact, rtol=0, atol=1e-12)
    assert np.all(np.abs(res.u[:, 2]) <= 1e-12)
    [(first_probe, first_rhs)] = starts
    probes = probed[first_probe:]
    # one Runge-Kutta step per probe, which starts from the first stage
    # kept with its bracket
    assert len(seen_args) - first_rhs == len(probes)
    assert all(k1 is not None for k1 in seen_k1[first_rhs:])
    # each probe's step carries the constants of exactly the rows whose
    # previous probes stayed above tol, in row order
    live = np.arange(4)
    for k, z in enumerate(probes):
        assert z.size == live.size
        assert np.array_equal(seen_args[first_rhs + k], args[live])
        live = live[np.abs(z) > tol]
    assert len(probes[0]) == 4 and 0 < len(probes[1]) < 4
    # the linear row converges on the first probe and leaves
    assert np.abs(probes[0][0]) <= tol
    assert not live.size


def _identity_probe(value, seen):
    """Illinois probe whose point is its fraction x, with ``value(x)``."""

    def probe(rows, x):
        seen.extend(x)
        return value(x), x

    return probe


@pytest.mark.parametrize("ev_hi, value, first, frac", [
    (1.0, 1.0, [0.5, 0.75, 0.875], 1.0),             # flat: lower end climbs
    (np.nan, np.nan, [0.5, 0.25, 0.125], 2.0 ** -54),  # NaN: upper end halves
])
def test_refine_degenerate_bracket_bisects_and_terminates(ev_hi, value, first, frac):
    seen = []
    probe = _identity_probe(lambda x: np.full(x.size, value), seen)
    got, point = odeint.illinois(probe, np.ones(1), np.full(1, ev_hi), np.ones(1), 1e-12)
    # midpoints only, until the bracket is narrower than 1e-16
    assert seen[:3] == pytest.approx(first, rel=1e-14)
    assert len(seen) < odeint.ILLINOIS_MAX_PROBES
    assert got[0] == frac
    assert point[0] == frac


def test_illinois_stops_at_the_width_floor():
    # a jump at 1/3: |value| never drops to tol, so only the width floor
    # ends the search, at the upper (positive) end of a bracket narrower
    # than ILLINOIS_WIDTH; that takes 54 probes, before the probe cap
    seen = []
    probe = _identity_probe(lambda x: np.where(x < 1 / 3, -1.0, 1.0), seen)
    got, point = odeint.illinois(probe, np.full(1, -1.0), np.ones(1), np.ones(1), 1e-12)
    assert 1 / 3 <= got[0] < 1 / 3 + odeint.ILLINOIS_WIDTH
    assert point[0] == got[0]
    assert len(seen) <= 54 < odeint.ILLINOIS_MAX_PROBES


def test_domain_exit_on_the_last_step_ends_in_timeout():
    # the step that reaches t_max = 0.5 also takes z from 0.67 to 0.5 < 0.55;
    # reaching t_max takes precedence over leaving the domain
    box = (np.array([-1.0, -1.0, 0.55]), np.array([1.0, 1.0, 2.0]))
    res = integrate_batch(descent, np.array([[0.0, 0.0, 1.0]]), 0.5, [], domain=box)
    assert res.status[0] == odeint.TIMEOUT
    assert res.t[0] == pytest.approx(0.5, abs=1e-14)
    assert res.u[0, 2] == pytest.approx(0.5, abs=1e-14)


def test_step_fail_keeps_the_last_accepted_state():
    # the field is NaN below z = 0.5, so steps near it are rejected until the
    # step size underflows; the second row ends at its event meanwhile
    f = Stepper(parse_field("0, 0, -1 + 0*log(z - 0.5)"))
    ev = EventSpec(lambda u: u[:, 2] - 0.8 * (u[:, 0] > 0))
    res = integrate_batch(f, np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]), 10.0, [ev],
                          record=True)
    assert list(res.status) == [odeint.STEP_FAIL, odeint.EVENT]
    t_last, u_last = res.samples[0][-1]
    assert res.t[0] == t_last
    assert np.array_equal(res.u[0], u_last)
    assert res.steps[0] == len(res.samples[0]) - 1
    assert 0.5 < u_last[2] < 0.5 + 1e-12
    assert res.t[1] == pytest.approx(0.2, abs=1e-12)


# constant velocity per row, carried as the state components (a, b, c):
# the error estimate is rounding alone, so every step grows by the factor 5
# up to H_MAX whatever the batch; no event of _DRIFT_EVENTS predicts a
# zero close enough to cap a step
_drift = Stepper(parse_field("a, b, c", dict.fromkeys("abc", 0.0))
                 .with_constants(("a", "b", "c")))


def _starts(vel):
    """States from (1, 0, 1) at the velocities ``vel`` (one row each)."""
    vel = np.asarray(vel, dtype=float)
    return np.column_stack([np.tile([1.0, 0.0, 1.0], (len(vel), 1)), vel])


# from (1, 0, 1): x - 0.2 y^2 crosses 0 downward; z - 0.5 clipped at 0
# lands (is 0, no sign change) on the step where z passes 0.5
_DRIFT_EVENTS = [EventSpec(lambda u: u[:, 0] - 0.2 * u[:, 1] ** 2, direction=-1),
                 EventSpec(lambda u: np.maximum(u[:, 2] - 0.5, 0.0))]


def test_batched_localization_matches_single_rows():
    # the steps end at t = 1e-4, 6e-4, 0.0031, 0.0156, 0.0781, 0.3906, then
    # 1.3906, 2.3906, ... (+H_MAX)
    ends = np.cumsum(odeint.H0 * 5.0 ** np.arange(6))
    ends = np.concatenate([ends, ends[-1] + odeint.H_MAX * np.arange(1, 4)])
    vel = np.array([[-0.8, 0.5, -0.1],      # x crosses at 1.165
                    [-0.3, 0.2, -0.1],      # x crosses at 3.08
                    [-0.2, 0.3, -10.0],     # z lands on the step past 0.05
                    [-0.5, 0.0, -0.25],     # x crosses at 2, z passes 0.5 there
                    [-0.1, 0.1, -2.0],      # z lands on the step past 0.25
                    [-0.2, 0.0, 0.0]])      # x would cross at 5 > t_max
    starts = _starts(vel)
    # the winding frame spans (x, y) of the 6-component states
    frame = (np.array([0.0, -0.5, 0.0, 0.0, 0.0, 0.0]), np.eye(6)[0], np.eye(6)[1])
    kw = dict(winding=frame, record=True)
    batch = integrate_batch(_drift, starts, 4.0, _DRIFT_EVENTS, **kw)
    assert list(batch.event) == [0, 0, 1, 0, 1, -1]
    assert batch.status[-1] == odeint.TIMEOUT
    assert len(set(batch.steps)) == len(vel)     # each row ends in its own round
    assert batch.t[0] == pytest.approx((-0.8 + np.sqrt(0.84)) / 0.1, abs=1e-12)
    assert batch.t[3] == pytest.approx(2.0, abs=1e-12)
    assert batch.t[2] == pytest.approx(ends[4], abs=1e-3)
    assert batch.t[4] == pytest.approx(ends[5], abs=1e-3)
    assert np.all(batch.winding[:5] > 0.0)
    for k in range(len(vel)):
        one = integrate_batch(_drift, starts[k:k + 1], 4.0, _DRIFT_EVENTS, **kw)
        assert one.status[0] == batch.status[k]
        assert one.event[0] == batch.event[k]
        assert one.steps[0] == batch.steps[k]
        assert abs(one.t[0] - batch.t[k]) < 1e-13
        assert np.abs(one.u[0] - batch.u[k]).max() < 1e-13
        assert abs(one.winding[0] - batch.winding[k]) < 1e-13
        # the start, one sample per step, and last the event (or t_max) sample
        samples = batch.samples[k]
        assert len(samples) == len(one.samples[0]) == batch.steps[k] + 1 + (k < 5)
        assert samples[-1][0] == batch.t[k]
        assert np.array_equal(samples[-1][1], batch.u[k])
        assert abs(one.samples[0][-1][0] - samples[-1][0]) < 1e-13


def test_one_illinois_pass_per_event(monkeypatch):
    # 50 rows whose crossings of two events fall in many different rounds
    # are localized by one Illinois call per event
    calls = []
    illinois = odeint.illinois

    def counted(probe, f_lo, *rest):
        calls.append(len(f_lo))
        return illinois(probe, f_lo, *rest)

    monkeypatch.setattr(odeint, "illinois", counted)
    rng = np.random.default_rng(7)
    vel = np.column_stack([-1.0 / rng.uniform(0.5, 19.0, 50), rng.uniform(0.0, 0.1, 50),
                           -1.0 / rng.uniform(0.5, 19.0, 50)])
    events = [_DRIFT_EVENTS[0], EventSpec(lambda u: u[:, 2])]
    res = integrate_batch(_drift, _starts(vel), 20.0, events)
    assert np.all(res.status == odeint.EVENT)
    assert len(set(res.steps)) > 10
    assert len(calls) == 2 and sum(calls) >= res.t.size


def test_event_cap_is_half_the_predicted_crossing_or_excursion():
    # values at the fractions 0, 1/3, 1 of a step of quadratics in the
    # fraction x: zeros 0.5 and 0.7 past the end (cap max(0.5, 0.2) / 2),
    # 0.1 and 0.7 past it (max(0.1, 0.6) / 2), one behind and one 0.2 past
    # it (the excursion 1.0 / 2); a straight approach, no zero, zeros behind
    quadratics = [lambda x: (x - 1.5) * (x - 1.7), lambda x: (x - 1.1) * (x - 1.7),
                  lambda x: (x - 0.2) * (x - 1.2), lambda x: 6.0 - 3.0 * x,
                  lambda x: (x - 1.5) ** 2 + 0.01, lambda x: -x * (x - 0.5)]
    f0, f3, f1 = (np.array([q(x) for q in quadratics]) for x in (0.0, 1 / 3, 1.0))
    with np.errstate(all="ignore"):
        cap = odeint._event_cap(f0, f3, f1)
    assert cap[:3] == pytest.approx([0.25, 0.3, 0.5], rel=1e-12)
    assert np.all(cap[3:] == np.inf)


def test_wrap_is_the_remainder_of_an_angle_difference():
    # differences of two angles in [-pi, pi], the ends and the wrap points
    # included: the same bits as the remainder formula
    rng = np.random.default_rng(9)
    ends = np.array([np.pi, -np.pi, 0.0, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)])
    th = np.concatenate([rng.uniform(-np.pi, np.pi, 20000), np.repeat(ends, 5)])
    th0 = np.concatenate([rng.uniform(-np.pi, np.pi, 20000), np.tile(ends, 5)])
    a = np.append(th - th0, np.nan)
    want = (a + np.pi) % (2 * np.pi) - np.pi
    assert np.array_equal(odeint._wrap(a).view(np.int64), want.view(np.int64))
