import numpy as np
import pytest

from slidim import odeint
from slidim.odeint import EventSpec, integrate_batch


def descent(u):
    return np.broadcast_to(np.array([0.0, 0.0, -1.0]), u.shape)


def harmonic(u):
    return np.stack([u[:, 1], -u[:, 0], np.zeros(u.shape[0])], axis=1)


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
    def f(u):
        return np.stack([u[:, 1], -np.ones(u.shape[0]), np.zeros(u.shape[0])], axis=1)

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
    # rows evolve independently; only BLAS reduction order may differ by
    # batch shape, so agreement is to the ulp level
    ev = EventSpec(lambda u: u[:, 2])
    starts = np.array([[0.0, 0.0, 1.0], [0.2, -0.1, 0.5], [1.0, 2.0, 2.5]])
    batch = integrate_batch(descent, starts, 10.0, [ev])
    for k, u0 in enumerate(starts):
        one = integrate_batch(descent, u0[None, :], 10.0, [ev])
        assert one.steps[0] == batch.steps[k]
        assert abs(one.t[0] - batch.t[k]) < 1e-13
        assert np.abs(one.u[0] - batch.u[k]).max() < 1e-13


def test_same_shape_runs_are_bit_identical():
    ev = EventSpec(lambda u: u[:, 2])
    starts = np.array([[0.0, 0.0, 1.0], [0.2, -0.1, 0.5]])
    a = integrate_batch(descent, starts, 10.0, [ev])
    b = integrate_batch(descent, starts, 10.0, [ev])
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.u, b.u)


def test_row_args_carry_per_trajectory_constants():
    def f(u, args):
        out = np.zeros_like(u)
        out[:, 2] = -args[:, 0]
        return out

    ev = EventSpec(lambda u: u[:, 2])
    rates = np.array([[1.0], [2.0], [4.0]])
    res = integrate_batch(f, np.tile([0.0, 0.0, 1.0], (3, 1)), 10.0, [ev],
                          row_args=rates)
    assert np.allclose(res.t, [1.0, 0.5, 0.25], atol=1e-10)


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
    # one at the end of the crossing step is a localization probe
    values = []

    def x_event(u):
        values.append(u[0, 0])
        return u[:, 0]

    res = integrate_batch(harmonic, np.array([[1.0, 0.0, 0.0]]), 10.0,
                          [EventSpec(x_event)])
    assert res.status[0] == odeint.EVENT
    assert abs(res.u[0, 0]) <= 1e-12
    assert res.t[0] == pytest.approx(np.pi / 2, abs=1e-11)
    crossing = next(i for i, v in enumerate(values) if v < 0)
    assert len(values) - crossing - 1 <= 10


def test_row_args_follow_rows_still_refining():
    # x' = a0, y' = x, z' = -a1 - a2 x - a3 y from (0, 0, 1): z is a
    # polynomial in t, so z = 0 has a closed-form time per row.  The first
    # three rows cross in the same step; the linear one converges on the
    # first probe, the others need more, so later probes carry a subset.
    def f(u, a):
        out = np.empty_like(u)
        out[:, 0] = a[:, 0]
        out[:, 1] = u[:, 0]
        out[:, 2] = -a[:, 1] - a[:, 2] * u[:, 0] - a[:, 3] * u[:, 1]
        return out

    args = np.array([[0.0, 1.0, 0.0, 0.0],     # z = 1 - t
                     [1.0, 0.0, 2.0, 0.0],     # z = 1 - t^2
                     [1.0, 0.0, 0.0, 8.0],     # z = 1 - 4 t^3 / 3
                     [1.0, 0.1, 1.5, 0.0]])    # z = 1 - 0.1 t - 0.75 t^2
    t_exact = [1.0, 1.0, 0.75 ** (1 / 3), (-0.1 + np.sqrt(3.01)) / 1.5]
    sizes = []

    def z_event(u):
        sizes.append(u.shape[0])
        return u[:, 2]

    res = integrate_batch(f, np.tile([0.0, 0.0, 1.0], (4, 1)), 10.0,
                          [EventSpec(z_event)], row_args=args)
    assert np.all(res.status == odeint.EVENT)
    assert np.allclose(res.t, t_exact, rtol=0, atol=1e-12)
    assert np.all(np.abs(res.u[:, 2]) <= 1e-12)
    first_probe = sizes.index(3)
    assert sizes[first_probe + 1] == 2


@pytest.mark.parametrize("ev_hi, value, first, frac", [
    (1.0, 1.0, [0.5, 0.75, 0.875], 1.0),             # flat: lower end climbs
    (np.nan, np.nan, [0.5, 0.25, 0.125], 2.0 ** -54),  # NaN: upper end halves
])
def test_refine_degenerate_bracket_bisects_and_terminates(ev_hi, value, first, frac):
    # x' = 1 from x = 0 with h = 1, so a probe's x is its fraction
    def f(u):
        return np.broadcast_to(np.array([1.0, 0.0, 0.0]), u.shape)

    seen = []

    def ev(u):
        seen.append(u[0, 0])
        return np.full(u.shape[0], value)

    got, u_land = odeint._refine(
        f, np.zeros((1, 3)), np.ones(1), ev, np.ones(1), np.full(1, ev_hi),
        np.array([[1.0, 0.0, 0.0]]), 1e-12, None)
    # midpoints only, until the bracket is narrower than 1e-16
    assert seen[:3] == pytest.approx(first, rel=1e-14)
    assert len(seen) < 80
    assert got[0] == frac
    assert u_land[0, 0] == pytest.approx(frac, rel=1e-14)
