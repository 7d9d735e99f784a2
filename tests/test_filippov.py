import numpy as np
import pytest

from slidim import odeint
from slidim.config import Tolerances
from slidim.errors import (DegenerateTangency, DenominatorVanishes, LeftSlidingRegion,
                           NoConvergence, NonUniqueForward, OffManifold, StepFailure)
from slidim.filippov import (Mode, Region, TerminalEvent, classify_region,
                             classify_tangency, filippov_trajectory,
                             find_pseudo_equilibrium, fly, fold_events,
                             lie_derivative, make_system, manifold_project, slide,
                             sliding_field)
from slidim.expressions import ZERO, SwitchingFunction, parse_field


def canonical(al=0.3, be=1.0):
    """Linear focus on the sliding plane with fold line x = 1."""
    return make_system("al*x - be*y, be*x + al*y, x - 1", "0, 0, 1", "z",
                       params={"al": al, "be": be})


def test_lie_derivative_trivials():
    s = make_system("0, 0, 1", "1, 2, 3", "z")
    assert lie_derivative(s.X, s.g, [4.0, 5.0, 6.0]) == 1.0
    s2 = make_system("1, 2, 3", "0, 0, 1", "x + y + z")
    assert lie_derivative(s2.X, s2.g, [0.3, 0.4, 0.5]) == 6.0


def test_folded_lie_derivatives_keep_the_row_shape():
    s = canonical()
    assert s.xg.tree == s.X.components[2].tree  # g = z: Xg is X's third component
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.0], [1.0, 0.5, 0.0]])
    xg, yg = s.xg(pts), s.yg(pts)
    assert xg.shape == yg.shape == (3,)
    assert np.array_equal(xg, [-1.0, 1.0, 0.0]) and np.array_equal(yg, [1.0, 1.0, 1.0])
    for ev in fold_events(s):
        assert ev.fn(pts).shape == (3,)
    assert np.array_equal(s.yyg(pts), np.zeros(3))


def test_fold_events_leave_out_a_constant_yg(bench):
    # Yg = 0 can never cross or land where Yg is a constant: Y = (0, 0, +-1)
    # on g = z, as on the bench; the fold Xg = 0 stays at index 0
    for s in (bench.system, canonical(), make_system("x, y, 1", "0, 0, -1", "z")):
        assert [ev.fn for ev in fold_events(s)] == [s.xg]
    s = make_system("al*x - be*y, be*x + al*y, x - 1", "0, 0, 1 + 0.5*y", "z",
                    params={"al": 0.3, "be": 1.0})
    assert [ev.fn for ev in fold_events(s)] == [s.xg, s.yg]
    # the orbit from (0.05, 0, 0) leaves through the fold x = 1 at y ~ -1.3,
    # where Yg = 1 + 0.5 y is still positive
    res = slide(s, [0.05, 0.0, 0.0], 1e4, fold_events(s))
    assert res.status[0] == odeint.EVENT and res.event[0] == 0
    assert res.u[0, 0] == pytest.approx(1.0, abs=1e-9)


def _newton_in_numpy(g, u, iterations):
    """The Newton step toward g = 0 written out in numpy, from the value
    and the gradient of the switching function."""
    for _ in range(iterations):
        val, grad = g.value_and_gradient(u)
        u = u - (val / np.sum(grad * grad, axis=-1))[..., None] * grad
    return u


@pytest.mark.parametrize("src", ["z", "z - 0.3*x^2 + 0.1*sin(y)", "x^2 + y^2 + z^2 - 1"])
def test_manifold_project_is_the_compiled_newton_step(src):
    g = SwitchingFunction(src)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (40, 3))
    # the integrator's layout: the transpose of a (3, N) component array
    for u in (pts, np.ascontiguousarray(pts.T).T):
        for iterations in (1, 2, 4):
            got = manifold_project(g, u, iterations)
            assert got.shape == (40, 3)
            assert all(got[:, j].flags.c_contiguous for j in range(3))
            assert np.array_equal(got, _newton_in_numpy(g, pts, iterations))
        assert np.array_equal(manifold_project(g, u), _newton_in_numpy(g, pts, 2))
    for p in pts[:5]:
        got = manifold_project(g, p)
        assert got.shape == (3,) and np.array_equal(got, _newton_in_numpy(g, p, 2))
        assert np.array_equal(manifold_project(g, p, 3), _newton_in_numpy(g, p, 3))


def test_lie_derivative_vanishes_at_fold():
    s = canonical()
    assert abs(lie_derivative(s.X, s.g, [1.0, 0.7, 0.0])) < 1e-12


def test_classify_region_cases():
    s = canonical()
    assert classify_region(s, [0.0, 0.0, 0.0]) == Region.SLIDING
    assert classify_region(s, [2.0, 0.0, 0.0]) == Region.CROSSING
    assert classify_region(s, [1.0, 0.2, 0.0]) == Region.TANGENCY_X
    with pytest.raises(OffManifold):
        classify_region(s, [0.0, 0.0, 0.5])


def test_classify_region_scale_invariant():
    plain = canonical()
    scaled = make_system("3*(al*x - be*y), 3*(be*x + al*y), 3*(x - 1)",
                         "0, 0, 5", "z", params={"al": 0.3, "be": 1.0})
    for pt in ([0.5, -0.2, 0.0], [1.7, 0.1, 0.0], [1.0, 0.4, 0.0]):
        assert classify_region(plain, pt) == classify_region(scaled, pt)


def test_escaping_region_with_downward_y():
    s = make_system("al*x - be*y, be*x + al*y, x - 1", "0, 0, -1", "z",
                    params={"al": 0.3, "be": 1.0})
    assert classify_region(s, [2.0, 0.0, 0.0]) == Region.ESCAPING
    assert classify_region(s, [0.0, 0.0, 0.0]) == Region.CROSSING


def test_sliding_field_closed_form():
    # g=z, Y=(0,0,1), X=(a,b,c) with c<0: sliding field (a,b,0)/(1-c)
    s = make_system("0.7, -0.4, -2", "0, 0, 1", "z")
    zt = sliding_field(s, np.array([0.0, 0.0, 0.0]))
    assert np.allclose(zt, np.array([0.7, -0.4, 0.0]) / 3.0, atol=1e-15)


def test_sliding_field_balanced_combination():
    # Xg = -Yg != 0 forces the midpoint combination (X + Y)/2
    s = make_system("2, 3, -1", "5, -1, 1", "z")
    zt = sliding_field(s, np.zeros(3))
    assert np.allclose(zt, [3.5, 1.0, 0.0], atol=1e-15)


def test_sliding_field_tangency_invariant():
    s = make_system("y + 0.2*x, -x + z, -(1 + x^2)", "sin(x), cos(y), 2 + z",
                    "z - 0.1*x^2 + 0.05*y")
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 2)
        z = 0.1 * x ** 2 - 0.05 * y
        u = np.array([x, y, z])
        if classify_region(s, u) not in (Region.SLIDING, Region.ESCAPING):
            continue
        zt = sliding_field(s, u)
        _, grad = s.g.value_and_gradient(u)
        rel = abs(np.dot(zt, grad)) / (np.linalg.norm(zt) * np.linalg.norm(grad))
        assert rel < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_slide_kernel_matches_lie_derivative_formula(sign, monkeypatch):
    s = make_system("y + 0.2*x, -x + z, -(1 + x^2)", "sin(x), cos(y), 2 + z",
                    "z - 0.1*x^2")
    rng = np.random.default_rng(4)
    x, y = rng.uniform(-1, 1, (2, 40))
    pts = np.column_stack([x, y, 0.1 * x ** 2])
    xg, yg = lie_derivative(s.X, s.g, pts), lie_derivative(s.Y, s.g, pts)
    want = sign * (yg[:, None] * s.X(pts) - xg[:, None] * s.Y(pts)) / (yg - xg)[:, None]
    seen = []
    monkeypatch.setattr(odeint, "integrate_batch", lambda f, *a, **k: seen.append(f))
    slide(s, pts, 1.0, sign=sign)
    # slide integrates the compiled field its stepper holds
    assert isinstance(seen[0], odeint.Stepper)
    got = seen[0].field(pts)
    assert np.max(np.abs(got - want) / np.linalg.norm(want, axis=1)[:, None]) < 1e-14
    assert np.array_equal(sliding_field(s, pts), sign * got)


def test_bench_sliding_kernel_folds_its_z_component_to_zero(bench):
    # on g = z the sliding field's z-component is Yg Xg - Xg Yg: the same
    # subtree minus itself, folded to the constant 0 before compiling
    sliding = bench.system.sliding
    assert sliding.components[2].tree == ZERO and sliding.varying == (0, 1)
    pts = np.column_stack([np.linspace(-0.5, 0.9, 9), np.linspace(-1, 1, 9), np.zeros(9)])
    assert np.array_equal(sliding(pts)[:, 2], np.zeros(9))


def test_sliding_field_denominator_vanishes(bench):
    # Xg = (x - 1) and Yg = 1 on M, so Yg - Xg = 2 - x = 0 at x = 2
    with pytest.raises(DenominatorVanishes):
        sliding_field(bench.system, [2.0, 0.0, 0.0])


def test_classify_tangency_visible_and_invisible():
    vis = make_system("1, 0, x", "0, 0, 1", "z")
    lab = classify_tangency(vis, [0.0, 0.5, 0.0])
    assert lab.field == "X" and lab.visible and lab.regular and lab.boundary == "s"
    assert lab.second_lie == pytest.approx(1.0)
    inv = make_system("-1, 0, x", "0, 0, 1", "z")
    lab = classify_tangency(inv, [0.0, 0.5, 0.0])
    assert not lab.visible
    assert lab.second_lie == pytest.approx(-1.0)


def test_classify_tangency_of_a_fold_of_y():
    # Yg = x vanishes on the line x = 0 of M, and Y^2g = Y . grad(x) = Y_x:
    # the fold of Y is visible where Y_x < 0, and Xg = -+1 puts it on the
    # boundary of the sliding or the escaping region
    for x_src, y_src, visible, boundary in (("0, 0, -1", "-1, 0, x", True, "s"),
                                            ("0, 0, 1", "-1, 0, x", True, "e"),
                                            ("0, 0, -1", "1, 0, x", False, "s")):
        lab = classify_tangency(make_system(x_src, y_src, "z"), [0.0, 0.5, 0.0])
        assert (lab.field, lab.visible, lab.regular, lab.boundary) == \
            ("Y", visible, True, boundary)
        assert abs(lab.second_lie) == abs(lab.other_lie) == 1.0


def test_classify_tangency_degenerate():
    s = make_system("0, 1, x", "0, 0, 1", "z")  # X^2g = 0 on the fold
    with pytest.raises(DegenerateTangency):
        classify_tangency(s, [0.0, 0.0, 0.0])


def test_second_lie_matches_finite_differences():
    s = make_system("y, -x + 0.3*z, x - 1 + 0.2*(z*exp(-z))", "0, 0, 1",
                    "z - 0.1*x^2")
    u = np.array([0.4, -0.3, 0.1 * 0.16])
    val = float(s.xxg(u))
    h = 1e-6

    def xg(pt):
        return float(lie_derivative(s.X, s.g, pt))

    grad_fd = np.array([(xg(u + h * e) - xg(u - h * e)) / (2 * h)
                        for e in np.eye(3)])
    want = float(np.dot(s.X(u), grad_fd))
    assert val == pytest.approx(want, rel=1e-6)


def test_pseudo_equilibrium_focus():
    s = canonical(al=0.25, be=1.0)
    pe = find_pseudo_equilibrium(s, [0.05, -0.04, 0.0])
    assert np.linalg.norm(pe.point) < 1e-9
    # in-chart eigenvalues are (al +- i be)/2 for this system
    assert pe.eigenvalues[0].real == pytest.approx(0.125, abs=1e-5)
    assert abs(pe.eigenvalues[0].imag) == pytest.approx(0.5, abs=1e-5)
    assert pe.is_focus and pe.is_pseudo_saddle_focus


def test_pseudo_equilibrium_node_rejected():
    s = make_system("x, 2*y, x - 1", "0, 0, 1", "z")
    pe = find_pseudo_equilibrium(s, [0.03, 0.02, 0.0])
    assert not pe.is_focus
    assert not pe.is_pseudo_saddle_focus


def test_pseudo_equilibrium_no_convergence():
    s = make_system("1, 1, x - 1", "0, 0, 1", "z")  # sliding field never vanishes
    with pytest.raises(NoConvergence):
        find_pseudo_equilibrium(s, [0.0, 0.0, 0.0])


def test_pseudo_equilibrium_center_not_hyperbolic():
    from slidim.errors import NotHyperbolic
    s = make_system("-y, x, x - 1", "0, 0, 1", "z")  # pure rotation on M
    with pytest.raises(NotHyperbolic):
        find_pseudo_equilibrium(s, [0.02, -0.01, 0.0])


def test_lie_derivative_nonfinite():
    from slidim.errors import NonFinite
    s = make_system("exp(x), 0, 1", "0, 0, 1", "z")
    with pytest.raises(NonFinite):
        lie_derivative(s.X, s.g, [1e4, 0.0, 0.0])


def test_flow_to_manifold_linear_descent():
    s = make_system("0, 0, 1", "0, 0, -1", "z")
    res = fly(s, s.Y, [0.0, 0.0, 1.0], 10.0)
    assert res.status[0] == odeint.EVENT
    assert res.t[0] == pytest.approx(1.0, abs=1e-11)
    assert np.linalg.norm(res.u[0]) < 1e-11


def test_flow_to_manifold_matches_matrix_exponential():
    # affine field u' = A u + b with closed-form flow as the oracle
    a_mat = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -0.5]])
    b = np.array([0.0, 0.0, -0.2])
    sys_ = make_system("y, -x, -0.5*z - 0.2", "0, 0, 1", "z")
    u0 = np.array([0.3, -0.2, 1.0])

    evals, vecs = np.linalg.eig(a_mat)
    shift = np.linalg.solve(a_mat, b)
    coef = np.linalg.solve(vecs, u0 + shift)

    def exact(t):
        return np.real(vecs @ (coef * np.exp(evals * t))) - shift

    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if exact(mid)[2] > 0:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)

    res = fly(sys_, sys_.X, u0, 10.0)
    assert res.status[0] == odeint.EVENT
    assert abs(res.t[0] - t_star) < 1e-9
    assert np.linalg.norm(res.u[0] - exact(t_star)) < 1e-9


def test_flow_from_visible_fold_departs():
    s = canonical()
    res = fly(s, s.X, [1.0, 0.0, 0.0], 10.0)
    assert res.status[0] == odeint.EVENT
    assert res.t[0] > 1e-4  # strictly away from the trivial root


def test_flow_to_manifold_no_hit():
    s = make_system("0, 0, 1", "0, 0, 1", "z")
    assert fly(s, s.X, [0.0, 0.0, 1.0], 5.0).status[0] == odeint.TIMEOUT
    # the system's box ends at z = 50
    assert fly(s, s.X, [0.0, 0.0, 1.0], 100.0).status[0] == odeint.DOMAIN_EXIT
    segs = filippov_trajectory(s, [0.0, 0.0, 1.0], 100.0)
    assert segs[-1].terminal_event == TerminalEvent.DOMAIN_EXIT


def test_flow_to_manifold_exhausted_steps_is_a_step_failure(monkeypatch):
    s = make_system("0, 0, 1", "0, 0, -1", "z")
    res = odeint.BatchResult(np.zeros((1, 3)))
    res.status[:] = odeint.STEPS_EXHAUSTED
    res.samples = [[(0.0, np.array([0.0, 0.0, 1.0]))]]
    monkeypatch.setattr(odeint, "integrate_batch", lambda *a, **k: res)
    with pytest.raises(StepFailure):
        filippov_trajectory(s, [0.0, 0.0, 1.0], 5.0)


def test_flow_sliding_backward_contracts():
    s = canonical()
    res = slide(s, [0.9, 0.0, 0.0], 20.0, sign=-1.0, center=[0.0, 0.0, 0.0],
                record=True)
    d = [np.linalg.norm(u) for _, u in res.samples[0]]
    assert d[-1] < 0.05 * d[0]
    assert max(abs(float(s.g(u))) for _, u in res.samples[0]) <= s.tol.manifold


def test_flow_sliding_reaches_fold():
    s = canonical()
    res = slide(s, [0.05, 0.0, 0.0], 1e4, fold_events(s))
    assert res.status[0] == odeint.EVENT
    assert res.u[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_slide_reports_the_first_fold_exit_of_the_bench_spiral(bench):
    # On M the bench's sliding orbits are the exact spirals rho(theta) =
    # rho0 exp((al/be)(theta - theta0)), al/be = 0.4, and they leave the
    # sliding region x < 1 through the fold x = 1.  Each start lies
    # Delta back along the spiral through the exit (1, y*): before that
    # exit rho cos(theta) < 1 (it rises toward the exit, and one turn
    # earlier rho is 12 times smaller), so the first crossing is at y*
    # after Delta / 2 pi turns.  Beyond the fold the spiral comes back
    # across x = 1 within 0.26 time units at y* = 0.25, 0.09 at 0.35 and
    # 0.049 at 0.372 (it touches x = 1 at y = 0.4), so a step that spans
    # the excursion sees no sign change at its ends.  Two input ranges:
    # y* in [0.2, 0.35] and, nearer the tangency, [0.35, 0.39].
    rng = np.random.default_rng(1)
    y_exit = np.concatenate([np.linspace(0.2, 0.35, 400), np.linspace(0.35, 0.39, 400)])
    delta = 2 * np.pi * rng.uniform(0.3, 2.0, y_exit.size)
    theta0 = np.arctan(y_exit) - delta
    rho0 = np.hypot(1.0, y_exit) * np.exp(-0.4 * delta)
    u0 = np.column_stack([rho0 * np.cos(theta0), rho0 * np.sin(theta0),
                          np.zeros(y_exit.size)])
    s = bench.system
    res = slide(s, u0, 200.0, fold_events(s), center=np.zeros(3))
    assert np.all((res.status == odeint.EVENT) & (res.event == 0))
    assert np.abs(res.u[:, 0] - 1.0).max() < 1e-9
    assert np.abs(res.u[:, 1] - y_exit).max() < 1e-8
    assert np.abs(res.winding - delta).max() < 1e-8


def test_flow_sliding_time_reversal():
    s = canonical()
    start = np.array([0.3, 0.1, 0.0])
    fwd = slide(s, start, 5.0)
    back = slide(s, fwd.u[0], 5.0, sign=-1.0)
    assert np.linalg.norm(back.u[0] - start) < 1e-8


def test_trajectory_flight_then_slide():
    s = canonical()
    segs = filippov_trajectory(s, [0.2, 0.1, 0.5], 3.0)
    assert [g.mode for g in segs] == [Mode.FLOW_X, Mode.FLOW_SLIDING]
    assert segs[0].terminal_event == TerminalEvent.MANIFOLD_HIT
    times = [t for g in segs for t, _ in g.samples]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_trajectory_crossing_concatenates():
    s = canonical()
    segs = filippov_trajectory(s, [1.5, 0.0, -0.2], 0.5)
    assert [g.mode for g in segs] == [Mode.FLOW_Y, Mode.FLOW_X]
    assert Mode.FLOW_SLIDING not in {g.mode for g in segs}


def test_trajectory_escaping_needs_policy():
    s = make_system("al*x - be*y, be*x + al*y, x - 1", "0, 0, -1", "z",
                    params={"al": 0.3, "be": 1.0})
    with pytest.raises(NonUniqueForward):
        filippov_trajectory(s, [2.0, 0.0, 0.0], 1.0)
    segs = filippov_trajectory(s, [2.0, 0.0, 0.0], 0.5,
                               escaping_policy=Mode.FLOW_X)
    assert segs[0].mode == Mode.FLOW_X


def test_trajectory_drifting_off_the_manifold_left_the_sliding_region():
    # on the parabola g = z - x^2 each sliding step's projection leaves g at
    # its rounding, 1e-16, above a manifold tolerance of 1e-18
    s = make_system("1, 0, -1", "0, 0, 1", "z - x^2", tol=Tolerances(manifold=1e-18))
    with pytest.raises(LeftSlidingRegion, match="manifold drift"):
        filippov_trajectory(s, [0.5, 0.0, 0.25], 1.0)


def test_trajectory_slide_exits_through_visible_fold():
    s = canonical()
    segs = filippov_trajectory(s, [0.3, 0.0, 0.0], 40.0)
    modes = [g.mode for g in segs]
    assert modes[0] == Mode.FLOW_SLIDING
    assert Mode.FLOW_X in modes[1:]
