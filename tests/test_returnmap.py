import numpy as np
import pytest

from slidim import bench as bench_module
from slidim import odeint, returnmap
from slidim.cifs import TailModel
from slidim.config import Tolerances
from slidim.errors import (BackwardDivergence, BranchResolutionExceeded,
                           CurveEscapesDomain, FoldRegularityLost,
                           LambdaDisagreement, NoHit, NotAFocus, NoValidCutoff,
                           SlidimError)
from slidim.filippov import Region, classify_region, fly, make_system, slide
from slidim.returnmap import (Branch, branch_width_lambda,
                              build_fold_segment, check_lambda_agreement,
                              enumerate_branches, first_return_batch,
                              noise_floor_imax, select_u, verify_connection)


# --- connection certificate (shared pipeline run) ---------------------------------


def test_bench_shooting_returns_the_root_of_the_landing_map(bench):
    # the landing is insensitive to one direction in (u1, u2), so a point
    # merely within the 1e-10 target can sit ~1e-9 off the root, where the
    # integrator's rounding puts it; the shooting runs on to the landing's
    # rounding floor, and one more Newton step from its answer moves
    # (u1, u2) by that floor over the smaller singular value, ~1e-12
    v = np.array([bench.u1, bench.u2])
    d = 1e-6
    probes = np.array([v, v + [d, 0], v - [d, 0], v + [0, d], v - [0, d]])
    field = bench_module._shooting_field(bench.alpha, bench.beta)
    land, ok, _ = bench_module._landings(field, probes, bench.system.tol)
    assert ok.all()
    jac = np.column_stack([(land[1] - land[2]) / (2 * d), (land[3] - land[4]) / (2 * d)])
    step = np.linalg.solve(jac, -land[0])
    assert np.hypot(*land[0]) < 1e-14
    assert np.linalg.norm(step) < 2e-11


def test_certificate_residual_and_rate(bench, bench_pipeline):
    cert = bench_pipeline.cert
    assert cert.residual < 1e-9
    exact = np.exp(2 * np.pi * bench.alpha / bench.beta)
    assert cert.lambda_hat == pytest.approx(exact, rel=1e-9)
    assert cert.lambda_decay == pytest.approx(exact, rel=1e-7)
    assert cert.lambda_hat > 1
    assert cert.t_q > 0


def test_certificate_backward_decay_strictly_decreasing(bench_pipeline):
    decay = bench_pipeline.cert.backward_decay
    assert len(decay) >= 4
    assert np.all(np.diff(decay) < 0)


def test_lambda_cross_validation(bench_pipeline):
    vals = list(bench_pipeline.lambda_estimates.values())
    assert max(vals) / min(vals) - 1 < 0.10
    with pytest.raises(LambdaDisagreement) as err:
        check_lambda_agreement([1.0, 1.2])
    assert isinstance(err.value, SlidimError)


def test_connection_rejected_when_perturbed(bench):
    # moving a shooting parameter breaks the codimension-one connection
    from slidim.bench import BENCH_DOMAIN, BENCH_G, BENCH_X, BENCH_Y
    from slidim.errors import ConnectionResidualTooLarge
    from slidim.filippov import make_system
    broken = make_system(BENCH_X, BENCH_Y, BENCH_G, domain=BENCH_DOMAIN,
                         params={"al": bench.alpha, "be": bench.beta,
                                 "u1": bench.u1 + 0.1, "u2": bench.u2})
    with pytest.raises(ConnectionResidualTooLarge):
        verify_connection(broken, bench.p_seed, bench.q_seed)


# --- fold segment -------------------------------------------------------------------


def test_fold_segment_chart(bench_pipeline):
    fold = bench_pipeline.fold
    assert np.allclose(fold.point_at(0.0), fold.q, atol=1e-12)
    for w in (-1.0, -0.37, 0.2, 1.0):
        assert fold.coord_of(fold.point_at(w)) == pytest.approx(w, abs=1e-10)
    ends = fold.point_at(np.array([-1.0, 1.0]))
    assert np.linalg.norm(ends[0] - fold.q) == pytest.approx(fold.r, rel=1e-9)
    assert np.linalg.norm(ends[1] - fold.q) == pytest.approx(fold.r, rel=1e-9)


def _coord_of_all_steps(fold, p):
    """``FoldSegment.coord_of`` with all 40 projection steps, no early exit."""
    d2 = np.stack([np.einsum("ij,ij->i", p - node, p - node) for node in fold.nodes])
    s = np.asarray(fold.arcs)[np.argmin(d2, axis=0)]
    for _ in range(40):
        c, tvec = fold._spline(s)
        step = np.sum((p - c) * tvec, axis=-1) / np.sum(tvec * tvec, axis=-1)
        s = np.clip(s + step, -fold.r, fold.r)
    c, tvec = fold._spline(s)
    overshoot = np.sum((p - c) * tvec / np.linalg.norm(tvec, axis=-1, keepdims=True), axis=-1)
    return (s + overshoot) / fold.r


def test_fold_coord_stops_once_no_point_moves(bench_pipeline, monkeypatch):
    # points on the segment and beyond it along the end tangents, as the
    # sliding orbits' exits are: the rows clipped at -+r never take a step
    # below 1e-15, so only the no-move exit ends the projection early, with
    # the same coordinates as all 40 steps
    fold = bench_pipeline.fold
    w = np.random.default_rng(11).uniform(-3.0, 3.0, 400)
    ends = np.clip(w, -1, 1)
    tangent = fold._spline(ends * fold.r)[1]
    pts = (fold.point_at(ends) + ((w - ends) * fold.r)[:, None]
           * tangent / np.linalg.norm(tangent, axis=-1, keepdims=True))
    full = _coord_of_all_steps(fold, pts)
    calls = []
    spline = fold._spline
    monkeypatch.setattr(fold, "_spline", lambda s: calls.append(1) or spline(s))
    got = fold.coord_of(pts)
    assert len(calls) <= 5
    assert np.array_equal(got, full)
    assert np.sum(np.abs(got) > 1) > 100


def test_fold_chart_derivative_is_arclength_normalized(bench_pipeline):
    # |dh/ds| = 1/r exactly for the normalized arclength chart
    fold = bench_pipeline.fold
    h = 1e-6
    p0, p1 = fold.point_at(0.3), fold.point_at(0.3 + h)
    ds = np.linalg.norm(p1 - p0)
    assert ds / h == pytest.approx(fold.r, rel=1e-6)


def test_fold_nodes_are_visible_fold_regular(bench, bench_pipeline):
    from slidim.filippov import is_visible_fold_regular
    fold = bench_pipeline.fold
    for node in fold.nodes[:: len(fold.nodes) // 8]:
        assert is_visible_fold_regular(bench.system, node)


@pytest.mark.parametrize("r", [0.5, 0.25])
def test_points_of_a_curved_fold_stay_on_it(r):
    # the unit circle x^2 + y^2 = 1 of z = 0 is X's fold; a natural spline
    # through the nodes has zero curvature at its ends, where its own points
    # lie up to 6e-6 off the circle, so point_at corrects them onto the fold
    # in the spline's normal plane, where coord_of finds them again
    s = make_system("x, y, x^2 + y^2 - 1", "0, 0, 1", "z")
    fold = build_fold_segment(s, np.array([1.0, 0.0, 0.0]), r)
    w = np.linspace(-1.0, 1.0, 2001)
    pts = fold.point_at(w)
    assert np.abs(s.xg(pts)).max() < 1e-14 and np.abs(s.g(pts)).max() < 1e-14
    assert np.abs(fold.coord_of(pts) - w).max() < 1e-14


# --- typed errors of the certificate stage ------------------------------------------


def test_a_fold_curve_leaving_the_domain_is_refused():
    box = (np.full(3, -1.5), np.full(3, 1.5))
    s = make_system("1, 0, x - y^2 - 1", "0, 0, 1", "z", domain=box)
    with pytest.raises(CurveEscapesDomain):
        build_fold_segment(s, np.array([1.0, 0.0, 0.0]), 1.5)


def test_a_fold_curve_losing_its_visibility_is_refused():
    # X^2 g = y changes sign at y = 0, 0.3 from q along the fold x = 1
    s = make_system("y, 0, x - 1", "0, 0, 1", "z")
    with pytest.raises(FoldRegularityLost, match="arclength 0.3047"):
        build_fold_segment(s, np.array([1.0, 0.3, 0.0]), 0.5)


def test_a_connection_needs_a_focus():
    # the sliding field (x, 2 y) / (2 - x) has an unstable node at 0
    s = make_system("x, 2*y, x - 1", "0, 0, 1", "z")
    with pytest.raises(NotAFocus):
        verify_connection(s, np.zeros(3), np.array([1.0, 0.0, 0.0]))


def test_a_connection_needs_a_flight_back_to_the_manifold():
    # z' = z + x - 1 grows faster than the flight from q turns back
    s = make_system("0.1*x - y, x + 0.1*y, x - 1 + z", "0, 0, 1", "z")
    with pytest.raises(NoHit, match="no manifold return"):
        verify_connection(s, np.zeros(3), np.array([1.0, -2.0, 0.0]))


def test_a_connection_needs_a_backward_orbit_into_the_focus():
    # the sliding field's stable cycle r = 1/2 repels backward orbits from
    # outside it: the one from q leaves the domain within a half-turn; the
    # landing's distance from p is let pass to reach the decay check
    s = make_system("x*(0.25 - x^2 - y^2) - 3*y, y*(0.25 - x^2 - y^2) + 3*x, x - 1",
                    "0, 0, 1", "z", tol=Tolerances(connection=1e3))
    with pytest.raises(BackwardDivergence, match="too few half-turns"):
        verify_connection(s, np.zeros(3), np.array([1.0, -1.5, 0.0]))


# --- flight map and first return -------------------------------------------------------


THETA_WS = np.linspace(-1, 1, 9)


@pytest.fixture(scope="module")
def theta_x(bench, bench_pipeline):
    """Theta_X at THETA_WS: one batch of X-flights from the chart to M."""
    res = fly(bench.system, bench.system.X, bench_pipeline.fold.point_at(THETA_WS),
              returnmap.FLIGHT_T_MAX)
    assert np.all(res.status == odeint.EVENT)
    return res.u


def test_theta_x_lands_on_p_at_center(bench_pipeline, theta_x):
    assert THETA_WS[4] == 0.0
    assert np.linalg.norm(theta_x[4] - bench_pipeline.cert.p) < 1e-8


def test_theta_x_monotone_ordering(bench, theta_x):
    for hit in theta_x:
        region = classify_region(bench.system, hit)
        assert region is Region.SLIDING or region.is_tangency, region
    direction = theta_x[-1] - theta_x[0]
    direction /= np.linalg.norm(direction)
    coords = theta_x @ direction
    assert np.all(np.diff(coords) > 0)


def test_theta_x_outside_chart(bench_pipeline):
    with pytest.raises(ValueError):
        bench_pipeline.fold.point_at(1.5)


def test_first_return_on_branch(bench, bench_pipeline):
    branch = [b for b in bench_pipeline.branches if b.side == "R" and b.index == 1][0]
    w = 0.5 * (branch.interval[0] + branch.interval[1])
    coord, turns, ok = first_return_batch(bench.system, bench_pipeline.fold,
                                          np.array([w]), bench_pipeline.cert.p)
    assert ok[0]
    assert -1 <= coord[0] <= 1
    assert turns[0] == pytest.approx(branch.raw_turns, abs=0.2)


def test_first_return_at_center_misses(bench, bench_pipeline):
    _, _, ok = first_return_batch(bench.system, bench_pipeline.fold,
                                  np.array([0.0]), bench_pipeline.cert.p)
    assert not ok[0]


def test_first_return_needs_a_landing_above_the_noise_floor(bench, bench_pipeline):
    # flights from w = +-1e-11 and +-1e-12 land 2.8e-12 and 3.0e-13 from the
    # focus, below 10 tol.event = 1e-11, where the landing's rounding would
    # set the exit: no return.  w = 1e-9 lands 2.8e-10 from it and returns
    w = np.array([1e-9, 1e-11, -1e-11, 1e-12, -1e-12])
    coord, turns, ok = first_return_batch(bench.system, bench_pipeline.fold, w,
                                          bench_pipeline.cert.p)
    assert np.isfinite(coord[0]) and np.isfinite(turns[0])
    assert np.isnan(coord[1:]).all() and np.isnan(turns[1:]).all()
    assert not ok[1:].any()


def test_first_return_counts_the_fold_exits_event_zero(bench, bench_pipeline, monkeypatch):
    # the bench's Yg is the constant 1, so Xg = 0 is the only fold event:
    # every sliding orbit that ends at an event leaves through the fold, and
    # exactly those rows get an exit coordinate
    orbits = []

    def spy(*args, **kwargs):
        orbits.append(slide(*args, **kwargs))
        return orbits[-1]

    monkeypatch.setattr(returnmap, "slide", spy)
    coord, turns, _ = first_return_batch(bench.system, bench_pipeline.fold,
                                         np.linspace(-1.0, 1.0, 8), bench_pipeline.cert.p)
    (orbit,) = orbits
    ended = orbit.status == odeint.EVENT
    assert ended.sum() == 8 and np.array_equal(orbit.event[ended], np.zeros(8))
    assert np.isfinite(coord).all() and np.isfinite(turns).all()


# --- branch family -----------------------------------------------------------------------


def test_branches_disjoint_and_accumulating(bench_pipeline):
    branches = sorted(bench_pipeline.branches, key=lambda b: b.interval[0])
    for a, b in zip(branches, branches[1:]):
        assert a.interval[1] < b.interval[0]
    for side in ("L", "R"):
        seq = sorted((b for b in branches if b.side == side), key=lambda b: b.index)
        outer = [max(abs(b.interval[0]), abs(b.interval[1])) for b in seq]
        assert all(x > y for x, y in zip(outer, outer[1:]))


def test_branch_width_ratios_follow_lambda(bench_pipeline):
    lam = bench_pipeline.cert.lambda_hat
    for side in ("L", "R"):
        seq = sorted((b for b in bench_pipeline.branches if b.side == side),
                     key=lambda b: b.index)
        for a, b in zip(seq, seq[1:]):
            assert a.width / b.width == pytest.approx(lam, rel=0.05)
    assert branch_width_lambda(bench_pipeline.branches) == pytest.approx(lam, rel=0.05)


def test_branch_bounds_and_expansion(bench_pipeline):
    branches = bench_pipeline.branches
    s = max(b.deriv_hi for b in branches)
    assert 0 < s < 1
    for b in branches:
        assert 0 < b.deriv_lo <= b.deriv_hi < 1
        # surjective: the precise sweep reached both ends of the section
        assert b.psi.x.min() <= -1 + returnmap.END_MISS
        assert b.psi.x.max() >= 1 - returnmap.END_MISS
        # the windings are consecutive, c_J = index - 1 on top of each side's base
        base = min(a.raw_turns for a in branches if a.side == b.side)
        assert abs(b.raw_turns - base - (b.index - 1)) < 0.25
        dpi = 1 / b.psi.deriv(b.psi.x)
        assert np.all(dpi >= 1 / s)
        assert np.all(dpi > 1)


def test_each_ifs_map_is_its_branch_series(bench_pipeline):
    # one fit per branch: the IFS evaluates the very series the branch carries
    branches = {f"{b.side}{b.index}": b for b in bench_pipeline.branches}
    for m in bench_pipeline.ifs.maps:
        b = branches[m.tag]
        assert m.eval is b.psi
        assert m.deriv == b.psi.deriv
        assert m.image == b.interval


def test_inverse_maps_contract_and_compose(bench_pipeline):
    maps = {m.tag: m for m in bench_pipeline.ifs.maps}
    branches = {f"{b.side}{b.index}": b for b in bench_pipeline.branches}
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, 30)
    ys = rng.uniform(-1, 1, 30)
    for tag, m in maps.items():
        lhs = np.abs(np.asarray(m.eval(xs)) - np.asarray(m.eval(ys)))
        assert np.all(lhs <= branches[tag].deriv_hi * np.abs(xs - ys) + 1e-12)
    # composition over the word (L1, R1) lands inside L1
    l1, r1 = maps["L1"], maps["R1"]
    composed = np.asarray(l1.eval(np.asarray(r1.eval(xs))))
    lo, hi = branches["L1"].interval
    assert np.all((composed >= lo) & (composed <= hi))


def _maps_and_branches(res):
    branches = {f"{b.side}{b.index}": b for b in res.branches}
    return [(m.eval, branches[m.tag]) for m in res.ifs.maps]


def test_inverse_series_ends_on_branch_boundaries(bench_pipeline):
    for psi, b in _maps_and_branches(bench_pipeline):
        ends = np.sort(psi(np.array([-1.0, 1.0])))
        assert np.all(np.abs(ends - b.interval) <= 1e-9 * b.width), b.interval


def test_inverse_series_derivative_inverts_sampled_slope(bench, bench_pipeline):
    # |psi'(x)| * |pi'(psi(x))| = 1 on the interior Chebyshev grid w of every
    # branch (65 nodes, as for the derivative bounds), with |pi'| from central
    # differences of one precise batch at w -+ 2e-4 W
    res = bench_pipeline
    pairs = _maps_and_branches(res)
    local = np.cos(np.pi * np.arange(1, 66) / 66)
    grids = [0.5 * (b.interval[0] + b.interval[1]) + 0.5 * b.width * local for _, b in pairs]
    steps = [2e-4 * b.width for _, b in pairs]
    ws = np.concatenate([np.concatenate([w - d, w + d]) for w, d in zip(grids, steps)])
    t_slide_max = ((max(b.index for _, b in pairs) + returnmap.SPARE_TURNS)
                   * res.cert.flight_time_scale)
    ret, _, ok = first_return_batch(returnmap.precise(bench.system), res.fold,
                                    ws, res.cert.p, t_slide_max)
    assert ok.all()
    for (psi, b), w, d, (lo_v, hi_v) in zip(pairs, grids, steps,
                                            ret.reshape(len(pairs), 2, -1)):
        dpi = np.abs(hi_v - lo_v) / (2 * d)
        product = psi.deriv(psi.solve(w)) * dpi
        assert np.all(np.abs(product - 1) <= 1e-5), (b.side, b.index)


# --- index cutoff arithmetic ----------------------------------------------------------------


def _dummy_branches(lam, a_hat, i_max):
    out = []
    pos = 0.4
    for i in range(1, i_max + 1):
        c = 1.0 / (a_hat * lam ** (i - 1))
        c = min(c, 0.94)
        width = 0.05 * lam ** -(i - 1)
        out.append(Branch("R", i, (pos, pos + width), 0.8 * c, c, float(i), psi=None,
                          roundtrip=0.0))
        pos = pos - 2 * width
    return out


def test_select_u_tail_formula():
    lam = np.exp(2 * np.pi * 0.1)  # ~1.874
    branches = _dummy_branches(lam, 1.0, 12)
    i_min, a_hat = select_u(branches, lam, a_hat=1.0)
    want = next(i for i in range(1, 13)
                if 2 * lam ** -(i - 1) / (1 - 1 / lam) < 1)
    assert i_min == want
    assert TailModel(1.0, lam, i_min).pressure(1) < 1
    assert TailModel(1.0, lam, i_min - 1).pressure(1) >= 1


def test_select_u_immediate_when_a_large():
    lam = 1.874
    a_big = 2 * lam / (lam - 1) + 0.1
    branches = _dummy_branches(lam, a_big, 4)
    i_min, _ = select_u(branches, lam, a_hat=a_big)
    assert i_min == 1


def test_select_u_rejects_subunit_rate():
    with pytest.raises(NoValidCutoff):
        select_u(_dummy_branches(2.0, 1.0, 3), 0.9)


def test_noise_floor_guard(bench, bench_pipeline):
    cert = bench_pipeline.cert
    cap = noise_floor_imax(cert.lambda_hat, bench_pipeline.fold.r,
                           cert.residual, bench.system.tol.event)
    with pytest.raises(BranchResolutionExceeded):
        enumerate_branches(bench.system, bench_pipeline.fold, cert, cap + 5)


# --- chart invariance under radius halving ----------------------------------------------------


def test_dimension_behavior_under_radius_halving(bench, bench_pipeline):
    """Halving the section radius selects a smaller invariant set.

    The chart itself is only determined up to affine maps (normalized
    arclength), under which every dimension quantity is exactly invariant;
    a *different radius*, however, is not a rechart of the same set: orbits
    must now return through a narrower window, so the invariant set shrinks
    and its dimension root can only go down.  The focus rate, by contrast,
    is an honest chart-invariant and must agree across radii.
    """
    from slidim import cifs
    from slidim.pipeline import branch_ifs

    def mini(radius):
        cert = verify_connection(bench.system, bench.p_seed, bench.q_seed)
        fold = build_fold_segment(bench.system, cert.q, radius)
        branches = enumerate_branches(bench.system, fold, cert, 2, n_scan=4000)
        i_min, a_hat = select_u(branches, cert.lambda_hat)
        chosen = [b for b in branches if b.index >= i_min]
        maps = returnmap.branch_contractions(chosen)
        ifs = branch_ifs(chosen, maps, cert.lambda_hat, a_hat, 3)
        return cifs.pressure_root(ifs), branch_width_lambda(branches)

    t_full, lam_full = mini(0.25)
    t_half, lam_half = mini(0.125)
    assert 0 < t_half <= t_full + 1e-6 < 1  # set inclusion: dimension shrinks
    assert lam_half == pytest.approx(lam_full, rel=0.02)
    assert lam_half == pytest.approx(bench_pipeline.cert.lambda_hat, rel=0.05)
