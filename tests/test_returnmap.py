import numpy as np
import pytest

from slidim import returnmap
from slidim.cifs import TailModel
from slidim.errors import (BranchResolutionExceeded, LambdaDisagreement,
                           NoValidCutoff, SectionMiss, SlidimError)
from slidim.returnmap import (Branch, branch_width_lambda,
                              build_fold_segment, check_lambda_agreement,
                              enumerate_branches, first_return,
                              noise_floor_imax, select_u,
                              theta_x, verify_connection)


# --- connection certificate (shared pipeline run) ---------------------------------


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


# --- flight map and first return -------------------------------------------------------


def test_theta_x_lands_on_p_at_center(bench, bench_pipeline):
    hit = theta_x(bench.system, bench_pipeline.fold, 0.0)
    assert np.linalg.norm(hit - bench_pipeline.cert.p) < 1e-8


def test_theta_x_monotone_ordering(bench, bench_pipeline):
    fold = bench_pipeline.fold
    ws = np.linspace(-1, 1, 9)
    pts = np.array([theta_x(bench.system, fold, w) for w in ws])
    direction = pts[-1] - pts[0]
    direction /= np.linalg.norm(direction)
    coords = pts @ direction
    assert np.all(np.diff(coords) > 0)


def test_theta_x_outside_chart(bench, bench_pipeline):
    with pytest.raises(ValueError):
        theta_x(bench.system, bench_pipeline.fold, 1.5)


def test_first_return_on_branch(bench, bench_pipeline):
    branch = [b for b in bench_pipeline.branches if b.side == "R" and b.index == 1][0]
    w = 0.5 * (branch.interval[0] + branch.interval[1])
    val, turns = first_return(bench.system, bench_pipeline.fold, w,
                              center=bench_pipeline.cert.p)
    assert -1 <= val <= 1
    assert turns == pytest.approx(branch.raw_turns, abs=0.2)


def test_first_return_at_center_misses(bench, bench_pipeline):
    with pytest.raises(SectionMiss):
        first_return(bench.system, bench_pipeline.fold, 0.0,
                     center=bench_pipeline.cert.p)


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
    s = max(b.deriv_hi for b in bench_pipeline.branches)
    assert 0 < s < 1
    for b in bench_pipeline.branches:
        assert 0 < b.deriv_lo <= b.deriv_hi < 1
        assert b.surjective
        assert b.winding == b.index - 1
        assert np.all(b.samples_dpi >= 1 / s)
        assert np.all(b.samples_dpi > 1)


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


def test_inverse_series_derivative_inverts_sampled_slope(bench_pipeline):
    # |psi'(pi(w))| * |pi'(w)| = 1 at every measured sample of the branch
    for psi, b in _maps_and_branches(bench_pipeline):
        product = psi.deriv(b.samples_pi) * b.samples_dpi
        assert np.all(np.abs(product - 1) <= 1e-5), psi.tag


# --- index cutoff arithmetic ----------------------------------------------------------------


def _dummy_branches(lam, a_hat, i_max, surjective=True):
    out = []
    pos = 0.4
    for i in range(1, i_max + 1):
        c = 1.0 / (a_hat * lam ** (i - 1))
        c = min(c, 0.94)
        width = 0.05 * lam ** -(i - 1)
        out.append(Branch("R", i, i - 1, (pos, pos + width), 0.8 * c, c,
                          surjective, float(i), np.zeros(1), np.zeros(1),
                          np.ones(1)))
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


def test_select_u_skips_nonsurjective():
    lam = 23.0
    branches = _dummy_branches(lam, 30.0, 3)
    branches[0] = Branch("R", 1, 0, branches[0].interval, branches[0].deriv_lo,
                         branches[0].deriv_hi, False, 1.0, np.zeros(1),
                         np.zeros(1), np.ones(1))
    i_min, _ = select_u(branches, lam, a_hat=30.0)
    assert i_min == 2


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
