import itertools

import numpy as np
import pytest

from slidim import cifs, pipeline
from slidim.errors import (ConditionViolated, DegenerateSystem, EquivalenceFailure,
                           InsufficientData, NonMonotone, NoRootInUnitInterval,
                           ParameterInfeasible, TailDiverges)

LN2_LN3 = np.log(2) / np.log(3)
LN3_LN4 = np.log(3) / np.log(4)


# --- Moran equations ------------------------------------------------------------


@pytest.mark.parametrize("k,c,want", [
    (2, 1 / 3, LN2_LN3),
    (3, 1 / 4, LN3_LN4),
    (5, 1 / 5, 1.0),
])
def test_moran_equal_ratio_closed_forms(k, c, want):
    s, t = cifs.moran_bounds(cifs.equal_ratio_system(k, c))
    assert s == pytest.approx(want, abs=1e-10)
    assert t == pytest.approx(want, abs=1e-10)


def test_moran_single_map_is_zero():
    sys_ = cifs.IfsSystem([cifs._affine_map(-0.5, 0.0, "only")])
    assert cifs.moran_bounds(sys_) == (0.0, 0.0)


def test_moran_residual_tightness():
    sys_ = cifs.make_geometric_model(0.5, 3.0, 1, 6)
    s, t = cifs.moran_bounds(sys_)
    bs = np.array([m.b for m in sys_.maps])
    assert abs(np.sum(bs ** s) - 1) < 1e-12
    assert abs(np.sum(np.array([m.c for m in sys_.maps]) ** t) - 1) < 1e-12


def test_zero_lower_bound_rejected():
    with pytest.raises(DegenerateSystem):
        cifs.ContractionMap(lambda x: 0.5 * x, (-0.5, 0.5), 0.0, 0.5, tag="bad")


def _two_map_witness(sys_):
    """log 2 / log(1/b), b the smaller lower bound of the two strongest maps:
    sum b_i^s >= 2 b^s = 1 there, so the Moran lower bound is at least this."""
    b = sorted(m.b for m in sys_.maps)[-2]
    return np.log(2.0) / np.log(1.0 / b)


def test_dimension_positive_witness():
    for sys_ in (cifs.middle_thirds(), cifs.make_geometric_model(0.5, 3.0, 1, 6)):
        lower = cifs.dimension_report(sys_).moran_lower
        assert 0 < _two_map_witness(sys_) <= lower + 1e-12
    assert _two_map_witness(cifs.middle_thirds()) == pytest.approx(LN2_LN3, abs=1e-12)
    assert cifs.dimension_report(cifs.middle_thirds()).moran_lower == \
        pytest.approx(LN2_LN3, abs=1e-12)


def test_dimension_positive_capped_near_one():
    # claimed lower bounds near 1 push the two-map witness above the
    # ambient dimension; the report caps both Moran bounds at 1
    def mk(lo, hi, tag):
        base = cifs._affine_map(lo, hi, tag)
        return cifs.ContractionMap(base.eval, base.image, 0.9, 0.95,
                                   deriv=base.deriv, tag=tag)
    sys_ = cifs.IfsSystem([mk(-1.0, -0.1, "a"), mk(0.1, 1.0, "b")])
    rep = cifs.dimension_report(sys_)
    assert _two_map_witness(sys_) > 1
    assert rep.capped and rep.moran_lower == 1.0 and rep.moran_upper == 1.0


def test_dimension_sup_monotone_convergence():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 12)
    sched = cifs.dimension_sup(sys_)
    lowers = [s for _, s in sched]
    assert all(b >= a - 1e-13 for a, b in zip(lowers, lowers[1:]))
    assert abs(lowers[-1] - cifs.pressure_root(sys_)) < 1e-4


def test_dimension_sup_single_entry():
    # one map: one prefix, whose Moran root is 0
    sys_ = cifs.IfsSystem([cifs._affine_map(-0.5, 0.0, "only")])
    assert cifs.dimension_sup(sys_) == [(1, 0.0)]


def test_dimension_sup_refuses_a_shrinking_prefix(monkeypatch):
    # a longer prefix cannot lower the root, so only solver error can: a
    # solver that returns a smaller root for the third prefix is caught there
    roots = iter([0.1, 0.5, 0.4, 0.6])
    monkeypatch.setattr(cifs, "_sum_root", lambda ratios: next(roots))
    with pytest.raises(NonMonotone, match="prefix of 3 maps"):
        cifs.dimension_sup(cifs.make_geometric_model(1, 4, 1, 2))


def test_dimension_report_refuses_a_bracket_out_of_order():
    with pytest.raises(NonMonotone, match="Moran bracket out of order"):
        cifs.DimensionReport(0.4, 0.3)


# --- pressure -------------------------------------------------------------------


def test_pressure_root_two_map_equals_moran():
    sys_ = cifs.equal_ratio_system(2, 1 / 3)
    assert cifs.pressure_root(sys_) == pytest.approx(LN2_LN3, abs=1e-10)


def test_pressure_root_geometric_closed_form():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 10)
    assert cifs.pressure_root(sys_) == pytest.approx(LN3_LN4, abs=1e-10)


def test_pressure_strictly_decreasing_and_unbounded():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 6)
    ts = np.linspace(0.05, 1.0, 12)
    vals = [cifs.pressure(sys_, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert cifs.pressure(sys_, 1e-4) > 1e3  # tail makes P blow up at 0+


def test_pressure_no_root_when_p1_too_big():
    sys_ = cifs.equal_ratio_system(5, 0.2)  # P(1) = 1 exactly
    with pytest.raises(NoRootInUnitInterval):
        cifs.pressure_root(sys_)


def test_tail_diverges():
    tail = cifs.TailModel(a=1.0, lam=0.9, i_start=2)
    with pytest.raises(TailDiverges):
        tail.pressure(0.5)


def test_geometric_tail_matches_series():
    tail = cifs.TailModel(a=4.0, lam=4.0, i_start=5)  # maps 4^-i for i >= 5
    t = 0.63
    direct = 2 * sum((4.0 ** -i) ** t for i in range(5, 400))
    assert tail.pressure(t) == pytest.approx(direct, rel=1e-12)


# --- covers, scaffolds, words -----------------------------------------------------


def test_middle_thirds_cover_arithmetic():
    mt = cifs.middle_thirds()
    tower = cifs.cover_tower(mt, 8)
    c1, c2 = tower[:2]
    assert np.allclose(c1.intervals, [[-1, -1 / 3], [1 / 3, 1]])
    widths = c2.intervals[:, 1] - c2.intervals[:, 0]
    assert len(widths) == 4 and np.allclose(widths, 2 / 9)
    assert [cov.level for cov in tower] == list(range(1, 9))
    for k, cov in enumerate(tower, start=1):
        assert cov.total_length == pytest.approx((2 / 3) ** k * 2, rel=1e-12)


def test_cover_nesting():
    sys_ = cifs.make_geometric_model(0.5, 3.0, 1, 3)
    parent, child = cifs.cover_tower(sys_, 4)[2:]
    mids = 0.5 * (child.intervals[:, 0] + child.intervals[:, 1])
    idx = np.searchsorted(parent.intervals[:, 0], mids, side="right") - 1
    assert np.all(mids <= parent.intervals[idx, 1])
    assert np.all(mids >= parent.intervals[idx, 0])


def test_cover_self_similarity_recursion():
    mt = cifs.middle_thirds()
    lvl2, lvl3 = cifs.cover_tower(mt, 3)[1:]
    rebuilt = np.concatenate([cifs._map_interval_batch(m, lvl2.intervals)
                              for m in mt.maps])
    rebuilt = rebuilt[np.argsort(rebuilt[:, 0])]
    assert np.abs(rebuilt - lvl3.intervals).max() < 1e-14


def test_word_route_matches_recursion():
    geo = cifs.make_geometric_model(0.5, 3.0, 1, 2)
    # passed in reverse image order; the R maps are decreasing
    reversed_geo = cifs.IfsSystem(geo.maps[::-1], geo.tail)
    assert [m.tag for m in reversed_geo.maps] == [m.tag for m in geo.maps]
    lows = [m.image[0] for m in reversed_geo.maps]
    assert lows == sorted(lows)
    assert any(m.eval(-1.0) > m.eval(1.0) for m in reversed_geo.maps)
    for sys_ in (cifs.middle_thirds(), geo, reversed_geo):
        for k, cover in enumerate(cifs.cover_tower(sys_, 4), start=1):
            a = cifs.word_intervals(sys_, k)
            assert np.abs(a - cover.intervals).max() < 1e-14


def test_cover_budget_overflow_flag():
    sys_ = cifs.equal_ratio_system(10, 0.05)
    with pytest.raises(InsufficientData, match="stopped at level 4 of 9"):
        cifs.cover_tower(sys_, 9, budget=10 ** 4)


def test_scaffold_past_the_budget_names_its_depth():
    # word length 7 of eight maps would hold 8^7 points, above the budget
    # the cover tower has too
    sys_ = cifs.equal_ratio_system(8, 0.05)
    with pytest.raises(InsufficientData, match="stopped at word length 6 of 7"):
        cifs.closure_scaffold(sys_, 0.0, 7)
    assert cifs.closure_scaffold(sys_, 0.0, 6).points.size == sum(8 ** j for j in range(7))


def test_cover_set_rejects_unsorted_lower_ends():
    with pytest.raises(InsufficientData, match="^cover level 2: lower ends not in order$"):
        cifs.CoverSet([[0.2, 0.3], [-0.5, -0.4]], 2)


def test_cover_set_refuses_an_overlap_and_keeps_its_min_gap():
    with pytest.raises(InsufficientData, match="^cover level 7: intervals overlap by 1.000e-01$"):
        cifs.CoverSet([[-0.5, 0.1], [0.0, 0.4]], 7)
    assert cifs.CoverSet([[-0.5, -0.4], [0.2, 0.3]], 2).min_gap == pytest.approx(0.6)
    assert cifs.CoverSet([[-0.5, -0.4]], 1).min_gap == np.inf


def test_fixture_pipeline_builds_each_level_once(monkeypatch):
    calls = []
    batch = cifs._map_interval_batch

    def counted(m, intervals):
        calls.append(len(intervals))
        return batch(m, intervals)

    monkeypatch.setattr(cifs, "_map_interval_batch", counted)
    ifs = cifs.make_geometric_model(1.0, 4.0, 2, 5)
    res = pipeline.run_fixture_pipeline(ifs, cover_depth=6, box_depth=6)
    assert len(ifs.maps) == 8 and len(res.covers) == 6
    # levels 2..6, one batch per map and level
    assert len(calls) == 5 * 8
    assert sum(calls) == 8 * sum(len(c.intervals) for c in res.covers[:-1])


def test_scaffold_levels():
    mt = cifs.middle_thirds()
    s0 = cifs.closure_scaffold(mt, 0.0, 0)
    assert np.array_equal(s0.points, [0.0])
    s1 = cifs.closure_scaffold(mt, 0.0, 1)
    assert np.allclose(sorted(s1.points), [-2 / 3, 0.0, 2 / 3])
    assert sorted(s1.word_lengths.tolist()) == [0, 1, 1]


def test_scaffold_points_inside_ancestor_covers():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 2)
    scaffold = cifs.closure_scaffold(sys_, 0.0, 5)
    covers = cifs.cover_tower(sys_, 5)
    for pt, wl in zip(scaffold.points, scaffold.word_lengths):
        for cover in covers[:wl]:
            assert cover.contains(np.array([pt]))[0]


def test_scaffold_word_position_names_its_cover_interval():
    # the mirrored right-side maps are decreasing, so their blocks are reversed
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 2)
    assert {m.tag[0] for m in sys_.maps if m.decreasing} == {"R"}
    b, depth = len(sys_.maps), 5
    covers = cifs.cover_tower(sys_, depth)
    scaffold = cifs.closure_scaffold(sys_, 0.0, depth)
    assert scaffold.points[0] == 0.0 and scaffold.word_lengths[0] == 0
    for length in range(1, depth + 1):
        block = scaffold.points[scaffold.word_lengths == length]
        assert block.size == b ** length
        for i, x in enumerate(block):
            for j in range(1, length + 1):
                lo, hi = covers[j - 1].intervals[i // b ** (length - j)]
                assert lo <= x <= hi, (length, i, j)


# --- conditions ----------------------------------------------------------------------


def test_conditions_pass_on_middle_thirds():
    assert cifs.check_conditions(cifs.middle_thirds()) is None


def test_contraction_map_checks_c1_and_c2():
    ev = lambda x: 0.5 * np.asarray(x)
    with pytest.raises(ConditionViolated, match="outside the ambient interval") as err:
        cifs.ContractionMap(ev, (-0.5, 1.5), 0.5, 0.5, tag="wide")
    assert (err.value.condition, err.value.witness) == ("C1", "wide")
    with pytest.raises(ConditionViolated, match="not a contraction") as err:
        cifs.ContractionMap(ev, (-0.5, 0.5), 0.5, 1.0, tag="flat")
    assert (err.value.condition, err.value.witness) == ("C2", "flat")


def test_conditions_overlap_violates_c3():
    maps = [cifs._affine_map(-1.0, 0.1, "a"), cifs._affine_map(0.0, 1.0, "b")]
    with pytest.raises(ConditionViolated) as err:
        cifs.IfsSystem(maps)
    assert err.value.condition == "C3"
    assert err.value.witness == ("a", "b")


def test_conditions_missing_derivative_violates_c4():
    m = cifs._affine_map(-0.5, 0.0, "a")
    bare = cifs.ContractionMap(m.eval, m.image, m.b, m.c, deriv=None, tag="a")
    with pytest.raises(ConditionViolated) as err:
        cifs.check_conditions(cifs.IfsSystem([bare]))
    assert err.value.condition == "C4"


# --- forward/backward equivalence -------------------------------------------------------


def test_fixture_equivalence_exact():
    mt = cifs.middle_thirds()
    pi = cifs.piecewise_expanding(mt)
    rep = cifs.verify_forward_backward(pi, mt, 3, n_points=4000)
    assert rep.agreement == 1.0
    assert rep.n_used > 3000


def test_word_image_point_survives_k_steps():
    mt = cifs.middle_thirds()
    pi = cifs.piecewise_expanding(mt)
    x = 0.1234
    for m in (mt.maps[0], mt.maps[1], mt.maps[0]):
        x = float(m.eval(np.array([x]))[0])
    pt = np.array([x])
    for _ in range(3):
        assert cifs.cover_tower(mt, 1)[0].contains(pt)[0]
        pt, ok = pi(pt)
        assert ok.all()


def test_gap_point_fails_immediately():
    mt = cifs.middle_thirds()
    assert not cifs.cover_tower(mt, 1)[0].contains(np.array([0.0]))[0]


def test_piecewise_expanding_needs_exact_inverses():
    m = cifs._affine_map(-1.0, -1.0 / 3.0, "L")
    bare = cifs.ContractionMap(m.eval, m.image, m.b, m.c, deriv=m.deriv, tag="L")
    with pytest.raises(ValueError, match="'L' has no exact inverse"):
        cifs.piecewise_expanding(cifs.IfsSystem([bare, cifs.middle_thirds().maps[1]]))


def test_equivalence_on_a_tower_cut_short():
    # level 7 of ten maps would hold 10^7 intervals, above the budget
    sys_ = cifs.equal_ratio_system(10, 0.05)
    pi = cifs.piecewise_expanding(sys_)
    with pytest.raises(InsufficientData, match="stopped at level 6 of 7"):
        cifs.verify_forward_backward(pi, sys_, 6, n_points=2000)


def test_equivalence_failure_on_wrong_map():
    mt = cifs.middle_thirds()
    broken = lambda pts: (np.clip(pts * 0.5, -1, 1), np.ones(pts.shape, dtype=bool))
    with pytest.raises(EquivalenceFailure):
        cifs.verify_forward_backward(broken, mt, 3, n_points=2000)


# --- Cantor certificate -------------------------------------------------------------------


def test_cantor_middle_thirds_passes():
    mt = cifs.middle_thirds()
    covers = cifs.cover_tower(mt, 12)
    cert = cifs.cantor_certify(covers, cifs.closure_scaffold(mt, 0.0, 8))
    assert cert.passed and cert.depth == 12
    assert cert.clauses["i"]["max_ratio"] == pytest.approx(2 / 3, rel=1e-12)
    # middle-thirds gap between neighbors is one third of the parent width
    assert cert.clauses["iii"]["min_gap"] == pytest.approx(2 / 3 ** 12, rel=1e-9)
    assert all(clause["passed"] for clause in cert.clauses.values())


def test_cantor_single_map_fails_perfectness():
    solo = cifs.IfsSystem([cifs._affine_map(-0.9, -0.2, "m")])
    covers = cifs.cover_tower(solo, 4)
    cert = cifs.cantor_certify(covers, cifs.closure_scaffold(solo, -0.5, 3),
                               q_coord=-0.5)
    assert not cert.passed and not cert.clauses["ii"]["passed"]


def test_cantor_geometric_decay_factor():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 2)
    covers = cifs.cover_tower(sys_, 9)
    cert = cifs.cantor_certify(covers, cifs.closure_scaffold(sys_, 0.0, 8))
    assert cert.passed
    sum_c = sum(m.c for m in sys_.maps)
    assert cert.clauses["i"]["max_ratio"] == pytest.approx(sum_c, rel=1e-2)


def _moved(scaffold, i, x):
    pts = scaffold.points.copy()
    pts[i] = x
    return cifs.ScaffoldSet(pts, scaffold.word_lengths.copy())


def _prefix_intervals(sys_, scaffold, depth):
    """Per point of ``scaffold`` (in word order, q = 0), the intervals of its
    word's prefixes of length 1..min(L, depth), each composed along the
    prefix from the innermost map's image.  A point's word is found by value
    among the explicit compositions of q."""
    words = {}
    for length in range(int(scaffold.word_lengths.max()) + 1):
        for w in itertools.product(sys_.maps, repeat=length):
            x = 0.0
            for m in reversed(w):
                x = float(m.eval(x))
            words[x] = w
    assert len(words) == scaffold.points.size
    table = []
    for x in scaffold.points:
        w, ends = words[x], []
        for j in range(1, min(len(w), depth) + 1):
            lo, hi = w[j - 1].image
            for m in reversed(w[:j - 1]):
                lo, hi = sorted((float(m.eval(lo)), float(m.eval(hi))))
            ends.append((lo, hi))
        table.append((len(w), ends))
    return table


def _own_prefix_loop(table, scaffold):
    """Per-point reference for clause (iv): the k-th point of word length L
    in ``scaffold`` lies in every prefix interval of the k-th word of
    length L in ``table``."""
    for length in range(1, int(scaffold.word_lengths.max()) + 1):
        ref = [ends for wl, ends in table if wl == length]
        pts = scaffold.points[scaffold.word_lengths == length]
        for x, ends in zip(pts, ref, strict=True):
            if not all(lo <= x <= hi for lo, hi in ends):
                return False
    return True


def test_cantor_scaffold_point_in_a_gap_fails_clause_iv():
    mt = cifs.middle_thirds()
    covers = cifs.cover_tower(mt, 6)
    scaffold = cifs.closure_scaffold(mt, 0.0, 4)
    # -2/3 lies in level 1 and in the middle gap (-7/9, -5/9) of level 2
    for wl, passes in ((1, True), (2, False), (4, False)):
        i = int(np.flatnonzero(scaffold.word_lengths == wl)[0])
        cert = cifs.cantor_certify(covers, _moved(scaffold, i, -2 / 3))
        assert all(cert.clauses[c]["passed"] for c in ("i", "ii", "iii"))
        assert cert.clauses["iv"]["passed"] is passes
        assert cert.passed is passes


def test_cantor_clause_iv_matches_per_point_loop():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 2)
    covers = cifs.cover_tower(sys_, 5)
    scaffold = cifs.closure_scaffold(sys_, 0.0, 4)
    rng = np.random.default_rng(3)
    cases = [(scaffold, scaffold)] + [
        (scaffold, _moved(scaffold, i, scaffold.points[i] + rng.uniform(-0.02, 0.02)))
        for i in rng.choice(scaffold.points.size, 20, replace=False)]
    # word length 5 is checked against every level, the deepest included;
    # the last word's own level-5 interval is the last one, top[-1]
    deep = cifs.closure_scaffold(sys_, 0.0, 5)
    i = int(np.flatnonzero(deep.word_lengths == 5)[-1])
    top = covers[-1].intervals
    only_deepest = 0.5 * (top[-2, 1] + top[-1, 0])   # a gap in its own level-4 interval
    lo4, hi4 = covers[-2].intervals[-1]
    assert lo4 <= only_deepest <= hi4
    designed = {  # moved point -> whether clause (iv) still holds
        top[-1, 0]: True, top[-1, 1]: True, top[5, 0]: False, top[5, 1]: False,
        top[0, 0] - 1e-9: False, top[-1, 1] + 1e-9: False, only_deepest: False}
    cases += [(deep, deep)] + [(deep, _moved(deep, i, x)) for x in designed]
    # a permuted hand-built set: points leave their words' intervals
    perm = rng.permutation(deep.points.size)
    cases += [(deep, cifs.ScaffoldSet(deep.points[perm], deep.word_lengths[perm]))]
    tables = {id(sc): _prefix_intervals(sys_, sc, len(covers)) for sc in (scaffold, deep)}
    verdicts = []
    for ref, sc in cases:
        clause = cifs.cantor_certify(covers, sc).clauses["iv"]
        want = (_own_prefix_loop(tables[id(ref)], sc)
                and clause["marked_point_distance"] <= clause["resolution_bound"])
        assert clause["passed"] == want
        verdicts.append(want)
    assert verdicts[0] and not all(verdicts[1:21])
    assert verdicts[21:] == [True] + list(designed.values()) + [False]
    # words longer than the tower is deep are checked against its levels
    shallow = covers[:4]
    assert cifs.cantor_certify(shallow, deep).clauses["iv"]["passed"]
    moved = _moved(deep, i, shallow[-1].intervals[0, 0])
    assert not cifs.cantor_certify(shallow, moved).clauses["iv"]["passed"]


def test_cantor_refuses_a_cover_level_of_another_size():
    mt = cifs.middle_thirds()
    covers = cifs.cover_tower(mt, 4)
    scaffold = cifs.closure_scaffold(mt, 0.0, 4)
    covers[2] = cifs.CoverSet(covers[2].intervals[:-1], 3)
    with pytest.raises(ValueError, match=r"^cover level 3 holds 7 intervals, not 2\^3$"):
        cifs.cantor_certify(covers, scaffold)


def test_cantor_refuses_a_scaffold_block_of_another_size():
    mt = cifs.middle_thirds()
    covers = cifs.cover_tower(mt, 4)
    scaffold = cifs.closure_scaffold(mt, 0.0, 4)
    short = cifs.ScaffoldSet(scaffold.points[:-1], scaffold.word_lengths[:-1])
    with pytest.raises(ValueError, match=r"^scaffold word length 4 holds 15 points, not 2\^4$"):
        cifs.cantor_certify(covers, short)
    keep = scaffold.word_lengths != 2
    gap = cifs.ScaffoldSet(scaffold.points[keep], scaffold.word_lengths[keep])
    with pytest.raises(ValueError, match=r"^scaffold word length 2 holds 0 points, not 2\^2$"):
        cifs.cantor_certify(covers, gap)


def _parent_family(rng, n):
    """Sorted intervals whose neighbours are apart, touch, overlap by up to
    1e-12, or (one thin interval) nest in the one before."""
    lo, out = rng.uniform(-1.0, 0.0), []
    for _ in range(n):
        hi = lo + rng.choice([rng.uniform(1e-3, 0.1), 1e-9])
        out.append((lo, hi))
        kind = rng.integers(4)
        if kind == 3 and hi - lo > 1e-11:
            out.append((hi - 8e-13, hi - 3e-13))
        lo = hi + (rng.uniform(1e-6, 0.05), 0.0, -rng.uniform(0, 1e-12), 0.0)[kind]
    return np.array(out)


def test_children_counts_match_the_per_midpoint_rule():
    # each parent counts its own children only, by midpoint, ends included;
    # a midpoint in a neighbour's interval does not count
    rng = np.random.default_rng(19)
    for trial in range(300):
        parents = _parent_family(rng, int(rng.integers(1, 12)))
        assert np.array_equal(cifs.CoverSet(parents, 1).intervals, parents)
        per = int(rng.integers(1, 6))
        span = (parents[0, 0] - 0.05, parents[-1, 1] + 0.05)
        mids = []
        for lo, hi in parents:
            choices = [rng.uniform(*span), rng.uniform(lo, hi), lo, hi,
                       np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                       rng.choice(parents.ravel())]
            mids += [choices[k] for k in rng.integers(len(choices), size=per)]
        mids = np.array(mids)
        want = [sum(lo <= x <= hi for x in mids[i * per:(i + 1) * per])
                for i, (lo, hi) in enumerate(parents)]
        got = cifs._in_own_interval(parents, mids)
        assert got.shape == (len(parents), per)
        assert got.sum(axis=1).tolist() == want


def test_cantor_clause_iv_checks_each_level_once(monkeypatch):
    sys_ = cifs.make_geometric_model(1.0, 4.0, 2, 5)
    b, depth = len(sys_.maps), 6
    covers = cifs.cover_tower(sys_, depth)
    scaffold = cifs.closure_scaffold(sys_, 0.0, depth)
    calls = []
    in_own = cifs._in_own_interval

    def counted(intervals, points):
        calls.append((len(intervals), points.size))
        return in_own(intervals, points)

    monkeypatch.setattr(cifs, "_in_own_interval", counted)
    monkeypatch.setattr(cifs.CoverSet, "contains", None)   # no probe per point
    assert cifs.cantor_certify(covers, scaffold).passed
    # (ii): each parent level once, with its children's midpoints;
    # (iv): each level j once per word length L >= j, with the b^L points
    children = [(b ** j, b ** (j + 1)) for j in range(1, depth)]
    points = [(b ** j, b ** L) for j in range(1, depth + 1) for L in range(j, depth + 1)]
    assert sorted(calls) == sorted(children + points)


# --- fixtures ---------------------------------------------------------------------------------


def test_geometric_model_infeasible_parameters():
    with pytest.raises(ParameterInfeasible):
        cifs.make_geometric_model(1.0, 0.9, 1, 3)
    with pytest.raises(ParameterInfeasible):
        cifs.make_geometric_model(5.0, 4.0, 1, 1)  # ratio above 1
    with pytest.raises(ParameterInfeasible):
        cifs.make_geometric_model(1.0, 1.2, 1, 30)  # images cannot fit


def test_geometric_two_map_instance_moran():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 2, 2)
    s, t = cifs.moran_bounds(sys_)
    want = np.log(2) / np.log(16)
    assert s == pytest.approx(want, abs=1e-12)
    assert t == pytest.approx(want, abs=1e-12)


def test_dimension_report_bracket():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 10)
    rep = cifs.dimension_report(sys_)
    assert 0 < rep.moran_lower <= rep.pressure_root <= rep.moran_upper + 1e-9 < 1 + 1e-9
