import numpy as np
import pytest

from slidim import cifs, oracle, pipeline
from slidim.errors import DegenerateFit, InsufficientData

LN2_LN3 = np.log(2) / np.log(3)


def _naive_word_images(sys, depth):
    pts = np.array([oracle.SAMPLE_POINT])
    for _ in range(depth):
        pts = np.concatenate([np.asarray(m.eval(pts), dtype=float) for m in sys.maps])
    return pts


@pytest.mark.parametrize("case", ["fixture-8-maps-depth-6", "middle-thirds-depth-12",
                                  "bench-pipeline-ifs"])
def test_word_order_is_the_sorted_sample_of_every_word_image(case, request):
    # the fixture's R maps are mirrored, so their blocks come out reversed;
    # every one of the b^depth images is kept, and a reversed sample is refused
    if case == "bench-pipeline-ifs":
        sys_, depth = request.getfixturevalue("bench_pipeline").ifs, pipeline.BOX_DEPTH
    elif case == "middle-thirds-depth-12":
        sys_, depth = cifs.middle_thirds(), 12
    else:
        sys_, depth = cifs.make_geometric_model(1.0, 4.0, 2, 5), 6
    sample = oracle.sample_word_images(sys_, depth)
    assert sample.size == len(sys_.maps) ** depth
    assert sample.tobytes() == np.sort(_naive_word_images(sys_, depth)).tobytes()
    with pytest.raises(InsufficientData, match="in order"):
        oracle.box_counting(sample[::-1])


def test_middle_thirds_slope():
    sample = oracle.sample_word_images(cifs.middle_thirds(), 12)
    fit = oracle.box_counting(sample)
    assert fit.slope == pytest.approx(LN2_LN3, abs=0.01)
    assert fit.r_squared > 0.99


def test_uniform_interval_slope_one():
    sample = np.linspace(-1, 1, 200001)
    assert oracle.box_counting(sample).slope == pytest.approx(1.0, abs=0.01)


def test_single_point_is_too_small_a_sample():
    with pytest.raises(InsufficientData, match="need at least 1000 points, got 1"):
        oracle.box_counting(np.array([0.25]))


def test_affine_rescale_invariance():
    pts = oracle.sample_word_images(cifs.middle_thirds(), 12)
    a = oracle.box_counting(pts)
    b = oracle.box_counting(0.37 * pts - 0.41)
    assert abs(a.slope - b.slope) < 1e-6


def test_counts_nonincreasing_in_scale():
    fit = oracle.box_counting(oracle.sample_word_images(cifs.middle_thirds(), 10))
    order = np.argsort(fit.scales)
    counts = fit.counts[order]
    assert np.all(np.diff(counts.astype(int)) <= 0)


def _box_boundaries(eps):
    """Multiples of one default grid scale on [0, 1], with both ends, so the
    normalized points are the multiples themselves and floor(x / eps) sits at
    its ties."""
    return np.append(np.arange(int(1.0 / eps) + 1) * eps, 1.0).clip(0.0, 1.0)


@pytest.mark.parametrize("make", [
    lambda: oracle.sample_word_images(cifs.make_geometric_model(1.0, 4.0, 2, 5), 6),
    lambda: oracle.sample_word_images(cifs.middle_thirds(), 12),
    lambda: np.sort(np.random.default_rng(0).uniform(-1, 1, 200000)),
    lambda: _box_boundaries(np.geomspace(1e-6, 1e-1, 51)[20]),
], ids=["fixture-8-maps-depth-6", "middle-thirds-depth-12", "uniform-200000",
        "on-box-boundaries"])
def test_counts_equal_distinct_boxes(make):
    pts = make()
    fit = oracle.box_counting(pts, r2_floor=0.0)
    norm = (pts - pts.min()) / (pts.max() - pts.min())
    want = [np.unique(np.floor(norm / eps)).size for eps in fit.scales]
    assert fit.counts.tolist() == want


def test_needs_enough_points_and_decades():
    small = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        oracle.box_counting(small)
    sample = oracle.sample_word_images(cifs.middle_thirds(), 12)
    with pytest.raises(ValueError):
        oracle.box_counting(sample, scales=np.geomspace(1e-3, 1e-2, 11))


def test_degenerate_fit_detected():
    # two clusters separated by a huge gap: log-log counts are a step
    pts = np.concatenate([np.linspace(0, 1e-5, 600), np.linspace(1, 1 + 1e-5, 600)])
    with pytest.raises(DegenerateFit):
        oracle.box_counting(pts)


def test_cover_length_values():
    mt = cifs.middle_thirds()
    tower = cifs.cover_tower(mt, 8)
    for k in (1, 3, 5):
        cov = tower[k - 1]
        assert oracle.cover_length(cov) == pytest.approx((2 / 3) ** k * 2, rel=1e-12)
    lengths = [oracle.cover_length(c) for c in tower]
    assert all(b < a for a, b in zip(lengths, lengths[1:]))


def test_crosscheck_pass_and_negative_control():
    mt = cifs.middle_thirds()
    report = cifs.dimension_report(mt)
    sample = oracle.sample_word_images(mt, 12)
    covers = cifs.cover_tower(mt, 8)
    verdict = oracle.crosscheck(report, sample, covers,
                                decay_cap=2 / 3 + 1e-9)
    assert verdict.passed

    corrupted = cifs.DimensionReport(0.2, 0.3)  # deliberately wrong bracket
    bad = oracle.crosscheck(corrupted, sample, covers)
    assert not bad.passed


def test_crosscheck_geometric_fixture():
    sys_ = cifs.make_geometric_model(1.0, 4.0, 1, 1)
    report = cifs.dimension_report(sys_)
    sample = oracle.sample_word_images(sys_, 12)
    covers = cifs.cover_tower(sys_, 12)
    verdict = oracle.crosscheck(report, sample, covers,
                                decay_cap=sum(m.c for m in sys_.maps) + 1e-9)
    assert verdict.passed
    assert report.moran_lower - 0.03 <= verdict.box_slope <= report.moran_upper + 0.03
