import numpy as np
import pytest

from slidim import cifs, oracle
from slidim.errors import DegenerateFit

LN2_LN3 = np.log(2) / np.log(3)


def test_middle_thirds_slope():
    sample = oracle.sample_word_images(cifs.middle_thirds(), 12)
    fit = oracle.box_counting(sample)
    assert fit.slope == pytest.approx(LN2_LN3, abs=0.01)
    assert fit.r_squared > 0.99


def test_uniform_interval_slope_one():
    sample = oracle.PointSample(np.linspace(-1, 1, 200001))
    assert oracle.box_counting(sample).slope == pytest.approx(1.0, abs=0.01)


def test_single_point_slope_zero():
    sample = oracle.PointSample(np.array([0.25]))
    assert oracle.box_counting(sample).slope == 0.0


def test_affine_rescale_invariance():
    pts = oracle.sample_word_images(cifs.middle_thirds(), 12).points
    a = oracle.box_counting(oracle.PointSample(pts))
    b = oracle.box_counting(oracle.PointSample(0.37 * pts - 0.41))
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
    lambda: oracle.PointSample(np.random.default_rng(0).uniform(-1, 1, 200000)),
    lambda: oracle.PointSample(_box_boundaries(np.geomspace(1e-6, 1e-1, 51)[20])),
], ids=["fixture-8-maps-depth-6", "middle-thirds-depth-12", "uniform-200000",
        "on-box-boundaries"])
def test_counts_equal_distinct_boxes(make):
    sample = make()
    fit = oracle.box_counting(sample, r2_floor=0.0)
    pts = sample.points
    norm = (pts - pts.min()) / (pts.max() - pts.min())
    want = [np.unique(np.floor(norm / eps)).size for eps in fit.scales]
    assert fit.counts.tolist() == want


def test_needs_enough_points_and_decades():
    small = oracle.PointSample(np.linspace(0, 1, 10))
    with pytest.raises(ValueError):
        oracle.box_counting(small)
    sample = oracle.sample_word_images(cifs.middle_thirds(), 12)
    with pytest.raises(ValueError):
        oracle.box_counting(sample, scales=np.geomspace(1e-3, 1e-2, 11))


def test_degenerate_fit_detected():
    # two clusters separated by a huge gap: log-log counts are a step
    pts = np.concatenate([np.linspace(0, 1e-5, 600), np.linspace(1, 1 + 1e-5, 600)])
    with pytest.raises(DegenerateFit):
        oracle.box_counting(oracle.PointSample(pts))


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
