"""Synthetic scene generator: reproducibility, planted truth, noise model."""

import numpy as np
import pytest

from conftest import make_rng, residuals
from reglab.errors import ConfigurationError, ContractError
from reglab.geometry import rotation_error
from reglab.synth import SCENE_EXTENT, SceneConfig, generate, rotation_from_axis_angle


def test_generate_is_bit_reproducible():
    cfg = SceneConfig(n=300, outlier_ratio=0.4, noise_sigma=0.02, seed=42)
    a, gta = generate(cfg)
    b, gtb = generate(cfg)
    assert a.source.tobytes() == b.source.tobytes()
    assert a.target.tobytes() == b.target.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert gta.rotation.tobytes() == gtb.rotation.tobytes()
    assert gta.translation.tobytes() == gtb.translation.tobytes()


def test_different_seeds_differ():
    a, _ = generate(SceneConfig(n=50, seed=1))
    b, _ = generate(SceneConfig(n=50, seed=2))
    assert a.source.tobytes() != b.source.tobytes()


@pytest.mark.parametrize(
    "n,ratio,expected",
    [
        (10, 0.55, 6),  # 5.5 rounds away from zero
        (10, 0.54, 5),
        (1000, 0.3, 300),
        (7, 0.5, 4),  # 3.5 rounds up
        (100, 0.0, 0),
        (100, 1.0, 100),
        (3, 0.1, 0),
    ],
)
def test_outlier_count_rounding(n, ratio, expected):
    assert SceneConfig(n=n, outlier_ratio=ratio).outlier_count == expected


@pytest.mark.parametrize("seed", range(5))
def test_labels_match_outlier_count(seed):
    cfg = SceneConfig(n=123, outlier_ratio=0.37, seed=seed)
    c, _ = generate(cfg)
    assert int((~c.labels).sum()) == cfg.outlier_count
    assert len(c) == 123


def test_noise_free_inliers_are_exact():
    cfg = SceneConfig(n=200, outlier_ratio=0.3, noise_sigma=0.0, seed=9)
    c, gt = generate(cfg)
    moved = gt.apply(c.source)
    assert np.array_equal(c.target[c.labels], moved[c.labels])
    assert not np.allclose(c.target[~c.labels], moved[~c.labels])


@pytest.mark.parametrize("seed", range(10))
def test_six_sigma_delta_captures_inliers(seed):
    sigma = 0.05
    cfg = SceneConfig(n=500, outlier_ratio=0.2, noise_sigma=sigma, seed=seed)
    c, gt = generate(cfg)
    res = residuals(gt, c)[c.labels]
    assert (res < 6.0 * sigma).mean() >= 0.99


def test_inlier_noise_scale():
    cfg = SceneConfig(n=4000, outlier_ratio=0.0, noise_sigma=0.02, seed=3)
    c, gt = generate(cfg)
    rms = float(np.sqrt((residuals(gt, c) ** 2).mean()))
    expected = 0.02 * np.sqrt(3.0)  # 3 independent Gaussian components
    assert abs(rms - expected) / expected < 0.15


@pytest.mark.parametrize("seed", range(5))
def test_outliers_stay_inside_bounding_cube(seed):
    cfg = SceneConfig(n=400, outlier_ratio=0.5, noise_sigma=0.0, seed=seed)
    c, gt = generate(cfg)
    clean = gt.apply(c.source)
    center = (clean.min(axis=0) + clean.max(axis=0)) / 2.0
    half = float((clean.max(axis=0) - clean.min(axis=0)).max()) / 2.0
    bad = c.target[~c.labels]
    assert np.all(bad >= center - half - 1e-12)
    assert np.all(bad <= center + half + 1e-12)


def test_single_point_cloud_uses_fallback_cube():
    cfg = SceneConfig(n=1, outlier_ratio=1.0, noise_sigma=0.0, seed=4)
    c, gt = generate(cfg)
    clean = gt.apply(c.source)
    half = max(cfg.resolved_extent, 1.0)
    assert np.all(np.abs(c.target[0] - clean[0]) <= half)
    assert not c.labels[0]


def test_extent_override_and_scene_defaults():
    assert SCENE_EXTENT == {"indoor": 3.0, "outdoor": 30.0}
    small, _ = generate(SceneConfig(n=100, extent=0.5, seed=5))
    assert np.abs(small.source).max() <= 0.5
    indoor, _ = generate(SceneConfig(n=2000, seed=5))
    assert 2.5 < np.abs(indoor.source).max() <= 3.0
    outdoor, _ = generate(SceneConfig(n=2000, scene="outdoor", seed=5))
    assert 25.0 < np.abs(outdoor.source).max() <= 30.0
    assert SceneConfig(scene="outdoor").resolved_extent == 30.0


def test_planted_transform_is_valid_and_recoverable():
    c, gt = generate(SceneConfig(n=100, noise_sigma=0.0, seed=6))
    assert abs(np.linalg.det(gt.rotation) - 1.0) < 1e-12
    assert rotation_error(gt, gt) == 0.0
    assert residuals(gt, c).max() < 1e-12


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SceneConfig(n=0)
    with pytest.raises(ConfigurationError):
        SceneConfig(outlier_ratio=-0.1)
    with pytest.raises(ConfigurationError):
        SceneConfig(outlier_ratio=1.1)
    for sigma in (-0.01, np.nan, np.inf, 1e308, 1.2e307):  # 16 * 1.2e307 overflows
        with pytest.raises(ConfigurationError, match="noise_sigma"):
            SceneConfig(noise_sigma=sigma)
    for extent in (0.0, np.nan, np.inf, 1e308, 8e307):
        with pytest.raises(ConfigurationError, match="extent"):
            SceneConfig(extent=extent)
    with pytest.raises(ContractError):
        SceneConfig(scene="lunar")


def test_the_largest_extent_gives_a_finite_scene():
    """At 8e307 the clean cloud's span overflowed numpy's uniform draw of the
    outliers; every value of a scene stays within 5.5 * extent."""
    extent = float(np.finfo(np.float64).max) / 8
    c, gt = generate(SceneConfig(n=200, outlier_ratio=0.5, extent=extent, seed=6))
    assert np.isfinite(gt.translation).all() and len(c) == 200
    assert np.abs(c.target).max() <= 5.5 * extent


def test_the_largest_noise_sigma_gives_a_finite_scene():
    """1e308's normal draws overflowed to +-inf, which CorrespondenceSet then
    blamed on the target. A target stays within 5.5 * extent + 13.71 * sigma,
    so 8 * extent + 16 * sigma finite is enough; at extent = max / 16 the
    largest such sigma is max / 32."""
    big = float(np.finfo(np.float64).max)
    extent, sigma = big / 16, big / 32
    c, gt = generate(SceneConfig(n=200, outlier_ratio=0.5, noise_sigma=sigma, extent=extent,
                                 seed=7))
    assert np.isfinite(c.target).all() and np.isfinite(gt.translation).all()
    assert np.abs(c.target).max() <= 5.5 * extent + 13.71 * sigma
    with pytest.raises(ConfigurationError, match="noise_sigma"):
        SceneConfig(noise_sigma=float(np.nextafter(sigma, np.inf)), extent=extent)


def test_rotation_from_axis_angle_z_axis_closed_form():
    theta = 0.7
    got = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), theta)
    c, s = np.cos(theta), np.sin(theta)
    want = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_rotation_from_axis_angle_properties(seed):
    rng = make_rng(seed + 100)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = float(rng.uniform(0.0, np.pi))
    r = rotation_from_axis_angle(axis, theta)
    np.testing.assert_allclose(r @ axis, axis, atol=1e-12)  # axis is fixed
    assert abs(np.linalg.det(r) - 1.0) < 1e-12
    assert abs(np.trace(r) - (1.0 + 2.0 * np.cos(theta))) < 1e-12
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
