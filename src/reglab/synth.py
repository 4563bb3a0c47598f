"""Seeded synthetic correspondence scenes with planted ground truth.

The generator is bit-reproducible: a scene is a pure function of its
``SceneConfig``. Randomness comes from numpy's PCG64 generator seeded
with ``cfg.seed``, and the draw order is fixed and documented in
``generate``. Coordinates are meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import CorrespondenceSet, RigidTransform, check_scene
from .kernels import check_array_bytes

SCENE_EXTENT = {"indoor": 3.0, "outdoor": 30.0}


@dataclass(frozen=True)
class SceneConfig:
    """Recipe for one synthetic scene.

    ``extent`` is the half-width of the sampling cube; None picks the
    scene default (3 m indoor, 30 m outdoor). ``outlier_ratio`` of the
    pairs (rounded half away from zero) are replaced by clutter drawn
    uniformly from the target cloud's bounding cube.
    """

    n: int = 1000
    outlier_ratio: float = 0.0
    noise_sigma: float = 0.01
    scene: str = "indoor"
    extent: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_scene(self.scene)
        if self.n < 1:
            raise ConfigurationError(f"SceneConfig: n must be >= 1, got {self.n}")
        check_array_bytes("SceneConfig: n", self.n, 24 * self.n)  # (n, 3) float64 points
        if not (0.0 <= self.outlier_ratio <= 1.0):
            raise ConfigurationError(
                f"SceneConfig: outlier_ratio must lie in [0, 1], got {self.outlier_ratio}"
            )
        if not (0.0 <= self.noise_sigma < np.inf):
            raise ConfigurationError(
                f"SceneConfig: noise_sigma must be >= 0 and finite, got {self.noise_sigma}"
            )
        # generate's points, spans and outlier cube all stay within 5.5 * extent
        if self.extent is not None and not (self.extent > 0.0 and np.isfinite(8.0 * self.extent)):
            raise ConfigurationError(
                f"SceneConfig: extent must be positive with 8 * extent finite, got {self.extent}"
            )

    @property
    def resolved_extent(self) -> float:
        return self.extent if self.extent is not None else SCENE_EXTENT[self.scene]

    @property
    def outlier_count(self) -> int:
        # floor(x + 0.5): half rounds away from zero, independent of the
        # platform's banker's rounding.
        return int(np.floor(self.outlier_ratio * self.n + 0.5))


def rotation_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit axis and angle in radians."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def generate(cfg: SceneConfig) -> tuple[CorrespondenceSet, RigidTransform]:
    """Draw one scene. Fixed draw order from PCG64(cfg.seed):

    1. source points, uniform in [-extent, extent]^3,
    2. rotation axis (normalized 3-D standard normal) and angle
       uniform in [0, pi],
    3. translation, uniform in [-extent, extent]^3,
    4. index permutation choosing which pairs become outliers,
    5. Gaussian target noise for every pair,
    6. replacement targets for the outliers, uniform in the bounding
       cube of the clean transformed cloud.

    Returns the labeled correspondences and the planted transform.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    e = cfg.resolved_extent
    n = cfg.n

    source = rng.uniform(-e, e, size=(n, 3))

    axis = rng.normal(size=3)
    norm = np.linalg.norm(axis)
    while norm < 1e-12:  # pragma: no cover - probability zero in practice
        axis = rng.normal(size=3)
        norm = np.linalg.norm(axis)
    axis /= norm
    angle = rng.uniform(0.0, np.pi)
    rotation = rotation_from_axis_angle(axis, angle)
    translation = rng.uniform(-e, e, size=3)
    gt = RigidTransform(rotation, translation)

    clean = source @ rotation.T + translation
    perm = rng.permutation(n)
    noise = rng.normal(0.0, cfg.noise_sigma, size=(n, 3))

    k = cfg.outlier_count
    outlier_idx = perm[:k]
    labels = np.ones(n, dtype=bool)
    labels[outlier_idx] = False

    target = clean + noise
    if k > 0:
        center = (clean.min(axis=0) + clean.max(axis=0)) / 2.0
        half = float((clean.max(axis=0) - clean.min(axis=0)).max()) / 2.0
        if half <= 0.0:
            half = max(e, 1.0)
        target[outlier_idx] = rng.uniform(center - half, center + half, size=(k, 3))

    return CorrespondenceSet(source, target, labels), gt
