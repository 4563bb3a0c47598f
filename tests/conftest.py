"""Shared helpers: seeded generators, random rigid motions, residuals, FD checks."""

from __future__ import annotations

import math

import numpy as np

from reglab.geometry import CorrespondenceSet, RigidTransform, _squared_residuals
from reglab.synth import rotation_from_axis_angle


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def smallest_sigma_with_nonzero_square() -> float:
    """The least positive float whose square does not underflow to 0.

    Squares round to the nearest multiple of 2^-1074, so the bound is
    just above sqrt(2^-1075) = sqrt(2) * 2^-538, about 1.5e-162.
    """
    x = math.ldexp(math.sqrt(2.0), -538)
    while x * x > 0.0:
        x = float(np.nextafter(x, 0.0))
    while not x * x > 0.0:
        x = float(np.nextafter(x, 1.0))
    return x


def compose(outer: RigidTransform, inner: RigidTransform) -> RigidTransform:
    """outer after inner: compose(outer, inner).apply(x) == outer.apply(inner.apply(x))."""
    return RigidTransform(outer.rotation @ inner.rotation,
                          outer.rotation @ inner.translation + outer.translation)


def residuals(transform: RigidTransform, c: CorrespondenceSet) -> np.ndarray:
    """Euclidean residual per correspondence under the transform: the square
    root of the squared residuals that inlier_mask and count_inliers test."""
    return np.sqrt(_squared_residuals(transform, c))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation from a normalized axis and angle."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, np.pi)
    return rotation_from_axis_angle(axis, angle)


def random_transform(rng: np.random.Generator, translation_scale: float = 2.0) -> RigidTransform:
    return RigidTransform(
        random_rotation(rng),
        rng.uniform(-translation_scale, translation_scale, size=3),
    )


def random_correspondences(
    rng: np.random.Generator,
    n: int,
    noise: float = 0.0,
    extent: float = 2.0,
) -> tuple[CorrespondenceSet, RigidTransform]:
    """Clean correspondences under a random rigid motion plus optional noise."""
    src = rng.uniform(-extent, extent, size=(n, 3))
    gt = random_transform(rng, extent)
    tgt = gt.apply(src)
    if noise > 0.0:
        tgt = tgt + rng.normal(0.0, noise, size=(n, 3))
    return CorrespondenceSet(src, tgt), gt


# -- finite-difference gradient checking --------------------------------------

REL_TOL = 1e-4
# Gradients with both analytic and numeric magnitude below this floor are
# treated as matching; relative error is meaningless against roundoff.
ABS_FLOOR = 1e-8


def rel_err(analytic: float, numeric: float) -> float:
    scale = max(abs(analytic), abs(numeric))
    if scale < ABS_FLOOR:
        return 0.0
    return abs(analytic - numeric) / scale


def central_difference(f, array: np.ndarray, index: tuple[int, int]) -> float:
    """d f / d array[index] by central differences on a copy of array."""
    theta = array[index]
    h = 1e-6 * max(1.0, abs(theta))
    array[index] = theta + h
    up = f()
    array[index] = theta - h
    down = f()
    array[index] = theta
    return (up - down) / (2.0 * h)


def assert_grad_matches(
    f,
    array: np.ndarray,
    grad: np.ndarray,
    coords: list[tuple[int, int]],
    label: str,
    rel_tol: float = REL_TOL,
) -> float:
    """Compare analytic grad entries against central differences at coords."""
    worst = 0.0
    for ij in coords:
        numeric = central_difference(f, array, ij)
        err = rel_err(float(grad[ij]), numeric)
        worst = max(worst, err)
        assert err < rel_tol, (
            f"{label}[{ij}]: analytic {grad[ij]!r} vs numeric {numeric!r} "
            f"(rel err {err:.3e})"
        )
    return worst


def coord_sample(rng: np.random.Generator, shape: tuple[int, int], k: int) -> list[tuple[int, int]]:
    """Up to k distinct coordinates of a matrix, uniformly sampled."""
    total = shape[0] * shape[1]
    k = min(k, total)
    flat = rng.choice(total, size=k, replace=False)
    return [(int(i) // shape[1], int(i) % shape[1]) for i in flat]
