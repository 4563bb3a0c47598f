"""Exact rigid-motion core: transforms, inlier counting, weighted fits.

Angles are reported in degrees, translation errors in centimeters,
coordinates in meters. Rotations are proper (det +1) and validated on
construction to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import kernels
from .errors import ContractError, DegenerateInputError, RegLabError, ShapeError

F64 = np.float64
Points = NDArray[F64]  # (N, 3)

SCENES = ("indoor", "outdoor")

# Success gates per scene kind: (max rotation error deg, max translation error cm).
SUCCESS_GATES = {"indoor": (15.0, 30.0), "outdoor": (5.0, 60.0)}

# Inlier distance thresholds (meters) matched to scene scale.
DEFAULT_DELTA = {"indoor": 0.10, "outdoor": 0.60}

_ROT_TOL = 1e-9


def check_delta(delta: float, caller: str) -> None:
    """Refuse, naming ``caller``, an inlier radius that is not positive, is not
    finite, or whose square underflows to 0."""
    if not (0.0 < delta < np.inf and delta * delta > 0.0):
        raise ContractError(
            f"{caller}: delta must be positive and finite with a nonzero square, got {delta}")


def check_scene(scene: str) -> str:
    if scene not in SCENES:
        raise ContractError(f"unknown scene kind {scene!r}, expected one of {SCENES}")
    return scene


def as_points(x, name: str = "points") -> Points:
    p = np.asarray(x, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ShapeError(f"{name}: expected (N, 3), got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ContractError(f"{name}: contains non-finite entries")
    return p


def _rigid_checks(r: NDArray[F64], t: NDArray[F64]):
    """(all finite, max |R^T R - I|, det R) per transform of (m, 3, 3) and (m, 3) arrays."""
    finite = np.isfinite(r).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)
    with np.errstate(invalid="ignore"):  # a non-finite rotation fails on `finite`
        ortho = np.abs(r.transpose(0, 2, 1) @ r - np.eye(3)).max(axis=(1, 2))
        return finite, ortho, np.linalg.det(r)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion x -> R x + t.

    Construction validates orthonormality (max |R^T R - I| < 1e-9) and
    det(R) = +1 within 1e-9, and freezes the arrays read-only.
    """

    rotation: NDArray[F64]
    translation: NDArray[F64]

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        (finite,), (ortho,), (det,) = _rigid_checks(r[None], t[None])
        if not finite:
            raise ContractError("RigidTransform: non-finite entries")
        if ortho >= _ROT_TOL:
            raise ContractError(
                f"RigidTransform: rotation not orthonormal, max |R^T R - I| = {ortho:.3e}"
            )
        if abs(det - 1.0) >= _ROT_TOL:
            raise ContractError(f"RigidTransform: det(R) = {det!r}, expected +1")
        r = r.copy()
        t = t.copy()
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def _checked(cls, rotation: NDArray[F64], translation: NDArray[F64]) -> "RigidTransform":
        """A transform of read-only arrays that pass the checks above, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        return self

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: Points) -> Points:
        return apply_transform(self, points)


@dataclass(frozen=True)
class CorrespondenceSet:
    """Putative point pairs (source[i] <-> target[i]) with optional labels.

    ``labels[i]`` is True when pair i is a true inlier; None when unknown.
    """

    source: Points
    target: Points
    labels: NDArray[np.bool_] | None = None

    def __post_init__(self):
        s = as_points(self.source, "source")
        t = as_points(self.target, "target")
        if s.shape != t.shape:
            raise ShapeError(
                f"CorrespondenceSet: source {s.shape} vs target {t.shape}"
            )
        lab = self.labels
        if lab is not None:
            lab = np.array(lab, dtype=bool).reshape(-1)  # a copy, as the points are copied
            if lab.shape[0] != s.shape[0]:
                raise ShapeError(
                    f"CorrespondenceSet: {lab.shape[0]} labels for {s.shape[0]} pairs"
                )
            lab.flags.writeable = False
        s, t = s.copy(), t.copy()
        s.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "source", s)
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.source.shape[0]


def apply_transform(transform: RigidTransform, points: Points) -> Points:
    points = as_points(points)
    return points @ transform.rotation.T + transform.translation


def _point_columns(c: CorrespondenceSet) -> tuple[NDArray[F64], NDArray[F64]]:
    """c's source and target as C-contiguous (3, N) arrays, as kernels.squared_residuals takes them."""
    return np.ascontiguousarray(c.source.T), np.ascontiguousarray(c.target.T)


def _squared_residuals(transform: RigidTransform, c: CorrespondenceSet) -> NDArray[F64]:
    """||R p_s + t - p_t||^2 per pair; c's points were validated on construction."""
    return kernels.squared_residuals(*_point_columns(c), transform.rotation[None],
                                     transform.translation[None])[0]


def count_inliers(transform: RigidTransform, c: CorrespondenceSet, delta: float) -> int:
    """Number of pairs with ||R p_s + t - p_t|| strictly below delta."""
    check_delta(delta, "count_inliers")
    return int((_squared_residuals(transform, c) < delta * delta).sum())


def inlier_mask(transform: RigidTransform, c: CorrespondenceSet, delta: float) -> NDArray[np.bool_]:
    """Strict inliers: ||R p_s + t - p_t||^2 < delta^2 (the one inlier predicate)."""
    check_delta(delta, "inlier_mask")
    return _squared_residuals(transform, c) < delta * delta


def weighted_kabsch(c: CorrespondenceSet, weights) -> RigidTransform:
    """Weighted least-squares rigid fit via SVD of the weighted covariance.

    Weights must be non-negative with a positive sum; at least three
    pairs need positive weight and the weighted source spread must not be
    collinear or coincident. The smallest singular direction is flipped
    when needed so the rotation is always proper. Scaling all weights by
    a positive constant does not change the result.
    """
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    n = len(c)
    if weights.shape[0] != n:
        raise ShapeError(f"weighted_kabsch: {weights.shape[0]} weights for {n} pairs")
    return _kabsch(c.source, c.target, weights)


def _kabsch(src: Points, tgt: Points, weights: NDArray[F64]) -> RigidTransform:
    """weighted_kabsch on finite (N, 3) arrays and N float64 weights, unwrapped."""
    n = src.shape[0]
    (fit,) = _kabsch_segments(src.T, tgt.T, np.arange(n), [n], weights)
    if isinstance(fit, RegLabError):
        raise fit
    return fit


def _kabsch_segments(src_t: NDArray[F64], tgt_t: NDArray[F64], idx: NDArray[np.intp], sizes,
                     weights: NDArray[F64]) -> list[RigidTransform | RegLabError]:
    """weighted_kabsch of every segment of ``idx``, solved in one kernels.rigid_fits call.

    ``src_t`` and ``tgt_t`` are (3, N) point columns; ``idx`` holds each
    segment's pair indices in turn, ``sizes`` the segment lengths and
    ``weights`` one weight per entry of ``idx``. A segment that
    weighted_kabsch rejects gets the error it raises for it. Each segment's
    sums run over its own entries only, so its bits do not depend on its
    neighbours.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    # sums over the non-empty segments only: reduceat gives an empty one its
    # start entry, not 0. A rejected segment's sums may be inf or NaN, and it
    # is not solved.
    live = sizes > 0
    starts, lengths = (np.cumsum(sizes) - sizes)[live], sizes[live]
    points = np.concatenate([src_t.take(idx, axis=1), tgt_t.take(idx, axis=1)])  # (6, K)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        total = np.add.reduceat(weights, starts)
        w = weights / np.repeat(total, lengths)
        mu = np.add.reduceat(points * w, starts, axis=1)  # centroids, (6, live)
        points -= np.repeat(mu, lengths, axis=1)
        points[:3] *= w
        h = np.add.reduceat((points[:3, None] * points[None, 3:]).reshape(9, -1), starts, axis=1)
    stats = zip(total.tolist(), np.fmin.reduceat(weights, starts).tolist(),  # fmin skips NaN
                np.add.reduceat(weights > 0.0, starts, dtype=np.intp).tolist(),
                np.isfinite(h).all(axis=0).tolist())  # a non-finite centroid spoils h too
    fits: list = []
    solve, columns = [], []  # each segment to solve, and its column of h and mu
    column = -1
    for size in sizes.tolist():
        column += size > 0
        tot, lowest, positive, finite = next(stats) if size else (0.0, 0.0, 0, True)
        if lowest < 0.0:
            fits.append(ContractError("weighted_kabsch: negative weights"))
        elif not (tot > 0.0):
            fits.append(ContractError("weighted_kabsch: all weights are zero"))
        elif positive < 3:
            fits.append(DegenerateInputError(
                "weighted_kabsch: fewer than 3 pairs with positive weight"))
        elif not finite:  # an infinite weight, say
            fits.append(ContractError("weighted_kabsch: weights give a non-finite covariance"))
        else:
            solve.append(len(fits))
            columns.append(column)
            fits.append(None)
    mu = mu.T[columns]
    r, t, ok = kernels.rigid_fits(h.T[columns].reshape(-1, 3, 3), mu[:, :3], mu[:, 3:])
    good, ortho, det = _rigid_checks(r, t)
    valid = good & (ortho < _ROT_TOL) & (np.abs(det - 1.0) < _ROT_TOL)
    r.flags.writeable = False
    t.flags.writeable = False
    for i, rank, checked, rotation, translation in zip(solve, ok.tolist(), valid.tolist(), r, t):
        if not rank:
            fits[i] = DegenerateInputError("weighted_kabsch: weighted covariance is rank-"
                                           "deficient (collinear or coincident support)")
        elif not checked:
            fits[i] = ContractError("weighted_kabsch: fit fails the RigidTransform checks")
        else:
            fits[i] = RigidTransform._checked(rotation, translation)
    return fits


@dataclass(frozen=True)
class SelectionResult:
    index: int
    transform: RigidTransform
    inlier_count: int
    counts: tuple[int, ...]  # strict inlier count of every candidate, in order


def select_best_transform(
    candidates: list[RigidTransform] | tuple[RigidTransform, ...],
    c: CorrespondenceSet,
    delta: float,
) -> SelectionResult:
    """Pick the candidate with the most strict inliers at delta.

    Ties break to the lowest mean inlier residual, then to the lowest
    candidate index; a candidate with zero inliers has mean residual
    +inf for tie-breaking purposes. Equal candidates have equal keys, so
    dropping every repeat after the first changes neither the choice nor
    its count.
    """
    check_delta(delta, "select_best_transform")
    if len(candidates) == 0:
        raise DegenerateInputError("select_best_transform: empty candidate list")
    best: tuple[int, float, int] | None = None  # (-count, mean_res, index) minimized
    counts: list[int] = []
    step = kernels.transforms_per_block(len(c))
    cols = _point_columns(c)
    for lo in range(0, len(candidates), step):
        block = candidates[lo:lo + step]
        sq = kernels.squared_residuals(*cols, np.stack([t.rotation for t in block]),
                                       np.stack([t.translation for t in block]))
        hits = sq < delta * delta
        block_counts = hits.sum(axis=1)
        counts += block_counts.tolist()
        top = int(block_counts.max())
        if best is not None and -top > best[0]:
            continue  # no candidate of this block reaches the best count
        for j in np.flatnonzero(block_counts == top):
            mean_res = float(np.sqrt(sq[j, hits[j]]).mean()) if top > 0 else np.inf
            key = (-top, mean_res, lo + int(j))
            if best is None or key < best:
                best = key
    idx = best[2]
    return SelectionResult(idx, candidates[idx], counts[idx], tuple(counts))


def rotation_error(r_gt: RigidTransform | NDArray[F64], r_est: RigidTransform | NDArray[F64]) -> float:
    """Geodesic rotation distance in degrees: arccos((trace(R_gt^T R_est) - 1)/2).

    Identical inputs return exactly 0. Near the identity the trace form
    quantizes the angle at ~1e-6 degrees (arccos has unbounded slope at 1),
    so angles below ~8e-3 degrees are evaluated through the displacement
    norm instead: theta = 2 asin(||R_gt^T R_est - I||_F / (2 sqrt(2))),
    the same geodesic angle with bounded rounding error.
    """
    a = r_gt.rotation if isinstance(r_gt, RigidTransform) else np.asarray(r_gt, dtype=np.float64)
    b = r_est.rotation if isinstance(r_est, RigidTransform) else np.asarray(r_est, dtype=np.float64)
    if np.array_equal(a, b):
        return 0.0
    m = a.T @ b
    cos = (np.trace(m) - 1.0) / 2.0
    if cos < 1.0 - 1e-8:
        return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    half_chord = np.linalg.norm(m - np.eye(3)) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(min(half_chord, 1.0))))


def translation_error(t_gt, t_est) -> float:
    """Euclidean translation gap in centimeters."""
    a = t_gt.translation if isinstance(t_gt, RigidTransform) else np.asarray(t_gt, dtype=np.float64)
    b = t_est.translation if isinstance(t_est, RigidTransform) else np.asarray(t_est, dtype=np.float64)
    return float(np.linalg.norm(b.reshape(3) - a.reshape(3)) * 100.0)


def registration_success(re_deg: float, te_cm: float, scene: str) -> bool:
    """Strict success gate: both errors below the scene's thresholds."""
    max_re, max_te = SUCCESS_GATES[check_scene(scene)]
    return bool(re_deg < max_re and te_cm < max_te)
