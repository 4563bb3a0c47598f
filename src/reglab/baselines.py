"""Classical registration baselines: RANSAC and spectral matching.

Both return the same ``Hypothesis`` record the pipeline produces, with
``seed_index=None`` since neither is anchored on a seed correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ContractError,
    ConvergenceError,
    DegenerateInputError,
    RegistrationFailure,
)
from .geometry import (
    CorrespondenceSet,
    RigidTransform,
    _kabsch,
    check_delta,
    count_inliers,
    inlier_mask,
    weighted_kabsch,
)
from .pipeline import TAU, Hypothesis


def minimal_samples(rng: np.random.Generator, n: int, iterations: int) -> np.ndarray:
    """(iterations, 3) index triples, distinct within each row.

    Drawn uniformly with per-row redraws on collisions, so the sequence
    is a fixed function of the generator state.
    """
    idx = rng.integers(0, n, size=(iterations, 3))
    while True:
        bad = (idx[:, 0] == idx[:, 1]) | (idx[:, 0] == idx[:, 2]) | (idx[:, 1] == idx[:, 2])
        if not bad.any():
            return idx.astype(np.int64)
        idx[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))


def ransac(
    c: CorrespondenceSet,
    iterations: int = 1000,
    delta: float = 0.10,
    seed: int = 0,
) -> Hypothesis:
    """Minimal-sample consensus over rigid fits.

    Every iteration fits a transform to three distinct correspondences
    (unit weights) and scores it by strict inlier count at ``delta``; the
    earliest iteration achieving the best count wins (so selection equals
    exhaustive rescoring of all sampled models). The winner's own fit, the
    one its count was scored with, is refit once on its inliers.
    Geometrically degenerate triples are skipped; if all of them
    degenerate, or the final fit has fewer inliers than a minimal sample's 3,
    ``RegistrationFailure`` is raised. Deterministic for a fixed seed.
    """
    n = len(c)
    if n < 3:
        raise DegenerateInputError(f"ransac: needs N >= 3, got {n}")
    if iterations < 1:
        raise ContractError(f"ransac: iterations must be >= 1, got {iterations}")
    kernels.check_array_bytes("ransac: iterations", iterations, 24 * iterations)  # the samples
    check_delta(delta, "ransac")

    rng = np.random.Generator(np.random.PCG64(seed))
    samples = minimal_samples(rng, n, iterations)
    best_iter, _, rotation, translation = kernels.ransac_scan(c.source, c.target, samples, delta)
    if best_iter < 0:
        raise RegistrationFailure(
            f"ransac: all {iterations} minimal samples were degenerate"
        )

    transform = RigidTransform(rotation, translation)
    members = np.flatnonzero(inlier_mask(transform, c, delta))
    if members.size >= 3:
        try:
            transform = _kabsch(c.source[members], c.target[members], np.ones(members.size))
            members = np.flatnonzero(inlier_mask(transform, c, delta))
        except DegenerateInputError:
            pass  # keep the minimal-sample fit
    if members.size < 3:  # e.g. residuals that overflow, or pairs that round back exactly
        raise RegistrationFailure(
            f"ransac: the best fit has fewer than 3 inliers at delta {delta} "
            f"(inliers: {members.size})")
    return Hypothesis(
        transform=transform,
        seed_index=None,
        consensus=members,
        inlier_count=int(members.size),
    )


@dataclass(frozen=True)
class SpectralResult:
    """Principal-eigenvector confidences plus the discretized inlier set."""

    confidences: np.ndarray
    selected: np.ndarray
    eigenvalue: float
    iterations: int
    residual: float


POWER_TOL = 1e-9             # power_iteration's relative residual bound
POWER_MAX_ITERATIONS = 1000  # and its iteration budget


def power_iteration(m: np.ndarray) -> tuple[np.ndarray, float, int, float]:
    """Principal eigenpair of a symmetric non-negative matrix.

    Iterates from the uniform unit vector and stops when the eigenpair
    residual satisfies ||M v - lambda v|| <= POWER_TOL * lambda. Returns
    (eigenvector, eigenvalue, iterations, residual); raises
    ``ConvergenceError`` when the budget runs out, or at once when the
    eigenvalue is not finite (M with NaN entries), since the iterates stay
    NaN. The normalized eigenvector is invariant to scaling M by any
    positive constant.
    """
    n = m.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    eigenvalue = 0.0
    residual = np.inf
    iterations = 0
    for iterations in range(1, POWER_MAX_ITERATIONS + 1):
        u = m @ v
        eigenvalue = float(v @ u)
        if not np.isfinite(eigenvalue):
            break
        residual = float(np.linalg.norm(u - eigenvalue * v))
        if residual <= POWER_TOL * max(eigenvalue, np.finfo(np.float64).tiny):
            return v, eigenvalue, iterations, residual
        norm = np.linalg.norm(u)
        if norm == 0.0:  # pragma: no cover - positive v and nonzero M
            break
        v = u / norm
    raise ConvergenceError(
        f"power_iteration: did not converge in {iterations} of {POWER_MAX_ITERATIONS} iterations "
        f"(last residual {residual:.3e}, eigenvalue {eigenvalue:.6e})"
    )


def spectral_matching(c: CorrespondenceSet, sigma_d: float = 0.10) -> SpectralResult:
    """Length-consistency spectral relaxation.

    The compatibility matrix holds pairwise consistency off the diagonal
    and zeros on it. Its principal eigenvector (see ``power_iteration``)
    scores each correspondence; a greedy sweep then accepts the highest
    score and zeroes everything inconsistent with it (consistency below
    TAU) until scores are exhausted. An all-zero matrix yields zero
    confidences and an empty selection.
    """
    n = len(c)
    m = kernels.consistency_matrix(c.source, c.target, sigma_d)
    np.fill_diagonal(m, 0.0)
    try:
        v, eigenvalue, iterations, residual = power_iteration(m)
    except ConvergenceError:
        if np.any(m > 0.0):  # NaN entries, from distances that overflow, never converge
            raise
        eigenvalue = 0.0
    # M >= 0 and v > 0, so v @ M v sums non-negative terms, and a nonzero M
    # (entries >= 2^-53, times 1 / sqrt(N) > 2^-7) adds a positive one: the
    # first eigenvalue is 0.0 exactly when M has no positive entry
    if eigenvalue == 0.0:
        return SpectralResult(np.zeros(n), np.empty(0, dtype=np.int64), 0.0, 0, 0.0)
    confidences = np.maximum(v, 0.0)

    # Suppression only zeroes scores and none is NaN, so taking the largest
    # remaining one (ties to the lower index) is one stable descending pass.
    suppressed = np.zeros(n, dtype=bool)
    selected: list[int] = []
    for i in np.argsort(-confidences, kind="stable"):
        if confidences[i] <= 0.0:
            break
        if suppressed[i]:
            continue
        selected.append(int(i))
        suppressed |= m[i] < TAU  # m[i] is row i of the consistency matrix, 0 at i
    return SpectralResult(
        confidences=confidences,
        selected=np.asarray(selected, dtype=np.int64),
        eigenvalue=eigenvalue,
        iterations=iterations,
        residual=residual,
    )


def spectral_register(c: CorrespondenceSet, delta: float) -> tuple[Hypothesis, SpectralResult]:
    """Fit a transform to the spectral inlier set (confidence-weighted), sigma_d = delta."""
    check_delta(delta, "spectral_register")
    result = spectral_matching(c, delta)
    if result.selected.size < 3:
        raise RegistrationFailure(
            f"spectral_matching selected only {result.selected.size} correspondences"
        )
    sub = CorrespondenceSet(c.source[result.selected], c.target[result.selected])
    try:
        transform = weighted_kabsch(sub, result.confidences[result.selected])
    except (DegenerateInputError, ContractError) as exc:
        raise RegistrationFailure(f"spectral inlier set is degenerate: {exc}") from exc
    hyp = Hypothesis(
        transform=transform,
        seed_index=None,
        consensus=result.selected,
        inlier_count=count_inliers(transform, c, delta),
    )
    return hyp, result
