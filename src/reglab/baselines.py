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
    count_inliers,
    inlier_mask,
    weighted_kabsch,
)
from .pipeline import Hypothesis


def minimal_samples(rng: np.random.Generator, n: int, iterations: int) -> np.ndarray:
    """(iterations, 3) index triples, distinct within each row.

    Drawn uniformly with per-row redraws on collisions, so the sequence
    is a fixed function of the generator state.
    """
    idx = rng.integers(0, n, size=(iterations, 3))
    bad = (
        (idx[:, 0] == idx[:, 1])
        | (idx[:, 0] == idx[:, 2])
        | (idx[:, 1] == idx[:, 2])
    )
    while bad.any():
        idx[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))
        bad = (
            (idx[:, 0] == idx[:, 1])
            | (idx[:, 0] == idx[:, 2])
            | (idx[:, 1] == idx[:, 2])
        )
    return idx.astype(np.int64)


def ransac(
    c: CorrespondenceSet,
    iterations: int = 1000,
    delta: float = 0.10,
    seed: int = 0,
    refit: bool = True,
) -> Hypothesis:
    """Minimal-sample consensus over rigid fits.

    Every iteration fits a transform to three distinct correspondences
    (unit weights) and scores it by strict inlier count at ``delta``; the
    earliest iteration achieving the best count wins (so selection equals
    exhaustive rescoring of all sampled models). The winner is refit once
    on its inliers. Geometrically degenerate triples are skipped; if all
    of them degenerate, ``RegistrationFailure`` is raised. Deterministic
    for a fixed seed.
    """
    n = len(c)
    if n < 3:
        raise DegenerateInputError(f"ransac: needs N >= 3, got {n}")
    if iterations < 1:
        raise ContractError(f"ransac: iterations must be >= 1, got {iterations}")
    if delta <= 0.0:
        raise ContractError(f"ransac: delta must be positive, got {delta}")

    rng = np.random.Generator(np.random.PCG64(seed))
    samples = minimal_samples(rng, n, iterations)
    best_iter, _ = kernels.ransac_scan(c.source, c.target, samples, delta)
    if best_iter < 0:
        raise RegistrationFailure(
            f"ransac: all {iterations} minimal samples were degenerate"
        )

    triple = samples[best_iter]
    sub = CorrespondenceSet(c.source[triple], c.target[triple])
    transform = weighted_kabsch(sub, np.ones(3))
    members = np.flatnonzero(inlier_mask(transform, c, delta)).astype(np.int64)
    if refit and members.size >= 3:
        refit_set = CorrespondenceSet(c.source[members], c.target[members])
        try:
            transform = weighted_kabsch(refit_set, np.ones(members.size))
            members = np.flatnonzero(inlier_mask(transform, c, delta)).astype(np.int64)
        except DegenerateInputError:
            pass  # keep the minimal-sample fit
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


def power_iteration(
    m: np.ndarray,
    tol: float = 1e-9,
    max_iterations: int = 1000,
) -> tuple[np.ndarray, float, int, float]:
    """Principal eigenpair of a symmetric non-negative matrix.

    Iterates from the uniform unit vector and stops when the eigenpair
    residual satisfies ||M v - lambda v|| <= tol * lambda. Returns
    (eigenvector, eigenvalue, iterations, residual); raises
    ``ConvergenceError`` when the budget runs out. The normalized
    eigenvector is invariant to scaling M by any positive constant.
    """
    n = m.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    eigenvalue = 0.0
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        u = m @ v
        eigenvalue = float(v @ u)
        residual = float(np.linalg.norm(u - eigenvalue * v))
        if residual <= tol * max(eigenvalue, np.finfo(np.float64).tiny):
            return v, eigenvalue, iterations, residual
        norm = np.linalg.norm(u)
        if norm == 0.0:  # pragma: no cover - positive v and nonzero M
            break
        v = u / norm
    raise ConvergenceError(
        f"power_iteration: did not converge in {max_iterations} iterations "
        f"(last residual {residual:.3e}, eigenvalue {eigenvalue:.6e})"
    )


def spectral_matching(
    c: CorrespondenceSet,
    sigma_d: float = 0.10,
    tau: float = 0.5,
    tol: float = 1e-9,
    max_iterations: int = 1000,
) -> SpectralResult:
    """Length-consistency spectral relaxation.

    The compatibility matrix holds pairwise consistency off the diagonal
    and zeros on it. Its principal eigenvector (see ``power_iteration``)
    scores each correspondence; a greedy sweep then accepts the highest
    score and zeroes everything inconsistent with it (consistency below
    tau) until scores are exhausted. An all-zero matrix yields zero
    confidences and an empty selection.
    """
    n = len(c)
    m = kernels.consistency_matrix(c.source, c.target, sigma_d, zero_diagonal=True)
    if not np.any(m > 0.0):
        return SpectralResult(np.zeros(n), np.empty(0, dtype=np.int64), 0.0, 0, 0.0)

    v, eigenvalue, iterations, residual = power_iteration(m, tol, max_iterations)
    confidences = np.maximum(v, 0.0)

    scores = confidences.copy()
    selected: list[int] = []
    while True:
        i = int(np.argmax(scores))
        if scores[i] <= 0.0:
            break
        selected.append(i)
        scores[i] = 0.0
        row = kernels.consistency_row(c.source, c.target, i, sigma_d)
        scores[row < tau] = 0.0
    return SpectralResult(
        confidences=confidences,
        selected=np.asarray(selected, dtype=np.int64),
        eigenvalue=eigenvalue,
        iterations=iterations,
        residual=residual,
    )


def spectral_register(
    c: CorrespondenceSet,
    delta: float,
    sigma_d: float | None = None,
    tau: float = 0.5,
) -> tuple[Hypothesis, SpectralResult]:
    """Fit a transform to the spectral inlier set (confidence-weighted)."""
    result = spectral_matching(c, sigma_d if sigma_d is not None else delta, tau)
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
