"""Seed-driven robust registration from inlier probabilities.

Given per-correspondence inlier probabilities (from the network, from
labels, or from any other scorer), registration proceeds in three moves:

1. pick well-spread, high-probability seed correspondences,
2. for each seed, gather its length-consistent companions and fit a
   transform in two weighted stages,
3. keep the hypothesis with the most strict inliers.

Everything is deterministic; there is no sampling anywhere in this path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .blocks import Ablation, GPINet
from .errors import ConfigurationError, ContractError, DegenerateInputError
from .geometry import (
    SCENES,
    DEFAULT_DELTA,
    CorrespondenceSet,
    RigidTransform,
    check_scene,
    count_inliers,
    inlier_mask,
    select_best_transform,
    weighted_kabsch,
)

DEFAULT_NMS_RADIUS = {"indoor": 0.5, "outdoor": 3.0}


@dataclass(frozen=True)
class RegistrationConfig:
    """Knobs for the seed/consensus/estimate pipeline.

    ``delta`` (inlier radius, meters), ``nms_radius`` and ``sigma_d``
    default from the scene kind; ``seed_count`` defaults to
    max(1, ceil(N / 10)); ``sigma_d`` defaults to delta.
    """

    scene: str = "indoor"
    delta: float | None = None
    seed_count: int | None = None
    nms_radius: float | None = None
    tau: float = 0.5
    sigma_d: float | None = None
    ablation: Ablation = field(default_factory=Ablation)

    def __post_init__(self):
        check_scene(self.scene)
        for name in ("delta", "sigma_d"):
            value = getattr(self, name)
            if value is not None and not (np.isfinite(value) and value > 0.0):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        r = self.nms_radius
        if r is not None and not (np.isfinite(r) and r >= 0.0):
            raise ConfigurationError(f"nms_radius must be >= 0 and finite, got {r}")
        if self.seed_count is not None and self.seed_count < 1:
            raise ConfigurationError(f"seed_count must be >= 1, got {self.seed_count}")
        if not (0.0 < self.tau <= 1.0):
            raise ConfigurationError(f"tau must lie in (0, 1], got {self.tau}")

    @property
    def resolved_delta(self) -> float:
        return self.delta if self.delta is not None else DEFAULT_DELTA[self.scene]

    @property
    def resolved_nms_radius(self) -> float:
        return (
            self.nms_radius
            if self.nms_radius is not None
            else DEFAULT_NMS_RADIUS[self.scene]
        )

    @property
    def resolved_sigma_d(self) -> float:
        return self.sigma_d if self.sigma_d is not None else self.resolved_delta

    def resolved_seed_count(self, n: int) -> int:
        if self.seed_count is not None:
            return self.seed_count
        return max(1, int(np.ceil(n / 10)))


@dataclass(frozen=True)
class SeedSet:
    """Seed correspondences, ordered by descending probability."""

    indices: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Hypothesis:
    """One candidate transform and the evidence behind it.

    ``seed_index`` is None for methods without a seed correspondence
    (RANSAC, spectral matching). ``inlier_count`` is always consistent
    with ``count_inliers(transform, c, delta)``.
    """

    transform: RigidTransform
    seed_index: int | None
    consensus: np.ndarray
    inlier_count: int


def select_seeds(
    probs: np.ndarray,
    c: CorrespondenceSet,
    k: int,
    nms_radius: float,
) -> SeedSet:
    """Greedy top-k by probability with spatial suppression.

    Candidates are visited by descending probability (ties by lower
    index). One is kept unless a kept seed's source point lies strictly
    within ``nms_radius``; zero radius therefore keeps the exact top-k.
    """
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    n = len(c)
    if probs.shape[0] != n:
        raise ContractError(f"select_seeds: {probs.shape[0]} probabilities for {n} pairs")
    if k < 1:
        raise ContractError(f"select_seeds: k must be >= 1, got {k}")
    order = np.argsort(-probs, kind="stable")
    kept: list[int] = []
    r2 = nms_radius * nms_radius
    src = c.source
    for idx in order:
        if len(kept) == k:
            break
        if nms_radius > 0.0 and kept:
            diff = src[kept] - src[idx]
            if ((diff * diff).sum(axis=1) < r2).any():
                continue
        kept.append(int(idx))
    indices = np.asarray(kept, dtype=np.int64)
    return SeedSet(indices, probs[indices].copy())


def build_consensus(
    seed: int,
    c: CorrespondenceSet,
    sigma_d: float = 0.10,
    tau: float = 0.5,
) -> np.ndarray:
    """Indices whose length consistency with the seed reaches tau.

    The seed itself is always a member (its self-consistency is 1).
    """
    sc = kernels.consistency_row(c.source, c.target, seed, sigma_d)
    members = np.flatnonzero(sc >= tau)
    if seed not in members:  # pragma: no cover - tau <= 1 keeps the seed
        members = np.sort(np.append(members, seed))
    return members.astype(np.int64)


def two_stage_estimate(
    seed: int,
    consensus: np.ndarray,
    c: CorrespondenceSet,
    probs: np.ndarray,
    delta: float,
    sigma_d: float,
) -> Hypothesis | None:
    """Weighted fit on the consensus, then a refit on its strict inliers.

    Stage 1 weights each consensus member by probability times seed
    consistency. Stage 2 recomputes strict inliers of the stage-1
    transform over the full set and refits with probability weights.
    Returns None when the stage-1 consensus is degenerate; if only the
    stage-2 refit is impossible (thin or zero-weight inlier set) the
    stage-1 transform is kept.
    """
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    sub = CorrespondenceSet(c.source[consensus], c.target[consensus])
    sc = kernels.consistency_row(c.source, c.target, seed, sigma_d)[consensus]
    try:
        stage1 = weighted_kabsch(sub, probs[consensus] * sc)
    except (DegenerateInputError, ContractError):
        return None

    transform = stage1
    members = consensus
    mask = inlier_mask(stage1, c, delta)
    refit_idx = np.flatnonzero(mask)
    if refit_idx.size >= 3:
        refit_set = CorrespondenceSet(c.source[refit_idx], c.target[refit_idx])
        try:
            transform = weighted_kabsch(refit_set, probs[refit_idx])
            members = refit_idx.astype(np.int64)
        except (DegenerateInputError, ContractError):
            pass  # keep the stage-1 transform
    return Hypothesis(
        transform=transform,
        seed_index=int(seed),
        consensus=members,
        inlier_count=count_inliers(transform, c, delta),
    )


@dataclass(frozen=True)
class RegistrationResult:
    ok: bool
    hypothesis: Hypothesis | None
    probabilities: np.ndarray
    seed_count: int
    hypothesis_count: int
    reason: str | None = None
    seed_diagnostics: tuple[dict, ...] = ()
    timings: dict | None = None


def register(
    c: CorrespondenceSet,
    cfg: RegistrationConfig | None = None,
    model: GPINet | None = None,
    probabilities: np.ndarray | None = None,
) -> RegistrationResult:
    """Full pipeline: score, seed, hypothesize, select.

    Exactly one probability source must be given: a model (scored here)
    or an explicit probability vector. All-degenerate seeds produce an
    ``ok=False`` result rather than an exception.
    """
    cfg = cfg or RegistrationConfig()
    if (model is None) == (probabilities is None):
        raise ContractError("register: pass exactly one of model= or probabilities=")
    n = len(c)
    if n < 4:
        raise DegenerateInputError(f"register: needs N >= 4, got {n}")

    t0 = time.perf_counter()
    if model is not None:
        probs = model.predict(c, cfg.ablation)
    else:
        probs = np.asarray(probabilities, dtype=np.float64).reshape(-1)
        if probs.shape[0] != n:
            raise ContractError(f"register: {probs.shape[0]} probabilities for {n} pairs")
        if np.any(~np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
            raise ContractError("register: probabilities must be finite and within [0, 1]")
    t1 = time.perf_counter()

    delta = cfg.resolved_delta
    sigma_d = cfg.resolved_sigma_d
    seeds = select_seeds(probs, c, cfg.resolved_seed_count(n), cfg.resolved_nms_radius)

    hypotheses: list[Hypothesis] = []
    diagnostics: list[dict] = []
    for seed in seeds.indices:
        members = build_consensus(int(seed), c, sigma_d, cfg.tau)
        hyp = two_stage_estimate(int(seed), members, c, probs, delta, sigma_d)
        diagnostics.append(
            {
                "seed": int(seed),
                "consensus_size": int(members.size),
                "degenerate": hyp is None,
                "inlier_count": None if hyp is None else hyp.inlier_count,
            }
        )
        if hyp is not None:
            hypotheses.append(hyp)
    t2 = time.perf_counter()

    if not hypotheses:
        return RegistrationResult(
            ok=False,
            hypothesis=None,
            probabilities=probs,
            seed_count=len(seeds),
            hypothesis_count=0,
            reason="every seed produced a degenerate consensus",
            seed_diagnostics=tuple(diagnostics),
            timings={"score_s": t1 - t0, "hypotheses_s": t2 - t1, "select_s": 0.0},
        )

    choice = select_best_transform([h.transform for h in hypotheses], c, delta)
    best = hypotheses[choice.index]
    t3 = time.perf_counter()
    return RegistrationResult(
        ok=True,
        hypothesis=best,
        probabilities=probs,
        seed_count=len(seeds),
        hypothesis_count=len(hypotheses),
        seed_diagnostics=tuple(diagnostics),
        timings={"score_s": t1 - t0, "hypotheses_s": t2 - t1, "select_s": t3 - t2},
    )
