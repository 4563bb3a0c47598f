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
from .errors import ConfigurationError, ContractError, DegenerateInputError, RegLabError
from .geometry import (
    DEFAULT_DELTA,
    CorrespondenceSet,
    RigidTransform,
    check_scene,
    count_inliers,
    _kabsch_segments,
    _point_columns,
    select_best_transform,
)

DEFAULT_NMS_RADIUS = {"indoor": 0.5, "outdoor": 3.0}

# Consistency threshold of the consensus sets and of sm's greedy sweep.
TAU = 0.5


def seed_count_for(n: int) -> int:
    """Seeds for N pairs: max(1, ceil(N / 10)), about a tenth of them."""
    return max(1, int(np.ceil(n / 10)))


@dataclass(frozen=True)
class RegistrationConfig:
    """Settings of the seed/consensus/estimate pipeline.

    ``delta`` (inlier radius, meters) defaults from the scene kind. The
    rest are fixed rules: seed_count_for(N) seeds, the scene's
    DEFAULT_NMS_RADIUS, consensus at consistency >= TAU with sigma_d = delta.
    """

    scene: str = "indoor"
    delta: float | None = None
    ablation: Ablation = field(default_factory=Ablation)

    def __post_init__(self):
        check_scene(self.scene)
        d = self.delta
        if d is not None and not (0.0 < d < np.inf and d * d > 0.0):
            raise ConfigurationError(
                f"delta must be positive and finite with a nonzero square, got {d}")

    @property
    def resolved_delta(self) -> float:
        return self.delta if self.delta is not None else DEFAULT_DELTA[self.scene]


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
) -> np.ndarray:
    """Indices of the seeds: greedy top-k by probability with spatial suppression.

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
    cols = np.ascontiguousarray(src.T)
    diff = np.empty_like(cols)
    suppressed = np.zeros(n, dtype=bool)  # within the radius of a kept seed
    for idx in order:
        if len(kept) == k:
            break
        if suppressed[idx]:
            continue
        kept.append(int(idx))
        if nms_radius > 0.0:
            # squared distances summed x, y, z in turn, as (d * d).sum(axis=1)
            np.subtract(cols, src[idx, :, None], out=diff)
            diff *= diff
            dist2 = diff[0] + diff[1]
            dist2 += diff[2]
            suppressed |= dist2 < r2
    return np.asarray(kept, dtype=np.int64)


# -- hypotheses ----------------------------------------------------------------
#
# register runs the seeds in blocks of kernels.transforms_per_block(N): one
# consistency_rows call gives a block's seed rows, which yield both the
# consensus sets and the stage-1 weights. The sets are concatenated into one
# index array and the weights are one flat gather of the rows at it; one
# geometry._kabsch_segments call fits the block's stage-1 transforms, and
# one kernels.strict_inliers call gives all of their strict inliers. Stage 2
# depends only on that inlier set (and the probabilities), so it runs once
# per distinct set, again as one segment solve per block, and selection
# scores each distinct final transform once. Working memory is O(block * N)
# whatever the seed count. build_consensus and two_stage_estimate are the
# one-seed case.


def _seed_consensus(
    seeds: np.ndarray,
    c: CorrespondenceSet,
    sigma_d: float,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The seeds' consistency rows, and the indices where each row reaches TAU.

    The seed itself is always a member: its self-consistency is exactly 1,
    since both of its distances are an exact 0.
    """
    rows = kernels.consistency_rows(c.source, c.target, sigma_d, seeds)
    return rows, [np.flatnonzero(row >= TAU) for row in rows]


def _two_stage_block(
    rows: np.ndarray,
    consensus: list[np.ndarray],
    cols: tuple[np.ndarray, np.ndarray],
    probs: np.ndarray,
    delta: float,
    fits: list[tuple[RigidTransform, np.ndarray]],
    refits: dict[bytes, int | None],
) -> list[int | None]:
    """Two-stage fits of a block of seeds, given their rows and consensus sets.

    ``cols`` is _point_columns(c). Appends each new final (transform,
    members) to ``fits``, in seed order, and returns each seed's index into
    it; None marks a degenerate stage-1 consensus. ``refits`` maps every
    strict-inlier set met so far to its stage-2 entry, or to None when that
    refit is impossible (a thin set of fewer than 3 pairs, or a degenerate
    one): such a seed keeps its stage-1 transform and consensus as an entry
    of its own.
    """
    sizes = [members.size for members in consensus]
    joined = np.concatenate(consensus)
    weights = probs[joined] * rows[np.repeat(np.arange(len(rows)), sizes), joined]
    stage1 = [
        None if isinstance(fit, RegLabError) else fit
        for fit in _kabsch_segments(*cols, joined, sizes, weights)
    ]
    fitted = [t for t in stage1 if t is not None]
    if not fitted:
        return [None] * len(stage1)
    masks = iter(kernels.strict_inliers(*cols, np.stack([t.rotation for t in fitted]),
                                        np.stack([t.translation for t in fitted]), delta))
    keys: list[bytes | None] = []
    new: dict[bytes, np.ndarray] = {}  # strict-inlier sets first met in this block
    for transform in stage1:
        mask = None if transform is None else next(masks)
        keys.append(None if mask is None else mask.tobytes())
        if mask is not None and keys[-1] not in refits and keys[-1] not in new:
            new[keys[-1]] = np.flatnonzero(mask)
    thick = [key for key, idx in new.items() if idx.size >= 3]
    stage2 = {}
    if thick:
        inliers = np.concatenate([new[key] for key in thick])
        stage2 = dict(zip(thick, _kabsch_segments(*cols, inliers, [new[key].size for key in thick],
                                                  probs[inliers])))
    picks: list[int | None] = []
    for transform, members, key in zip(stage1, consensus, keys):
        if transform is None:
            picks.append(None)
            continue
        if key not in refits:
            fit = stage2.get(key)
            refits[key] = None
            if fit is not None and not isinstance(fit, RegLabError):
                fits.append((fit, new[key]))
                refits[key] = len(fits) - 1
        if refits[key] is None:
            fits.append((transform, members))
            picks.append(len(fits) - 1)
        else:
            picks.append(refits[key])
    return picks


def build_consensus(seed: int, c: CorrespondenceSet, sigma_d: float = 0.10) -> np.ndarray:
    """Indices whose length consistency with the seed reaches TAU, the seed among them."""
    return _seed_consensus(np.array([seed]), c, sigma_d)[1][0]


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
    rows = kernels.consistency_rows(c.source, c.target, sigma_d, np.array([seed]))
    fits: list[tuple[RigidTransform, np.ndarray]] = []
    (pick,) = _two_stage_block(rows, [np.asarray(consensus)], _point_columns(c), probs, delta,
                               fits, {})
    if pick is None:
        return None
    transform, members = fits[pick]
    return Hypothesis(transform, int(seed), members, count_inliers(transform, c, delta))


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

    delta = cfg.resolved_delta  # also sigma_d, the consistency width
    seeds = select_seeds(probs, c, seed_count_for(n), DEFAULT_NMS_RADIUS[cfg.scene])

    fits: list[tuple[RigidTransform, np.ndarray]] = []  # distinct final fits
    refits: dict[bytes, int | None] = {}
    picks: list[int | None] = []  # per seed, its entry in fits
    sizes: list[int] = []
    cols = _point_columns(c)
    step = kernels.transforms_per_block(n)
    for lo in range(0, len(seeds), step):
        rows, consensus = _seed_consensus(seeds[lo:lo + step], c, delta)
        picks += _two_stage_block(rows, consensus, cols, probs, delta, fits, refits)
        sizes += [members.size for members in consensus]
    t2 = time.perf_counter()

    choice = select_best_transform([t for t, _ in fits], c, delta) if fits else None
    counts = choice.counts if choice else ()
    diagnostics = tuple(
        {
            "seed": int(seed),
            "consensus_size": int(size),
            "degenerate": pick is None,
            "inlier_count": None if pick is None else counts[pick],
        }
        for seed, size, pick in zip(seeds, sizes, picks)
    )
    if choice is None:
        return RegistrationResult(
            ok=False,
            hypothesis=None,
            probabilities=probs,
            seed_count=len(seeds),
            hypothesis_count=0,
            reason="every seed produced a degenerate consensus",
            seed_diagnostics=diagnostics,
            timings={"score_s": t1 - t0, "hypotheses_s": t2 - t1, "select_s": 0.0},
        )

    # fits are in first-seed order, so the first pick of the chosen fit is
    # the lowest seed with the best key, as a per-seed selection would find
    transform, members = fits[choice.index]
    seed = int(seeds[picks.index(choice.index)])
    best = Hypothesis(transform, seed, members, choice.inlier_count)
    t3 = time.perf_counter()
    return RegistrationResult(
        ok=True,
        hypothesis=best,
        probabilities=probs,
        seed_count=len(seeds),
        hypothesis_count=sum(pick is not None for pick in picks),
        seed_diagnostics=diagnostics,
        timings={"score_s": t1 - t0, "hypotheses_s": t2 - t1, "select_s": t3 - t2},
    )
