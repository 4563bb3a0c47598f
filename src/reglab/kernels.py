"""Hot numeric kernels in numpy.

The two expensive inner loops of the package live here: building the
N x N pairwise length-consistency matrix, and scanning RANSAC minimal
samples.
"""

from __future__ import annotations

import numpy as np


# -- pairwise length-consistency matrix ------------------------------------
#
# sc(i, j) = max(0, 1 - (||ps_i - ps_j|| - ||pt_i - pt_j||)^2 / sigma^2)
#
# Values lie in [0, 1]; 1 means the pair preserves length exactly.


def consistency_matrix(src: np.ndarray, tgt: np.ndarray, sigma: float,
                       zero_diagonal: bool = False) -> np.ndarray:
    """Full N x N length-consistency matrix for a correspondence set."""
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    if sigma <= 0.0:
        raise ValueError(f"consistency_matrix: sigma must be positive, got {sigma}")
    dxs = src[:, 0][:, None] - src[:, 0][None, :]
    dys = src[:, 1][:, None] - src[:, 1][None, :]
    dzs = src[:, 2][:, None] - src[:, 2][None, :]
    ds = np.sqrt(dxs * dxs + dys * dys + dzs * dzs)
    dxt = tgt[:, 0][:, None] - tgt[:, 0][None, :]
    dyt = tgt[:, 1][:, None] - tgt[:, 1][None, :]
    dzt = tgt[:, 2][:, None] - tgt[:, 2][None, :]
    dt = np.sqrt(dxt * dxt + dyt * dyt + dzt * dzt)
    gap = ds - dt
    m = np.maximum(0.0, 1.0 - (gap * gap) / (sigma * sigma))
    if zero_diagonal:
        np.fill_diagonal(m, 0.0)
    return m


def consistency_row(src: np.ndarray, tgt: np.ndarray, i: int, sigma: float) -> np.ndarray:
    """Single row of the consistency matrix."""
    ds = np.sqrt(((src - src[i]) ** 2).sum(axis=1))
    dt = np.sqrt(((tgt - tgt[i]) ** 2).sum(axis=1))
    gap = ds - dt
    return np.maximum(0.0, 1.0 - (gap * gap) / (sigma * sigma))


# -- RANSAC sample scan ------------------------------------------------------
#
# For each row of ``samples`` (three distinct correspondence indices) fit a
# rigid transform to the triple and count strict inliers at ``delta``.
# Returns (best_iteration, best_count); ties keep the earliest iteration,
# geometrically degenerate triples are skipped with count -1. best_iteration
# is -1 when every triple was degenerate (or there were no samples).
#
# Samples are scored in blocks: each block's triples are fitted with one
# stacked SVD, and all of its residuals come from one matmul
# ``src @ [R_1^T ... R_m^T]``. A block holds about _SCAN_BLOCK_ENTRIES
# residual entries (N x 3 per sample), so scratch memory stays at a few MB
# whatever N or the sample count.

_SCAN_BLOCK_ENTRIES = 1 << 16


def ransac_scan(src: np.ndarray, tgt: np.ndarray, samples: np.ndarray,
                delta: float) -> tuple[int, int]:
    """Score every minimal sample; return (best_iteration, best_count)."""
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    samples = np.ascontiguousarray(samples, dtype=np.int64)
    n, total = src.shape[0], samples.shape[0]
    if total == 0:
        return -1, -1
    step = max(1, _SCAN_BLOCK_ENTRIES // (3 * max(n, 1)))
    d2 = delta * delta
    counts = np.empty(total, dtype=np.int64)
    for lo in range(0, total, step):
        idx = samples[lo:lo + step]
        a, b = src[idx], tgt[idx]                       # (m, 3, 3)
        ca, cb = a.mean(axis=1), b.mean(axis=1)         # (m, 3)
        h = (a - ca[:, None]).transpose(0, 2, 1) @ (b - cb[:, None])
        u, s, vt = np.linalg.svd(h)
        v, ut = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
        d = np.sign(np.linalg.det(v @ ut))
        v[:, :, 2] *= d[:, None]                        # reflection guard
        r = v @ ut
        t = cb - (r @ ca[:, :, None])[:, :, 0]
        res = (src @ r.transpose(2, 0, 1).reshape(3, -1)).reshape(n, -1, 3)
        res += t
        res -= tgt[:, None]
        res *= res
        block = (res.sum(axis=2) < d2).sum(axis=0)
        block[(s[:, 1] <= 1e-9 * s[:, 0]) | (d == 0.0)] = -1
        counts[lo:lo + step] = block
    best = int(np.argmax(counts))
    if counts[best] < 0:
        return -1, -1
    return best, int(counts[best])
