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
# is -1 when every triple was degenerate.


def _fit_triple(a: np.ndarray, b: np.ndarray):
    """Unit-weight rigid fit to three points. Returns (ok, R, t)."""
    ca = np.array([a[:, 0].mean(), a[:, 1].mean(), a[:, 2].mean()])
    cb = np.array([b[:, 0].mean(), b[:, 1].mean(), b[:, 2].mean()])
    h = (a - ca).T @ (b - cb)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-9 * s[0]:
        return False, np.eye(3), np.zeros(3)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        return False, np.eye(3), np.zeros(3)
    flip = np.ones(3)
    flip[2] = d
    r = (vt.T * flip) @ u.T
    t = cb - r @ ca
    return True, r, t


def ransac_scan(src: np.ndarray, tgt: np.ndarray, samples: np.ndarray,
                delta: float) -> tuple[int, int]:
    """Score every minimal sample; return (best_iteration, best_count)."""
    src = np.ascontiguousarray(src, dtype=np.float64)
    tgt = np.ascontiguousarray(tgt, dtype=np.float64)
    samples = np.ascontiguousarray(samples, dtype=np.int64)
    best_iter = -1
    best_count = -1
    d2 = delta * delta
    for m in range(samples.shape[0]):
        idx = samples[m]
        ok, r, t = _fit_triple(src[idx], tgt[idx])
        if not ok:
            continue
        res = src @ r.T + t - tgt
        count = int(((res * res).sum(axis=1) < d2).sum())
        if count > best_count:
            best_count = count
            best_iter = m
    return best_iter, best_count
