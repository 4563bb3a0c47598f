"""The graph formulas of GFA's attention and the embedding's consistency mix.

These are the whole-map compositions of primitive Tensor ops that training
used to record: they store every (N, N) map. They serve as the reference
that ``blocks._attend`` and ``blocks._consistency_mix``, which work one row
block at a time and recompute in the backward, are checked against.
"""

from __future__ import annotations

import numpy as np

from reglab import kernels
from reglab.autodiff import Tensor


def softmax_rows(a: Tensor) -> Tensor:
    """Row softmax as one graph node: kernels.softmax_rows forward,
    y * (g - rowsum(g * y)) backward."""
    y = kernels.softmax_rows(np.array(a.value, order="C"))

    def backward(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (y * (g - inner),)

    return Tensor._make(y, (a,), backward)


def attend(q: Tensor, k: Tensor, v: Tensor, scale: float | None = None) -> Tensor:
    """softmax_rows(q k^T [* scale]) v over the whole stored map."""
    scores = q.matmul(k.T)
    if scale is not None:
        scores = scores * scale
    return softmax_rows(scores).matmul(v)


def consistency_mix(c, sigma: float, feats: Tensor) -> Tensor:
    """SC @ feats with the full consistency matrix as a constant operand."""
    return Tensor(kernels.consistency_matrix(c.source, c.target, sigma)).matmul(feats)
