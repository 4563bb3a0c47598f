"""Minimal reverse-mode automatic differentiation over float64 matrices.

A ``Tensor`` wraps a 2-D numpy array plus a gradient slot and a backward
closure. Operations record their parents and a closure that maps the
output's gradient to one gradient per parent, and does nothing else.
``Tensor.backward()`` on a scalar result walks the graph in reverse
topological order and is the only code that adds gradients: it adds each
node's returned gradients into the parents that track gradients, last
parent first. The order decides the bits of a tensor that reaches one
node through two parents and already holds a gradient (GFA's cross
attention passes one tensor as k and v).

The operation set is exactly the closure needed by the network blocks:
matmul, transpose, broadcast add/sub/mul/div, relu, sigmoid, log, sqrt,
clip, sum/mean reductions, column concatenation and channel shuffling.
Scalars ride along as (1, 1) tensors. The network's two N x N ops, the
row-blocked attention and consistency mix, are nodes of their own built
in ``blocks`` through ``Tensor._make`` and ``recording``.

Graphs are cheap throwaway objects: build, call backward once, drop.
Inference code wraps forwards in ``no_grad()`` so no graph is recorded.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Context manager that suspends graph recording."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def recording(*tensors: "Tensor") -> bool:
    """Whether an op on ``tensors`` records a backward: one tracks gradients, outside no_grad."""
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _as_value(x) -> np.ndarray:
    if isinstance(x, Tensor):
        raise TypeError("pass Tensor operands directly, not through _as_value")
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1, 1)
    if v.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got shape {v.shape}")
    return v


def shuffle_permutation(cols: int, groups: int) -> np.ndarray:
    """Column order produced by channel shuffling.

    Viewing the columns as a (groups, cols // groups) grid, transpose it
    and read the grid back out row-major. For 6 columns in 2 groups the
    order is [0, 3, 1, 4, 2, 5].
    """
    if groups < 1 or cols % groups != 0:
        raise ShapeError(
            f"channel_shuffle: {cols} columns not divisible into {groups} groups"
        )
    return np.arange(cols).reshape(groups, cols // groups).T.reshape(-1)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    for ax in range(2):
        if shape[ax] == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False):
        self.value = _as_value(value)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- plumbing -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.value.shape}{flag})"

    def _accumulate(self, g: np.ndarray) -> None:
        # No gradient is ever written in place, so a C-ordered first one is kept
        # as given, shared or not, and later ones add into a new array.
        if self.grad is None:
            self.grad = np.ascontiguousarray(g)
        else:
            self.grad = np.add(self.grad, g, order="C")

    @staticmethod
    def _make(value: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """The result of an op on ``parents``; it records ``backward`` if it tracks gradients.

        ``backward(g)`` takes the gradient of ``value`` and returns a tuple with
        one gradient per parent, in parent order, and has no other effect. It
        may return one for a parent that tracks no gradient; that one is dropped.
        """
        out = Tensor.__new__(Tensor)
        out.value = value
        out.grad = None
        track = recording(*parents)
        out.requires_grad = track
        out._parents = parents if track else ()
        out._backward = backward if track else None
        return out

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._make(a.value + b.value, (a, b), lambda g: (
            _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.value, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._make(a.value * b.value, (a, b), lambda g: (
            _unbroadcast(g * b.value, a.shape), _unbroadcast(g * a.value, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, Tensor._coerce(other)
        return Tensor._make(a.value / b.value, (a, b), lambda g: (
            _unbroadcast(g / b.value, a.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.shape)))

    def __rtruediv__(self, other):
        return Tensor._coerce(other) / self

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, Tensor._coerce(other)
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: inner dimensions differ, lhs {a.shape} vs rhs {b.shape}")
        return Tensor._make(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))

    __matmul__ = matmul

    @property
    def T(self) -> "Tensor":
        return Tensor._make(self.value.T.copy(), (self,), lambda g: (g.T,))

    # -- elementwise nonlinearities -------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.value > 0.0
        return Tensor._make(np.where(mask, self.value, 0.0), (self,), lambda g: (g * mask,))

    def sigmoid(self) -> "Tensor":
        v = self.value
        y = np.empty_like(v)
        pos = v >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        e = np.exp(v[~pos])
        y[~pos] = e / (1.0 + e)
        return Tensor._make(y, (self,), lambda g: (g * y * (1.0 - y),))

    def log(self) -> "Tensor":
        v = self.value
        return Tensor._make(np.log(v), (self,), lambda g: (g / v,))

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.value)
        return Tensor._make(y, (self,), lambda g: (g * 0.5 / y,))

    def clip(self, lo: float, hi: float) -> "Tensor":
        inside = (self.value > lo) & (self.value < hi)
        return Tensor._make(np.clip(self.value, lo, hi), (self,), lambda g: (g * inside,))

    # -- structured ops --------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        a = self
        if axis is None:
            value = np.array([[a.value.sum()]])
        else:
            value = a.value.sum(axis=axis, keepdims=True)
        return Tensor._make(value, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))

    def mean(self, axis: int | None = None) -> "Tensor":
        count = self.value.size if axis is None else self.shape[axis]
        return self.sum(axis) * (1.0 / count)

    def channel_shuffle(self, groups: int = 2) -> "Tensor":
        perm = shuffle_permutation(self.shape[1], groups)
        inv = np.argsort(perm)
        return Tensor._make(self.value[:, perm], (self,), lambda g: (g[:, inv],))

    # -- graph traversal ---------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar (size-1) tensor."""
        if self.value.size != 1:
            raise ContractError(
                f"backward: root must be scalar, got shape {self.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.value))
        for node in reversed(order):
            if node._backward is not None:  # it tracks, so its consumers gave it a gradient
                grads = node._backward(node.grad)
                for parent, g in zip(node._parents[::-1], grads[::-1], strict=True):
                    if parent.requires_grad:
                        parent._accumulate(g)


def concat_cols(tensors: list[Tensor] | tuple[Tensor, ...]) -> Tensor:
    """Concatenate tensors along columns; all must share the row count."""
    if not tensors:
        raise ContractError("concat_cols: empty tensor list")
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.shape[0] != rows:
            raise ShapeError(
                f"concat_cols: row counts differ, {t.shape} vs ({rows}, *)"
            )
    value = np.concatenate([t.value for t in tensors], axis=1)
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])
    return Tensor._make(value, tuple(tensors), lambda g: tuple(
        g[:, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])))
