"""Layers over the autodiff Tensor plus parameter (de)serialization.

Layers are plain objects holding named Tensors. A parameter's name is the
attribute path that holds it (``named_parts``), so a model's parameters
form a flat ``{dotted.name: Tensor}`` mapping; that mapping round-trips
through a single JSON document of ``name -> {shape, values}`` with
row-major value arrays and exact shape validation on load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    ShapeError,
    UninitializedStatsError,
)
from .formats import read_text_file

# Added to the variance inside the square root of every normalization.
EPS_NORM = 1e-5


class Linear:
    """Affine map columns_in -> columns_out, rows carried through.

    Weights start He-normal (std sqrt(2 / fan_in)), biases at zero.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.d_in = d_in
        self.d_out = d_out
        self.weight = Tensor(
            rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros((1, d_out)), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight) + self.bias


class InstanceNorm:
    """Per-column standardization over the rows; no learnable parameters."""

    def __init__(self, eps: float = EPS_NORM):
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[0] < 2:
            raise DegenerateInputError(
                f"InstanceNorm: needs >= 2 rows, got {x.shape[0]}"
            )
        mu = x.mean(axis=0)
        centered = x - mu
        var = (centered * centered).mean(axis=0)
        return centered / (var + self.eps).sqrt()


class BatchNorm:
    """Batch normalization where the row dimension is the batch.

    Modes:
      * ``train``  - normalize with current row statistics, update the
        running statistics by EMA (adopting them outright on first use),
      * ``frozen`` - normalize with current row statistics, touch nothing
        (single-set inference),
      * ``eval``   - normalize with stored running statistics; raises if
        none were ever populated.
    """

    def __init__(self, width: int, eps: float = EPS_NORM, momentum: float = 0.1):
        self.width = width
        self.eps = eps
        self.momentum = momentum
        self.scale = Tensor(np.ones((1, width)), requires_grad=True)
        self.shift = Tensor(np.zeros((1, width)), requires_grad=True)
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None

    def __call__(self, x: Tensor, mode: str = "frozen") -> Tensor:
        if x.shape[1] != self.width:
            raise ShapeError(
                f"BatchNorm: input {x.shape} does not match width {self.width}"
            )
        if mode == "eval":
            if self.running_mean is None or self.running_var is None:
                raise UninitializedStatsError(
                    "BatchNorm: eval mode before any train step populated running stats"
                )
            centered = x - Tensor(self.running_mean)
            denom = np.sqrt(self.running_var + self.eps)
            return centered / Tensor(denom) * self.scale + self.shift
        if mode not in ("train", "frozen"):
            raise ConfigurationError(f"BatchNorm: unknown mode {mode!r}")
        if x.shape[0] < 2:
            raise DegenerateInputError(
                f"BatchNorm: {mode} mode needs >= 2 rows, got {x.shape[0]}"
            )
        mu = x.mean(axis=0)
        centered = x - mu
        var = (centered * centered).mean(axis=0)
        if mode == "train":
            n = x.shape[0]
            batch_mean = mu.value.copy()
            batch_var = var.value * n / (n - 1)
            if self.running_mean is None or self.running_var is None:
                self.running_mean = batch_mean
                self.running_var = batch_var
            else:
                m = self.momentum
                self.running_mean = (1.0 - m) * self.running_mean + m * batch_mean
                self.running_var = (1.0 - m) * self.running_var + m * batch_var
        return centered / (var + self.eps).sqrt() * self.scale + self.shift

    def buffers(self) -> dict[str, np.ndarray | None]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def load_buffers(self, values: dict[str, np.ndarray]) -> None:
        if "running_mean" in values:
            self.running_mean = values["running_mean"].reshape(1, self.width).copy()
        if "running_var" in values:
            self.running_var = values["running_var"].reshape(1, self.width).copy()


def named_parts(layer, prefix: str = ""):
    """(dotted attribute path, part) for every parameter and sub-layer under ``layer``.

    A parameter is a Tensor that requires a gradient. A sub-layer is any
    other object with a ``__dict__``; it is yielded, then walked in turn.
    Each entry of a dict attribute is named ``attr_key``. Lists, arrays,
    numbers and constant Tensors are skipped. The paths of the parameters
    are the keys of a parameter file, so renaming an attribute changes it.
    """
    for attr, value in vars(layer).items():
        entries = ([(f"{attr}_{key}", part) for key, part in value.items()]
                   if isinstance(value, dict) else [(attr, value)])
        for name, part in entries:
            if isinstance(part, Tensor):
                if part.requires_grad:
                    yield prefix + name, part
            elif hasattr(part, "__dict__"):
                yield prefix + name, part
                yield from named_parts(part, f"{prefix}{name}.")


def sgd_step(params: dict[str, Tensor], lr: float) -> None:
    """One plain gradient-descent update; clears gradients afterwards."""
    for t in params.values():
        if t.grad is not None:
            t.value = t.value - lr * t.grad
            t.grad = None


def save_parameters(
    path: str | Path,
    params: dict[str, Tensor],
    buffers: dict[str, np.ndarray] | None = None,
    config: dict | None = None,
) -> None:
    """Write parameters (and populated stat buffers) to a single JSON doc."""
    doc: dict = {"format": "reglab-parameters-v1"}
    if config is not None:
        doc["config"] = config
    arrays = {name: t.value for name, t in params.items()} | (buffers or {})
    doc["parameters"] = {
        name: {"shape": list(arr.shape), "values": [float(v) for v in arr.reshape(-1)]}
        for name, arr in arrays.items()
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_parameters(path: str | Path) -> tuple[dict | None, dict[str, np.ndarray]]:
    """Read a parameter JSON doc; returns (config or None, name -> array)."""
    try:
        doc = json.loads(read_text_file(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("parameters"), dict):
        raise ConfigurationError(f"{path}: not a parameter document")
    arrays: dict[str, np.ndarray] = {}
    for name, entry in doc["parameters"].items():
        try:
            shape = tuple(int(s) for s in entry["shape"])
            values = np.asarray(entry["values"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{path}: entry {name!r} is not a shape/values pair ({exc!r})"
            ) from exc
        if values.size != int(np.prod(shape)):
            raise ConfigurationError(
                f"{path}: entry {name!r} has {values.size} values for shape {shape}"
            )
        arrays[name] = values.reshape(shape)
    return doc.get("config"), arrays


def assign_parameters(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into model tensors with exact shape validation."""
    missing = sorted(set(params) - set(arrays))
    if missing:
        raise ConfigurationError(f"parameter document is missing entries: {missing}")
    for name, t in params.items():
        arr = arrays[name]
        if arr.shape != t.value.shape:
            raise ShapeError(
                f"parameter {name!r}: stored shape {arr.shape} != model shape {t.value.shape}"
            )
        t.value = arr.copy()
        t.grad = None
