"""Layers over the autodiff Tensor plus parameter (de)serialization.

Layers are plain objects holding named Tensors. A parameter's name is the
attribute path that holds it (``named_parts``), so a model's parameters
form a flat ``{dotted.name: Tensor}`` mapping. Those parameters and the
batch-norm running statistics (``named_state``) round-trip through a single
JSON document of ``name -> {shape, values}`` with row-major value arrays;
loading checks the key set and every shape exactly.
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
)
from .formats import read_text_file

# Added to the variance inside the square root of every normalization.
EPS_NORM = 1e-5
# Weight of a train step's batch statistics in BatchNorm's running averages.
MOMENTUM = 0.1


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


def _standardize(x: Tensor, who: str) -> tuple[Tensor, Tensor, Tensor]:
    """(mean, variance, standardized x) per column over the rows; ``who`` starts the error."""
    if x.shape[0] < 2:
        raise DegenerateInputError(f"{who} needs >= 2 rows, got {x.shape[0]}")
    mu = x.mean(axis=0)
    centered = x - mu
    var = (centered * centered).mean(axis=0)
    return mu, var, centered / (var + EPS_NORM).sqrt()


class InstanceNorm:
    """Per-column standardization over the rows; no learnable parameters."""

    def __call__(self, x: Tensor) -> Tensor:
        return _standardize(x, "InstanceNorm:")[2]


class BatchNorm:
    """Batch normalization where the row dimension is the batch.

    Both modes normalize with the current row statistics:
      * ``train``  - also updates the running statistics by EMA (adopting
        them outright on first use); no output reads them, and they are
        kept for the parameter files,
      * ``frozen`` - touches nothing (single-set inference).
    """

    def __init__(self, width: int):
        self.width = width
        self.scale = Tensor(np.ones((1, width)), requires_grad=True)
        self.shift = Tensor(np.zeros((1, width)), requires_grad=True)
        self.running_mean: np.ndarray | None = None
        self.running_var: np.ndarray | None = None

    def __call__(self, x: Tensor, mode: str = "frozen") -> Tensor:
        if x.shape[1] != self.width:
            raise ShapeError(
                f"BatchNorm: input {x.shape} does not match width {self.width}"
            )
        if mode not in ("train", "frozen"):
            raise ConfigurationError(f"BatchNorm: unknown mode {mode!r}")
        mu, var, out = _standardize(x, f"BatchNorm: {mode} mode")
        if mode == "train":
            n = x.shape[0]
            batch_mean = mu.value.copy()
            batch_var = var.value * n / (n - 1)
            if self.running_mean is None or self.running_var is None:
                self.running_mean = batch_mean
                self.running_var = batch_var
            else:
                self.running_mean = (1.0 - MOMENTUM) * self.running_mean + MOMENTUM * batch_mean
                self.running_var = (1.0 - MOMENTUM) * self.running_var + MOMENTUM * batch_var
        return out * self.scale + self.shift


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


def named_state(layer):
    """(name, owner, attribute, shape) for every array a parameter file holds.

    That is the ``value`` of each parameter ``named_parts`` finds, and the
    ``running_mean`` and ``running_var`` of each BatchNorm, which stay None
    until a train step sets them.
    """
    for name, part in named_parts(layer):
        if isinstance(part, Tensor):
            yield name, part, "value", part.value.shape
        elif isinstance(part, BatchNorm):
            for stat in ("running_mean", "running_var"):
                yield f"{name}.{stat}", part, stat, (1, part.width)


def save_parameters(path: str | Path, layer, config: dict | None = None) -> None:
    """Write every populated array of ``named_state(layer)`` to a single JSON doc."""
    doc: dict = {"format": "reglab-parameters-v1"}
    if config is not None:
        doc["config"] = config
    arrays = {name: getattr(owner, attr) for name, owner, attr, _ in named_state(layer)}
    doc["parameters"] = {
        name: {"shape": list(arr.shape), "values": [float(v) for v in arr.reshape(-1)]}
        for name, arr in arrays.items() if arr is not None
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
            if values.size == int(np.prod(shape)):
                arrays[name] = values.reshape(shape)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(
                f"{path}: entry {name!r} is not a shape/values pair ({exc!r})"
            ) from exc
        if name not in arrays:
            raise ConfigurationError(
                f"{path}: entry {name!r} has {values.size} values for shape {shape}"
            )
        if not np.isfinite(values).all():
            raise ConfigurationError(f"{path}: entry {name!r} holds NaN or infinite values")
    return doc.get("config"), arrays


def assign_state(layer, arrays: dict[str, np.ndarray], source) -> None:
    """Copy a parameter file's arrays into ``layer``; refuse any mismatch.

    Every key must be one of ``named_state(layer)`` and every shape must be
    the model's. Every parameter must be present; a BatchNorm's two running
    statistics may be left out together (a never-trained model), not singly.
    """
    state = {name: (owner, attr, shape) for name, owner, attr, shape in named_state(layer)}
    unknown = sorted(set(arrays) - set(state))
    if unknown:
        raise ConfigurationError(f"{source}: unknown entries {unknown}")
    for name, (owner, attr, shape) in state.items():
        if name in arrays:
            if arrays[name].shape != shape:
                raise ConfigurationError(
                    f"{source}: entry {name!r} has shape {arrays[name].shape}, "
                    f"the model's is {shape}")
            setattr(owner, attr, arrays[name].copy())
        elif attr == "value" or any(key in arrays for key, (other, _, _) in state.items()
                                    if other is owner):
            raise ConfigurationError(f"{source}: entry {name!r} is missing")
