"""Correspondence-based point cloud registration laboratory.

A numpy package with the consistency-matrix and RANSAC-scan kernels, a
minimal reverse-mode autodiff engine, an attention-based correspondence
scorer, classical baselines, a synthetic benchmark generator, and an
experiment CLI with deterministic CSV/JSON/SVG reports. The names below
are the entry points; everything else is imported from its submodule.
"""

from .blocks import GPINet, ModelConfig
from .errors import RegLabError
from .evaluate import METHODS, ExperimentConfig, run_experiment, solve
from .geometry import CorrespondenceSet, RigidTransform
from .pipeline import RegistrationConfig, register
from .synth import SceneConfig, generate

__version__ = "0.1.0"

__all__ = [
    "CorrespondenceSet",
    "ExperimentConfig",
    "GPINet",
    "METHODS",
    "ModelConfig",
    "RegLabError",
    "RegistrationConfig",
    "RigidTransform",
    "SceneConfig",
    "generate",
    "register",
    "run_experiment",
    "solve",
]
