"""The register-level tolerance gate for a fast path that changes bits.

A faster implementation may replace a reference one even where their bits
differ, if ``pipeline.register`` reaches the same answers with either, on
every scene of a fixed corpus:

- the same ``ok``, the same selected seed and the same seed and
  hypothesis counts;
- the same inlier count, the same consensus and the same per-seed
  ``seed_diagnostics``;
- rotations and translations within TRANSFORM_TOL (largest absolute
  entry of the difference);
- probabilities within a bound that the caller states.

``register_gate(case, monkeypatch, swaps, probability_tol)`` registers a
case with the code as it is, then again with each (target, name,
reference) of ``swaps`` patched in, and checks the gate. Any fast path
can reuse it: only the swaps name what is compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reglab.blocks import GPINet
from reglab.pipeline import RegistrationConfig, RegistrationResult, register
from reglab.synth import SceneConfig, generate

PARAMS = Path(__file__).resolve().parents[1] / "bench" / "model" / "params.json"
TRANSFORM_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    """One registration: a synthetic scene and the network that scores it."""

    scene: str
    n: int
    outlier_ratio: float
    seed: int
    model: str  # "bench" (the trained bench model) or "untrained" (GPINet(seed=0))

    @property
    def id(self) -> str:
        return f"{self.model}-{self.scene}-{self.n}-seed{self.seed}"


# register_small-shaped scenes (indoor N=250, 50% outliers), register_large-shaped
# ones (outdoor N=2000, 80% outliers), and N = 500, 1000 and 2003 in between and past
# them; each scored by the bench model and by an untrained one.
CORPUS = tuple(
    Case(scene, n, ratio, seed, model)
    for model in ("bench", "untrained")
    for scene, n, ratio, seeds in (
        ("indoor", 250, 0.5, (1, 2, 3)),
        ("indoor", 500, 0.5, (4,)),
        ("outdoor", 1000, 0.8, (6,)),
        ("outdoor", 2000, 0.8, (1, 2) if model == "bench" else (1,)),
        ("outdoor", 2003, 0.8, (5,)),
    )
    for seed in seeds
)


def register_case(case: Case) -> RegistrationResult:
    c, _ = generate(SceneConfig(n=case.n, outlier_ratio=case.outlier_ratio, scene=case.scene,
                                seed=case.seed))
    model = GPINet.load(PARAMS) if case.model == "bench" else GPINet(seed=0)
    return register(c, RegistrationConfig(scene=case.scene), model=model)


def check_gate(want: RegistrationResult, got: RegistrationResult,
               probability_tol: float) -> tuple[float, float]:
    """Assert the gate for ``got`` against the reference ``want``; returns the
    largest transform and probability differences."""
    assert got.ok == want.ok, (want.ok, got.ok)
    assert (got.seed_count, got.hypothesis_count) == (want.seed_count, want.hypothesis_count)
    assert got.seed_diagnostics == want.seed_diagnostics
    prob_gap = float(np.abs(got.probabilities - want.probabilities).max())
    assert prob_gap <= probability_tol, f"probabilities differ by {prob_gap:.3g}"
    if not want.ok:
        return 0.0, prob_gap
    a, b = want.hypothesis, got.hypothesis
    assert b.seed_index == a.seed_index, f"selected seed {b.seed_index}, want {a.seed_index}"
    assert b.inlier_count == a.inlier_count, (a.inlier_count, b.inlier_count)
    assert np.array_equal(b.consensus, a.consensus)
    transform_gap = max(
        float(np.abs(b.transform.rotation - a.transform.rotation).max()),
        float(np.abs(b.transform.translation - a.transform.translation).max()),
    )
    assert transform_gap <= TRANSFORM_TOL, f"transforms differ by {transform_gap:.3g}"
    return transform_gap, prob_gap


def register_gate(case: Case, monkeypatch, swaps, probability_tol: float):
    """Register ``case`` with the code as it is and with ``swaps`` patched in;
    check the gate and return (got, want, transform gap, probability gap)."""
    got = register_case(case)
    with monkeypatch.context() as patch:
        for target, name, reference in swaps:
            patch.setattr(target, name, reference)
        want = register_case(case)
    return (got, want, *check_gate(want, got, probability_tol))
