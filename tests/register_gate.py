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

``scan_gate(case, monkeypatch, swaps)`` checks RANSAC's sample scan on
acceptance criterion 7's scenes: ``kernels.ransac_scan``, as
``baselines.ransac`` calls it there, must return the same best iteration
and the same best count with the swaps patched in.

``solve_gate(case, method, monkeypatch, swaps, probability_tol)`` does the
same through ``evaluate.solve``, the dispatch that the CLI and the harness
share, for any of the four methods. Every method must give the same ``ok``,
``reason``, ``inlier_count`` and ``details``, and transforms within
TRANSFORM_TOL; ransac and sm must give bit-equal probabilities (1 on the
consensus, 0 elsewhere), and oracle and gpinet must pass ``check_gate`` on
the ``RegistrationResult`` behind their solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from reglab import baselines, evaluate, kernels
from reglab.blocks import GPINet
from reglab.evaluate import METHODS, Solution
from reglab.geometry import RigidTransform
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

# Each method on every scene of CORPUS: gpinet with both networks, the other
# methods, which take no network, once per scene.
METHOD_CORPUS = tuple((method, case) for method in METHODS for case in CORPUS
                      if method == "gpinet" or case.model == "bench")


@dataclass(frozen=True)
class ScanCase:
    """Trial i of acceptance criterion 7: an indoor N=500 scene at 60% outliers
    and 1 cm noise, and its 10 000-iteration RANSAC at delta = 10 cm."""

    trial: int

    @property
    def id(self) -> str:
        return f"criterion7-trial{self.trial}"


SCAN_CORPUS = tuple(ScanCase(i) for i in range(3))


def _scene(case: Case):
    c, _ = generate(SceneConfig(n=case.n, outlier_ratio=case.outlier_ratio, scene=case.scene,
                                seed=case.seed))
    return c


def _model(case: Case) -> GPINet:
    return GPINet.load(PARAMS) if case.model == "bench" else GPINet(seed=0)


def register_case(case: Case) -> RegistrationResult:
    return register(_scene(case), RegistrationConfig(scene=case.scene), model=_model(case))


def solve_case(case: Case, method: str) -> tuple[Solution, RegistrationResult | None]:
    """``evaluate.solve`` of ``method`` on the case's scene (ransac seeded with
    the case's seed), and for oracle and gpinet the result it was made from."""
    seen: list[RegistrationResult] = []
    real = evaluate.register

    def recorded(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate, "register", recorded)
        sol = evaluate.solve(method, _scene(case), RegistrationConfig(scene=case.scene),
                             _model(case) if method == "gpinet" else None, ransac_seed=case.seed)
    return sol, (seen[0] if seen else None)


def _transform_gap(a: RigidTransform, b: RigidTransform) -> float:
    """The largest absolute entry of the rotations' and translations' differences."""
    return max(float(np.abs(b.rotation - a.rotation).max()),
               float(np.abs(b.translation - a.translation).max()))


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
    transform_gap = _transform_gap(a.transform, b.transform)
    assert transform_gap <= TRANSFORM_TOL, f"transforms differ by {transform_gap:.3g}"
    return transform_gap, prob_gap


def check_solution_gate(method: str, want: tuple[Solution, RegistrationResult | None],
                        got: tuple[Solution, RegistrationResult | None],
                        probability_tol: float) -> float:
    """Assert the gate for one method's (solution, result) pair ``got`` against the
    reference ``want``, as solve_case returns them; returns the transform difference."""
    (a, result_a), (b, result_b) = want, got
    assert (b.ok, b.reason) == (a.ok, a.reason), ((a.ok, a.reason), (b.ok, b.reason))
    assert b.inlier_count == a.inlier_count, f"inlier count {b.inlier_count}, want {a.inlier_count}"
    assert b.details == a.details, f"details {b.details}, want {a.details}"
    if method in ("oracle", "gpinet"):
        return check_gate(result_a, result_b, probability_tol)[0]  # its transform is b's
    same = (None if a.probabilities is None else a.probabilities.tobytes()) == \
        (None if b.probabilities is None else b.probabilities.tobytes())
    assert same, "probabilities differ"
    if not a.ok:
        return 0.0
    gap = _transform_gap(a.transform, b.transform)
    assert gap <= TRANSFORM_TOL, f"transforms differ by {gap:.3g}"
    return gap


def register_gate(case: Case, monkeypatch, swaps, probability_tol: float):
    """Register ``case`` with the code as it is and with ``swaps`` patched in;
    check the gate and return (got, want, transform gap, probability gap)."""
    got = register_case(case)
    with monkeypatch.context() as patch:
        for target, name, reference in swaps:
            patch.setattr(target, name, reference)
        want = register_case(case)
    return (got, want, *check_gate(want, got, probability_tol))


def solve_gate(case: Case, method: str, monkeypatch, swaps, probability_tol: float):
    """Solve ``case`` with ``method`` with the code as it is and with ``swaps``
    patched in; check the gate and return (got, want, transform gap)."""
    got = solve_case(case, method)
    with monkeypatch.context() as patch:
        for target, name, reference in swaps:
            patch.setattr(target, name, reference)
        want = solve_case(case, method)
    return got, want, check_solution_gate(method, want, got, probability_tol)


def scan_case(case: ScanCase) -> tuple[int, int]:
    """(best_iteration, best_count) of the ``kernels.ransac_scan`` call that
    ``baselines.ransac`` makes on the case, with the scan as it is patched now."""
    c, _ = generate(SceneConfig(n=500, outlier_ratio=0.6, noise_sigma=0.01,
                                seed=70_000 + case.trial))
    seen = []
    real = kernels.ransac_scan

    def recorded(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "ransac_scan", recorded)
        baselines.ransac(c, iterations=10_000, delta=0.10, seed=90_000 + case.trial)
    return seen[0][:2]


def check_scan_gate(want: tuple[int, int], got: tuple[int, int]) -> None:
    """Assert the same best iteration and best count as the reference ``want``."""
    assert got[0] == want[0], f"best iteration {got[0]}, want {want[0]}"
    assert got[1] == want[1], f"best count {got[1]}, want {want[1]}"


def scan_gate(case: ScanCase, monkeypatch, swaps) -> tuple[int, int]:
    """Scan ``case`` with the code as it is and with ``swaps`` patched in; check
    the gate and return the scan's (best_iteration, best_count)."""
    got = scan_case(case)
    with monkeypatch.context() as patch:
        for target, name, reference in swaps:
            patch.setattr(target, name, reference)
        want = scan_case(case)
    check_scan_gate(want, got)
    return got
