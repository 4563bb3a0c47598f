"""Fast paths under the register-level gate: the embedding's triangle consistency
mix, the weighted fits as one segment solve, and RANSAC's stacked sample scan."""

from dataclasses import replace

import numpy as np
import pytest

import graph_reference
from reglab import blocks, geometry, kernels, pipeline
from reglab.evaluate import METHODS
from reglab.geometry import RigidTransform
from reglab.kernels import row_blocks
from register_gate import (CORPUS, METHOD_CORPUS, SCAN_CORPUS, TRANSFORM_TOL, Case, ScanCase,
                           check_gate, check_scan_gate, check_solution_gate, register_case,
                           register_gate, scan_case, scan_gate, solve_case, solve_gate)
from test_geometry import reference_segments

MIX_PROBABILITY_TOL = 1e-12
MIX_SWAP = [(blocks, "_consistency_mix", graph_reference.consistency_mix)]


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case.id)
def test_triangle_mix_passes_the_register_gate(case, monkeypatch):
    """Against the full-row product Tensor(SC) @ F; bit for bit where the mix is one block."""
    got, want, _, _ = register_gate(case, monkeypatch, MIX_SWAP, MIX_PROBABILITY_TOL)
    if len(list(row_blocks(case.n))) == 1:
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.hypothesis.transform.rotation.tobytes() == \
            want.hypothesis.transform.rotation.tobytes()


@pytest.fixture(scope="module")
def small_result():
    return register_case(Case("indoor", 250, 0.5, 1, "bench"))


def test_gate_passes_a_result_against_itself(small_result):
    assert small_result.ok
    assert check_gate(small_result, small_result, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("part", ["rotation", "translation"])
def test_gate_fails_on_a_transform_perturbation(small_result, part):
    hyp = small_result.hypothesis
    rotation, translation = hyp.transform.rotation.copy(), hyp.transform.translation.copy()
    if part == "rotation":
        rotation[1, 2] += 10 * TRANSFORM_TOL
    else:
        translation[2] += 10 * TRANSFORM_TOL
    moved = replace(small_result, hypothesis=replace(hyp, transform=RigidTransform(rotation,
                                                                                  translation)))
    with pytest.raises(AssertionError, match="transforms differ"):
        check_gate(small_result, moved, 0.0)


def test_gate_fails_on_a_different_selected_seed(small_result):
    hyp = small_result.hypothesis
    other = next(d["seed"] for d in small_result.seed_diagnostics if d["seed"] != hyp.seed_index)
    moved = replace(small_result, hypothesis=replace(hyp, seed_index=other))
    with pytest.raises(AssertionError, match="selected seed"):
        check_gate(small_result, moved, 0.0)


def test_gate_fails_on_a_probability_past_its_bound(small_result):
    probs = small_result.probabilities.copy()
    probs[7] += 2e-12
    with pytest.raises(AssertionError, match="probabilities differ"):
        check_gate(small_result, replace(small_result, probabilities=probs), 1e-12)


FIT_SWAP = [(geometry, "_kabsch_segments", reference_segments),
            (pipeline, "_kabsch_segments", reference_segments)]


@pytest.mark.parametrize("method, case", METHOD_CORPUS,
                         ids=lambda item: item if isinstance(item, str) else item.id)
def test_segment_fits_pass_the_register_gate(method, case, monkeypatch):
    """Every weighted fit as one segment solve, against each segment fitted alone
    with the one-problem formula (every method's fits go through it)."""
    solve_gate(case, method, monkeypatch, FIT_SWAP, 0.0)


@pytest.fixture(scope="module")
def small_solutions():
    case = Case("indoor", 250, 0.5, 1, "bench")
    return {method: solve_case(case, method) for method in METHODS}


@pytest.mark.parametrize("method", METHODS)
def test_solution_gate_passes_each_method_against_itself(small_solutions, method):
    assert small_solutions[method][0].ok
    assert check_solution_gate(method, small_solutions[method], small_solutions[method],
                               0.0) == 0.0


@pytest.mark.parametrize("method", METHODS)
def test_solution_gate_fails_on_a_different_inlier_count(small_solutions, method):
    sol, result = small_solutions[method]
    moved = replace(sol, inlier_count=sol.inlier_count + 1)
    with pytest.raises(AssertionError, match="inlier count"):
        check_solution_gate(method, (sol, result), (moved, result), 0.0)


@pytest.mark.parametrize("method", METHODS)
def test_solution_gate_fails_on_different_details(small_solutions, method):
    sol, result = small_solutions[method]
    moved = replace(sol, details={**sol.details, "extra": 1})
    with pytest.raises(AssertionError, match="details"):
        check_solution_gate(method, (sol, result), (moved, result), 0.0)


@pytest.mark.parametrize("method", METHODS)
def test_solution_gate_fails_on_a_different_outcome(small_solutions, method):
    sol, result = small_solutions[method]
    failed = replace(sol, ok=False, transform=None, reason="failed")
    with pytest.raises(AssertionError):
        check_solution_gate(method, (sol, result), (failed, result), 0.0)


@pytest.mark.parametrize("method", ["ransac", "sm"])
def test_solution_gate_fails_on_a_baseline_transform_perturbation(small_solutions, method):
    sol, result = small_solutions[method]
    translation = sol.transform.translation.copy()
    translation[0] += 10 * TRANSFORM_TOL
    moved = replace(sol, transform=RigidTransform(sol.transform.rotation, translation))
    with pytest.raises(AssertionError, match="transforms differ"):
        check_solution_gate(method, (sol, result), (moved, result), 0.0)


@pytest.mark.parametrize("method", ["ransac", "sm"])
def test_solution_gate_fails_on_a_baseline_probability_bit(small_solutions, method):
    sol, result = small_solutions[method]
    probs = sol.probabilities.copy()
    probs[int(np.argmax(probs))] = np.nextafter(1.0, 0.0)
    with pytest.raises(AssertionError, match="probabilities differ"):
        check_solution_gate(method, (sol, result), (replace(sol, probabilities=probs), result),
                            0.0)


@pytest.mark.parametrize("method", ["oracle", "gpinet"])
def test_solution_gate_checks_the_pipeline_result(small_solutions, method):
    sol, result = small_solutions[method]
    hyp = result.hypothesis
    other = next(d["seed"] for d in result.seed_diagnostics if d["seed"] != hyp.seed_index)
    moved = replace(result, hypothesis=replace(hyp, seed_index=other))
    with pytest.raises(AssertionError, match="selected seed"):
        check_solution_gate(method, (sol, result), (sol, moved), 0.0)


@pytest.mark.parametrize("case", SCAN_CORPUS, ids=lambda case: case.id)
def test_stacked_ransac_scan_passes_the_scan_gate(case, monkeypatch):
    """Each block of transforms_per_block(N) samples, against each sample scored alone."""
    best_iteration, best_count = scan_gate(case, monkeypatch,
                                           [(kernels, "transforms_per_block", lambda n: 1)])
    assert 0 <= best_iteration < 10_000 and best_count >= 150  # 200 inliers per scene


@pytest.fixture(scope="module")
def criterion_7_scan():
    return scan_case(ScanCase(0))


def test_scan_gate_passes_a_scan_against_itself(criterion_7_scan):
    check_scan_gate(criterion_7_scan, criterion_7_scan)


def test_scan_gate_fails_on_a_different_best_iteration(criterion_7_scan):
    best_iteration, best_count = criterion_7_scan
    with pytest.raises(AssertionError, match="best iteration"):
        check_scan_gate(criterion_7_scan, (best_iteration + 1, best_count))


def test_scan_gate_fails_on_a_different_best_count(criterion_7_scan):
    best_iteration, best_count = criterion_7_scan
    with pytest.raises(AssertionError, match="best count"):
        check_scan_gate(criterion_7_scan, (best_iteration, best_count - 1))
