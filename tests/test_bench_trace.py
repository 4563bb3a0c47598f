"""The traced benchmark keeps every per-layer metric that BENCHMARK.json declares.

``bench/run.py --trace 1`` wraps package functions by dotted path and drops
a metric when a span source it reads has no target, so removing or renaming
a wrap target silently shortens its result. It also reads return values of
the package beyond the wrap targets (``RegistrationResult.timings``, the
seed and hypothesis counts, ``power_iteration``'s iterations, ...), so a
change to one of those ends the traced run in an exception. These tests
run ``bench/run.py``'s code in a child interpreter, because importing
``run.py`` sets the BLAS thread count for the whole process; the child
writes no bytecode under ``bench/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import reglab

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, tracing

class Resolver:
    def wrap(self, path, name, info=None):
        return tracing._resolve(path) is not None

installed = run.install_wraps(Resolver())
declared = [m["name"] for m in json.load(open(sys.argv[2]))["per_layer"]]
print(json.dumps({name: name in run.PER_LAYER and all(src in installed
                                                     for src in run.PER_LAYER[name][1])
                  for name in declared}))
"""


TRACED_CHILD = """
import json, math, sys
sys.path.insert(0, sys.argv[1])
import run

r = run.setup(run.Workload("indoor", 64, 0.5, 2, None, 1), 7)
run.run_train = lambda r, k, tally, tracer: r.model  # skip the seconds-long training call
metrics, _, problems, _ = run.traced(r)
declared = [m["name"] for m in json.load(open(sys.argv[2]))["per_layer"]]
print(json.dumps({
    "missing": [name for name in declared if name not in metrics],
    "not_finite": [name for name in declared
                   if name in metrics and not math.isfinite(metrics[name][0])],
    "problems": problems,
}))
"""

TRAINING_CHILD = """
import functools, json, math, sys
sys.path.insert(0, sys.argv[1])
import run

r = run.setup(run.Workload("indoor", 64, 0.5, 2, None, 1), 7)
# the real training call, cut to 2 steps: too few to halve the pool loss
r.evaluate.TrainConfig = functools.partial(r.evaluate.TrainConfig, iterations=2)
metrics, _, problems, _ = run.traced(r)
names = ("autodiff.forward_train_s", "autodiff.backward_s", "nn.sgd_step_s")
print(json.dumps({
    "positive": {name: name in metrics and math.isfinite(metrics[name][0]) and metrics[name][0] > 0
                 for name in names},
    "problems": problems,
}))
"""


def run_child(script: str) -> dict:
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "BENCHMARK.json")],
        capture_output=True, text=True, check=False, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_every_declared_per_layer_metric_has_its_wrap_targets():
    reported = run_child(CHILD)
    assert reported
    assert [name for name, ok in reported.items() if not ok] == []


def test_a_small_traced_run_reads_every_declared_metric_from_the_package():
    """One 64-pair scene through the traced run's three passes: every per-layer
    metric present and finite, and no check failed. Training is stubbed out,
    so its per-step metrics read 0."""
    assert run_child(TRACED_CHILD) == {"missing": [], "not_finite": [], "problems": []}


def test_a_traced_run_with_two_training_steps_reads_the_training_metrics():
    """The same run with the real training call at 2 iterations: every per-step
    training metric present, finite and positive, and the one problem is the
    halving check's, which 2 steps cannot pass."""
    reported = run_child(TRAINING_CHILD)
    assert reported["positive"] == {"autodiff.forward_train_s": True, "autodiff.backward_s": True,
                                    "nn.sgd_step_s": True}
    [problem] = reported["problems"]
    assert problem.startswith("train 0: final pool loss ") and " is not below half the " in problem
