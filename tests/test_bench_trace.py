"""The traced benchmark keeps every per-layer metric that BENCHMARK.json declares.

``bench/run.py --trace 1`` wraps package functions by dotted path and drops
a metric when a span source it reads has no target, so removing or renaming
a wrap target silently shortens its result. This test resolves the wrap
list against the package in a child interpreter, because importing
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


def test_every_declared_per_layer_metric_has_its_wrap_targets():
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(ROOT / "BENCHMARK.json")],
        capture_output=True, text=True, check=False, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stderr
    reported = json.loads(out.stdout)
    assert reported
    assert [name for name, ok in reported.items() if not ok] == []
