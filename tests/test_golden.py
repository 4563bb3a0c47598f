"""Golden byte-identity: fixed runs reproduce checked-in outputs exactly.

``tests/golden/`` holds the bytes of a small benchmark sweep's reports,
the ``reglab register`` JSON of every method on one scene, the sha256 of
the network's probabilities on an outlier-free scene of the same size
and seed, and one RANSAC scan result.
A refactor that changes any of them changes observable behaviour.

The test builds them in a child interpreter with two BLAS threads, so
that the caller's thread setting does not change their bytes. Regenerate
(only when an output is meant to change) with the same setting:
``OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=2 MKL_NUM_THREADS=2 PYTHONPATH=src
python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from reglab.baselines import minimal_samples
from reglab.blocks import GPINet
from reglab.cli import main
from reglab.kernels import ransac_scan
from reglab.synth import SceneConfig, generate

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PARAMS = ROOT / "bench" / "model" / "params.json"
PARAMS_SHA256 = "417b87e6f5c300b2beeee2fda24dc0f5d002b44a7e747ce90a7ea83ff7b84270"

BENCHMARK_ARGS = ["--method", "oracle,ransac,sm,gpinet", "--n", "250", "--trials", "2",
                  "--seed", "0"]
REPORT_FILES = ("report.csv", "report.json", "rr_vs_n.svg")
REGISTER_ARGS = ["--params", str(PARAMS), "--n", "500", "--seed", "3"]
METHODS = ("oracle", "gpinet", "ransac", "sm")


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def _scan_doc() -> bytes:
    """(best_iter, best_count) of a 1000-sample scan on an outdoor N=2000 scene."""
    c, _ = generate(SceneConfig(n=2000, outlier_ratio=0.8, scene="outdoor", seed=11))
    samples = minimal_samples(np.random.Generator(np.random.PCG64(5)), len(c), 1000)
    best_iter, best_count, _, _ = ransac_scan(c.source, c.target, samples, 0.6)
    return (json.dumps({"best_iter": best_iter, "best_count": best_count}) + "\n").encode()


def build_artifacts() -> dict[str, bytes]:
    """Run every golden case; map golden file name to the bytes produced."""
    artifacts: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _run(["benchmark", *BENCHMARK_ARGS, "--out", tmp])
        assert code == 0
        for name in REPORT_FILES:
            artifacts[name] = (Path(tmp) / name).read_bytes()
    for method in METHODS:
        code, doc = _run(["register", "--method", method, *REGISTER_ARGS])
        assert code == 0, method
        artifacts[f"register_{method}.json"] = doc
    c, _ = generate(SceneConfig(n=500, seed=3))  # outlier-free: every default but n, seed
    probs = GPINet.load(PARAMS).predict(c)
    artifacts["predict.sha256"] = (hashlib.sha256(probs.tobytes()).hexdigest() + "\n").encode()
    artifacts["ransac_scan.json"] = _scan_doc()
    return artifacts


# sha256 of predict's probabilities on an outdoor N=2003, 80%-outlier scene
# (seed 5) with one BLAS thread: its maps span several row blocks and
# cache chunks, which the N <= 500 goldens do not. Predict bytes at this N
# depend on the BLAS thread count, hence the pinned single thread.
# The bench model's attention rows each hold one live entry, so its hash
# pins the gathered rows; an untrained GPINet(seed=0) has dense maps, so
# its hash pins the softmax-and-product path. Both pin the embedding's
# triangle consistency mix across several blocks, whose sums run in
# another order than the whole product's. When the mix moved to one
# triangle of SC, these hashes, predict.sha256 and register_gpinet.json
# were regenerated under the register-level gate of tests/register_gate.py.
LARGE_PREDICT_SHA256 = "ff7ec32f85ad02ec5a9ecb475f7b10d1c23d9d80139066d47f190c05ffb099f7"
LARGE_UNTRAINED_PREDICT_SHA256 = "f526eb7c71bfeb46820305fac068a67f67af6dc2ce0ea763a500a14695bcde1e"


def test_params_file_is_the_bench_model():
    assert hashlib.sha256(PARAMS.read_bytes()).hexdigest() == PARAMS_SHA256


def test_reglab_train_with_every_default_writes_the_bench_model(tmp_path):
    """``reglab train --out DIR`` writes bench/model/params.json, byte for byte.

    Its defaults differ from TrainConfig() (60% outliers, not 50%), so this
    is a training run of its own, not criterion 9's.
    """
    code, _ = _run(["train", "--out", str(tmp_path)])
    assert code == 0
    assert hashlib.sha256((tmp_path / "params.json").read_bytes()).hexdigest() == PARAMS_SHA256


def _child(args: list[str], threads: int) -> str:
    """Standard output of ``python args`` with reglab importable and ``threads`` BLAS threads."""
    import reglab

    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(reglab.__file__)))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_dir}
    env.update({var: str(threads) for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                         check=False, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_outputs_match_goldens_byte_for_byte(tmp_path):
    """The goldens' bytes, built by this file's __main__ with two BLAS threads."""
    _child([__file__, str(tmp_path)], threads=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())
    changed = [p.name for p in sorted(GOLDEN.iterdir())
               if (tmp_path / p.name).read_bytes() != p.read_bytes()]
    assert changed == []


def _large_predict_sha256(model: str) -> str:
    """sha256 of ``model``'s probabilities on the N=2003 scene, in a one-thread child."""
    code = (
        "import hashlib, sys\n"
        "from reglab.blocks import GPINet\n"
        "from reglab.synth import SceneConfig, generate\n"
        "c, _ = generate(SceneConfig(n=2003, outlier_ratio=0.8, scene='outdoor', seed=5))\n"
        f"probs = {model}.predict(c)\n"
        "print(hashlib.sha256(probs.tobytes()).hexdigest())\n"
    )
    return _child(["-c", code, str(PARAMS)], threads=1).strip()


def test_predict_at_large_n_with_one_blas_thread_matches_pinned_hash():
    assert _large_predict_sha256("GPINet.load(sys.argv[1])") == LARGE_PREDICT_SHA256


def test_untrained_predict_at_large_n_with_one_blas_thread_matches_pinned_hash():
    assert _large_predict_sha256("GPINet(seed=0)") == LARGE_UNTRAINED_PREDICT_SHA256


if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    out_dir.mkdir(exist_ok=True)
    for name, data in build_artifacts().items():
        (out_dir / name).write_bytes(data)
        print(f"wrote {out_dir / name}", file=sys.stderr)
