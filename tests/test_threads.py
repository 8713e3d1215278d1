"""lconv keeps its products on the calling thread, and its artifacts do not
depend on the BLAS thread count.

OpenBLAS hands a product above about 10**6 multiply-adds to its worker
thread, which then spins for about 128 ms after the call.  `matmul` cuts
the long products into blocks below that, with the same bits as `@`;
the least-squares oracle and every norm use reductions whose rounding
does not depend on how many threads BLAS has.  The run-time checks start
fresh interpreters, so each one sees its own BLAS thread setting.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lconv import numerics
from lconv.numerics import SeededRng, matmul

ROOT = Path(__file__).resolve().parent.parent


def _child(code, tmp_path, threads):
    """Run `code` in a fresh interpreter with OPENBLAS_NUM_THREADS=threads
    in directory tmp_path/t<threads>; returns its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cwd = tmp_path / f"t{threads}"
    cwd.mkdir(exist_ok=True)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestMatmul:
    @pytest.mark.parametrize("n", [64, 160, 1000, 1808, 4096, 50000])
    def test_wide_products_equal_plain_product(self, n):
        # L applied to n columns: batches, evaluation chunks, R X
        rng = SeededRng(n)
        a = rng.uniform(49, 49)
        b = rng.uniform(49, n)
        for bb in (b, np.asfortranarray(b)):
            assert np.array_equal(matmul(a, bb), a @ bb)

    @pytest.mark.parametrize("rows", [784, 10240, 100352, 100355])
    def test_tall_products_equal_plain_product(self, rows):
        # the channel mix of (d B, m) rows with an m x m coupling
        rng = SeededRng(rows)
        a = rng.uniform(rows, 10)
        b = rng.uniform(10, 10)
        assert np.array_equal(matmul(a, b), a @ b)

    @pytest.mark.parametrize("line_macs", [1, 10, 100, 49 * 49, 1 << 13, 1 << 16])
    def test_blocks_are_multiples_of_8_within_budget(self, line_macs):
        # a block edge off a multiple of 8 moves the products in the last bits
        step = numerics._block(line_macs)
        assert step % 8 == 0 and 8 <= step
        assert step * line_macs <= numerics._BLOCK_MACS < (step + 8) * line_macs

    def test_product_too_large_for_a_block_is_one_call(self):
        rng = SeededRng(3)
        a = rng.uniform(300, 300)
        b = rng.uniform(300, 400)
        assert numerics._block(300 * 300) == 0
        assert np.array_equal(matmul(a, b), a @ b)

    @pytest.mark.parametrize("m, k, n", [(49, 49, 5000), (49, 49, 433), (49, 49, 216),
                                         (49, 49, 30), (300, 300, 400), (400, 10, 20)])
    def test_column_major_b_gives_column_major_product(self, m, k, n):
        # column blocks, a ragged tail, one block, n < m, and too large for a block
        rng = SeededRng(n)
        a = rng.uniform(m, k)
        b = rng.uniform(k, n)
        out = matmul(a, np.asfortranarray(b))
        assert out.flags.f_contiguous
        assert out.tobytes("F") == np.asfortranarray(matmul(a, b)).tobytes("F")

    def test_empty_operands(self):
        assert matmul(np.ones((49, 49)), np.ones((49, 0))).shape == (49, 0)
        assert matmul(np.ones((0, 10)), np.ones((10, 10))).shape == (0, 10)


_SPIN = """import time
from lconv.discovery import FixedAngleTask, OptimizerConfig, train_fixed_angle
time.sleep(0.5)   # importing numpy wakes the BLAS worker too; let it settle
c0, t0 = time.process_time(), time.thread_time()
train_fixed_angle(FixedAngleTask(n_train=2000, n_test=4096, seed=0),
                  OptimizerConfig(lr=1e-2, batch_size=64, epochs=1))
time.sleep(0.3)
print((time.process_time() - c0) - (time.thread_time() - t0))
"""


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.skipif(_cpus() < 2, reason="a second BLAS thread needs a second CPU")
def test_fixed_angle_run_leaves_no_worker_spinning(tmp_path):
    # data set-up (R X on 2000 columns), the oracle and a 4096-column
    # evaluation each woke the worker for about 128 ms of spinning
    other = float(_child(_SPIN, tmp_path, 2).strip().splitlines()[-1])
    assert other < 0.030, f"{other * 1e3:.1f} ms of CPU on other threads"


def test_importing_lconv_loads_no_scipy(tmp_path):
    modules = sorted(p.stem for p in (ROOT / "src" / "lconv").glob("*.py"))
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('lconv' if name == '__init__' else 'lconv.' + name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _child(code, tmp_path, 1).strip() == "[]"


_PIPELINE = """import hashlib, json, os
from lconv.cli import main
from lconv.discovery import FixedAngleTask, gen_fixed_angle_dataset
from lconv.numerics import least_squares_solve
steps = [
    ("gen-data", "data", {"task": "fixed-angle", "n_train": 4096, "n_test": 4096}),
    ("gen-data", "pairs", {"task": "angle-pairs", "n_train": 200, "n_test": 50}),
    ("train", "train", {"task": "fixed-angle", "n_train": 2000, "n_test": 4096,
                        "optimizer": {"lr": 1e-2, "batch_size": 64, "epochs": 1}}),
    ("approx", "approx", {"d_sweep": [64, 1024], "z": 2.0, "n_values": [4, 64]}),
]
for command, out, cfg in steps:
    with open(out + ".json", "w") as fh:
        json.dump(cfg, fh)
    argv = [command, "--config", out + ".json", "--out-dir", out]
    assert main(argv + ([] if command == "approx" else ["--seed", "0"])) == 0
hashes = {}
for top, _, files in os.walk("."):
    for name in files:
        if name != "timing.json":
            path = os.path.join(top, name)
            hashes[path] = hashlib.sha256(open(path, "rb").read()).hexdigest()
data = gen_fixed_angle_dataset(FixedAngleTask(seed=0))
r = least_squares_solve(data["x_train"], data["y_train"])
hashes["least_squares_solve"] = hashlib.sha256(r.astype("<f8").tobytes()).hexdigest()
print(json.dumps(hashes, sort_keys=True))
"""


def test_artifacts_independent_of_blas_thread_count(tmp_path):
    # gen-data, train and approx, then the LS oracle on 50000 samples, with
    # one BLAS thread and with two; every byte written must agree
    one, two = (json.loads(_child(_PIPELINE, tmp_path, t).strip().splitlines()[-1])
                for t in (1, 2))
    assert len(one) > 20 and "./approx/shift_approx_d1024.csv" in one
    differ = sorted(k for k in one.keys() | two.keys() if one.get(k) != two.get(k))
    assert not differ, f"differ between 1 and 2 BLAS threads: {differ}"
