"""The three benchmark workloads, driven through lconv's public entry points.

Each workload has `setup(seed, work_dir)`, which builds the inputs a
repetition needs (timed as set-up); `run(inputs)`, which calls into lconv
and checks the result (timed as run_s) and returns the checks
`(name, ok, value)` with its outputs; `digests(outputs)`, the SHA-256 of
what the repetition learned or wrote (untimed); and `teardown(inputs)`.
`probe_shape` picks the host-speed probe that runs beside `run`
(hostspeed.py).
"""

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

import lconv.cli
import lconv.discovery as discovery


def sha256_array(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@contextlib.contextmanager
def provided_dataset(attr, task, data, used):
    """Hand the pre-generated `data` to the training function in place of
    its own generation for `task`; other tasks still generate."""
    generate = getattr(discovery, attr)

    def provide(t):
        if t == task:
            used.append(attr)
            return data
        return generate(t)

    setattr(discovery, attr, provide)
    try:
        yield
    finally:
        setattr(discovery, attr, generate)


class FixedAngle:
    """Criterion-5 fixed-angle discovery (7x7, theta = pi/10, 50000/10000
    samples, Adam lr 1e-2, batch 64), its first 5 of 20 epochs (3,910
    steps), with the criterion-5 gates."""

    name = "fixed_angle"
    probe_shape = (64, 1, 40)  # (batch, channels, steps) of hostspeed's probe
    hits = ("discovery.train_fixed_angle", "discovery.gen_fixed_angle_dataset",
            "groups.rotation_matrix_bilinear", "layer.forward.64x49x1",
            "layer.backward.64x49x1", "discovery.adam_step",
            "discovery._eval_linear", "numerics.least_squares_solve")

    def setup(self, seed, work_dir):
        task = discovery.FixedAngleTask(width=7, height=7, theta=np.pi / 10,
                                        n_train=50000, n_test=10000, seed=seed)
        opt = discovery.OptimizerConfig(kind="adam", lr=1e-2, batch_size=64,
                                        epochs=5)
        return task, opt, discovery.gen_fixed_angle_dataset(task)

    def run(self, inputs):
        task, opt, data = inputs
        used = []
        with provided_dataset("gen_fixed_angle_dataset", task, data, used):
            rep = discovery.train_fixed_angle(task, opt)
        mse = rep.final_test_mse
        corr = rep.correlations["vs_ls_oracle"]
        checks = [
            ("test_mse<=1e-4", bool(np.isfinite(mse) and mse <= 1e-4), mse),
            ("corr_vs_ls_oracle>=0.95", corr is not None and corr >= 0.95, corr),
        ]
        return checks, {"report": rep, "inputs_provided": used}

    def digests(self, outputs):
        return {"generator": sha256_array(outputs["report"].arrays["generator"])}

    def teardown(self, inputs):
        pass


class AngleRegression:
    """Criterion-6 model and data (m = 10, t = 3, hidden 5, theta_max =
    pi/3, 30000/2000 pairs, Adam lr 1e-3, batch 16), its first of 36
    epochs (1,875 steps)."""

    name = "angle_regression"
    probe_shape = (16, 10, 8)
    hits = ("discovery.train_angle_regression",
            "discovery.gen_angle_pairs_dataset", "discovery.rotate_images",
            "discovery._angle_forward", "discovery._angle_backward",
            "layer.forward.16x49x10", "layer.backward.16x49x10",
            "discovery.adam_step", "discovery._eval_angle")

    def setup(self, seed, work_dir):
        task = discovery.AngleRegressionTask(
            width=7, height=7, theta_max=np.pi / 3, m_copies=10, recursions=3,
            hidden=5, n_train=30000, n_test=2000, seed=seed)
        opt = discovery.OptimizerConfig(kind="adam", lr=1e-3, batch_size=16,
                                        epochs=1)
        return task, opt, discovery.gen_angle_pairs_dataset(task)

    def run(self, inputs):
        task, opt, data = inputs
        used = []
        with provided_dataset("gen_angle_pairs_dataset", task, data, used):
            rep = discovery.train_angle_regression(task, opt)
        curve = np.array([row[1:] for row in rep.loss_curve], dtype=float)
        mse = rep.final_test_mse
        checks = [
            ("loss_finite", bool(curve.size and np.all(np.isfinite(curve))),
             float(curve[-1, 0]) if curve.size else None),
            ("test_mse<=1e-2", bool(np.isfinite(mse) and mse <= 1e-2), mse),
        ]
        return checks, {"report": rep, "inputs_provided": used}

    def digests(self, outputs):
        return {"generator": sha256_array(outputs["report"].arrays["generator"])}

    def teardown(self, inputs):
        pass


class CliPipeline:
    """`lconv.cli.main` in-process: gen-data (fixed-angle, angle-pairs),
    train to epoch K with a checkpoint, train --resume to 2K, the same run
    unbroken, eval, approx d_sweep [64, 256, 1024], theory helmholtz and
    decomposition."""

    name = "cli_pipeline"
    probe_shape = (16, 10, 8)
    K = 1
    hits = ("cli.gen-data", "cli.train", "cli.eval", "cli.approx",
            "cli.theory", "numerics.write_matrix", "numerics.read_matrix",
            "layer.save_checkpoint", "layer.load_checkpoint",
            "discovery.gen_fixed_angle_dataset",
            "discovery.gen_angle_pairs_dataset", "discovery.rotate_images",
            "discovery.train_fixed_angle", "numerics.least_squares_solve",
            "groups.rotation_matrix_bilinear", "groups.sw_shift_matrix",
            "groups.sw_shift_generator", "approx.approx_group_element.d1024",
            "approx.shift_approx_sweep", "fieldtheory.helmholtz_convergence",
            "fieldtheory.mse_loss_decomposed", "layer.forward.4096x49x1")
    # artifacts that must hash the same on every rerun of a seed
    STABLE = ("data_fa/X_train.mat", "data_fa/Y_train.mat",
              "data_fa/X_test.mat", "data_fa/Y_test.mat",
              "data_ap/F_train.mat", "data_ap/Y_train.mat",
              "data_ap/theta_train.mat", "data_ap/F_test.mat",
              "data_ap/Y_test.mat", "data_ap/theta_test.mat",
              "train_full/generator.mat", "train_full/report.json",
              "train_full/loss.csv", "train_resume/generator.mat",
              "eval/eval.json", "approx/shift_approx_d64.csv",
              "approx/shift_approx_d256.csv", "approx/shift_approx_d1024.csv",
              "helmholtz/helmholtz.csv", "decomposition/decomposition.json")

    def setup(self, seed, work_dir):
        os.makedirs(work_dir)
        fixed = {"task": "fixed-angle", "n_train": 8192, "n_test": 4096}

        def train(epochs, **extra):
            return dict(fixed, optimizer={"kind": "adam", "lr": 1e-2,
                                          "batch_size": 64, "epochs": epochs},
                        **extra)

        k = self.K
        steps = (
            ("gen-data", "data_fa", dict(fixed, n_train=50000)),
            ("gen-data", "data_ap",
             {"task": "angle-pairs", "n_train": 4000, "n_test": 1000}),
            ("train", "train_k", train(k)),
            ("train", "train_resume", train(2 * k, resume=os.path.join(
                work_dir, "train_k", "checkpoint"))),
            ("train", "train_full", train(2 * k)),
            ("eval", "eval", {
                "checkpoint": os.path.join(work_dir, "train_full", "checkpoint"),
                "data_dir": os.path.join(work_dir, "data_fa")}),
            ("approx", "approx", {"d_sweep": [64, 256, 1024], "z": 2.0,
                                  "n_values": [4, 16, 64, 256, 1024]}),
            ("theory", "helmholtz", {"check": "helmholtz"}),
            ("theory", "decomposition", {"check": "decomposition"}),
        )
        argvs = []
        for command, out, cfg in steps:
            path = os.path.join(work_dir, f"{out}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            argv = [command, "--config", path, "--out-dir",
                    os.path.join(work_dir, out)]
            if command != "eval" and command != "approx":
                argv += ["--seed", str(seed)]
            argvs.append((out, argv))
        return work_dir, argvs

    def run(self, inputs):
        work_dir, argvs = inputs
        checks = []
        with contextlib.redirect_stdout(io.StringIO()):
            for out, argv in argvs:
                code = lconv.cli.main(argv)
                checks.append((f"{out}_exit_0", code == 0, code))

        try:
            checks += self._check_outputs(work_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks.append(("outputs_readable", False, repr(exc)))
        return checks, {"work_dir": work_dir}

    @staticmethod
    def _check_outputs(work_dir):
        def path(name):
            return os.path.join(work_dir, name)

        resumed = sha256_file(path("train_resume/generator.mat"))
        full = sha256_file(path("train_full/generator.mat"))
        with open(path("eval/eval.json")) as fh:
            eval_mse = json.load(fh)["test_mse"]
        with open(path("train_full/report.json")) as fh:
            report_mse = json.load(fh)["final_test_mse"]
        rel = abs(eval_mse - report_mse) / abs(report_mse)
        with open(path("approx/shift_approx_d1024.csv")) as fh:
            corr = float(fh.read().strip().splitlines()[-1].split(",")[3])
        return [("resumed_generator_identical", resumed == full, resumed),
                ("eval_mse_matches_report", rel <= 1e-6, rel),
                ("approx_d1024_corr>=0.9999", corr >= 0.9999, corr)]

    def digests(self, outputs):
        hashes = {}
        for name in self.STABLE:
            full = os.path.join(outputs["work_dir"], name)
            hashes[name] = sha256_file(full) if os.path.exists(full) else None
        combined = hashlib.sha256(
            "".join(f"{n}={h}\n" for n, h in sorted(hashes.items())).encode())
        hashes["artifacts"] = combined.hexdigest()
        return hashes

    def teardown(self, inputs):
        shutil.rmtree(inputs[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (FixedAngle(), AngleRegression(), CliPipeline())}

# the digest compared against the recorded reference for each workload
REFERENCE_KEY = {"fixed_angle": "generator", "angle_regression": "generator",
                 "cli_pipeline": "artifacts"}
