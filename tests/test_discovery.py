import ctypes
import glob
import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from lconv import discovery
from lconv.discovery import (ADAM_B1, ADAM_B2, ADAM_EPS, MSE_SUM_CHUNK_ANGLE,
                             AngleRegressionTask,
                             FixedAngleTask, NonFiniteGradientError, OptimizerConfig,
                             adam_init, adam_step, gen_angle_pairs_dataset,
                             gen_fixed_angle_dataset, load_train_state,
                             rotate_images, save_train_state,
                             train_fixed_angle, train_angle_regression,
                             _angle_forward, _angle_params, _eval_angle, _open_run)
from lconv.groups import UnsupportedSizeError, _bilinear_resample
from lconv.layer import LConvLayer
from lconv.numerics import (DegenerateInputError, LconvError, SeededRng,
                            finite_difference_gradient, read_matrix)


def sha256(a):
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# the benchmark's angle task: 30000/2000 pairs, m 10, t 3
BENCH_ANGLE = AngleRegressionTask(n_train=30000, n_test=2000, m_copies=10, recursions=3)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOptimizers:
    def test_zero_gradient_no_change(self):
        params = {"p": np.array([[1.5, -0.5]])}
        cfg = OptimizerConfig(lr=0.01)
        state = adam_init(params, None)
        adam_step({"p": np.zeros((1, 2))}, state, cfg)
        assert np.array_equal(params["p"], [[1.5, -0.5]])

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step is lr * g / (|g| + eps)
        cfg = OptimizerConfig(lr=0.01)
        params = {"p": np.array([[0.0]])}
        state = adam_init(params, None)
        adam_step({"p": np.array([[1.0]])}, state, cfg)
        expected = -cfg.lr * 1.0 / (1.0 + ADAM_EPS)
        assert params["p"][0, 0] == pytest.approx(expected, abs=1e-6)

    def test_nonfinite_gradient_rejected(self):
        # after a finite step the moments are nonzero; a NaN gradient must
        # leave parameters, moments and step count exactly as they were
        params = {"a": np.array([[1.0]]), "p": np.array([[1.0, -2.0]])}
        state = adam_init(params, None)
        cfg = OptimizerConfig()
        adam_step({"a": np.array([[0.5]]), "p": np.array([[-1.0, 3.0]])}, state, cfg)
        before = {k: [a[k].tobytes() for a in (params, state["m"], state["v"])]
                  for k in params}
        assert all(np.all(state[m][k] != 0) for m in ("m", "v") for k in params)
        with pytest.raises(NonFiniteGradientError, match="'p'"):
            adam_step({"a": np.array([[7.0]]), "p": np.array([[5.0, np.nan]])},
                      state, cfg)
        assert before == {k: [a[k].tobytes() for a in (params, state["m"], state["v"])]
                          for k in params}
        assert state["t"] == 1

    def test_one_buffer_adam_matches_per_parameter_update(self, tmp_path):
        # 50 steps, with a checkpoint and resume after 20, against the
        # textbook update applied to each parameter separately
        cfg = OptimizerConfig(lr=1e-2)
        task = AngleRegressionTask(n_train=1, n_test=1, seed=5)
        start = _angle_params(task, SeededRng(7))
        rng = SeededRng(8)
        grads = [{k: rng.uniform_signed(1.0, v.shape) for k, v in start.items()}
                 for _ in range(50)]
        ref = {k: v.copy() for k, v in start.items()}
        ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
        ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
        for t, step in enumerate(grads, start=1):
            for k, g in step.items():
                ref_m[k] *= ADAM_B1
                ref_m[k] += (1 - ADAM_B1) * g
                ref_v[k] *= ADAM_B2
                ref_v[k] += (1 - ADAM_B2) * g * g
                mhat = ref_m[k] / (1 - ADAM_B1 ** t)
                vhat = ref_v[k] / (1 - ADAM_B2 ** t)
                ref[k] -= cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

        params = {k: v.copy() for k, v in start.items()}
        state = adam_init(params, None)
        for step in grads[:20]:
            adam_step(step, state, cfg)
        layer = LConvLayer(w0=np.eye(10), eps=[params["eps"]],
                           generators=[params["gen"]])
        save_train_state(tmp_path, layer, params, state, 1)
        params, loaded, _ = load_train_state(task, tmp_path)
        state = adam_init(params, loaded)
        for step in grads[20:]:
            adam_step(step, state, cfg)
        assert state["t"] == 50
        for k in start:
            assert np.array_equal(params[k], ref[k]), k
            assert np.array_equal(state["m"][k], ref_m[k]), k
            assert np.array_equal(state["v"][k], ref_v[k]), k
            assert np.shares_memory(params[k], state["flat"][0])

    def test_config_validation(self):
        with pytest.raises(LconvError):
            OptimizerConfig(lr=-1.0)
        with pytest.raises(LconvError):
            OptimizerConfig(batch_size=0)
        with pytest.raises(LconvError):
            OptimizerConfig(kind="rmsprop")
        for bad in ({"lr": float("nan")}, {"epochs": -1}, {"epochs": 1.0},
                    {"batch_size": True}, {"kind": "sgd"}, {"kind": 1}):
            with pytest.raises(LconvError):
                OptimizerConfig(**bad)
        assert OptimizerConfig(lr=1, epochs=np.int64(0)).lr == 1


class TestTaskValidation:
    @pytest.mark.parametrize("cls, angle", [(FixedAngleTask, "theta"),
                                            (AngleRegressionTask, "theta_max")])
    def test_fields_typed_and_bounded(self, cls, angle):
        for bad in ({"n_train": 0}, {"n_test": "10"}, {"width": 1},
                    {"height": 7.0}, {"seed": True}, {angle: float("nan")},
                    {angle: "0.3"}):
            with pytest.raises(LconvError):
                cls(**bad)
        task = cls(**{angle: 1, "seed": -3})    # values pass unconverted
        assert getattr(task, angle) == 1 and type(getattr(task, angle)) is int

    def test_model_fields_bounded(self):
        for bad in ({"m_copies": 0}, {"recursions": -1}, {"hidden": 0}):
            with pytest.raises(LconvError):
                AngleRegressionTask(**bad)


class TestFixedAngleDataset:
    def test_zero_angle_identity_pairs(self):
        task = FixedAngleTask(theta=0.0, n_train=20, n_test=5, seed=3)
        data = gen_fixed_angle_dataset(task)
        assert np.array_equal(data["x_train"], data["y_train"])

    def test_seed_determinism(self):
        t = FixedAngleTask(n_train=50, n_test=10, seed=11)
        a = gen_fixed_angle_dataset(t)
        b = gen_fixed_angle_dataset(t)
        assert np.array_equal(a["x_train"], b["x_train"])
        assert np.array_equal(a["y_test"], b["y_test"])

    def test_splits_use_distinct_streams(self):
        t = FixedAngleTask(n_train=50, n_test=50, seed=11)
        d = gen_fixed_angle_dataset(t)
        assert not np.array_equal(d["x_train"][:, :50], d["x_test"])

    def test_rotation_does_not_grow_columns(self):
        t = FixedAngleTask(n_train=300, n_test=10, seed=4)
        d = gen_fixed_angle_dataset(t)
        nx = np.linalg.norm(d["x_train"], axis=0)
        ny = np.linalg.norm(d["y_train"], axis=0)
        assert (ny <= nx + 1e-9).all()

    def test_training_split_stored_sample_major(self):
        # minibatches gather whole rows of x_train.T; the values are those of
        # the C-ordered draw, and y = R x as matmul rounds it on that draw,
        # over its 216-column blocks: edges, ragged tails and n < d
        from lconv.groups import rotation_matrix_bilinear
        from lconv.numerics import matmul
        r = rotation_matrix_bilinear(7, 7, FixedAngleTask().theta)
        for n_train in (1, 48, 100, 216, 217, 300, 433, 5000):
            data = gen_fixed_angle_dataset(FixedAngleTask(n_train=n_train, n_test=20, seed=6))
            x = SeededRng(6).uniform(49, n_train)
            assert data["x_train"].T.flags.c_contiguous, n_train
            assert data["y_train"].T.flags.c_contiguous, n_train
            assert sha256(data["x_train"]) == sha256(x), n_train
            assert sha256(data["y_train"]) == sha256(matmul(r, x)), n_train
            # the test split is read in column ranges and keeps its C order
            assert data["x_test"].flags.c_contiguous and data["y_test"].flags.c_contiguous

    def test_training_split_built_in_place(self):
        # X and Y are written straight into their sample-major arrays: no
        # full-size C-ordered draw, product or copy lives beside them
        data, peak = traced_peak(gen_fixed_angle_dataset,
                                 FixedAngleTask(n_train=20000, n_test=100))
        returned = sum(a.nbytes for a in data.values())
        assert peak <= 1.25 * returned, (peak, returned)

    def test_rotate_images_matrix_agreement(self):
        from lconv.groups import rotation_matrix_bilinear
        rng = SeededRng(5)
        imgs = rng.uniform(7, 49)
        thetas = np.array([0.2, -0.4, 1.0, 0.0, 2.2, -1.3, 0.7])
        out = rotate_images(imgs, thetas, 7, 7)
        for i, th in enumerate(thetas):
            direct = rotation_matrix_bilinear(7, 7, th) @ imgs[i]
            assert np.abs(out[i] - direct).max() < 1e-12

    def test_resampler_bits_pinned(self):
        # SHA-256 of the resampler's output as first released; any change
        # to its rounding, or to the rotation matrix's memory layout (BLAS
        # sums R @ X in a layout-dependent order), changes every dataset
        from lconv.groups import rotation_matrix_bilinear
        assert sha256(rotation_matrix_bilinear(7, 7, np.pi / 10)) == (
            "baa7a769fcc398eab8fe0e78ad6f4960fb1a1a18995214db21187172de56acf5")
        assert sha256(rotation_matrix_bilinear(7, 7, -np.pi / 10)) == (
            "de83e5217dbf893fd643e29f8ef3a77cf293dc56194503d7f41f72b4fc5f6127")
        rng = SeededRng(31)
        imgs = rng.uniform(64, 49)
        thetas = rng.uniform(64, 1, low=0.0, high=np.pi / 3).ravel()
        assert sha256(rotate_images(imgs, thetas, 7, 7)) == (
            "683c3b1da2f26bc74953d33ef5d09b78e688c7607ca1a3301010b4c24922c195")
        data = gen_fixed_angle_dataset(FixedAngleTask(n_train=100, n_test=20, seed=1))
        assert sha256(data["y_train"]) == (
            "ea13f6534f8382c7d43ccfb05b2d40c56921f5509cecedd651ac9b8e8b06c64f")


def host_kernels():
    """The OpenBLAS core that numpy's bundled OpenBLAS picked and numpy's
    enabled SIMD groups, whose summation orders the last bits of a pinned
    hash follow."""
    from numpy._core import _multiarray_umath as umath
    groups = [g for g in umath.__cpu_baseline__ + umath.__cpu_dispatch__
              if umath.__cpu_features__.get(g)]
    core = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if libs:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"OpenBLAS core {core}, numpy SIMD groups {' '.join(groups)}"


class TestTrainingBitsPinned:
    # SHA-256 of what two short runs learn and of their loss curves, with
    # grid-major activations; any change to the rounding of the hot path
    # or the evaluation changes them.  They were recorded under OpenBLAS
    # core SkylakeX with numpy SIMD groups X86_V2 to AVX512_SPR; a failure
    # names the core and groups of the host it ran on
    def test_fixed_angle(self):
        # 1000 test samples: the evaluation sums over many columns at once
        rep = train_fixed_angle(FixedAngleTask(n_train=640, n_test=1000, seed=0),
                                OptimizerConfig(lr=1e-2, batch_size=16, epochs=5))
        assert sha256(rep.arrays["generator"]) == (
            "e2591a8e61e2bd452fd3811bebd05aca3a6fe21fd7958fc2482c39cfe6c0fe07"), host_kernels()
        assert sha256(np.array(rep.loss_curve)) == (
            "b3de9e17a236f0cf3d3b1042edddacbc0c60f7f55c0f1035515c802b5573b669"), host_kernels()

    def test_fixed_angle_batch_64_ragged(self):
        # the benchmark's batch size, with a last batch of 200 - 3 * 64 = 8
        rep = train_fixed_angle(FixedAngleTask(n_train=200, n_test=100, seed=1),
                                OptimizerConfig(lr=1e-2, batch_size=64, epochs=6))
        assert sha256(rep.arrays["generator"]) == (
            "8208dd4b56780be8ef7d1fc3b552e2af0116e296c08bc4dd6071cf6f4d516ae1"), host_kernels()
        assert sha256(np.array(rep.loss_curve)) == (
            "aa22eff9249b070c3e4dd4395b445e623e7b5e3064d917d4f5b7ee783e6e65e7"), host_kernels()

    def test_angle_regression(self):
        rep = train_angle_regression(
            AngleRegressionTask(n_train=480, n_test=64, seed=0),
            OptimizerConfig(lr=1e-3, batch_size=16, epochs=10))
        assert sha256(rep.arrays["generator"]) == (
            "8b10cfd54e85f2424b6ebb2d685378d18688b0a8a89186976f91bdfbcb321399"), host_kernels()
        assert sha256(rep.arrays["eps"]) == (
            "54791773d4318bb9f535036f73cdac553898060740ed798e6e8423bf1dec6ea6"), host_kernels()
        assert sha256(np.array(rep.loss_curve)) == (
            "ef3775a1b538da534e6f24849d2d81762f4b0039bcc11668a6b44e692465857d"), host_kernels()

    def test_host_kernels_are_named(self):
        # a failed pin's message is formed only then, so form it here once
        assert host_kernels().startswith("OpenBLAS core ")


class TestAnglePairsDataset:
    def test_zero_range_gives_identical_pairs(self):
        t = AngleRegressionTask(theta_max=1e-300, n_train=10, n_test=5, seed=2)
        d = gen_angle_pairs_dataset(t)
        assert np.abs(d["f_train"] - d["y_train"]).max() < 1e-12
        assert (d["theta_train"] < 1e-299).all()

    def test_seed_determinism(self):
        t = AngleRegressionTask(n_train=40, n_test=10, seed=9)
        a = gen_angle_pairs_dataset(t)
        b = gen_angle_pairs_dataset(t)
        assert np.array_equal(a["f_train"], b["f_train"])
        assert np.array_equal(a["theta_test"], b["theta_test"])

    def test_labels_uniform_chi2(self):
        t = AngleRegressionTask(n_train=10000, n_test=1, seed=7)
        d = gen_angle_pairs_dataset(t)
        counts, _ = np.histogram(d["theta_train"], bins=10,
                                 range=(0.0, t.theta_max))
        expected = t.n_train / 10.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=9)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 2049])
    def test_rotate_images_in_blocks_keeps_bits(self, n):
        rng = SeededRng(12)
        imgs = rng.uniform(n, 49)
        thetas = rng.uniform(n, 1, low=-np.pi, high=np.pi).ravel()
        assert np.array_equal(rotate_images(imgs, thetas, 7, 7),
                              _bilinear_resample(imgs, thetas, 7, 7))

    def test_peak_near_returned_bytes(self):
        # the resampler's temporaries span one block of rows, not the split
        data, peak = traced_peak(gen_angle_pairs_dataset, BENCH_ANGLE)
        returned = sum(a.nbytes for a in data.values())
        assert peak <= 1.15 * returned, (peak, returned)


class TestFixedAngleTraining:
    def test_zero_angle_learns_zero_generator(self):
        task = FixedAngleTask(theta=0.0, n_train=2000, n_test=200, seed=1)
        opt = OptimizerConfig(lr=1e-2, batch_size=64, epochs=5)
        rep = train_fixed_angle(task, opt)
        assert rep.final_test_mse < 1e-6
        assert np.abs(rep.arrays["generator"]).max() < 0.05

    def test_loss_curve_reaches_oracle_floor(self):
        task = FixedAngleTask(n_train=4000, n_test=500, seed=1)
        opt = OptimizerConfig(lr=1e-2, batch_size=64, epochs=8)
        rep = train_fixed_angle(task, opt)
        # the regression is exactly realizable, so the least-squares floor
        # is ~0; training must get within the acceptance-scale tolerance
        assert min(r[1] for r in rep.loss_curve) < 1e-4
        assert rep.correlations["vs_ls_oracle"] > 0.9

    def test_determinism_bitwise(self):
        task = FixedAngleTask(n_train=500, n_test=100, seed=6)
        opt = OptimizerConfig(lr=1e-2, batch_size=50, epochs=2)
        a = train_fixed_angle(task, opt)
        b = train_fixed_angle(task, opt)
        assert a.loss_curve == b.loss_curve
        assert np.array_equal(a.arrays["generator"], b.arrays["generator"])

    def test_training_split_layout_is_a_speed_choice_only(self, monkeypatch):
        task = FixedAngleTask(n_train=640, n_test=100, seed=0)
        opt = OptimizerConfig(lr=1e-2, batch_size=16, epochs=3)
        ref = train_fixed_angle(task, opt)
        c_ordered = {k: np.ascontiguousarray(v)
                     for k, v in gen_fixed_angle_dataset(task).items()}
        assert not c_ordered["x_train"].T.flags.c_contiguous
        used = []
        monkeypatch.setattr("lconv.discovery.gen_fixed_angle_dataset",
                            lambda t: used.append(t) or c_ordered)
        rep = train_fixed_angle(task, opt)
        assert used == [task]
        assert sha256(rep.arrays["generator"]) == sha256(ref.arrays["generator"])
        assert sha256(np.array(rep.loss_curve)) == sha256(np.array(ref.loss_curve))

    def test_resume_continues_epoch_counter_exactly(self, tmp_path):
        task = FixedAngleTask(n_train=600, n_test=100, seed=8)
        full = train_fixed_angle(task, OptimizerConfig(lr=1e-2, batch_size=60, epochs=5))
        ck = tmp_path / "ck"
        train_fixed_angle(task, OptimizerConfig(lr=1e-2, batch_size=60, epochs=3),
                          checkpoint_dir=ck)
        resumed = train_fixed_angle(task, OptimizerConfig(lr=1e-2, batch_size=60, epochs=5),
                                    resume=load_train_state(task, ck))
        assert [r[0] for r in resumed.loss_curve] == [3, 4]
        assert resumed.loss_curve == full.loss_curve[3:]
        assert np.array_equal(resumed.arrays["generator"], full.arrays["generator"])

    @pytest.mark.parametrize("train, task", [
        (train_fixed_angle, FixedAngleTask(n_train=100, n_test=20, seed=8)),
        (train_angle_regression, AngleRegressionTask(n_train=32, n_test=8, seed=8)),
    ], ids=["fixed-angle", "angle-regression"])
    def test_resume_past_configured_epochs_rejected(self, tmp_path, train, task):
        # resuming an epoch-2 checkpoint with epochs 1 would report and save
        # its parameters as a 1-epoch run; equal epochs train nothing
        opt = OptimizerConfig(lr=1e-2, batch_size=16, epochs=2)
        first = train(task, opt, checkpoint_dir=tmp_path)
        with pytest.raises(LconvError, match="past epochs"):
            train(task, OptimizerConfig(lr=1e-2, batch_size=16, epochs=1),
                  resume=load_train_state(task, tmp_path))
        again = train(task, opt, resume=load_train_state(task, tmp_path))
        assert again.loss_curve == []
        assert np.array_equal(again.arrays["generator"], first.arrays["generator"])

    def test_oracle_precondition_fails_before_training(self, monkeypatch):
        # the least-squares oracle needs n_train >= d = 49, and the
        # reference rotation generator both sides >= 3; neither depends on
        # training, so the run must stop before its data are made
        calls, made = [], []
        forward = LConvLayer.forward
        monkeypatch.setattr(LConvLayer, "forward",
                            lambda self, f: calls.append(1) or forward(self, f))
        for name in ("gen_fixed_angle_dataset", "gen_angle_pairs_dataset"):
            monkeypatch.setattr(f"lconv.discovery.{name}", made.append)
        task = FixedAngleTask(n_train=20, n_test=10, seed=1)
        with pytest.raises(DegenerateInputError):
            train_fixed_angle(task, OptimizerConfig(epochs=2))
        task = AngleRegressionTask(width=2, n_train=20, n_test=10, seed=1)
        with pytest.raises(UnsupportedSizeError):
            train_angle_regression(task, OptimizerConfig(epochs=2))
        assert calls == [] and made == []


class TestTrainedGeneratorReachesLayer:
    # the optimizers update params["gen"] in place; the layer that is
    # trained and checkpointed must hold that very array, not a copy
    @pytest.mark.parametrize("train, task, init", [
        (train_fixed_angle, FixedAngleTask(n_train=200, n_test=50, seed=3),
         lambda task: SeededRng(task.seed + 2).uniform_signed(
             1.0 / np.sqrt(task.d), (task.d, task.d))),
        (train_angle_regression, AngleRegressionTask(n_train=48, n_test=16, seed=3),
         lambda task: _angle_params(task, SeededRng(task.seed + 2))["gen"]),
    ], ids=["fixed-angle", "angle-regression"])
    def test_checkpoint_holds_trained_generator(self, tmp_path, train, task, init):
        rep = train(task, OptimizerConfig(lr=1e-3, batch_size=16, epochs=1),
                    checkpoint_dir=tmp_path)
        saved = read_matrix(tmp_path / "gen_0.mat")
        assert np.array_equal(saved, rep.arrays["generator"])
        assert not np.array_equal(saved, init(task))


class TestSharedLayer:
    # the layer a run starts with holds the parameters Adam updates in place
    def test_holds_the_trained_parameters(self):
        opt = OptimizerConfig()
        task = AngleRegressionTask(m_copies=3, seed=45)
        _, params, state, _, layer = _open_run("angle-regression", task, opt, None)
        assert layer.generators[0] is params["gen"] and layer.eps[0] is params["eps"]
        assert np.shares_memory(layer.eps[0], state["flat"])
        # the fixed-angle task freezes eps at the 1 x 1 identity
        _, params, state, _, layer = _open_run("fixed-angle", FixedAngleTask(), opt, None)
        assert layer.generators[0] is params["gen"] and "eps" not in params
        assert np.shares_memory(layer.generators[0], state["flat"])
        assert np.array_equal(layer.eps[0], np.eye(1))

    def test_copied_parameter_rejected(self, monkeypatch):
        # float32 eps is converted, i.e. copied, by the layer
        model = discovery._model
        monkeypatch.setattr(discovery, "_model", lambda task: (
            model(task)[0], {"w0": np.eye(1), "eps": np.eye(1, dtype=np.float32)}))
        with pytest.raises(RuntimeError, match="copied"):
            _open_run("fixed-angle", FixedAngleTask(), OptimizerConfig(), None)


class TestAngleRegressionPieces:
    def test_head_and_recursion_gradients_match_fd(self):
        # tiny instance: 4x2 grid (d=8), m=3 copies, t=2, hidden=2
        task = AngleRegressionTask(width=4, height=2, m_copies=3, recursions=2,
                                   hidden=2, n_train=6, n_test=2, seed=3)
        data = gen_angle_pairs_dataset(task)
        rng = SeededRng(44)
        params = _angle_params(task, rng)
        names = ["eps", "gen", "v1", "b1", "v2", "b2"]
        shapes = {k: params[k].shape for k in names}

        def unpack(p):
            out = {}
            i = 0
            for k in names:
                n = int(np.prod(shapes[k]))
                out[k] = p[i:i + n].reshape(shapes[k])
                i += n
            return out

        def loss(p):
            q = unpack(p)
            layer = LConvLayer(w0=np.eye(3), eps=[q["eps"]], generators=[q["gen"]])
            pred, _ = _angle_forward(q, layer, data["f_train"], data["y_train"],
                                     task.recursions, task.m_copies)
            diff = pred - data["theta_train"]
            return float(np.mean(diff * diff))

        p0 = np.concatenate([params[k].ravel() for k in names])
        fd = finite_difference_gradient(loss, p0, 1e-6)
        from lconv.discovery import _angle_backward
        layer = LConvLayer(w0=np.eye(3), eps=[params["eps"]],
                           generators=[params["gen"]])
        pred, stash = _angle_forward(params, layer, data["f_train"],
                                     data["y_train"], task.recursions,
                                     task.m_copies, tape=[])
        grads = _angle_backward(params, layer, data["y_train"],
                                data["theta_train"], pred, stash)
        an = np.concatenate([np.asarray(grads[k]).ravel() for k in names])
        rel = np.abs(an - fd) / np.maximum(1e-4 * np.abs(fd).max(), np.abs(fd))
        assert rel.max() < 1e-5

    def test_untrained_baseline_near_label_variance(self):
        # a constant predictor's MSE is the label variance theta_max^2 / 12;
        # an untrained network with near-zero head output sits at the
        # second moment theta_max^2 / 3, and training must beat both
        task = AngleRegressionTask(n_train=64, n_test=512, seed=5)
        data = gen_angle_pairs_dataset(task)
        params = _angle_params(task, SeededRng(7))
        layer = LConvLayer(w0=np.eye(10), eps=[params["eps"]],
                           generators=[params["gen"]])
        pred, _ = _angle_forward(params, layer, data["f_test"], data["y_test"],
                                 task.recursions, task.m_copies)
        base = float(np.mean((pred - data["theta_test"]) ** 2))
        second_moment = task.theta_max ** 2 / 3.0
        assert base < 2.0 * second_moment
        assert base > 0.2 * task.theta_max ** 2 / 12.0

    def test_training_determinism(self):
        task = AngleRegressionTask(n_train=200, n_test=50, seed=4)
        opt = OptimizerConfig(lr=1e-3, batch_size=16, epochs=2)
        a = train_angle_regression(task, opt)
        b = train_angle_regression(task, opt)
        assert a.loss_curve == b.loss_curve
        assert np.array_equal(a.arrays["generator"], b.arrays["generator"])

    def test_resume_roundtrip(self, tmp_path):
        task = AngleRegressionTask(n_train=120, n_test=30, seed=4)
        full = train_angle_regression(task, OptimizerConfig(lr=1e-3, batch_size=16, epochs=3))
        ck = tmp_path / "ck"
        train_angle_regression(task, OptimizerConfig(lr=1e-3, batch_size=16, epochs=2),
                               checkpoint_dir=ck)
        resumed = train_angle_regression(
            task, OptimizerConfig(lr=1e-3, batch_size=16, epochs=3),
            resume=load_train_state(task, ck))
        assert [r[0] for r in resumed.loss_curve] == [2]
        assert resumed.loss_curve == full.loss_curve[2:]
        assert np.array_equal(resumed.arrays["generator"], full.arrays["generator"])

    def test_blocked_eval_keeps_whole_chunk_bits(self):
        # n runs over one-sample tails (1, 257, 513, 2049), block edges and
        # ragged blocks, on parameters away from the initial draw.  Scored
        # against the labels and against the whole-chunk predictions, whose
        # MSE is 0 only when every blocked prediction keeps its bits
        task = AngleRegressionTask(n_train=1, n_test=2049, seed=8)
        data = gen_angle_pairs_dataset(task)
        rng = SeededRng(9)
        params = {k: v + rng.uniform_signed(0.05, np.shape(v))
                  for k, v in _angle_params(task, rng).items()}
        layer = LConvLayer(np.eye(10), [params["eps"]], [params["gen"]])

        def chunks(n):
            return [slice(s, s + MSE_SUM_CHUNK_ANGLE) for s in range(0, n, MSE_SUM_CHUNK_ANGLE)]

        for n in (1, 2, 3, 4, 5, 255, 256, 257, 258, 513, 2000, 2049):
            f, y = data["f_test"][:n], data["y_test"][:n]
            pred = np.concatenate([_angle_forward(params, layer, f[sl], y[sl], 3, 10)[0]
                                   for sl in chunks(n)])
            for theta in (data["theta_test"][:n], pred):
                total = sum(float(np.sum((pred[sl] - theta[sl]) ** 2)) for sl in chunks(n))
                test = {"f_test": f, "y_test": y, "theta_test": theta}
                assert _eval_angle(params, layer, test, 3, 10) == total / n, n

    def test_eval_peak_bounded(self):
        # no (d, n_test, m) activation stack: a block's temporaries only
        data = gen_angle_pairs_dataset(BENCH_ANGLE)
        params = _angle_params(BENCH_ANGLE, SeededRng(2))
        layer = LConvLayer(np.eye(10), [params["eps"]], [params["gen"]])
        _, peak = traced_peak(_eval_angle, params, layer, data, 3, 10)
        assert peak <= 6e6, peak


class TestTrainStateIO:
    def test_save_load_roundtrip(self, tmp_path):
        rng = SeededRng(77)
        params = {"gen": rng.uniform(6, 6), "eps": rng.uniform(2, 2),
                  "v1": rng.uniform(2, 3), "b1": np.zeros(3),
                  "v2": rng.uniform(3, 1), "b2": np.zeros(1)}
        layer = LConvLayer(w0=np.eye(2), eps=[params["eps"]],
                           generators=[params["gen"]])
        state = adam_init(params, None)
        state["t"] = 17
        state["m"]["gen"] += 0.5
        save_train_state(tmp_path / "s", layer, params, state, 9)
        p2, s2, epoch = load_train_state(
            AngleRegressionTask(width=2, height=3, m_copies=2, hidden=3), tmp_path / "s")
        assert epoch == 9
        assert s2["t"] == 17
        for k in params:
            assert np.array_equal(p2[k], params[k]), k
            assert np.array_equal(s2["m"][k], state["m"][k]), k
