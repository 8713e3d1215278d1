import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from lconv import discovery
from lconv.approx import shift_approx_sweep
from lconv.cli import main
from lconv.fieldtheory import decomposition_check, helmholtz_convergence
from lconv.groups import sw_shift_generator
from lconv.layer import LConvLayer
from lconv.numerics import LconvError, read_matrix, write_matrix


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def file_sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def run(*argv):
    return main(list(argv))


class TestGenData:
    def test_fixed_angle_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json",
                        {"task": "fixed-angle", "n_train": 30, "n_test": 10,
                         "seed": 3, "out_dir": str(tmp_path / "out")})
        assert run("gen-data", "--config", cfg) == 0
        x = read_matrix(tmp_path / "out" / "X_train.mat")
        y = read_matrix(tmp_path / "out" / "Y_train.mat")
        assert x.shape == (49, 30) and y.shape == (49, 30)
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "run_config.json").exists()

    def test_zero_samples_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json",
                        {"task": "fixed-angle", "n_train": 0, "n_test": 5,
                         "out_dir": str(tmp_path / "out")})
        assert run("gen-data", "--config", cfg) == 2

    def test_unknown_key_rejected_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json",
                        {"task": "fixed-angle", "bogus": 1,
                         "out_dir": str(tmp_path / "out")})
        assert run("gen-data", "--config", cfg) == 2

    def test_rerun_identical_hashes(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json",
                        {"task": "angle-pairs", "n_train": 20, "n_test": 8,
                         "seed": 9, "out_dir": str(tmp_path / "out")})
        assert run("gen-data", "--config", cfg) == 0
        first = {f: file_sha(tmp_path / "out" / f)
                 for f in os.listdir(tmp_path / "out")}
        assert run("gen-data", "--config", cfg) == 0
        second = {f: file_sha(tmp_path / "out" / f)
                  for f in os.listdir(tmp_path / "out")}
        assert first == second

    def test_unknown_task_rejected_before_writing(self, tmp_path):
        for command, extra in (("gen-data", {}),
                               ("train", {"optimizer": {"lr": 0.01}})):
            out = tmp_path / command
            cfg = write_cfg(tmp_path / f"{command}.json",
                            dict(extra, task="bogus", out_dir=str(out)))
            assert run(command, "--config", cfg) == 2
            assert not out.exists()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "c.json",
                        {"task": "fixed-angle", "n_train": 5, "n_test": 2,
                         "out_dir": str(tmp_path / "ignored")})
        monkeypatch.setenv("LCONV_OUT", str(tmp_path / "envdir"))
        assert run("gen-data", "--config", cfg) == 0
        assert (tmp_path / "envdir" / "X_train.mat").exists()
        assert not (tmp_path / "ignored").exists()


OPT = {"lr": 0.01, "batch_size": 20, "epochs": 1}
FIXED = {"task": "fixed-angle", "n_train": 60, "n_test": 10}
ANGLE = {"task": "angle-regression", "n_train": 20, "n_test": 5, "optimizer": OPT}


# keys each command (and task kind or check) accepted but never read
@pytest.mark.parametrize("command, cfg", [
    ("gen-data", dict(FIXED, theta_max=1.0)),
    ("gen-data", {"task": "angle-pairs", "theta": 0.3}),
    ("train", dict(FIXED, optimizer=OPT, theta_max=1.0)),
    ("train", dict(FIXED, optimizer=OPT, m_copies=2)),
    ("train", dict(FIXED, optimizer=OPT, recursions=2)),
    ("train", dict(FIXED, optimizer=OPT, hidden=2)),
    ("train", dict(ANGLE, theta=0.3)),
    ("eval", {"checkpoint": "ck", "data_dir": "data", "seed": 1}),
    ("approx", {"d_sweep": [8], "seed": 1}),
    ("theory", {"check": "helmholtz", "grid_size": 8}),
    ("theory", {"check": "helmholtz", "channels": 2}),
    ("theory", {"check": "helmholtz", "instances": 2}),
    ("theory", {"check": "decomposition", "sizes": [8]}),
    ("theory", {"check": "decomposition", "eps_scale": 1.0}),
])
def test_unread_key_rejected(tmp_path, command, cfg):
    path = write_cfg(tmp_path / "c.json", dict(cfg, out_dir=str(tmp_path / "out")))
    assert run(command, "--config", path) == 2
    assert not (tmp_path / "out").exists()


NAN = float("nan")


@pytest.mark.parametrize("command, cfg", [
    ("gen-data", dict(FIXED, n_train="10")),
    ("gen-data", dict(FIXED, n_train=10.5)),
    ("gen-data", dict(FIXED, width=1)),
    ("gen-data", dict(FIXED, theta=NAN)),
    ("gen-data", {"task": ["fixed-angle"]}),
    ("train", dict(ANGLE, recursions=-1)),
    ("train", dict(FIXED, optimizer=[1])),
    ("train", dict(FIXED, optimizer={"epochs": "1"})),
    ("train", dict(FIXED, optimizer={"lr": NAN})),
    ("train", dict(FIXED, optimizer=OPT, resume=5)),
    ("approx", {"d_sweep": [7]}),
    ("approx", {"d_sweep": ["abc"]}),
    ("approx", {"d_sweep": [16], "n_values": [0]}),
    ("approx", {"d": 8, "d_sweep": [16]}),
    ("approx", {"d_sweep": [8], "z": NAN}),
    ("theory", {"check": "decomposition", "grid_size": 7}),
    ("theory", {"check": "decomposition", "channels": 0}),
    ("theory", {"check": "decomposition", "instances": 1.5}),
    ("theory", {"check": "helmholtz", "sizes": [2]}),
    ("theory", {"check": "helmholtz", "eps_scale": 0}),
    ("theory", {"check": "helmholtz", "seed": "1"}),
    ("theory", {"check": "bogus"}),
    ("train", dict(FIXED, optimizer=dict(OPT, kind="sgd"))),
    ("train", dict(FIXED, optimizer=dict(OPT, beta1=0.9))),
    ("approx", {"d": 8}),
])
def test_bad_value_rejected_before_writing(tmp_path, command, cfg):
    path = write_cfg(tmp_path / "c.json", dict(cfg, out_dir=str(tmp_path / "out")))
    assert run(command, "--config", path) == 2
    assert not (tmp_path / "out").exists()


def _eval_linear(x, y):
    layer = LConvLayer(np.eye(1), [np.eye(1)], [sw_shift_generator(8)])
    return discovery._eval_linear(layer, x, y)


# the library functions behind eval, approx and theory reject by themselves
# the values those commands reject before writing
@pytest.mark.parametrize("call", [
    lambda: shift_approx_sweep(8, "2", [4]),
    lambda: shift_approx_sweep("8", 2.0, [4]),
    lambda: helmholtz_convergence([32.5], 1.0),
    lambda: helmholtz_convergence([32], 0.0),
    lambda: decomposition_check(16, 3, 1.5, 0),
    lambda: decomposition_check(16, 3, 2, "0"),
    lambda: decomposition_check(16, 0, 2, 0),
    lambda: _eval_linear(np.zeros((8, 3)), np.zeros((8, 2))),
    lambda: _eval_linear(np.zeros((8, 0)), np.zeros((8, 0))),
], ids=["approx-z-str", "approx-d-str", "helmholtz-size-float", "helmholtz-eps-0",
        "decomposition-instances-float", "decomposition-seed-str",
        "decomposition-channels-0", "eval-widths-differ", "eval-no-samples"])
def test_library_rejects_bad_argument(call):
    with pytest.raises(LconvError):
        call()


class TestTrain:
    def _train_cfg(self, tmp_path, out, epochs=2, extra=None):
        cfg = {"task": "fixed-angle", "n_train": 400, "n_test": 80, "seed": 2,
               "optimizer": {"kind": "adam", "lr": 0.01, "batch_size": 50,
                             "epochs": epochs},
               "out_dir": str(tmp_path / out)}
        cfg.update(extra or {})
        return write_cfg(tmp_path / f"{out}.json", cfg)

    def test_smoke_and_report_fields(self, tmp_path):
        cfg = self._train_cfg(tmp_path, "run")
        assert run("train", "--config", cfg) == 0
        report = json.load(open(tmp_path / "run" / "report.json"))
        assert "vs_ls_oracle" in report["correlations"]
        assert len(report["loss_curve"]) == 2
        assert "wall_clock_sec" not in report     # timings live in timing.json
        assert (tmp_path / "run" / "loss.csv").exists()
        assert (tmp_path / "run" / "generator.mat").exists()

    @pytest.mark.parametrize("cfg, phases", [
        (dict(FIXED, optimizer=OPT), {"data", "ls_oracle", "train_steps",
                                      "evaluation", "checkpoint"}),
        (ANGLE, {"data", "train_steps", "evaluation", "checkpoint"})],
        ids=["fixed-angle", "angle-regression"])
    def test_timing_holds_disjoint_phases(self, tmp_path, cfg, phases):
        path = write_cfg(tmp_path / "c.json", dict(cfg, out_dir=str(tmp_path / "run")))
        assert run("train", "--config", path) == 0
        timing = json.load(open(tmp_path / "run" / "timing.json"))
        assert sorted(timing) == ["phase_sec", "wall_clock_sec"]
        assert set(timing["phase_sec"]) == phases
        assert all(s >= 0 for s in timing["phase_sec"].values())
        assert sum(timing["phase_sec"].values()) <= timing["wall_clock_sec"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverged_run_exits_3_with_its_timing(self, tmp_path):
        cfg = dict(FIXED, optimizer=dict(OPT, lr=1e300), out_dir=str(tmp_path / "run"))
        assert run("train", "--config", write_cfg(tmp_path / "c.json", cfg)) == 3
        timing = json.load(open(tmp_path / "run" / "timing.json"))
        assert set(timing["phase_sec"]) == {"data", "ls_oracle", "train_steps"}
        assert 0 < sum(timing["phase_sec"].values()) <= timing["wall_clock_sec"]
        assert json.load(open(tmp_path / "run" / "report.json"))["loss_curve"] == []

    @pytest.mark.parametrize("cfg", [dict(FIXED, n_train=20, optimizer=OPT),
                                     dict(ANGLE, width=2)],
                             ids=["oracle-needs-d-samples", "generator-needs-side-3"])
    def test_preconditions_rejected_before_writing(self, tmp_path, cfg):
        path = write_cfg(tmp_path / "c.json", dict(cfg, out_dir=str(tmp_path / "out")))
        assert run("train", "--config", path) == 2
        assert not (tmp_path / "out").exists()

    def test_negative_lr_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.json",
                        {"task": "fixed-angle",
                         "optimizer": {"lr": -0.5}, "out_dir": str(tmp_path / "o")})
        assert run("train", "--config", cfg) == 2

    def test_determinism_across_reruns(self, tmp_path):
        cfg_a = self._train_cfg(tmp_path, "runA")
        cfg_b = self._train_cfg(tmp_path, "runB")
        assert run("train", "--config", cfg_a) == 0
        assert run("train", "--config", cfg_b) == 0
        for name in ("generator.mat", "loss.csv"):
            assert file_sha(tmp_path / "runA" / name) == file_sha(tmp_path / "runB" / name)
        ra = json.load(open(tmp_path / "runA" / "report.json"))
        rb = json.load(open(tmp_path / "runB" / "report.json"))
        ra["config"]["task"].pop("seed", None)
        assert ra["loss_curve"] == rb["loss_curve"]

    def test_resume_continues_epochs(self, tmp_path):
        short = self._train_cfg(tmp_path, "short", epochs=2)
        assert run("train", "--config", short) == 0
        resumed = self._train_cfg(
            tmp_path, "resumed", epochs=4,
            extra={"resume": str(tmp_path / "short" / "checkpoint")})
        assert run("train", "--config", resumed) == 0
        curve = json.load(open(tmp_path / "resumed" / "report.json"))["loss_curve"]
        assert [row[0] for row in curve] == [2, 3]

    def test_resume_reads_the_checkpoint_once(self, tmp_path, monkeypatch):
        assert run("train", "--config", self._train_cfg(tmp_path, "short", epochs=1)) == 0
        reads, load = [], discovery.load_checkpoint
        monkeypatch.setattr(discovery, "load_checkpoint",
                            lambda directory: reads.append(directory) or load(directory))
        resumed = self._train_cfg(tmp_path, "resumed", epochs=2,
                                  extra={"resume": str(tmp_path / "short" / "checkpoint")})
        assert run("train", "--config", resumed) == 0
        assert reads == [str(tmp_path / "short" / "checkpoint")]

    def test_checkpoint_holds_no_unread_keys(self, tmp_path):
        assert run("train", "--config", self._train_cfg(tmp_path, "run")) == 0
        ckpt = tmp_path / "run" / "checkpoint"
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert set(manifest) == {"generators", "extra"}
        assert sorted(os.listdir(ckpt)) == ["W0.mat", "adam_m_gen.mat", "adam_v_gen.mat",
                                            "eps_0.mat", "gen_0.mat", "manifest.json"]

    @pytest.mark.parametrize("saved, cfg, code", [
        (None, FIXED, 4),
        (ANGLE, FIXED, 2),
        (FIXED, ANGLE, 2),
        (ANGLE, dict(ANGLE, m_copies=4), 2),
        (FIXED, dict(FIXED, width=6), 2),
        # epoch-2 parameters would be reported and saved as a 1-epoch run
        (dict(FIXED, optimizer=dict(OPT, epochs=2)), FIXED, 2),
    ], ids=["missing", "angle-into-fixed", "fixed-into-angle", "eps-shape",
            "generator-shape", "past-epochs"])
    def test_bad_resume_rejected_before_writing(self, tmp_path, saved, cfg, code):
        if saved is not None:
            path = write_cfg(tmp_path / "s.json", dict(
                {"optimizer": OPT}, **saved, out_dir=str(tmp_path / "saved")))
            assert run("train", "--config", path) == 0
        path = write_cfg(tmp_path / "c.json", dict(
            cfg, optimizer=OPT, resume=str(tmp_path / "saved" / "checkpoint"),
            out_dir=str(tmp_path / "out")))
        assert run("train", "--config", path) == code
        assert not (tmp_path / "out").exists()


class TestEval:
    def test_eval_checkpoint(self, tmp_path, capsys):
        data_cfg = write_cfg(tmp_path / "d.json",
                             {"task": "fixed-angle", "n_train": 100, "n_test": 20,
                              "seed": 2, "out_dir": str(tmp_path / "data")})
        assert run("gen-data", "--config", data_cfg) == 0
        train_cfg = write_cfg(tmp_path / "t.json",
                              {"task": "fixed-angle", "n_train": 100, "n_test": 20,
                               "seed": 2,
                               "optimizer": {"lr": 0.01, "batch_size": 20, "epochs": 2},
                               "out_dir": str(tmp_path / "run")})
        assert run("train", "--config", train_cfg) == 0
        eval_cfg = write_cfg(tmp_path / "e.json",
                             {"checkpoint": str(tmp_path / "run" / "checkpoint"),
                              "data_dir": str(tmp_path / "data"),
                              "out_dir": str(tmp_path / "evalout")})
        assert run("eval", "--config", eval_cfg) == 0
        result = json.load(open(tmp_path / "evalout" / "eval.json"))
        assert result["test_mse"] >= 0.0
        # --seed, like the seed key, is not read by eval
        assert run("eval", "--config", eval_cfg, "--seed", "1") == 2

    def test_eval_matches_training_report(self, tmp_path):
        # more than one 4096-sample evaluation chunk; on this split a
        # whole-array mean differs from the chunked sum in the last bit
        data = dict(FIXED, n_test=10000, seed=4)
        for command, out, cfg in (("gen-data", "data", data),
                                  ("train", "run", dict(data, optimizer=OPT))):
            path = write_cfg(tmp_path / f"{out}.json",
                             dict(cfg, out_dir=str(tmp_path / out)))
            assert run(command, "--config", path) == 0
        eval_cfg = write_cfg(tmp_path / "e.json",
                             {"checkpoint": str(tmp_path / "run" / "checkpoint"),
                              "data_dir": str(tmp_path / "data"),
                              "out_dir": str(tmp_path / "evalout")})
        assert run("eval", "--config", eval_cfg) == 0
        result = json.load(open(tmp_path / "evalout" / "eval.json"))
        report = json.load(open(tmp_path / "run" / "report.json"))
        assert result["test_mse"] == report["final_test_mse"]

    def test_angle_checkpoint_rejected(self, tmp_path):
        for command, out, cfg in (
                ("gen-data", "data", {"task": "angle-pairs", "n_train": 40, "n_test": 8}),
                ("train", "run", dict(ANGLE, n_train=40))):
            path = write_cfg(tmp_path / f"{out}.json",
                             dict(cfg, out_dir=str(tmp_path / out)))
            assert run(command, "--config", path) == 0
        eval_cfg = write_cfg(tmp_path / "e.json",
                             {"checkpoint": str(tmp_path / "run" / "checkpoint"),
                              "data_dir": str(tmp_path / "data"),
                              "out_dir": str(tmp_path / "evalout")})
        assert run("eval", "--config", eval_cfg) == 2
        assert not (tmp_path / "evalout").exists()

    @pytest.mark.parametrize("data, cut", [
        ({"width": 5, "height": 5}, {}),
        ({}, {"Y_test.mat": -1}),
        ({}, {"X_test.mat": 0, "Y_test.mat": 0}),
    ], ids=["grid-size-differs", "sample-counts-differ", "no-samples"])
    def test_data_not_fitting_checkpoint_rejected_before_writing(self, tmp_path,
                                                                 data, cut):
        for command, out, cfg in (("gen-data", "data", dict(FIXED, **data)),
                                  ("train", "run", dict(FIXED, optimizer=OPT))):
            path = write_cfg(tmp_path / f"{out}.json",
                             dict(cfg, out_dir=str(tmp_path / out)))
            assert run(command, "--config", path) == 0
        for name, end in cut.items():   # keep the columns before `end`
            path = tmp_path / "data" / name
            write_matrix(path, read_matrix(path)[:, :end])
        eval_cfg = write_cfg(tmp_path / "e.json",
                             {"checkpoint": str(tmp_path / "run" / "checkpoint"),
                              "data_dir": str(tmp_path / "data"),
                              "out_dir": str(tmp_path / "evalout")})
        assert run("eval", "--config", eval_cfg) == 2
        assert not (tmp_path / "evalout").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_mse_exits_3(self, tmp_path):
        # entries near 1e200 are finite, so read_matrix takes them, but
        # their squared errors overflow: the MSE reads inf, so no eval.json
        for command, out, cfg in (("gen-data", "data", FIXED),
                                  ("train", "run", dict(FIXED, optimizer=OPT))):
            path = write_cfg(tmp_path / f"{out}.json",
                             dict(cfg, out_dir=str(tmp_path / out)))
            assert run(command, "--config", path) == 0
        path = tmp_path / "data" / "X_test.mat"
        write_matrix(path, read_matrix(path) * 1e200)
        eval_cfg = write_cfg(tmp_path / "e.json",
                             {"checkpoint": str(tmp_path / "run" / "checkpoint"),
                              "data_dir": str(tmp_path / "data"),
                              "out_dir": str(tmp_path / "evalout")})
        assert run("eval", "--config", eval_cfg) == 3
        assert not (tmp_path / "evalout" / "eval.json").exists()

    def test_missing_checkpoint_writes_nothing(self, tmp_path):
        eval_cfg = write_cfg(tmp_path / "e.json",
                             {"checkpoint": str(tmp_path / "nope"),
                              "data_dir": str(tmp_path / "data"),
                              "out_dir": str(tmp_path / "evalout")})
        assert run("eval", "--config", eval_cfg) == 4
        assert not (tmp_path / "evalout").exists()


# each edit turns a checkpoint's manifest dict into the text written back
MANIFEST_EDITS = {
    "not-json": lambda m: json.dumps(m)[:-1],
    "missing-key": lambda m: json.dumps({k: v for k, v in m.items() if k != "generators"}),
    "wrong-type": lambda m: json.dumps(dict(m, extra="yes")),
    "unknown-form": lambda m: json.dumps(dict(m, generators=[{"form": "sparse"}])),
    "tanh-head": lambda m: json.dumps(dict(m, has_bias=True)),
    "no-residual": lambda m: json.dumps(dict(m, include_residual=False)),
    # what checkpoints of earlier versions held: one format loads, not these
    "dense-list": lambda m: json.dumps(dict(m, generators=[{"form": "dense"}])),
    "low-rank-form": lambda m: json.dumps(dict(m, generators=[{"form": "low_rank"}])),
    "labelled-entry": lambda m: json.dumps(
        dict(m, generators=[{"form": "dense", "label": "x"}])),
    "older-shape-keys": lambda m: json.dumps(dict(m, m_in=1, m_out=1, d=49, n_generators=1)),
    "legacy-train-flags": lambda m: json.dumps(
        dict(m, train_w0=False, train_eps=False, train_generators=True)),
    "residual-flags": lambda m: json.dumps(dict(m, has_bias=False, include_residual=True)),
    "scalar-eps-key": lambda m: json.dumps(dict(m, scalar_eps=True)),
    "no-generators": lambda m: json.dumps(dict(m, generators=0)),
    "generators-float": lambda m: json.dumps(dict(m, generators=1.0)),
    "generators-bool": lambda m: json.dumps(dict(m, generators=True)),
    "no-epoch": lambda m: json.dumps(
        dict(m, extra={k: v for k, v in m["extra"].items() if k != "epoch"})),
}


def _rewrite_manifest(text):
    """An edit that writes text(manifest dict) back as manifest.json."""
    def edit(ckpt):
        path = ckpt / "manifest.json"
        path.write_text(text(json.loads(path.read_text())))
    return edit


def _overwrite(name, shape, value=0.0):
    """An edit that replaces the checkpoint matrix `name` by `value`s of `shape`."""
    return lambda ckpt: write_matrix(ckpt / name, np.full(shape, value))


def _second_generator(ckpt):
    """An edit that adds a second generator, with its eps, to the layer."""
    _rewrite_manifest(lambda m: json.dumps(dict(m, generators=2)))(ckpt)
    write_matrix(ckpt / "eps_1.mat", np.eye(1))
    write_matrix(ckpt / "gen_1.mat", np.full((49, 49), 0.01))


# name: (trained run whose checkpoint is copied, edit of the copy, task resuming it)
CHECKPOINT_EDITS = {
    **{name: ("run", _rewrite_manifest(text), FIXED)
       for name, text in MANIFEST_EDITS.items()},
    "head-not-list": ("run", _rewrite_manifest(lambda m: json.dumps(
        dict(m, extra=dict(m["extra"], head=5)))), FIXED),
    "adam-t-negative": ("run", _rewrite_manifest(lambda m: json.dumps(
        dict(m, extra=dict(m["extra"], adam_t=-1)))), FIXED),
    # the fixed-angle model's 1 x 1 eps replaced by a 0 x 3 matrix
    "scalar-eps-0x3": ("run", _overwrite("eps_0.mat", (0, 3)), FIXED),
    "generator-48x48": ("run", _overwrite("gen_0.mat", (48, 48)), FIXED),
    "generator-49x3": ("run", _overwrite("gen_0.mat", (49, 3)), FIXED),
    "w0-2x1": ("run", _overwrite("W0.mat", (2, 1)), FIXED),
    "w0-zero": ("run", _overwrite("W0.mat", (1, 1)), FIXED),
    "eps-half": ("run", _overwrite("eps_0.mat", (1, 1), 0.5), FIXED),
    "w0-angle-zero": ("run_angle", _overwrite("W0.mat", (10, 10)), ANGLE),
    "head-v1-size": ("run_angle", _overwrite("head_v1.mat", (10, 4)), ANGLE),
    "adam-m-v1-size": ("run_angle", _overwrite("adam_m_v1.mat", (10, 4)), ANGLE),
    "angle-into-fixed": ("run_angle", lambda ckpt: None, FIXED),
    "two-generators": ("run", _second_generator, FIXED),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A fixed-angle data directory, a checkpoint trained on it, and an
    angle-regression checkpoint."""
    root = tmp_path_factory.mktemp("trained")
    for command, out, cfg in (("gen-data", "data", FIXED),
                              ("train", "run", dict(FIXED, optimizer=OPT)),
                              ("train", "run_angle", ANGLE)):
        path = write_cfg(root / f"{out}.json", dict(cfg, out_dir=str(root / out)))
        assert run(command, "--config", path) == 0
    return root


def _run_on_copy(tmp_path, trained, command, saved, change, task):
    """Exit code of eval, or of train resuming `task`, on a copy of trained
    run `saved`'s checkpoint changed by `change`; checks nothing was written."""
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(trained / saved / "checkpoint", ckpt)
    change(ckpt)
    if command == "eval":
        cfg = {"checkpoint": str(ckpt), "data_dir": str(trained / "data")}
    else:
        command, cfg = "train", dict(task, optimizer=OPT, resume=str(ckpt))
    path = write_cfg(tmp_path / "c.json", dict(cfg, out_dir=str(tmp_path / "out")))
    code = run(command, "--config", path)
    assert not (tmp_path / "out").exists()
    return code


@pytest.mark.parametrize("command, edit", [
    *(("eval", e) for e in MANIFEST_EDITS if e != "no-epoch"),
    *(("eval", e) for e in ("scalar-eps-0x3", "generator-49x3", "w0-2x1",
                            "w0-zero", "eps-half", "two-generators")),
    *(("resume", e) for e in CHECKPOINT_EDITS),
])
def test_malformed_checkpoint_rejected_before_writing(tmp_path, trained, command, edit):
    assert _run_on_copy(tmp_path, trained, command, *CHECKPOINT_EDITS[edit]) == 2


@pytest.mark.parametrize("command, name", [("eval", "gen_0.mat"),
                                           ("resume", "adam_v_gen.mat"),
                                           ("resume", "adam_m_gen.mat")])
def test_missing_checkpoint_file_is_io_error(tmp_path, trained, command, name):
    assert _run_on_copy(tmp_path, trained, command, "run",
                        lambda ckpt: (ckpt / name).unlink(), FIXED) == 4


class TestApprox:
    def test_sweep_contains_reference_correlations(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.json",
                        {"d_sweep": [20], "z": 2.0, "n_values": [8, 16],
                         "out_dir": str(tmp_path / "out")})
        assert run("approx", "--config", cfg) == 0
        rows = open(tmp_path / "out" / "shift_approx_d20.csv").read().splitlines()
        header, r8, r16 = rows[0], rows[1].split(","), rows[2].split(",")
        assert header == "n,eta,frobenius_error,correlation"
        assert abs(float(r8[3]) - 0.77) < 0.05
        assert abs(float(r16[3]) - 0.93) < 0.05

    def test_empty_sweep_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.json",
                        {"d_sweep": [], "out_dir": str(tmp_path / "out")})
        assert run("approx", "--config", cfg) == 2
        assert not (tmp_path / "out").exists()

    def test_threads_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.json",
                        {"d_sweep": [8, 16], "threads": 2,
                         "out_dir": str(tmp_path / "out")})
        assert run("approx", "--config", cfg) == 2
        assert not (tmp_path / "out").exists()

    def test_d_sweep_one_file_per_size(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.json",
                        {"d_sweep": [8, 16, 32], "n_values": [4, 8],
                         "out_dir": str(tmp_path / "out")})
        assert run("approx", "--config", cfg) == 0
        files = sorted(f for f in os.listdir(tmp_path / "out") if f.endswith(".csv"))
        assert files == ["shift_approx_d16.csv", "shift_approx_d32.csv",
                         "shift_approx_d8.csv"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_row_exits_3(self, tmp_path):
        # (I + (z/n) L)^n overflows at n = 1024 for z = 1000: the row would
        # read nan, so no CSV is written
        cfg = write_cfg(tmp_path / "a.json",
                        {"d_sweep": [16], "z": 1000.0, "n_values": [4, 1024],
                         "out_dir": str(tmp_path / "out")})
        assert run("approx", "--config", cfg) == 3
        assert not (tmp_path / "out" / "shift_approx_d16.csv").exists()


class TestTheory:
    def test_helmholtz_monotone_rows(self, tmp_path):
        cfg = write_cfg(tmp_path / "t.json",
                        {"check": "helmholtz", "sizes": [32, 64, 128],
                         "eps_scale": 1.0, "out_dir": str(tmp_path / "out")})
        assert run("theory", "--config", cfg) == 0
        rows = open(tmp_path / "out" / "helmholtz.csv").read().splitlines()[1:]
        residuals = [float(r.split(",")[1]) for r in rows]
        assert len(residuals) == 3
        assert residuals[0] > residuals[1] > residuals[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_helmholtz_row_exits_3(self, tmp_path):
        # cosh(x / 0.001) overflows on the grid: the row would read nan
        cfg = write_cfg(tmp_path / "t.json",
                        {"check": "helmholtz", "eps_scale": 0.001, "sizes": [32],
                         "out_dir": str(tmp_path / "out")})
        assert run("theory", "--config", cfg) == 3
        assert not (tmp_path / "out" / "helmholtz.csv").exists()

    def test_decomposition_check_passes(self, tmp_path):
        cfg = write_cfg(tmp_path / "t.json",
                        {"check": "decomposition", "instances": 5,
                         "out_dir": str(tmp_path / "out")})
        assert run("theory", "--config", cfg) == 0
        gap = json.load(open(tmp_path / "out" / "decomposition.json"))["max_rel_gap"]
        assert gap <= 1e-6

    def test_unsupported_group_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "t.json",
                        {"check": "helmholtz", "group": "so3",
                         "out_dir": str(tmp_path / "out")})
        assert run("theory", "--config", cfg) == 2
        assert not (tmp_path / "out").exists()


class TestVersion:
    def test_version_prints(self, capsys):
        assert run("version") == 0
        out = capsys.readouterr().out
        assert out.startswith("lconv ")
