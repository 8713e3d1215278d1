"""Command-line driver: reproducible runs of every experiment.

Subcommands: gen-data, train, eval, approx, theory, version.  Each takes
a JSON config file; --seed and --out-dir flags override config keys, and
the LCONV_OUT environment variable overrides the config's out_dir (flags
beat it).  Unknown config keys are rejected.  Every run echoes its full
config plus the library version into out_dir/run_config.json, and all
outputs are bit-reproducible for a fixed (config, seed): timings go to a
separate timing.json so the stable artifacts hash identically across
reruns.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .approx import shift_approx_sweep
from .discovery import (AngleRegressionTask, FixedAngleTask, OptimizerConfig,
                        TrainingDivergedError, gen_angle_pairs_dataset,
                        gen_fixed_angle_dataset, train_angle_regression,
                        train_fixed_angle)
from .fieldtheory import (FieldSample, FieldTheoryTerms, field_terms,
                          helmholtz_convergence, mse_loss_decomposed,
                          mse_loss_direct)
from .groups import GridSpec, sw_shift_generator
from .layer import LConvLayer, load_checkpoint
from .numerics import (LconvError, SeededRng, write_csv, write_matrix,
                       read_matrix)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(LconvError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _take(cfg, known, required=()):
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required config key {key!r}")
    return cfg


def _resolve_out_dir(cfg, args):
    out = args.out_dir or os.environ.get("LCONV_OUT") or cfg.get("out_dir")
    if not out:
        raise ConfigError("no out_dir: set it in the config, via --out-dir, or LCONV_OUT")
    return out


def _config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_run(out_dir, command, cfg):
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "run_config.json"),
                {"command": command, "config": cfg, "version": __version__,
                 "config_sha256": _config_hash(cfg)})


def _optimizer(cfg):
    opt = _take(dict(cfg), ("kind", "lr", "batch_size", "epochs",
                            "beta1", "beta2", "eps"))
    try:
        return OptimizerConfig(**opt)
    except LconvError as exc:
        raise ConfigError(str(exc))


# -- subcommands ----------------------------------------------------------

def cmd_gen_data(cfg, args):
    _take(cfg, ("task", "width", "height", "theta", "theta_max", "n_train",
                "n_test", "seed", "out_dir"), required=("task",))
    out_dir = _resolve_out_dir(cfg, args)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    kind = cfg["task"]
    if kind not in ("fixed-angle", "angle-pairs"):
        raise ConfigError(f"unknown dataset task {kind!r}")
    for key in ("n_train", "n_test"):
        if key in cfg and cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    echo = dict(cfg, seed=seed, out_dir=out_dir)
    _echo_run(out_dir, "gen-data", echo)
    if kind == "fixed-angle":
        task = FixedAngleTask(
            width=cfg.get("width", 7), height=cfg.get("height", 7),
            theta=cfg.get("theta", np.pi / 10),
            n_train=cfg.get("n_train", 50000), n_test=cfg.get("n_test", 10000),
            seed=seed)
        data = gen_fixed_angle_dataset(task)
        names = ("x_train", "y_train", "x_test", "y_test")
        upper = {"x_train": "X_train", "y_train": "Y_train",
                 "x_test": "X_test", "y_test": "Y_test"}
        for name in names:
            write_matrix(os.path.join(out_dir, f"{upper[name]}.mat"), data[name])
    else:
        task = AngleRegressionTask(
            width=cfg.get("width", 7), height=cfg.get("height", 7),
            theta_max=cfg.get("theta_max", np.pi / 3),
            n_train=cfg.get("n_train", 12000), n_test=cfg.get("n_test", 2000),
            seed=seed)
        data = gen_angle_pairs_dataset(task)
        for split in ("train", "test"):
            write_matrix(os.path.join(out_dir, f"F_{split}.mat"), data[f"f_{split}"])
            write_matrix(os.path.join(out_dir, f"Y_{split}.mat"), data[f"y_{split}"])
            write_matrix(os.path.join(out_dir, f"theta_{split}.mat"),
                         data[f"theta_{split}"][:, None])
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"task": kind, "seed": seed, "config_sha256": _config_hash(echo)})
    return EXIT_OK


def _write_report(out_dir, report):
    body = report.to_dict()
    wall = body.pop("wall_clock_sec")
    _write_json(os.path.join(out_dir, "report.json"), body)
    _write_json(os.path.join(out_dir, "timing.json"), {"wall_clock_sec": wall})
    write_csv(os.path.join(out_dir, "loss.csv"),
              ("epoch", "train_mse", "test_mse"),
              [(int(e), float(tr), float(te)) for e, tr, te in report.loss_curve])
    for name, arr in report.arrays.items():
        write_matrix(os.path.join(out_dir, f"{name}.mat"), np.atleast_2d(arr))


def cmd_train(cfg, args):
    _take(cfg, ("task", "width", "height", "theta", "theta_max", "m_copies",
                "recursions", "hidden", "n_train", "n_test", "seed",
                "optimizer", "out_dir", "resume"), required=("task", "optimizer"))
    out_dir = _resolve_out_dir(cfg, args)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    opt = _optimizer(cfg["optimizer"])
    kind = cfg["task"]
    if kind not in ("fixed-angle", "angle-regression"):
        raise ConfigError(f"unknown training task {kind!r}")
    echo = dict(cfg, seed=seed, out_dir=out_dir)
    _echo_run(out_dir, "train", echo)
    resume = cfg.get("resume")
    try:
        if kind == "fixed-angle":
            task = FixedAngleTask(
                width=cfg.get("width", 7), height=cfg.get("height", 7),
                theta=cfg.get("theta", np.pi / 10),
                n_train=cfg.get("n_train", 50000),
                n_test=cfg.get("n_test", 10000), seed=seed)
            report = train_fixed_angle(task, opt, resume_dir=resume,
                                       checkpoint_dir=os.path.join(out_dir, "checkpoint"))
        else:
            task = AngleRegressionTask(
                width=cfg.get("width", 7), height=cfg.get("height", 7),
                theta_max=cfg.get("theta_max", np.pi / 3),
                m_copies=cfg.get("m_copies", 10),
                recursions=cfg.get("recursions", 3),
                hidden=cfg.get("hidden", 5),
                n_train=cfg.get("n_train", 12000),
                n_test=cfg.get("n_test", 2000), seed=seed)
            report = train_angle_regression(task, opt, resume_dir=resume,
                                            checkpoint_dir=os.path.join(out_dir, "checkpoint"))
    except TrainingDivergedError as exc:
        if exc.report is not None:
            _write_report(out_dir, exc.report)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_report(out_dir, report)
    summary = {k: v for k, v in report.correlations.items()}
    summary["final_test_mse"] = report.final_test_mse
    _write_json(os.path.join(out_dir, "correlations.json"), summary)
    return EXIT_OK


def cmd_eval(cfg, args):
    _take(cfg, ("checkpoint", "data_dir", "out_dir", "seed"),
          required=("checkpoint", "data_dir"))
    out_dir = _resolve_out_dir(cfg, args)
    echo = dict(cfg, out_dir=out_dir)
    _echo_run(out_dir, "eval", echo)
    layer, manifest = load_checkpoint(cfg["checkpoint"])
    x = read_matrix(os.path.join(cfg["data_dir"], "X_test.mat"))
    y = read_matrix(os.path.join(cfg["data_dir"], "Y_test.mat"))
    pred = layer.forward(x.T[:, :, None])
    mse = float(np.mean((pred - y.T[:, :, None]) ** 2))
    _write_json(os.path.join(out_dir, "eval.json"),
                {"test_mse": mse, "checkpoint_epoch": manifest["extra"].get("epoch")})
    print(f"test_mse {mse:.6e}")
    return EXIT_OK


def cmd_approx(cfg, args):
    _take(cfg, ("d", "d_sweep", "z", "n_values", "out_dir", "seed"))
    out_dir = _resolve_out_dir(cfg, args)
    echo = dict(cfg, out_dir=out_dir)
    _echo_run(out_dir, "approx", echo)
    ds = cfg.get("d_sweep") or ([cfg["d"]] if "d" in cfg else None)
    if not ds:
        raise ConfigError("approx needs 'd' or a non-empty 'd_sweep'")
    n_values = cfg.get("n_values", [4, 8, 16, 32, 64, 128, 256])
    if not n_values:
        raise ConfigError("empty n_values sweep")
    z = cfg.get("z", 2.0)
    for d in ds:
        rows = shift_approx_sweep(int(d), z, n_values)
        write_csv(os.path.join(out_dir, f"shift_approx_d{d}.csv"),
                  ("n", "eta", "frobenius_error", "correlation"), rows)
    return EXIT_OK


def cmd_theory(cfg, args):
    _take(cfg, ("check", "sizes", "eps_scale", "channels", "grid_size",
                "instances", "group", "out_dir", "seed"),
          required=("check",))
    out_dir = _resolve_out_dir(cfg, args)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    echo = dict(cfg, seed=seed, out_dir=out_dir)
    _echo_run(out_dir, "theory", echo)
    check = cfg["check"]
    if cfg.get("group", "translation") != "translation":
        raise ConfigError(
            f"unsupported group {cfg['group']!r}: variational diagnostics "
            "cover the translation group only")
    if check == "helmholtz":
        sizes = cfg.get("sizes", [32, 64, 128])
        eps_scale = cfg.get("eps_scale", 1.0)
        terms = FieldTheoryTerms(
            m2=np.array([[1.0]]),
            channel_metric=[[np.array([[eps_scale ** 2]])]],
            v=[np.array([[eps_scale]])])
        rows = helmholtz_convergence(sizes, eps_scale, terms)
        write_csv(os.path.join(out_dir, "helmholtz.csv"),
                  ("grid_size", "el_residual", "noether_divergence"), rows)
        for row in rows:
            print("grid %4d  el %.3e  noether %.3e" % row)
    elif check == "decomposition":
        d = cfg.get("grid_size", 16)
        m = cfg.get("channels", 3)
        rng = SeededRng(seed)
        gen = sw_shift_generator(d)
        worst = 0.0
        for _ in range(cfg.get("instances", 10)):
            layer = LConvLayer(rng.uniform_signed(0.8, (m, m)),
                               [float(rng.uniform_signed(0.4, ()))],
                               [gen], scalar_eps=True)
            sample = FieldSample(GridSpec("line", d), rng.uniform(d, m))
            terms = field_terms(layer)
            direct = mse_loss_direct(sample, layer)
            dec = mse_loss_decomposed(sample, terms, [gen])
            worst = max(worst, abs(direct - dec) / max(direct, 1e-300))
        print(f"max relative decomposition gap over instances: {worst:.3e}")
        _write_json(os.path.join(out_dir, "decomposition.json"),
                    {"max_rel_gap": worst})
        if worst > 1e-6:
            return EXIT_NUMERIC
    else:
        raise ConfigError(f"unknown theory check {check!r}")
    return EXIT_OK


def cmd_version(cfg, args):
    print(f"lconv {__version__}")
    return EXIT_OK


_COMMANDS = {
    "gen-data": (cmd_gen_data, True),
    "train": (cmd_train, True),
    "eval": (cmd_eval, True),
    "approx": (cmd_approx, True),
    "theory": (cmd_theory, True),
    "version": (cmd_version, False),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lconv",
        description="Lie-algebra convolution experiments, reproducibly")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config) in _COMMANDS.items():
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=False,
                           help="JSON config file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
            p.add_argument("--out-dir", default=None,
                           help="override the output directory")
    args = parser.parse_args(argv)
    handler, needs_config = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config) if needs_config and args.config else {}
        return handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LconvError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
