"""Command-line driver: reproducible runs of every experiment.

Subcommands: gen-data, train, eval, approx, theory, version.  Each takes
a JSON config file; --seed and --out-dir flags override config keys, and
the LCONV_OUT environment variable overrides the config's out_dir (flags
beat it).  Task and optimizer keys are the fields of their discovery
dataclasses, which check their values; unknown keys, and keys the chosen
task or check does not read, are rejected.  A config is fully checked
before anything is written.  Every run echoes its full config plus the
library version into out_dir/run_config.json, and all outputs are
bit-reproducible for a fixed (config, seed): timings go to a separate
timing.json so the stable artifacts hash identically across reruns.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .approx import shift_approx_sweep
from .discovery import (AngleRegressionTask, FixedAngleTask, OptimizerConfig,
                        TrainingDivergedError, _check_run, _eval_linear, _load_model,
                        gen_angle_pairs_dataset, gen_fixed_angle_dataset,
                        load_train_state, train_angle_regression, train_fixed_angle)
from .fieldtheory import (field_terms, helmholtz_convergence, mse_loss_decomposed,
                          mse_loss_direct)
from .groups import _check_even, sw_shift_generator
from .layer import LConvLayer
from .numerics import (LconvError, SeededRng, check_finite, check_value, write_csv,
                       write_matrix, read_matrix)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_DATA_TASKS = {"fixed-angle": FixedAngleTask, "angle-pairs": AngleRegressionTask}
_TRAIN_TASKS = {"fixed-angle": FixedAngleTask, "angle-regression": AngleRegressionTask}
_THEORY = {"helmholtz": {"sizes": [32, 64, 128], "eps_scale": 1.0},
           "decomposition": {"grid_size": 16, "channels": 3, "instances": 10}}


class ConfigError(LconvError):
    pass


@contextlib.contextmanager
def _config_errors():
    """Report the library's own argument checks as config errors."""
    try:
        yield
    except LconvError as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args):
    """The --config file with the --seed, --out-dir and LCONV_OUT overrides."""
    cfg = {}
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    out = args.out_dir or os.environ.get("LCONV_OUT") or cfg.get("out_dir")
    if not out:
        raise ConfigError("no out_dir: set it in the config, via --out-dir, or LCONV_OUT")
    return dict(cfg, out_dir=out, **({} if args.seed is None else {"seed": args.seed}))


def _take(cfg, known, required=()):
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected a JSON object, got {cfg!r}")
    unknown = set(cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required config key {key!r}")
    for key in set(cfg) & {"out_dir", "resume", "checkpoint", "data_dir"}:
        if not (isinstance(cfg[key], str) and cfg[key]):
            raise ConfigError(f"{key} must be a path, got {cfg[key]!r}")
    return cfg


def _choose(table, cfg, key):
    """table[cfg[key]], for a required key that names an entry."""
    if not isinstance(cfg.get(key), str) or cfg[key] not in table:
        raise ConfigError(f"{key} must be one of {sorted(table)}, got {cfg.get(key)!r}")
    return table[cfg[key]]


def _build(cls, cfg, own=(), required=(), skip=()):
    """Dataclass `cls` from the config keys named after its fields but
    `skip`, its checks as config errors; other keys but `own` are rejected."""
    names = [f.name for f in fields(cls) if f.name not in skip]
    _take(cfg, names + list(own), required)
    with _config_errors():
        return cls(**{k: cfg[k] for k in names if k in cfg})


def _ints(key, values, low=None):
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key} must be a non-empty list, got {values!r}")
    return [check_value(key, v, int, low) for v in values]


def _config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_run(command, cfg):
    """Echo the config into its out_dir, made if missing, and return that."""
    os.makedirs(cfg["out_dir"], exist_ok=True)
    _write_json(os.path.join(cfg["out_dir"], "run_config.json"),
                {"command": command, "config": cfg, "version": __version__,
                 "config_sha256": _config_hash(cfg)})
    return cfg["out_dir"]


# -- subcommands ----------------------------------------------------------

def cmd_gen_data(cfg):
    task = _build(_choose(_DATA_TASKS, cfg, "task"), cfg,
                  own=("task", "out_dir"), skip=AngleRegressionTask.MODEL_FIELDS)
    echo = dict(cfg, seed=task.seed)
    out_dir = _echo_run("gen-data", echo)
    if isinstance(task, FixedAngleTask):
        data = gen_fixed_angle_dataset(task)
        for name in ("X_train", "Y_train", "X_test", "Y_test"):
            write_matrix(os.path.join(out_dir, f"{name}.mat"), data[name.lower()])
    else:
        data = gen_angle_pairs_dataset(task)
        for split in ("train", "test"):
            write_matrix(os.path.join(out_dir, f"F_{split}.mat"), data[f"f_{split}"])
            write_matrix(os.path.join(out_dir, f"Y_{split}.mat"), data[f"y_{split}"])
            write_matrix(os.path.join(out_dir, f"theta_{split}.mat"),
                         data[f"theta_{split}"][:, None])
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"task": cfg["task"], "seed": task.seed,
                 "config_sha256": _config_hash(echo)})
    return EXIT_OK


def _write_csv(path, header, rows):
    """write_csv, refusing a NaN or infinite result as a numeric failure."""
    check_finite([v for row in rows for v in row if isinstance(v, float)], f"rows for {path}")
    write_csv(path, header, rows)


def _write_report(out_dir, report):
    _write_json(os.path.join(out_dir, "report.json"), report.to_dict())
    _write_json(os.path.join(out_dir, "timing.json"),
                {"wall_clock_sec": report.wall_clock_sec, "phase_sec": report.phases})
    _write_csv(os.path.join(out_dir, "loss.csv"),
               ("epoch", "train_mse", "test_mse"),
               [(int(e), float(tr), float(te)) for e, tr, te in report.loss_curve])
    for name, arr in report.arrays.items():
        write_matrix(os.path.join(out_dir, f"{name}.mat"), np.atleast_2d(arr))


def cmd_train(cfg):
    task = _build(_choose(_TRAIN_TASKS, cfg, "task"), cfg,
                  own=("task", "optimizer", "out_dir", "resume"), required=("optimizer",))
    opt = _build(OptimizerConfig, cfg["optimizer"])
    with _config_errors():
        resume = load_train_state(task, cfg["resume"]) if "resume" in cfg else None
        _check_run(task, opt, resume)
    out_dir = _echo_run("train", dict(cfg, seed=task.seed))
    fixed = isinstance(task, FixedAngleTask)
    train = train_fixed_angle if fixed else train_angle_regression
    try:
        report = train(task, opt, resume=resume,
                       checkpoint_dir=os.path.join(out_dir, "checkpoint"))
    except TrainingDivergedError as exc:
        _write_report(out_dir, exc.report)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _write_report(out_dir, report)
    return EXIT_OK


def cmd_eval(cfg):
    _take(cfg, ("checkpoint", "data_dir", "out_dir"), required=("checkpoint", "data_dir"))
    with _config_errors():
        layer, extra, _ = _load_model(FixedAngleTask(), cfg["checkpoint"])
    x = read_matrix(os.path.join(cfg["data_dir"], "X_test.mat"))
    y = read_matrix(os.path.join(cfg["data_dir"], "Y_test.mat"))
    if x.shape != y.shape or x.shape[0] != layer.d or not x.size:
        raise ConfigError(f"X_test {x.shape}, Y_test {y.shape} do not fit d = {layer.d}")
    out_dir = _echo_run("eval", cfg)
    mse = _eval_linear(layer, x, y)
    _write_json(os.path.join(out_dir, "eval.json"),
                {"test_mse": mse, "checkpoint_epoch": extra.get("epoch")})
    print(f"test_mse {mse:.6e}")
    return EXIT_OK


def cmd_approx(cfg):
    _take(cfg, ("d_sweep", "z", "n_values", "out_dir"), required=("d_sweep",))
    with _config_errors():
        ds = _ints("d_sweep", cfg["d_sweep"])
        for d in ds:
            _check_even(d, "approx")
        n_values = _ints("n_values", cfg.get("n_values", [4, 8, 16, 32, 64, 128, 256]), 1)
        z = check_value("z", cfg.get("z", 2.0), float)
    out_dir = _echo_run("approx", cfg)
    for d in ds:
        rows = shift_approx_sweep(int(d), z, n_values)
        _write_csv(os.path.join(out_dir, f"shift_approx_d{d}.csv"),
                   ("n", "eta", "frobenius_error", "correlation"), rows)
    return EXIT_OK


def cmd_theory(cfg):
    defaults = _choose(_THEORY, cfg, "check")
    _take(cfg, [*defaults, "check", "seed", "out_dir"])
    values = {**defaults, "seed": 0, **cfg}
    with _config_errors():
        check_value("seed", values["seed"], int)
        if cfg["check"] == "helmholtz":
            # the Noether divergence nests two central differences
            _ints("sizes", values["sizes"], 5)
            if check_value("eps_scale", values["eps_scale"], float) == 0:
                raise ConfigError("eps_scale must be nonzero")
        else:
            _check_even(check_value("grid_size", values["grid_size"], int), "theory")
            check_value("channels", values["channels"], int, 1)
            check_value("instances", values["instances"], int, 1)
    out_dir = _echo_run("theory", dict(cfg, seed=values["seed"]))
    if cfg["check"] == "helmholtz":
        rows = helmholtz_convergence(values["sizes"], values["eps_scale"])
        _write_csv(os.path.join(out_dir, "helmholtz.csv"),
                   ("grid_size", "el_residual", "noether_divergence"), rows)
        for row in rows:
            print("grid %4d  el %.3e  noether %.3e" % row)
        return EXIT_OK
    d, m = values["grid_size"], values["channels"]
    rng = SeededRng(values["seed"])
    gen = sw_shift_generator(d)
    worst = 0.0
    for _ in range(values["instances"]):
        layer = LConvLayer(rng.uniform_signed(0.8, (m, m)),
                           [rng.uniform_signed(0.4, ()) * np.eye(m)], [gen])
        phi = rng.uniform(d, m)
        terms = field_terms(layer)
        direct = mse_loss_direct(phi, layer)
        dec = mse_loss_decomposed(phi, terms, [gen])
        worst = max(worst, abs(direct - dec) / max(direct, 1e-300))
    print(f"max relative decomposition gap over instances: {worst:.3e}")
    _write_json(os.path.join(out_dir, "decomposition.json"),
                {"max_rel_gap": worst})
    return EXIT_NUMERIC if worst > 1e-6 else EXIT_OK


def cmd_version(cfg):
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
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--seed", type=int, help="override the config seed")
            p.add_argument("--out-dir", help="override the config's out_dir")
    args = parser.parse_args(argv)
    handler, needs_config = _COMMANDS[args.command]
    try:
        cfg = _load_config(args) if needs_config else {}
        return handler(cfg)
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
