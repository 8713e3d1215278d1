"""Config fuzzing: whatever a config holds, the CLI exits 0 or 2, and a
config error (exit 2) leaves no output directory behind.

A config holds some of its command's keys with small valid values; a few
of them are then replaced by a string, a bool, a float where an integer
belongs, NaN, or an out-of-range value, and a key of the other task kind
or check may be added.  Sizes stay small (at most 128 samples, 8-pixel
sides, one epoch, d <= 64) so the suite takes seconds.
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from lconv.cli import main

NAN = float("nan")
WRONG = ["7", True, 2.5, NAN]


def configs(spec, fixed=(), other=()):
    """Dicts over `fixed` holding a subset of `spec`'s keys, where spec
    maps each key to (valid values, an out-of-range value); a few keys
    turn bad, and one key from `other` may join with the value 1."""
    def corrupt(cfg, bad):
        out = dict(cfg)
        for name, value in bad:
            if name in out:
                out[name] = value if value is not None else spec[name][1]
        return out

    keys = sorted(spec)
    good = st.sets(st.sampled_from(keys)).flatmap(
        lambda chosen: st.fixed_dictionaries({k: spec[k][0] for k in sorted(chosen)}))
    bad = st.lists(st.tuples(st.sampled_from(keys), st.sampled_from([None, *WRONG])),
                   max_size=2)
    extra = st.sampled_from([{}] + [{k: 1} for k in other])
    return st.builds(lambda g, b, e: dict(fixed, **corrupt(g, b), **e), good, bad, extra)


SIDE = (st.integers(3, 8), 1)
TASK = {"width": SIDE, "height": SIDE,
        "n_train": (st.integers(1, 128), 0), "n_test": (st.integers(1, 128), 0),
        "seed": (st.integers(0, 9), 1.5)}
MODEL = {"m_copies": (st.integers(1, 3), 0), "recursions": (st.integers(1, 2), -1),
         "hidden": (st.integers(1, 3), 0)}
ANGLE = (st.floats(0.0, 1.0), float("inf"))
OPTIMIZER = configs({"kind": (st.just("adam"), "sgd"),
                     "lr": (st.sampled_from([1e-3, 1e-2]), 0.0),
                     "batch_size": (st.sampled_from([16, 64]), 0),
                     "epochs": (st.integers(0, 1), -1)}, fixed={"epochs": 1})
TRAIN = dict(TASK, optimizer=(OPTIMIZER, [1]))
# the full default sample counts would make each run slow
SMALL = {"n_train": 64, "n_test": 16}
EVEN = st.sampled_from([4, 8, 16, 64])

CASES = {
    "gen-data": [
        configs(dict(TASK, theta=ANGLE), dict(SMALL, task="fixed-angle"), ["theta_max"]),
        configs(dict(TASK, theta_max=ANGLE), dict(SMALL, task="angle-pairs"),
                ["theta", *MODEL])],
    "train": [
        configs(dict(TRAIN, theta=ANGLE),
                dict(SMALL, task="fixed-angle", optimizer={"epochs": 1}),
                ["theta_max", "resume", *MODEL]),
        configs(dict(TRAIN, theta_max=ANGLE, **MODEL),
                dict(SMALL, task="angle-regression", optimizer={"epochs": 1}),
                ["theta", "resume"])],
    "approx": [
        configs({"d_sweep": (st.lists(EVEN, min_size=1, max_size=1), [7]),
                 "z": (st.floats(-4.0, 4.0), NAN),
                 "n_values": (st.lists(st.integers(1, 64), min_size=1, max_size=3), [0])},
                other=["d", "seed"]),
        configs({"d_sweep": (st.lists(EVEN, min_size=1, max_size=3), [8, 7]),
                 "n_values": (st.lists(st.integers(1, 64), min_size=1, max_size=3), [])},
                other=["d", "seed"])],
    "theory": [
        configs({"sizes": (st.lists(st.integers(5, 40), min_size=1, max_size=3), [4]),
                 "eps_scale": (st.floats(0.1, 2.0), 0.0),
                 "seed": (st.integers(0, 9), "1")},
                {"check": "helmholtz"}, ["grid_size", "channels", "instances", "group"]),
        configs({"grid_size": (EVEN, 7), "channels": (st.integers(1, 3), 0),
                 "instances": (st.integers(1, 3), 0)},
                {"check": "decomposition"}, ["sizes", "eps_scale"])],
}


def run(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(dict(cfg, out_dir=out), fh)
        code = main([command, "--config", path])
        assert code in (0, 2), (code, cfg)
        assert code == 0 or not os.path.exists(out), cfg


FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@FUZZ
@given(st.one_of(CASES["gen-data"]))
def test_gen_data_configs(cfg):
    run("gen-data", cfg)


@FUZZ
@given(st.one_of(CASES["train"]))
def test_train_configs(cfg):
    run("train", cfg)


@FUZZ
@given(st.one_of(CASES["approx"]))
def test_approx_configs(cfg):
    run("approx", cfg)


@FUZZ
@given(st.one_of(CASES["theory"]))
def test_theory_configs(cfg):
    run("theory", cfg)
