"""Symmetry discovery: datasets, Adam, and the two training pipelines.

Fixed-small-angle regression: random 7x7 images, outputs rotated by a
fixed theta = pi/10; a single residual layer with W0 = 1 frozen learns a
dense generator so that (I + L) f ~ R f.  The problem is an exactly
realizable linear regression, so the least-squares solve provides an
independent oracle for both the achievable loss and the learned matrix.

Recursive angle regression: pairs (f, R(theta) f) with theta uniform in
[0, theta_max); f is broadcast into m identical channels, pushed through
the same L-conv layer t times (W0 = I frozen), contracted against the
rotated image channel-wise through tanh, and read out by a small
fully-connected head.  Training the generator on this task recovers the
rotation generator up to scale and sign (the model is exactly invariant
under (L, eps) -> (-L, -eps), so the sign of the learned generator is
seed dependent).

Both pipelines train through one epoch loop, `_fit`: a pipeline hands it
a `batch(idx) -> (loss, grads)` closure and an `evaluate()` closure, and
the loop owns the shuffle, the minibatches, the divergence check, the
Adam step, the per-epoch loss curve and exact resume.  Everything
is deterministic given (seed, config): each run draws from separate PCG64
streams at fixed offsets from the task seed,

    seed      training split
    seed + 1  test split
    seed + 2  parameter initialization
    seed + 3  minibatch shuffling, one permutation per epoch

and the minibatch loop is single threaded.  A resumed run draws the
permutations of the epochs it skips, so it continues the unbroken run
bit for bit.
"""

import contextlib
import math
import os
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .groups import _bilinear_resample, rotation_matrix_bilinear, sw_rotation_generator
from .layer import LConvLayer, load_checkpoint, save_checkpoint
from .numerics import (FormatError, LconvError, SeededRng, check_value,
                       cosine_correlation, frobenius, least_squares_solve, matmul,
                       read_matrix, write_matrix)


class NonFiniteGradientError(LconvError):
    pass


class TrainingDivergedError(LconvError):
    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _check_fields(obj, **low):
    """Each field of dataclass `obj` holds its type and is at least low[name]."""
    for f in fields(obj):
        check_value(f.name, getattr(obj, f.name), f.type, low.get(f.name))


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8   # moment decays, denominator floor


@dataclass
class OptimizerConfig:
    kind: str = "adam"
    lr: float = 1e-2
    batch_size: int = 64
    epochs: int = 20

    def __post_init__(self):
        _check_fields(self, batch_size=1, epochs=0)
        if self.kind != "adam" or not self.lr > 0:
            raise LconvError(f"need kind 'adam' and lr > 0, got {self}")


def adam_init(params, moments):
    """Adam state for `params`, which move with both moments into rows of
    one contiguous float64 buffer: afterwards params[k], state["m"][k] and
    state["v"][k] are views into it, so a step updates every parameter
    with one call per operation.  Two more rows, state["g"] (one view per
    parameter) and a scratch row, hold a step's gradient and
    intermediates, so a step makes no temporary arrays.  Arrays that held the
    parameters before no longer see the updates.  The moments start at
    zero (moments None) or at those of `moments`, a state as
    `load_train_state` returns it."""
    names = list(params)
    flat = np.zeros((5, sum(np.size(params[k]) for k in names)))
    state = {"t": moments["t"] if moments else 0, "m": {}, "v": {}, "g": {},
             "flat": flat}
    start = 0
    for k in names:
        shape, size = np.shape(params[k]), np.size(params[k])
        p, m, v, g, _ = flat[:, start:start + size].reshape(5, *shape)
        p[...] = params[k]
        if moments:
            m[...] = moments["m"][k]
            v[...] = moments["v"][k]
        params[k], state["m"][k], state["v"][k], state["g"][k] = p, m, v, g
        start += size
    return state


def adam_step(grads, state, cfg):
    """Standard bias-corrected Adam update, in place, of the parameters
    `adam_init` moved into its buffer; `grads` has one entry per parameter,
    of its shape.  Each gradient is copied into the buffer's gradient row
    and checked there: a non-finite one raises NonFiniteGradientError
    before any parameter, moment or the step count changes.  The update
    runs in the buffer's rows, operation for operation as the textbook
    formula rounds."""
    for k, row in state["g"].items():
        row[...] = grads[k]
    p, m, v, g, s = state["flat"]
    if not np.isfinite(g).all():
        name = next(k for k in state["g"] if not np.isfinite(grads[k]).all())
        raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
    state["t"] += 1
    t = state["t"]
    m *= ADAM_B1
    m += np.multiply(1 - ADAM_B1, g, out=s)
    v *= ADAM_B2
    np.multiply(1 - ADAM_B2, g, out=s)
    v += np.multiply(s, g, out=s)
    # p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), g as scratch
    np.multiply(cfg.lr, np.divide(m, 1 - ADAM_B1 ** t, out=s), out=s)
    np.sqrt(np.divide(v, 1 - ADAM_B2 ** t, out=g), out=g)
    g += ADAM_EPS
    s /= g
    p -= s


@dataclass
class FixedAngleTask:
    width: int = 7
    height: int = 7
    theta: float = np.pi / 10
    n_train: int = 50000
    n_test: int = 10000
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, width=2, height=2, n_train=1, n_test=1)

    @property
    def d(self):
        return self.width * self.height


@dataclass
class AngleRegressionTask:
    width: int = 7
    height: int = 7
    theta_max: float = np.pi / 3
    m_copies: int = 10
    recursions: int = 3
    hidden: int = 5
    n_train: int = 12000
    n_test: int = 2000
    seed: int = 0
    MODEL_FIELDS = ("m_copies", "recursions", "hidden")  # unread by the dataset

    def __post_init__(self):
        _check_fields(self, width=2, height=2, m_copies=1, recursions=1,
                      hidden=1, n_train=1, n_test=1)

    @property
    def d(self):
        return self.width * self.height


@dataclass
class TrainReport:
    kind: str
    config: dict
    seed: int
    loss_curve: list = field(default_factory=list)  # (epoch, train_mse, test_mse)
    final_test_mse: float = float("nan")
    correlations: dict = field(default_factory=dict)
    wall_clock_sec: float = 0.0
    phases: dict = field(default_factory=dict)   # seconds per phase, disjoint
    arrays: dict = field(default_factory=dict, repr=False)
    # perf_counter() at creation: wall_clock_sec counts from here
    started: float = field(default_factory=time.perf_counter, repr=False)

    def to_dict(self):
        """JSON-safe summary of what a rerun reproduces bit for bit; the
        timings and the learned matrices are saved separately."""
        d = asdict(self)
        for name in ("wall_clock_sec", "phases", "arrays", "started"):
            d.pop(name)
        return d


@contextlib.contextmanager
def _phase(report, name):
    """Add the seconds the block takes to report.phases[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        report.phases[name] = report.phases.get(name, 0.0) + time.perf_counter() - t0


def gen_fixed_angle_dataset(task):
    """Columns are samples: X is d x N random pixels in [-0.5, 0.5),
    Y = R(theta) X rounded as BLAS does on C-ordered X.  Train and test splits
    use seeds (seed, seed + 1).  Train is stored sample-major (X.T C-contiguous)
    so minibatches gather whole rows; test stays C-ordered for in-order column sums."""
    r = rotation_matrix_bilinear(task.width, task.height, task.theta)
    out = {}
    for split, seed, n in (("train", task.seed, task.n_train),
                           ("test", task.seed + 1, task.n_test)):
        x = SeededRng(seed).uniform(task.d, n)
        y = matmul(r, x)
        if split == "train":
            x = np.asfortranarray(x)
            y = np.asfortranarray(y)
        out[f"x_{split}"] = x
        out[f"y_{split}"] = y
    out["rotation"] = r
    return out


def _safe_corr(a, b):
    """Cosine correlation, or None when either matrix is numerically zero."""
    if frobenius(a) < 1e-12 or frobenius(b) < 1e-12:
        return None
    return cosine_correlation(a, b)


def save_train_state(directory, layer, params, state, next_epoch):
    """Layer checkpoint plus the head (every parameter but gen and eps) and
    the Adam moments, enough to resume exactly."""
    head = [k for k in params if k not in ("gen", "eps")]
    extra = {"epoch": int(next_epoch), "adam_t": int(state["t"]), "head": head}
    save_checkpoint(layer, directory, extra=extra)
    for name in head:
        write_matrix(os.path.join(directory, f"head_{name}.mat"),
                     np.atleast_2d(params[name]))
    for name in params:
        for moment in ("m", "v"):
            write_matrix(os.path.join(directory, f"adam_{moment}_{name}.mat"),
                         np.atleast_2d(state[moment][name]))


def _frozen(task):
    """The layer values each pipeline holds fixed: W0 = eps = I_1 on the
    single fixed-angle channel, W0 = I_m over the m angle-regression
    copies (whose eps is trained)."""
    if isinstance(task, FixedAngleTask):
        return {"w0": np.eye(1), "eps": np.eye(1)}
    return {"w0": np.eye(task.m_copies)}


def _check_frozen(task, layer, directory):
    """Raise FormatError unless checkpoint `directory`'s layer holds the
    values `task` freezes, as the layer trained and saved for it did."""
    held = {"w0": layer.w0, "eps": layer.eps[0]}
    if not all(np.array_equal(held[k], v) for k, v in _frozen(task).items()):
        raise FormatError(f"{directory}: W0.mat or eps_0.mat differs from the "
                          "value the task holds frozen")


def _init_params(task):
    """The trained parameters at epoch 0, drawn from the task seed + 2 stream."""
    rng = SeededRng(task.seed + 2)
    if isinstance(task, FixedAngleTask):
        return {"gen": rng.uniform_signed(1.0 / np.sqrt(task.d), (task.d, task.d))}
    return _angle_params(task, rng)


def load_train_state(task, directory):
    """Inverse of save_train_state for `task`'s model: (params, Adam
    moments, first epoch), the `resume` argument of the pipelines.
    The task declares each parameter's name and shape and, in `_frozen`,
    the fixed values; an array that does not fit them, or a checkpoint of
    another model, raises LconvError."""
    layer, manifest = load_checkpoint(directory)
    extra = manifest["extra"]
    if not all(type(extra.get(k)) is int and extra[k] >= 0 for k in ("epoch", "adam_t")):
        raise FormatError(f"{directory}: manifest extra needs integers epoch, adam_t >= 0")
    like = _init_params(task)
    head = [k for k in like if k not in ("gen", "eps")]
    if layer.n_generators != 1 or extra.get("head", []) != head:
        raise LconvError(f"{directory} holds no checkpoint of the "
                         f"{type(task).__name__} model")
    _check_frozen(task, layer, directory)

    saved = {"gen": layer.generators[0], "eps": layer.eps[0]}

    def read(name, file):
        """Parameter `name` from `file`, or from the layer when file is None,
        checked to have the task's shape as save_train_state writes it."""
        a = saved[name] if file is None else read_matrix(os.path.join(directory, file))
        if np.shape(a) != np.atleast_2d(like[name]).shape:
            raise FormatError(f"{directory}: {file or name} has shape {np.shape(a)}, "
                              f"the task's {name} {np.shape(like[name])}")
        return a.reshape(np.shape(like[name]))

    params = {k: read(k, None if k in saved else f"head_{k}.mat") for k in like}
    moments = {"t": extra["adam_t"], **{
        m: {k: read(k, f"adam_{m}_{k}.mat") for k in like} for m in ("m", "v")}}
    return params, moments, extra["epoch"]


def _check_resume(resume, opt):
    """Raise LconvError when the `load_train_state` triple `resume` is past
    opt.epochs, which would pass its parameters off as trained for fewer."""
    if resume and resume[2] > opt.epochs:
        raise LconvError(f"resume at epoch {resume[2]} is past epochs = {opt.epochs}")


def _start(task, resume):
    """(params, Adam state, first epoch): fresh at epoch 0, or from the
    `load_train_state` triple `resume`, whose params it takes over."""
    params, moments, start_epoch = resume or (_init_params(task), None, 0)
    return params, adam_init(params, moments), start_epoch


def _shared_layer(params, frozen):
    """The layer trained through `params`, with `_frozen` values `frozen`:
    it holds params["gen"] and eps (trained in `params` or frozen)
    themselves, as Adam updates the trained ones in place; a copy would
    freeze them."""
    values = {**params, **frozen}
    layer = LConvLayer(values["w0"], [values["eps"]], [values["gen"]])
    if layer.generators[0] is not values["gen"] or layer.eps[0] is not values["eps"]:
        raise RuntimeError("layer copied a trained parameter instead of sharing it")
    return layer


def _fit(report, state, opt, start_epoch, n, batch, evaluate):
    """The epoch loop shared by both pipelines.

    `batch(idx)` returns the minibatch loss and the gradients for the
    sample indices `idx` into the n training samples; `evaluate()`
    returns the test MSE.  Epochs run from `start_epoch` to `opt.epochs`,
    with the shuffle stream (task seed + 3) advanced past the skipped
    epochs so a resumed run matches the unbroken one.  Fills
    `report.loss_curve` and `report.final_test_mse`, and times the
    phases "train_steps" and "evaluation".
    """
    shuffle = SeededRng(report.seed + 3)
    for _ in range(start_epoch):
        shuffle.permutation(n)
    for epoch in range(start_epoch, opt.epochs):
        total = 0.0
        with _phase(report, "train_steps"):
            perm = shuffle.permutation(n)
            for start in range(0, n, opt.batch_size):
                idx = perm[start:start + opt.batch_size]
                batch_loss, grads = batch(idx)
                if not math.isfinite(batch_loss):
                    report.wall_clock_sec = time.perf_counter() - report.started
                    raise TrainingDivergedError(
                        f"loss became non-finite at epoch {epoch}", report)
                total += batch_loss * idx.size
                adam_step(grads, state, opt)
        with _phase(report, "evaluation"):
            test_mse = evaluate()
        report.loss_curve.append((epoch, total / n, test_mse))
    if report.loss_curve:
        report.final_test_mse = report.loss_curve[-1][2]
    else:
        with _phase(report, "evaluation"):
            report.final_test_mse = evaluate()


def train_fixed_angle(task, opt, resume=None, checkpoint_dir=None):
    """Learn a dense generator from fixed-angle rotation pairs.

    Minimizes mean ||(I + L) f - R f||^2 over the training set with the
    residual path frozen (W0 = 1, eps = 1).  Reports the cosine
    correlation of the learned L against the least-squares oracle
    R_ls - I and against the exact R - I.  Both references are built
    before training, so a grid side below 3 or a training split the
    oracle cannot use (fewer samples than pixels) fails at once.
    """
    _check_resume(resume, opt)
    report = TrainReport(kind="fixed-angle", config=_echo(task, opt), seed=task.seed)
    gt = sw_rotation_generator(task.width, task.height)
    with _phase(report, "data"):
        data = gen_fixed_angle_dataset(task)
    x_train, y_train = data["x_train"], data["y_train"]
    x_test, y_test = data["x_test"], data["y_test"]
    d = task.d
    with _phase(report, "ls_oracle"):
        r_ls = least_squares_solve(x_train, y_train)

    params, state, start_epoch = _start(task, resume)
    layer = _shared_layer(params, _frozen(task))

    x_rows, y_rows = x_train.T, y_train.T

    def batch(idx):
        # whole sample rows, copied once to store (B, d, 1) grid-major
        fb = x_rows.take(idx, axis=0).copy(order="F")[:, :, None]
        yb = y_rows.take(idx, axis=0).copy(order="F")[:, :, None]
        lf = []
        diff = layer.forward(fb, lf) - yb
        # 2 diff / n, the gradient of the mean square, as diff / (n / 2):
        # one rounding of the same exact quotient wherever 2 diff is finite;
        # where it is not, neither is the loss, and _fit stops before a step
        grads = layer.backward(fb, diff / (diff.size / 2), lf=lf)
        return float((diff * diff).sum() / diff.size), {"gen": grads.d_generators[0]}

    _fit(report, state, opt, start_epoch, x_train.shape[1], batch,
         lambda: _eval_linear(layer, x_test, y_test))

    learned = params["gen"]
    eye = np.eye(d)
    report.correlations = {
        "vs_ls_oracle": _safe_corr(learned, r_ls - eye),
        "vs_exact_rotation": _safe_corr(learned, data["rotation"] - eye),
        "vs_sw_rotation_generator": _safe_corr(learned, gt),
    }
    report.arrays = {"generator": learned.copy(), "ls_rotation": r_ls}
    if checkpoint_dir:
        with _phase(report, "checkpoint"):
            save_train_state(checkpoint_dir, layer, params, state, opt.epochs)
    report.wall_clock_sec = time.perf_counter() - report.started
    return report


def _eval_linear(layer, x, y, chunk=4096):
    total = 0.0
    n = x.shape[1]
    for start in range(0, n, chunk):
        fb = x[:, start:start + chunk].T[:, :, None]
        yb = y[:, start:start + chunk].T[:, :, None]
        diff = layer.forward(fb) - yb
        total += float(np.sum(diff * diff))
    return total / (n * x.shape[0])


def rotate_images(images, thetas, width, height):
    """Rotate each row image by its own angle via bilinear resampling."""
    n, d = images.shape
    out = np.empty_like(images)
    for start in range(0, n, 2048):
        sl = slice(start, min(start + 2048, n))
        out[sl] = _bilinear_resample(images[sl], thetas[sl], width, height)
    return out


def gen_angle_pairs_dataset(task):
    """Samples (f, R(theta) f, theta) with theta uniform in [0, theta_max)."""
    out = {}
    for split, seed, n in (("train", task.seed, task.n_train),
                           ("test", task.seed + 1, task.n_test)):
        rng = SeededRng(seed)
        f = rng.uniform(n, task.d)
        theta = rng.uniform(n, 1, low=0.0, high=task.theta_max).ravel()
        out[f"f_{split}"] = f
        out[f"y_{split}"] = rotate_images(f, theta, task.width, task.height)
        out[f"theta_{split}"] = theta
    return out


def _angle_params(task, rng):
    # eps at +-0.3 keeps all channel paths active through t recursions; the
    # generator starts in the skew subspace (at the usual 1/sqrt(d) scale,
    # unconstrained afterwards), which empirically halves the symmetric
    # residue left in the recovered generator
    d, m, h = task.d, task.m_copies, task.hidden
    a = rng.uniform_signed(1.0 / np.sqrt(d), (d, d))
    return {
        "eps": rng.uniform_signed(0.3, (m, m)),
        "gen": (a - a.T) / np.sqrt(2.0),
        "v1": rng.uniform_signed(1.0 / np.sqrt(m), (m, h)),
        "b1": np.zeros(h),
        "v2": rng.uniform_signed(1.0 / np.sqrt(h), (h, 1)),
        "b2": np.zeros(1),
    }


def _angle_forward(params, layer, f, y, t, m, tape=None):
    """Returns (prediction, stash for `_angle_backward`).

    f and y hold one image per row; h holds the m channel copies,
    (B, d, m) stored grid-major.  Pass an empty list as `tape` to record what
    the backward pass needs: each recursion's input h with the products
    L h the layer computed.  Without a tape (evaluation) nothing is kept.
    """
    h = np.repeat(f.T[:, :, None], m, axis=2).swapaxes(0, 1)
    for _ in range(t):
        lf = None
        if tape is not None:
            lf = []
            tape.append((h, lf))
        h = layer.forward(h, lf)
    g_pre = np.einsum("bd,bdm->bm", y, h)
    g = np.tanh(g_pre)
    a1 = np.tanh(g @ params["v1"] + params["b1"])
    pred = (a1 @ params["v2"] + params["b2"]).ravel()
    return pred, (tape, g, a1)


def _angle_backward(params, layer, y, theta, pred, stash):
    tape, g, a1 = stash
    n = theta.size
    dpred = (2.0 / n) * (pred - theta)
    dv2 = a1.T @ dpred[:, None]
    db2 = np.array([dpred.sum()])
    da1 = dpred[:, None] @ params["v2"].T
    da1p = da1 * (1.0 - a1 * a1)
    dv1 = g.T @ da1p
    db1 = da1p.sum(axis=0)
    dg = (da1p @ params["v1"].T) * (1.0 - g * g)
    dh = np.multiply(y.T[:, :, None], dg, order="C").swapaxes(0, 1)   # stored grid-major
    d_eps = np.zeros_like(params["eps"])
    d_gen = np.zeros_like(params["gen"])
    for k, (h, lf) in enumerate(reversed(tape)):
        # each call's d_input is read by the next, so the first recursion's is never formed
        grads = layer.backward(h, grads.d_input if k else dh, lf=lf)
        d_eps += grads.d_eps[0]
        d_gen += grads.d_generators[0]
    return {"eps": d_eps, "gen": d_gen, "v1": dv1, "b1": db1,
            "v2": dv2, "b2": db2}


def train_angle_regression(task, opt, resume=None, checkpoint_dir=None):
    """Learn the rotation generator by regressing the angle between pairs."""
    _check_resume(resume, opt)
    report = TrainReport(kind="angle-regression", config=_echo(task, opt),
                         seed=task.seed)
    gt = sw_rotation_generator(task.width, task.height)
    with _phase(report, "data"):
        data = gen_angle_pairs_dataset(task)
    m, t = task.m_copies, task.recursions
    f_train, y_train = data["f_train"], data["y_train"]
    theta_train = data["theta_train"]

    params, state, start_epoch = _start(task, resume)
    layer = _shared_layer(params, _frozen(task))

    def batch(idx):
        fb, yb, tb = f_train[idx], y_train[idx], theta_train[idx]
        pred, stash = _angle_forward(params, layer, fb, yb, t, m, tape=[])
        diff = pred - tb
        return (float(np.mean(diff * diff)),
                _angle_backward(params, layer, yb, tb, pred, stash))

    _fit(report, state, opt, start_epoch, theta_train.size, batch,
         lambda: _eval_angle(params, layer, data, t, m))

    report.correlations = {
        "vs_sw_rotation_generator": _safe_corr(params["gen"], gt),
    }
    report.arrays = {"generator": params["gen"].copy(),
                     "eps": params["eps"].copy()}
    if checkpoint_dir:
        with _phase(report, "checkpoint"):
            save_train_state(checkpoint_dir, layer, params, state, opt.epochs)
    report.wall_clock_sec = time.perf_counter() - report.started
    return report


def _eval_angle(params, layer, data, t, m, chunk=2048):
    total = 0.0
    n = data["theta_test"].size
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        pred, _ = _angle_forward(params, layer, data["f_test"][sl],
                                 data["y_test"][sl], t, m)
        diff = pred - data["theta_test"][sl]
        total += float(np.sum(diff * diff))
    return total / n


def _echo(task, opt):
    return {"task": asdict(task), "optimizer": asdict(opt)}
