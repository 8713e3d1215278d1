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

from .groups import (UnsupportedSizeError, _bilinear_resample, rotation_matrix_bilinear,
                     sw_rotation_generator)
from .layer import LConvLayer, load_checkpoint, save_checkpoint
from .numerics import (DegenerateInputError, DimensionError, FormatError, LconvError,
                       SeededRng, check_value, cosine_correlation, frobenius,
                       least_squares_solve, matmul, read_matrix, write_matrix)


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
# A test MSE adds one np.sum per chunk of this many samples, which fixes its
# rounding; the angle data are resampled and evaluated in blocks of
# SAMPLE_BLOCK samples, which bounds their temporaries and moves no bit.
MSE_SUM_CHUNK_LINEAR, MSE_SUM_CHUNK_ANGLE, SAMPLE_BLOCK = 4096, 2048, 256


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
    Y = R(theta) X.  Train and test splits use seeds (seed, seed + 1).

    Train is built in place, sample-major (column-major, so X.T is
    C-contiguous and minibatches gather whole rows): X is drawn eight grid
    rows at a time, each row the stream's next N values as in a C-ordered
    draw, and `matmul` forms Y from C-ordered copies of its column blocks.
    So both carry the bits of the C-ordered construction, and the peak
    memory is about that of the returned arrays.  Test stays C-ordered
    for in-order column sums."""
    r = rotation_matrix_bilinear(task.width, task.height, task.theta)
    rng = SeededRng(task.seed)
    x = np.empty((task.d, task.n_train), order="F")
    for i in range(0, task.d, 8):
        x[i:i + 8] = rng.uniform(min(8, task.d - i), task.n_train)
    x_test = SeededRng(task.seed + 1).uniform(task.d, task.n_test)
    return {"x_train": x, "y_train": matmul(r, x),
            "x_test": x_test, "y_test": matmul(r, x_test), "rotation": r}


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


def _model(task):
    """`task`'s model: its trained parameters at epoch 0, drawn from the
    task seed + 2 stream, and the layer values it holds fixed: W0 = eps =
    I_1 on the single fixed-angle channel, W0 = I_m over the m
    angle-regression copies (whose eps is trained)."""
    rng = SeededRng(task.seed + 2)
    if isinstance(task, FixedAngleTask):
        return ({"gen": rng.uniform_signed(1.0 / np.sqrt(task.d), (task.d, task.d))},
                {"w0": np.eye(1), "eps": np.eye(1)})
    return _angle_params(task, rng), {"w0": np.eye(task.m_copies)}


def _check_run(task, opt, resume):
    """Raise LconvError unless a run of `task` under `opt` from `resume`
    (a `load_train_state` triple or None) can finish: the reference
    generator needs grid sides >= 3, the fixed-angle LS oracle n_train >= d,
    and a resume past opt.epochs would pass its params off as trained for fewer."""
    if min(task.width, task.height) < 3:
        raise UnsupportedSizeError("sw_rotation_generator needs width, height >= 3")
    if isinstance(task, FixedAngleTask) and task.n_train < task.d:
        raise DegenerateInputError(f"the LS oracle needs n_train >= d = {task.d}")
    if resume and resume[2] > opt.epochs:
        raise LconvError(f"resume at epoch {resume[2]} is past epochs = {opt.epochs}")


def _load_model(task, directory):
    """(layer, manifest extra, `_model` parameters of `task`) of checkpoint
    `directory`; raises LconvError unless its layer is `task`'s model: one
    generator, the task's head and the values the task holds frozen."""
    layer, manifest = load_checkpoint(directory)
    extra = manifest["extra"]
    like, frozen = _model(task)
    head = [k for k in like if k not in ("gen", "eps")]
    if layer.n_generators != 1 or extra.get("head", []) != head:
        raise LconvError(f"{directory} holds no checkpoint of the "
                         f"{type(task).__name__} model")
    held = {"w0": layer.w0, "eps": layer.eps[0]}
    if not all(np.array_equal(held[k], v) for k, v in frozen.items()):
        raise FormatError(f"{directory}: W0.mat or eps_0.mat differs from the "
                          "value the task holds frozen")
    return layer, extra, like


def load_train_state(task, directory):
    """Inverse of save_train_state for `task`'s model: (params, Adam
    moments, first epoch), the `resume` argument of the pipelines.
    `_model` declares each parameter's name and shape and the fixed
    values; an array that does not fit them, or a checkpoint of another
    model, raises LconvError."""
    layer, extra, like = _load_model(task, directory)
    if not all(type(extra.get(k)) is int and extra[k] >= 0 for k in ("epoch", "adam_t")):
        raise FormatError(f"{directory}: manifest extra needs integers epoch, adam_t >= 0")
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


def _open_run(kind, task, opt, resume):
    """Check a run (`_check_run`) and start it: (report, params, Adam
    state, first epoch, layer).  The params are fresh at epoch 0, or
    those of the `load_train_state` triple `resume`.  The layer holds
    params["gen"] and eps (trained in params or frozen) themselves, as
    Adam updates the trained ones in place; a copy would freeze them."""
    _check_run(task, opt, resume)
    report = TrainReport(kind=kind, seed=task.seed,
                         config={"task": asdict(task), "optimizer": asdict(opt)})
    init, frozen = _model(task)
    params, moments, start_epoch = resume or (init, None, 0)
    state = adam_init(params, moments)
    values = {**params, **frozen}
    layer = LConvLayer(values["w0"], [values["eps"]], [values["gen"]])
    if layer.generators[0] is not values["gen"] or layer.eps[0] is not values["eps"]:
        raise RuntimeError("layer copied a trained parameter instead of sharing it")
    return report, params, state, start_epoch, layer


def _close_run(report, layer, params, state, opt, checkpoint_dir):
    """Finish a run: save its checkpoint when `checkpoint_dir` is given,
    stamp its wall-clock time and return its report."""
    if checkpoint_dir:
        with _phase(report, "checkpoint"):
            save_train_state(checkpoint_dir, layer, params, state, opt.epochs)
    report.wall_clock_sec = time.perf_counter() - report.started
    return report


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
    R_ls - I and against the exact R - I.  `_check_run` rejects a grid
    side below 3, or a training split the oracle cannot use (fewer
    samples than pixels), before the data are made.
    """
    report, params, state, start_epoch, layer = _open_run("fixed-angle", task,
                                                          opt, resume)
    gt = sw_rotation_generator(task.width, task.height)
    with _phase(report, "data"):
        data = gen_fixed_angle_dataset(task)
    x_train, y_train = data["x_train"], data["y_train"]
    x_test, y_test = data["x_test"], data["y_test"]
    d = task.d
    with _phase(report, "ls_oracle"):
        r_ls = least_squares_solve(x_train, y_train)

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
    return _close_run(report, layer, params, state, opt, checkpoint_dir)


def _eval_linear(layer, x, y):
    if x.ndim != 2 or x.shape != y.shape or x.shape[0] != layer.d or not x.size:
        raise DimensionError(f"X {x.shape}, Y {y.shape} are not d x n, d = {layer.d}, n >= 1")
    total = 0.0
    for start in range(0, x.shape[1], MSE_SUM_CHUNK_LINEAR):
        fb = x[:, start:start + MSE_SUM_CHUNK_LINEAR].T[:, :, None]
        yb = y[:, start:start + MSE_SUM_CHUNK_LINEAR].T[:, :, None]
        diff = layer.forward(fb) - yb
        total += float(np.sum(diff * diff))
    return total / x.size


def rotate_images(images, thetas, width, height):
    """Rotate each row image by its own angle via bilinear resampling,
    SAMPLE_BLOCK rows at a time; the resampler works element by element."""
    out = np.empty_like(images)
    for start in range(0, len(images), SAMPLE_BLOCK):
        sl = slice(start, start + SAMPLE_BLOCK)
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
    report, params, state, start_epoch, layer = _open_run("angle-regression", task,
                                                          opt, resume)
    gt = sw_rotation_generator(task.width, task.height)
    with _phase(report, "data"):
        data = gen_angle_pairs_dataset(task)
    m, t = task.m_copies, task.recursions
    f_train, y_train = data["f_train"], data["y_train"]
    theta_train = data["theta_train"]

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
    return _close_run(report, layer, params, state, opt, checkpoint_dir)


def _eval_angle(params, layer, data, t, m):
    """Test MSE: one np.sum of the squared errors per MSE_SUM_CHUNK_ANGLE
    samples.  A chunk runs through `_angle_forward` in blocks of
    SAMPLE_BLOCK samples, and each prediction keeps the bits the whole
    chunk gives it: every block starts at a multiple of 4 samples (40
    columns at m = 10), so the GEMM column tails fall as the chunk's do,
    and a one-sample tail joins the block before it, as numpy forms a
    one-row head product with another kernel."""
    total = 0.0
    f, y, theta = data["f_test"], data["y_test"], data["theta_test"]
    for start in range(0, theta.size, MSE_SUM_CHUNK_ANGLE):
        stop = min(start + MSE_SUM_CHUNK_ANGLE, theta.size)
        cuts = [start, *range(start + SAMPLE_BLOCK, stop - 1, SAMPLE_BLOCK), stop]
        pred = np.concatenate([_angle_forward(params, layer, f[a:b], y[a:b], t, m)[0]
                               for a, b in zip(cuts, cuts[1:])])
        diff = pred - theta[start:stop]
        total += float(np.sum(diff * diff))
    return total / theta.size
