"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces each traced lconv function with a wrapper at
every place the library looks it up: the defining module, every
`from .x import name` binding in the other lconv modules, the handler
tuples in `cli._COMMANDS`, and the `LConvLayer.forward`/`backward`
methods.  A wrapper appends one span (id, parent id, name, phase, start,
end, work) to an in-memory list; `uninstall()` restores the originals.
Nothing inside `src/lconv` changes.

Span names follow the library's modules: `discovery.adam_step`,
`numerics.write_matrix`, `cli.train`, and, keyed by shape,
`layer.forward.<B>x<d>x<m>` / `layer.backward.<B>x<d>x<m>` and
`approx.approx_group_element.d<d>`.
"""

import collections
import json
import sys
import time

import numpy as np

# (module, function) pairs wrapped by name; span name is "<module>.<function>"
FUNCTIONS = (
    ("numerics", "least_squares_solve"),
    ("numerics", "write_matrix"),
    ("numerics", "read_matrix"),
    ("groups", "rotation_matrix_bilinear"),
    ("groups", "sw_shift_matrix"),
    ("groups", "sw_shift_generator"),
    ("layer", "save_checkpoint"),
    ("layer", "load_checkpoint"),
    ("discovery", "adam_step"),
    ("discovery", "train_fixed_angle"),
    ("discovery", "train_angle_regression"),
    ("discovery", "_angle_forward"),
    ("discovery", "_angle_backward"),
    ("discovery", "_eval_linear"),
    ("discovery", "_eval_angle"),
    ("discovery", "gen_fixed_angle_dataset"),
    ("discovery", "gen_angle_pairs_dataset"),
    ("discovery", "rotate_images"),
    ("approx", "approx_group_element"),
    ("approx", "shift_approx_sweep"),
    ("fieldtheory", "helmholtz_convergence"),
    ("fieldtheory", "mse_loss_decomposed"),
)
CLI_COMMANDS = ("gen-data", "train", "eval", "approx", "theory")

# span-name prefixes whose suffix is a shape or size key
KEYED = ("layer.forward.", "layer.backward.", "approx.approx_group_element.")
STATS = ("calls", "s", "self_s", "us_p50", "us_p99", "gflops", "bytes",
         "mb_per_s")
_MAT_HEADER = 28  # LCONVMAT header bytes


def _shape_key(a):
    return "x".join(str(n) for n in np.shape(a))


def _layer_flops(layer, f, backward):
    """Multiply-add count x2 of one dense-generator call, from shapes."""
    shape = np.shape(f)
    b = shape[0] if len(shape) == 3 else 1
    d = shape[-2]
    mi, mo, ng = layer.m_in, layer.m_out, layer.n_generators
    mix = 1 if layer.scalar_eps else mi       # cost of one eps mix per entry
    if not backward:
        return (2 * b * d * mi * mo
                + ng * (2 * b * d * d * mi + 2 * b * d * mi * mo
                        + 2 * mi * mi * mo))
    return (2 * b * d * mi * mo * 2                       # dW0, dA
            + ng * (3 * 2 * b * d * d * mi                # L f, dL, L^T dpre
                    + 3 * 2 * b * d * mi * mix))          # A, d_eps, dpre


def _power_flops(d, n):
    """np.linalg.matrix_power by repeated squaring: 2 d^3 per product."""
    n = int(n)
    products = n.bit_length() - 1 + bin(n).count("1") - 1
    return 2 * d ** 3 * products


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, phase, t0, t1, flops, nbytes)
        self.phase = "run"
        self._stack = []
        self._undo = []
        self.forward_calls = 0
        self.backward_calls = 0
        self.identity_w0_calls = 0
        self.redundant_lf_calls = 0
        # per layer: recent forward inputs with the generators they met
        self._seen = collections.defaultdict(lambda: collections.deque(maxlen=8))

    # -- span recording ------------------------------------------------------

    def call(self, name, fn, args, kwargs, work=None):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        result = done = None
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            flops, nbytes = work(result) if work and done else (0, 0)
            self.spans[sid] = (sid, parent, name, self.phase, t0, t1,
                               flops, nbytes)
        return result

    def _wrap_function(self, name, fn):
        if name == "numerics.write_matrix":
            def wrapper(path, m, *a, **k):
                return self.call(name, fn, (path, m) + a, k,
                                 lambda _: (0, _MAT_HEADER + 8 * np.size(m)))
            return wrapper
        if name == "numerics.read_matrix":
            def wrapper(*a, **k):
                return self.call(name, fn, a, k,
                                 lambda r: (0, _MAT_HEADER + 8 * np.size(r)))
            return wrapper
        if name == "approx.approx_group_element":
            def wrapper(gen, z, n, *a, **k):
                d = gen.d if hasattr(gen, "d") else np.shape(gen)[0]
                return self.call(f"{name}.d{d}", fn, (gen, z, n) + a, k,
                                 lambda _: (_power_flops(d, n), 0))
            return wrapper

        def wrapper(*a, **k):
            return self.call(name, fn, a, k)
        return wrapper

    def _wrap_layer(self, cls):
        tracer = self
        forward, backward = cls.forward, cls.backward

        def gens_of(layer):
            return [g.copy() if isinstance(g, np.ndarray) else g
                    for g in layer.generators]

        def same(a, b):
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                return np.array_equal(a, b)
            return a is b

        def count(layer):
            w0 = layer.w0
            if w0.shape[0] == w0.shape[1] and np.array_equal(
                    w0, np.eye(w0.shape[0])):
                tracer.identity_w0_calls += 1

        def traced_forward(layer, f, *a, **k):
            tracer.forward_calls += 1
            count(layer)
            tracer._seen[id(layer)].append((f, gens_of(layer)))
            return tracer.call(f"layer.forward.{_shape_key(f)}", forward,
                               (layer, f) + a, k,
                               lambda _: (_layer_flops(layer, f, False), 0))

        def traced_backward(layer, f, *a, **k):
            tracer.backward_calls += 1
            count(layer)
            for seen_f, gens in tracer._seen[id(layer)]:
                if seen_f is f and all(
                        same(x, y) for x, y in zip(gens, layer.generators)):
                    tracer.redundant_lf_calls += 1
                    break
            return tracer.call(f"layer.backward.{_shape_key(f)}", backward,
                               (layer, f) + a, k,
                               lambda _: (_layer_flops(layer, f, True), 0))

        self._set(cls, "forward", traced_forward)
        self._set(cls, "backward", traced_backward)

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced name at each place the library binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "lconv" or k.startswith("lconv.")]
        cli = sys.modules["lconv.cli"]

        def rebind(orig, wrapper):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

        for mod_name, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"lconv.{mod_name}"], attr)
            rebind(orig, self._wrap_function(f"{mod_name}.{attr}", orig))
        # main() dispatches through the handler objects held in _COMMANDS
        commands = dict(cli._COMMANDS)
        for command in CLI_COMMANDS:
            handler, needs_config = commands[command]
            wrapper = self._wrap_function(f"cli.{command}", handler)
            commands[command] = (wrapper, needs_config)
            rebind(handler, wrapper)
        self._set(cli, "_COMMANDS", commands)
        self._wrap_layer(sys.modules["lconv.layer"].LConvLayer)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._seen.clear()

    # -- reduction -----------------------------------------------------------

    def span_stats(self, reps):
        """Per span name: calls, s, self_s, percentiles, gflops, bytes, MB/s,
        with counts and times divided by `reps` (per repetition)."""
        child = collections.defaultdict(float)
        for _, parent, _, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        durations = collections.defaultdict(list)
        self_s = collections.defaultdict(float)
        flops = collections.defaultdict(int)
        nbytes = collections.defaultdict(int)
        for sid, _, name, _, t0, t1, fl, nb in self.spans:
            durations[name].append(t1 - t0)
            self_s[name] += t1 - t0 - child[sid]
            flops[name] += fl
            nbytes[name] += nb
        for prefix in ("layer.forward", "layer.backward"):
            members = [n for n in list(durations) if n.startswith(prefix + ".")]
            for n in members:
                durations[prefix] += durations[n]
                self_s[prefix] += self_s[n]
                flops[prefix] += flops[n]
        out = {}
        for name, ds in durations.items():
            total = sum(ds)
            us = np.percentile(np.array(ds) * 1e6, [50, 99])
            out[name] = {
                "calls": len(ds) / reps,
                "s": total / reps,
                "self_s": self_s[name] / reps,
                "us_p50": float(us[0]),
                "us_p99": float(us[1]),
                "gflops": flops[name] / total / 1e9 if total else 0.0,
                "bytes": nbytes[name] / reps,
                "mb_per_s": nbytes[name] / total / 1e6 if total else 0.0,
            }
        return out

    def ratios(self):
        calls = self.forward_calls + self.backward_calls
        return {
            "layer.identity_w0_ratio":
                self.identity_w0_calls / calls if calls else 0.0,
            "layer.backward.redundant_lf_ratio":
                self.redundant_lf_calls / self.backward_calls
                if self.backward_calls else 0.0,
        }

    def run_top_level_s(self):
        """Summed duration of the top-level spans opened in the run phase."""
        return sum(t1 - t0 for _, parent, _, phase, t0, t1, _, _ in self.spans
                   if parent < 0 and phase == "run")

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "phase", "start_s",
                                  "end_s", "flops", "bytes"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def known_span(name):
    """True for every span name a wrapper can produce."""
    static = {f"{m}.{f}" for m, f in FUNCTIONS}
    static |= {f"cli.{c}" for c in CLI_COMMANDS}
    static |= {"layer.forward", "layer.backward"}
    return name in static or any(name.startswith(p) for p in KEYED)


def per_layer_metric(stats, direct, name):
    """Value of one per-layer metric: from `direct` (ratios, trace totals)
    or `<span>.<stat>` from `stats`; 0 for a known span not hit."""
    if name in direct:
        return direct[name]
    span, _, stat = name.rpartition(".")
    if stat not in STATS or not known_span(span):
        raise KeyError(f"unknown per-layer metric {name!r}")
    return stats.get(span, {}).get(stat, 0.0)
