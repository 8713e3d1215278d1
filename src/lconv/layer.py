"""The L-conv layer: forward map, analytic gradients, and structure checks.

A layer holds a channel mixer W0 (m_in x m_out), per-generator channel
couplings eps^i (m_in x m_in matrices; a scalar coupling e is e I) and
n_L >= 1 generators L_i (d x d float64 arrays).  The forward map is

    Q[f] = f W0 + sum_i (L_i f) (eps^i)^T W0

i.e. the residual channel path plus each generator's transported copy,
with eps^i mixing input channels before W0.  Everything is linear in f,
so gradients are exact matrix products; `backward` implements them by
hand and is validated against central differences in the tests.

Activations have shape (*batch, d, m_in); a single field is (d, m_in).
The layer computes on the grid-major array f.swapaxes(0, -2) in C order,
so each L_i is one GEMM on its (d, B m_in) view and each channel mix one
GEMM on its (d B, m_in) view.  That array is free when f is stored
grid-major, as `x.T[:, :, None]` is for N fields in a (d, N) matrix x,
and a copy otherwise; outputs and d_input are stored grid-major.

Each product is computed once, and only when its result is read:

- Stashed L f.  `forward(f, lf)` appends the products L_i f to the list
  `lf`; `backward(f, upstream, lf=lf)` for that same f and the same
  generators uses them instead of recomputing them.  The stash is the
  caller's list, not layer state: a caller that keeps none (evaluation)
  holds no extra memory, and backward without `lf` recomputes.
- Identity parameters.  A product with W0 or eps^i is skipped when that
  matrix is the identity, checked from the matrix itself on every call,
  so assigning or mutating it takes effect at once.  W0 = I skips f W0,
  (eps^i)^T W0 and upstream W0^T.  eps^i = I skips (upstream W0^T) eps^i,
  the gradient into L_i f, and with W0 = I also (L_i f) (eps^i)^T.  For
  finite inputs these products return their other operand exactly
  (except that a -0.0 entry comes back +0.0), and (eps^i)^T is passed
  C-ordered, as the product was, so the results keep their bits.  A
  matrix is I when its bytes are np.eye's: a -0.0 or a NaN anywhere
  makes it another matrix, whose products run.
- Lazy gradients.  `backward` forms only the generator gradients.
  `LayerGradients.d_eps`, `d_input` and `dW0` (with the sum A = f +
  sum_i (L_i f) (eps^i)^T it needs) are computed on first read, so a
  step that trains only the generators never pays for them, nor does
  the first call of a recursion stack for its input gradient.  `d_input`
  and `dW0` read the layer's generators and eps as they are then, so
  read them before an optimizer step changes the parameters.

What a call checks and copies: `forward` and `backward` check that f
ends in m_in channels with d grid points on axis -2, and `backward` that
upstream has forward(f)'s shape; f and upstream are copied only when they
are not float64 arrays stored grid-major.  No parameter is copied.

Every product runs on the calling thread.  At d = 49 none is large enough
to gain from a second BLAS thread, and a product that wakes OpenBLAS's
worker leaves it spinning for about 128 ms afterwards, so the forward
products, which evaluation runs on thousands of columns at once, go
through `numerics.matmul` in blocks that stay below OpenBLAS's
threading threshold; the training shapes are single blocks.
"""

import json
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .numerics import (DimensionError, FormatError, as_matrix, frobenius, matmul,
                       read_matrix, write_matrix)


@lru_cache
def _eye_bytes(n):
    return np.eye(n).tobytes()


def _is_identity(a):
    """True when a has np.eye(n)'s shape and bytes."""
    n = a.shape[0]
    return a.shape == (n, n) and a.tobytes() == _eye_bytes(n)


@dataclass
class LayerGradients:
    """The gradients of one `backward` call.  `d_generators` is formed by
    the call; `d_eps`, `d_input` and `dW0` are formed on first read from
    f, upstream, the stashed L f and the layer's eps and generators, so
    read them before any of these changes."""
    d_generators: list   # d x d arrays
    _layer: "LConvLayer" = field(repr=False)
    _f: np.ndarray = field(repr=False)          # grid-major input
    _upstream: np.ndarray = field(repr=False)   # (d B, m_out) rows
    _da: np.ndarray = field(repr=False)         # upstream W0^T
    _lf: list = field(repr=False)               # (d B, m_in) rows of L_i f
    _dpre: list = field(repr=False)             # gradient into L_i f, (d, B m_in)

    @cached_property
    def d_eps(self):
        """One m_in x m_in matrix per generator (forward used eps^T, so this
        is the transpose of its gradient)."""
        return [self._da.T @ lfi for lfi in self._lf]

    @cached_property
    def d_input(self):
        """Gradient w.r.t. f, of f's shape, stored grid-major."""
        f = self._f
        d_in = self._da.reshape(f.shape[0], -1)
        for gen, dpre in zip(self._layer.generators, self._dpre):
            d_in = d_in + gen.T @ dpre
        return d_in.reshape(f.shape).swapaxes(0, -2)

    @cached_property
    def dW0(self):
        """Gradient w.r.t. W0: out = A W0 with A = f + sum_i (L_i f) E_i."""
        a = self._f.reshape(-1, self._f.shape[-1])
        for lfi, e in zip(self._lf, self._layer.eps):
            a = a + lfi @ e.T
        return a.T @ self._upstream


class LConvLayer:
    """Parameter container + forward/backward for one L-conv layer."""

    # Read only by the benchmark's flop count (bench/spans._layer_flops);
    # it goes when that count stops reading it.
    scalar_eps = False

    def __init__(self, w0, eps, generators):
        """eps and generators are held as given when they are float64
        matrices, so updates in place reach the layer."""
        self.w0 = as_matrix(w0)
        self.eps = [as_matrix(e) for e in eps]
        self.generators = [as_matrix(g) for g in generators]
        self._check_shapes()

    def _check_shapes(self):
        m_in = self.w0.shape[0]
        if not all(self.w0.shape):
            raise DimensionError(f"W0 of shape {self.w0.shape} has no rows or columns")
        for i, e in enumerate(self.eps):
            if e.shape != (m_in, m_in):
                raise DimensionError(
                    f"eps[{i}] has shape {e.shape}, expected ({m_in}, {m_in})")
        if len(self.eps) != len(self.generators):
            raise DimensionError(
                f"{len(self.eps)} eps blocks vs {len(self.generators)} generators")
        if not self.generators:
            raise DimensionError("a layer needs at least one generator")
        shapes = [g.shape for g in self.generators]
        if any(s != (shapes[0][0],) * 2 for s in shapes):
            raise DimensionError(f"generators are not all d x d for one d: {shapes}")

    @property
    def n_generators(self):
        return len(self.generators)

    @property
    def m_in(self):
        return self.w0.shape[0]

    @property
    def m_out(self):
        return self.w0.shape[1]

    @property
    def d(self):
        return self.generators[0].shape[0]

    # -- forward ---------------------------------------------------------

    def _input(self, f):
        """f of shape (*batch, d, m_in) as the C-ordered grid-major array
        f.swapaxes(0, -2); a copy only when f is not stored that way."""
        f = np.asarray(f, dtype=np.float64)
        if f.ndim < 2 or f.shape[-1] != self.m_in:
            raise DimensionError(f"input of shape {f.shape} does not end in "
                                 f"m_in={self.m_in} channels")
        if f.shape[-2] != self.d:
            raise DimensionError(f"input has {f.shape[-2]} grid points on axis "
                                 f"{f.ndim - 2}, generators have d={self.d}")
        return np.ascontiguousarray(f.swapaxes(0, -2))

    def forward(self, f, lf=None):
        """Apply the layer to f of shape (*batch, d, m_in); returns
        (*batch, d, m_out), stored grid-major.

        Pass an empty list as `lf` to collect the products L_i f for
        `backward` on the same f.
        """
        f = self._input(f)
        rows = f.reshape(-1, self.m_in)
        identity = _is_identity(self.w0)
        out = rows if identity else rows @ self.w0
        for e, gen in zip(self.eps, self.generators):
            lfi = matmul(gen, f.reshape(f.shape[0], -1)).reshape(rows.shape)
            if lf is not None:
                lf.append(lfi)
            if not identity:
                lfi = matmul(lfi, e.T @ self.w0)
            elif not _is_identity(e):   # C-ordered, as the product with W0 would be
                lfi = matmul(lfi, np.ascontiguousarray(e.T))
            out = out + lfi
        return out.reshape(f.shape[:-1] + (self.m_out,)).swapaxes(0, -2)

    # -- backward --------------------------------------------------------

    def backward(self, f, upstream, lf=None):
        """Gradients of sum(upstream * forward(f)) w.r.t. all parameters and f.

        `upstream` is dLoss/dOutput with the same shape as forward(f); pass
        `lf`, the list `forward(f, lf)` filled, to reuse its L_i f.
        """
        f = self._input(f)
        upstream = np.asarray(upstream, dtype=np.float64)
        expected = f.swapaxes(0, -2).shape[:-1] + (self.m_out,)
        if upstream.shape != expected:
            raise DimensionError(f"upstream has shape {upstream.shape}, "
                                 f"forward(f) has {expected}")
        d = f.shape[0]
        grid, rows = f.reshape(d, -1), f.reshape(-1, self.m_in)
        g = np.ascontiguousarray(upstream.swapaxes(0, -2)).reshape(-1, self.m_out)
        identity = _is_identity(self.w0)
        if lf is None:
            lf = [matmul(gen, grid).reshape(rows.shape) for gen in self.generators]
        da = g if identity else g @ self.w0.T
        d_gens, dpres = [], []
        for e in self.eps:
            dpre = (da if _is_identity(e) else da @ e).reshape(d, -1)
            d_gens.append(dpre @ grid.T)         # dpre: gradient into L_i f
            dpres.append(dpre)
        return LayerGradients(d_generators=d_gens, _layer=self, _f=f, _upstream=g,
                              _da=da, _lf=lf, _dpre=dpres)


def equivariance_residual(f, w, layer):
    """|| Q[w f] - w Q[f] || / ||Q[f]|| for a d x d group element w, zero
    when w commutes with the L_i."""
    values = as_matrix(f)
    qf = layer.forward(values)
    lhs = layer.forward(w @ values)
    rhs = w @ qf
    return frobenius(lhs - rhs) / max(frobenius(qf), 1e-300)


def gcn_propagation_matrix(adjacency):
    """Symmetric-normalized propagation D^{-1/2} A D^{-1/2} (0 for isolated nodes)."""
    a = as_matrix(adjacency)
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def gcn_reduction_check(f, propagation, w):
    """Max-abs gap between the graph-convolution update P f W^T and the
    layer with generator P - I in the residual form, eps = I and W0 = W^T,
    whose map is f W0 + (P - I) f W0 = P f W0; algebraically zero."""
    values = as_matrix(f)
    p = as_matrix(propagation)
    w = as_matrix(w)                      # m_out x m_in
    layer = LConvLayer(w0=w.T, eps=[np.eye(w.shape[1])],
                       generators=[p - np.eye(p.shape[0])])
    direct = p @ values @ w.T
    return float(np.abs(layer.forward(values) - direct).max())


# -- checkpoints ----------------------------------------------------------

def save_checkpoint(layer, directory, extra):
    """Write layer parameters as .mat files plus a manifest.json."""
    os.makedirs(directory, exist_ok=True)
    write_matrix(os.path.join(directory, "W0.mat"), layer.w0)
    for i, (e, g) in enumerate(zip(layer.eps, layer.generators)):
        write_matrix(os.path.join(directory, f"eps_{i}.mat"), e)
        write_matrix(os.path.join(directory, f"gen_{i}.mat"), g)
    manifest = {"generators": layer.n_generators, "extra": extra}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


_MANIFEST_TYPES = {"extra": dict, "generators": int}


def _read_manifest(directory):
    """A checkpoint's manifest.json, checked to hold exactly what
    save_checkpoint writes; raises FormatError if it does not."""
    path = os.path.join(directory, "manifest.json")
    with open(path, "rb") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path} holds no JSON object")
    if sorted(manifest) != sorted(_MANIFEST_TYPES):
        raise FormatError(f"{path} has keys {sorted(manifest)}, "
                          f"expected exactly {sorted(_MANIFEST_TYPES)}")
    for key, kind in _MANIFEST_TYPES.items():
        if type(manifest[key]) is not kind:   # so a bool is no int
            raise FormatError(f"{path}: {key!r} is not of type {kind.__name__}")
    return manifest


def load_checkpoint(directory):
    """Inverse of save_checkpoint; returns (layer, manifest dict).  A
    malformed manifest raises FormatError; a missing file, OSError."""
    manifest = _read_manifest(directory)
    w0 = read_matrix(os.path.join(directory, "W0.mat"))
    eps = []
    gens = []
    for i in range(manifest["generators"]):
        eps.append(read_matrix(os.path.join(directory, f"eps_{i}.mat")))
        gens.append(read_matrix(os.path.join(directory, f"gen_{i}.mat")))
    return LConvLayer(w0, eps, gens), manifest
