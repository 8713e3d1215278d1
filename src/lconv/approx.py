"""Building finite group convolutions out of near-identity steps.

A group convolution with a kernel sampled as point masses c_k at the
d x d matrices u_k of group elements is evaluated exactly by
`gconv_reference`.  Each anchor u_k of a one-parameter family can in
turn be approximated by a product of near-identity factors
(I + (z/n) L)^n, which is what a stack of L-conv layers with W0 = I
realizes.  The measurable content is the error scaling: O(eta^2) for a
single step of size eta, O(eta) for the composed product at fixed total
parameter, both estimated by log-log slopes.

On the Shannon-Whittaker shift family the construction is exact in the
n -> infinity limit for even total shifts: the unpaired Nyquist mode of an
even-length grid carries cos(pi z) in the exact element but is
annihilated by every circulant generator, so exp(z L) matches g(z) only
when cos(pi z) = 1.

An exactly circulant generator is diagonal in the DFT basis (the SW one
with Nyquist eigenvalue 0), so its step product is powered mode by mode;
no other generator is accepted.  The finite-shift sweep scores each
product against the exact shift by their first columns: both are
circulant, so the d x d Frobenius error is sqrt(d) times the columns'
and the cosine correlation is the columns' own.
"""

import math

import numpy as np

from .groups import _circulant, sw_shift_generator, sw_shift_matrix
from .numerics import (DegenerateInputError, DimensionError, as_matrix, check_value,
                       cosine_correlation, frobenius)


def gconv_reference(f, anchors, weights):
    """Exact group convolution of f (d x m) with a point-mass kernel: the
    scalar weights c_k at the d x d anchor matrices u_k.

    Output row mu is the kernel-weighted read-out of f at the lift points
    g_mu u_k; for shift anchors this reduces to sum_k c_k u_k^T f, the
    weighted combination of shifted copies of f, each weight acting on
    every channel.
    """
    f = as_matrix(f)
    if len(anchors) == 0:
        raise DimensionError("a point-mass kernel needs at least one anchor")
    if len(anchors) != len(weights):
        raise DimensionError(f"{len(anchors)} anchors vs {len(weights)} weights")
    out = 0.0
    for u, c in zip(anchors, weights):
        if np.shape(u) != (f.shape[0],) * 2:
            raise DimensionError(f"anchor of shape {np.shape(u)} does not act on "
                                 f"f's {f.shape[0]} rows")
        out = out + (u.T @ f) * c
    return out


def approx_group_element(gen, z, n):
    """(I + (z/n) L)^n as a d x d array: n near-identity steps along the
    d x d generator L.

    L must be exactly circulant (bit-equal to its diagonal shift).  Its DFT
    eigenvalues are then lam = fft(L[:, 0]), so this is the circulant
    I + ifft((1 + (z/n) lam)^n - 1), in O(d^2) and exactly I at z = 0.  Any
    other L, even one bit off circulant, raises DegenerateInputError.
    """
    check_value("step count n", n, int)
    if n < 1:
        raise DimensionError("need at least one step")
    l = as_matrix(gen)
    # bit-equal to np.roll(l, (1, 1), axis=(0, 1)), told on views of l: its
    # corner, body, first row and first column against what rolls onto them
    if (l.shape != (len(l), len(l))
            or not (l[0, 0] == l[-1, -1]
                    and np.array_equal(l[1:, 1:], l[:-1, :-1])
                    and np.array_equal(l[0, 1:], l[-1, :-1])
                    and np.array_equal(l[1:, 0], l[:-1, -1]))):
        raise DegenerateInputError(f"the {l.shape[0]} x {l.shape[1]} generator is not "
                                   "exactly circulant")
    lam = np.fft.fft(l[:, 0])
    band = np.fft.ifft((1.0 + (float(z) / n) * lam) ** n - 1.0).real
    band[0] += 1.0
    return _circulant(band)


def circular_convolve(f, taps):
    """Direct circular 1-D convolution: out[nu] = sum_mu taps[mu] f[nu - mu]."""
    f = as_matrix(f)
    out = np.zeros_like(f)
    for mu, w in enumerate(taps):
        out += w * np.roll(f, mu, axis=0)
    return out


def cnn_equivalence_check(kernel_weights, d, f):
    """Max-abs gap between a circular 1-D CNN and its G-conv realization.

    The CNN with taps w_mu applied as out[nu] = sum_mu w_mu f[nu - mu] is
    exactly the group convolution whose kernel places mass w_mu on the
    integer shift g_mu; the gap is floating-point only.
    """
    taps = np.asarray(kernel_weights, dtype=np.float64).ravel()
    if taps.size > d:
        raise DimensionError(f"kernel size {taps.size} exceeds grid size {d}")
    f = as_matrix(f)
    anchors = [sw_shift_matrix(d, mu) for mu in range(taps.size)]
    return float(np.abs(gconv_reference(f, anchors, taps)
                        - circular_convolve(f, taps)).max())


def shift_approx_sweep(d, z, n_values):
    """Rows (n, eta, frobenius_error, correlation) for the finite-shift table.

    The error is ||A - E||_F and the correlation cosine_correlation(A, E)
    of A = (I + (z/n) L)^n and the exact shift E = g(z).  Both are
    circulant, so every column is a cyclic shift of the first: each is
    scored by its first column, ||A - E||_F = sqrt(d) ||a - e|| and the
    factor d cancels in the cosine, with no d x d pass after A is built.
    """
    gen = sw_shift_generator(d)
    e = sw_shift_matrix(d, z)[:, :1]
    rows = []
    for n in n_values:
        a = approx_group_element(gen, z, n)[:, :1]
        rows.append((int(n), float(z) / n,
                     math.sqrt(d) * frobenius(a - e),
                     cosine_correlation(a, e)))
    return rows


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2:
        raise DimensionError("need at least two points for a slope")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
