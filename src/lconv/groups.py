"""Explicit matrix representations of the continuous groups used here.

The workhorse is the Shannon-Whittaker (SW) shift family on a periodic
1-D grid of even size d:

    g(z)[rho, nu] = D(z + rho - nu),
    D(v) = (1/d) [ 1 + 2 sum_{p=1}^{d/2-1} cos(2 pi p v / d) + cos(pi v) ]

i.e. the symmetric cosine sum with the two p = +-d/2 endpoint terms at
half weight.  With that weighting D(k) = delta_{k mod d, 0} for integer k,
so g(0) = I and g(mu) is exactly the mu-pixel circulant shift.  On the
Fourier modes |q| < d/2 the family acts as exp(2 pi i q z / d) and is an
exact one-parameter group; the unpaired Nyquist mode q = d/2 carries
cos(pi z), which is the unavoidable obstruction to fractional shifts of
even-length real signals.  Products g(w)g(z) = g(w+z) are therefore exact
whenever w or z is an integer, and exact on the Nyquist-complement
subspace for all real pairs.

The shift generator is the z-derivative of g at z = 0.  Acting on a
discretized smooth f it approximates +df/dx (g reads the signal at
x + z, so the derivative advances it).

2-D rotations come in two flavors: the analytic generator assembled from
per-axis SW derivatives as X d/dy - Y d/dx, and finite rotations realized
by bilinear resampling with zero padding.  One resampling kernel builds
both the rotation matrices and the rotated-image datasets, so the two
share their corner weights and padding; they differ only in the order a
matrix product sums the four terms.

Generators and group elements are plain d x d float64 arrays, with no
grid object beside them: a grid of d points is implied by their d x d
size.  An element acts on features as w @ f; a caller that needs an
inverse builds it by the parameter, e.g. sw_shift_matrix(d, -z).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import LconvError, check_value


class UnsupportedSizeError(LconvError):
    pass


def _check_even(d, who):
    if check_value(f"{who} grid size", d, int) < 4 or d % 2 != 0:
        raise UnsupportedSizeError(
            f"{who} needs an even grid size >= 4 (the cosine sum runs to d/2), got {d}")


def _sw_band(d, z):
    """Band D(z + k) for k = 0..d-1 on an even grid of size d, with the
    endpoint terms p = +-d/2 at half weight (the unique real convention
    with D(integer) = delta)."""
    v = z + np.arange(d, dtype=np.float64)
    # the phase table 2 pi p v / d built in one array, in place, with the
    # rounding of that expression
    t = np.outer(np.arange(1, d // 2, dtype=np.float64), v)
    t *= 2.0 * np.pi
    t /= d
    band = 1.0 + 2.0 * np.cos(t, out=t).sum(axis=0)
    return (band + np.cos(np.pi * v)) / d


def _circulant(band):
    """C[i, j] = band[(i - j) % d]: row i is the window at d - 1 - i of the
    reversed band read twice, so one C-order copy of a strided view."""
    r = band[::-1]
    return sliding_window_view(np.concatenate((r, r[:-1])), len(band))[::-1].copy()


def sw_shift_matrix(d, z):
    """SW fractional shift by z on a periodic grid of even size d.  D is
    even, so g(-z) = g(z)^T: the inverse of g(z) is g(z)^T off Nyquist."""
    _check_even(d, "sw_shift_matrix")
    return _circulant(_sw_band(d, float(z)))


def _sw_generator_band(d):
    k = np.arange(d, dtype=np.float64)
    p = np.arange(1, (d + 1) // 2, dtype=np.float64)
    t = np.outer(p, k)  # in place, as in _sw_band
    t *= 2.0 * np.pi
    t /= d
    np.sin(t, out=t)
    t *= 2.0 * np.pi * p[:, None] / d
    band = -(2.0 / d) * t.sum(axis=0)
    if d % 2 == 0:
        band -= (np.pi / d) * np.sin(np.pi * k)
    return band


def sw_shift_generator(d):
    """d/dz of the SW shift at z = 0: a skew-symmetric circulant.

    Acts as +d/dx on discretized smooth periodic signals, and
    (I + (z/n) L)^n -> g(z) on the Nyquist complement as n grows.
    """
    _check_even(d, "sw_shift_generator")
    return _circulant(_sw_generator_band(d))


def image_coords(width, height):
    """Centered (x, y) coordinates per flattened pixel, row-major (y major)."""
    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    ys, xs = np.mgrid[0:height, 0:width]
    return (xs - cx).ravel().astype(np.float64), (ys - cy).ravel().astype(np.float64)


def sw_rotation_generator(width, height):
    """Analytic rotation generator on a width x height grid: X d/dy - Y d/dx.

    The per-axis derivatives are SW circulant derivatives (the odd-length
    Dirichlet form when a side is odd, e.g. 7x7), so the operator is the
    band-limited angular-momentum operator about the grid center.  It
    annihilates constants exactly and rotationally-invariant smooth fields
    to O(1/min(width, height)) at interior pixels; coordinate fields wrap
    at the periodic boundary, so rows near the edge are noisy.
    """
    if width < 3 or height < 3:
        raise UnsupportedSizeError("sw_rotation_generator needs width, height >= 3")
    lx = _circulant(_sw_generator_band(width))
    ly = _circulant(_sw_generator_band(height))
    ddx = np.kron(np.eye(height), lx)
    ddy = np.kron(ly, np.eye(width))
    x, y = image_coords(width, height)
    return x[:, None] * ddy - y[:, None] * ddx


def _bilinear_resample(images, thetas, width, height):
    """Rotate row image n by thetas[n]: output pixel v reads the input at
    R(theta) v with bilinear weights, zero outside the grid.

    The one resampler of the package: `rotation_matrix_bilinear` applies
    it to the identity, and the rotated-image datasets to their samples.
    """
    x, y = image_coords(width, height)
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    col = (c * x[None, :] - s * y[None, :]) + (width - 1) / 2.0
    row = (s * x[None, :] + c * y[None, :]) + (height - 1) / 2.0
    c0 = np.floor(col)
    r0 = np.floor(row)
    fc = col - c0
    fr = row - r0
    out = np.zeros_like(images)
    rows_idx = np.arange(images.shape[0])[:, None]
    for dr, dc, w in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                      (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        rr = r0 + dr
        cc = c0 + dc
        ok = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
        src = np.where(ok, (rr * width + cc).astype(int), 0)
        out += np.where(ok, w * images[rows_idx, src], 0.0)
    return out


def rotation_matrix_bilinear(width, height, theta):
    """Finite image rotation by theta via bilinear resampling, zero padding.

    Each row has at most 4 nonzeros summing to <= 1 (strictly less when the
    source point falls outside the grid).  theta = 0 gives the identity
    exactly; R(theta) ~ I + theta * sw_rotation_generator for small theta.
    """
    if width < 2 or height < 2:
        raise UnsupportedSizeError("rotation needs width, height >= 2")
    d = width * height
    # C order, as BLAS sums R @ X in an order that depends on layout
    return np.ascontiguousarray(
        _bilinear_resample(np.eye(d), np.full(d, float(theta)), width, height).T)
