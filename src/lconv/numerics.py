"""Dense matrix utilities shared by every other module.

Matrices are plain 2-D float64 numpy arrays throughout.  This module adds
the pieces numpy does not ship in the exact form we need: a matrix product
kept on the calling thread, the trace-based cosine correlation used to
score learned generators, a guarded least-squares solver for the
regression oracle, a central-difference gradient checker, a seeded RNG
with a fixed bit-exact output convention, and a tiny binary matrix file
format ("LCONVMAT") for artifacts.
"""

import numbers
import struct

import numpy as np


class LconvError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(LconvError):
    pass


class DegenerateInputError(LconvError):
    pass


class SingularSystemError(LconvError):
    def __init__(self, message, cond):
        super().__init__(message)
        self.cond = cond


class FormatError(LconvError):
    def __init__(self, message, offset=None):
        super().__init__(message if offset is None
                         else f"{message} (byte offset {offset})")
        self.offset = offset


class EvaluationError(LconvError):
    pass


def as_matrix(a):
    """Coerce to a 2-D float64 array without copying when possible; a
    complex input raises DegenerateInputError instead of losing its
    imaginary part."""
    if np.iscomplexobj(a):
        raise DegenerateInputError("expected a real array, got a complex one")
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={m.ndim}")
    return m


def check_finite(m, what):
    if not np.all(np.isfinite(m)):
        raise DegenerateInputError(f"{what} contains NaN or Inf entries")
    return m


def check_value(name, value, kind, low=None):
    """`value` if it is a `kind` no smaller than `low`: an int is any integral
    number, a float any finite real one (unconverted), and a bool neither."""
    abc = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if (not isinstance(value, abc) or isinstance(value, bool)
            or kind is float and not abs(value) < float("inf")):
        raise DegenerateInputError(
            f"{name} must be {'a finite ' * (kind is float)}{kind.__name__}, got {value!r}")
    if low is not None and value < low:
        raise DegenerateInputError(f"{name} must be at least {low}, got {value!r}")
    return value


# OpenBLAS hands a product above about 10**6 multiply-adds to its worker
# thread, which then spins for about 128 ms after the call.  No lconv
# product is large enough to gain from a second thread, so a block stays
# below half that threshold.
_BLOCK_MACS = 1 << 19


def _block(macs_per_line):
    """Lines (columns or rows) per block of at most _BLOCK_MACS
    multiply-adds, a multiple of 8; 0 when 8 lines already exceed it."""
    return _BLOCK_MACS // max(macs_per_line, 1) // 8 * 8


def matmul(a, b):
    """a @ b for 2-D arrays, on the calling thread at lconv's shapes.

    The longer outer dimension (columns of b, or rows of a for a tall
    product) is cut into blocks of at most 2**19 multiply-adds, each a
    multiple of 8 wide, and each block is one BLAS call over the whole
    inner dimension.  The result equals a @ b bit for bit, except when b
    has more than one block of columns and a number of them that is not
    a multiple of 8: its last (columns mod 8) columns then take the
    rounding of the tail of a small product, which OpenBLAS computes
    with another kernel than a product above 10**6 multiply-adds.  A
    product too large for even an 8-wide block runs as one call.

    A column-major b gives a column-major product with the bits of
    matmul(a, np.ascontiguousarray(b)): each block of columns is copied
    C-ordered for its call and its product written into the result, so
    the only transients are one block of each.  When columns are not
    blocked, all of b is copied C-ordered.
    """
    (m, k), n = a.shape, b.shape[1]
    step = _block(k * min(m, n))
    if b.flags.f_contiguous and not b.flags.c_contiguous:
        out = np.empty((m, n), np.result_type(a, b), order="F")
        if 0 < step < n and n >= m:
            for s in range(0, n, step):
                out[:, s:s + step] = a @ np.ascontiguousarray(b[:, s:s + step])
        else:
            out[...] = matmul(a, np.ascontiguousarray(b))
        return out
    if not step or step >= max(m, n):
        return a @ b
    out = np.empty((m, n), np.result_type(a, b))
    for s in range(0, max(m, n), step):
        if n >= m:
            np.matmul(a, b[:, s:s + step], out=out[:, s:s + step])
        else:
            np.matmul(a[s:s + step], b, out=out[s:s + step])
    return out


def frobenius(a):
    """||a||_F as sqrt(sum(a * a)): numpy's pairwise sum, whose bits do not
    depend on the BLAS thread count as `np.linalg.norm`'s dot does."""
    return float(np.sqrt(np.sum(a * a)))


def cosine_correlation(a, b):
    """Corr(a, b) = Tr(a^T b) / (||a|| ||b||), the Frobenius-angle cosine.

    Symmetric and scale invariant up to sign; lies in [-1, 1] up to
    rounding.  Raises on shape mismatch or zero-norm input.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    na = frobenius(a)
    nb = frobenius(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine correlation of a zero-norm matrix")
    return float(np.sum(a * b) / (na * nb))


# Conditioning thresholds for the normal-equation solver.  Above FALLBACK
# we switch to an orthogonal (SVD) solve; above REJECT the system is
# reported as singular.
_COND_FALLBACK = 1.0e8
_COND_REJECT = 1.0e12


def least_squares_solve(x, y):
    """Solve Y = R X for R in the least-squares sense; X, Y are d x N.

    Returns R = (Y X^T)(X X^T)^{-1} minimizing ||Y - RX||_F.  X X^T and
    X Y^T are summed over fixed blocks of samples, each product small
    enough to stay on the calling thread (see `matmul`), so the bits do
    not depend on the BLAS thread count.  The normal equations are solved
    directly while X X^T is well conditioned; an SVD-based orthogonal
    solve takes over between 1e8 and 1e12, beyond which the system is
    rejected as rank deficient.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise DimensionError(f"sample counts differ: X has {x.shape[1]}, Y has {y.shape[1]}")
    d, n = x.shape
    if n < d:
        raise DegenerateInputError(f"need at least d={d} samples, got {n}")
    gram = np.zeros((d, d))
    xy = np.zeros((d, y.shape[0]))
    step = _block(d * max(d, y.shape[0])) or n
    for s in range(0, n, step):
        xs = x[:, s:s + step]
        gram += xs @ xs.T
        xy += xs @ y[:, s:s + step].T
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > _COND_REJECT:
        raise SingularSystemError(
            f"X X^T is numerically rank deficient (cond ~ {cond:.3e})", cond)
    if cond <= _COND_FALLBACK:
        # R (X X^T) = Y X^T  <=>  (X X^T) R^T = X Y^T
        return np.linalg.solve(gram, xy).T
    r_t, *_ = np.linalg.lstsq(x.T, y.T, rcond=None)
    return r_t.T


def finite_difference_gradient(loss, p, step):
    """Central-difference gradient of a scalar function at p."""
    if step <= 0:
        raise DegenerateInputError("step must be positive")
    p = np.asarray(p, dtype=np.float64).ravel()
    grad = np.empty_like(p)
    for k in range(p.size):
        e = np.zeros_like(p)
        e[k] = step
        hi = loss(p + e)
        lo = loss(p - e)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise EvaluationError(f"loss not finite at coordinate {k}")
        grad[k] = (hi - lo) / (2.0 * step)
    return grad


class SeededRng:
    """Deterministic random stream: PCG64 with a fixed 64-bit seed.

    The same seed reproduces the same stream bit-for-bit across runs and
    platforms (PCG64 uses integer state arithmetic; doubles come from the
    fixed 53-bit conversion in numpy's Generator.random).
    """

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))

    def uniform(self, rows, cols, low=-0.5, high=0.5):
        """Uniform matrix in [low, high) derived from uniform [0, 1) doubles."""
        u = self._gen.random((rows, cols))
        u *= high - low     # in place: the roundings of low + (high - low) * u
        u += low
        return u

    def uniform_signed(self, scale, shape):
        """Uniform in [-scale, scale) with the same conversion convention."""
        u = self._gen.random(shape)
        return scale * (2.0 * u - 1.0)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)


# --- binary matrix file format -----------------------------------------
#
# header: 8 magic bytes "LCONVMAT", u32 version (little-endian), u64 rows,
# u64 cols; payload: rows*cols little-endian IEEE-754 doubles, row-major.

MAGIC = b"LCONVMAT"
VERSION = 1
_HEADER = struct.Struct("<8sIQQ")


def write_matrix(path, m):
    m = as_matrix(m)
    check_finite(m, "matrix to write")
    # copies of at most 1 MiB in any layout, or of 8 rows once a row
    # passes 128 KiB (16384 columns)
    rows = max(8, (1 << 20) // (8 * max(m.shape[1], 1)))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, m.shape[0], m.shape[1]))
        for start in range(0, m.shape[0], rows):
            fh.write(np.ascontiguousarray(m[start:start + rows], dtype="<f8"))


def read_matrix(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError("truncated header", len(head))
        magic, version, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}", 0)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", 8)
        payload = fh.read()
    expected = rows * cols * 8
    if len(payload) != expected:
        raise FormatError(
            f"payload has {len(payload)} bytes, expected {expected}",
            _HEADER.size + len(payload))
    m = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)
    return check_finite(m, f"matrix read from {path}")


def write_csv(path, header, rows):
    """RFC-4180 CSV: CRLF line endings, '.' decimal separator."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\r\n")


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = str(v)
    if any(ch in s for ch in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s
