"""The invariant MSE loss and its field-theory structure.

For a layer with channel mixer W0 and couplings eps^i, the sum over a
periodic grid of ||Q[Phi]||^2 expands into three aggregate terms built
from

    m2   = W0 W0^T               (mass matrix, symmetric PSD)
    H^ij = eps^iT m2 eps^j       (channel part of the metric)
    v^i  = m2 eps^i              (vector term)

as  mass  sum_x Phi^T m2 Phi
  + kinetic sum_x (L_i Phi)^T H^ij (L_j Phi)
  + a cross term 2 sum_x Phi^T v^i (L_i Phi).

When the v^i are symmetric (each eps^i a multiple of I, or a single
channel) the cross term is the discrete divergence of the scalar field
s_i = Phi^T v^i Phi and telescopes to zero on a periodic grid under any
zero-column-sum skew derivative operator; `mse_loss_decomposed` uses
that divergence form for its third term, so direct and decomposed
losses agree exactly in that regime.  For a general matrix eps the
product rule picks up the antisymmetric part of v^i, and direct minus
decomposed is exactly 2 sum_i <skew(v^i), Phi^T L_i Phi>.

The loss functions take the field itself, a (d, m) array with one row
per point of the periodic grid the generators act on.

Stationarity of the loss in the field gives the Euler-Lagrange equation;
for translations, the only group these diagnostics cover, it is a
Helmholtz equation H phi'' = m2 phi whose symmetric solution is
cosh(x / |eps|).  On such solutions the Noether current
J = phi'^T H phi' - phi^T m2 phi is constant in x; both the EL
residual and the current's divergence are evaluated with second-order
central differences, independent of the layer's generator matrices.
"""

from dataclasses import dataclass

import numpy as np

from .groups import sw_shift_generator
from .layer import LConvLayer
from .numerics import DegenerateInputError, DimensionError, SeededRng, as_matrix, check_value


@dataclass(frozen=True)
class FieldTheoryTerms:
    m2: np.ndarray                 # m x m, symmetric PSD
    channel_metric: list           # H[i][j] = eps^iT m2 eps^j
    v: list                        # v^i = m2 eps^i


def field_terms(layer):
    """Aggregate (m2, H, v) for a layer's parameters."""
    m2 = layer.w0 @ layer.w0.T
    return FieldTheoryTerms(
        m2=m2,
        channel_metric=[[ei.T @ m2 @ ej for ej in layer.eps] for ei in layer.eps],
        v=[m2 @ ei for ei in layer.eps],
    )


def mse_loss_direct(phi, layer):
    """sum over grid points of ||Q[Phi]_mu||^2, unit Haar weight per point."""
    q = layer.forward(phi)
    return float(np.sum(q * q))


def mse_loss_decomposed(phi, terms, generators):
    """Mass + kinetic + divergence form of the same loss."""
    mass, kinetic, div = loss_terms(phi, terms, generators)
    return mass + kinetic + div


def loss_terms(phi, terms, generators):
    """The three aggregates (mass, kinetic, divergence) separately."""
    ls = [as_matrix(g) for g in generators]
    lphi = [l @ phi for l in ls]
    mass = float(np.sum((phi @ terms.m2) * phi))
    kinetic = 0.0
    for i in range(len(ls)):
        for j in range(len(ls)):
            kinetic += float(np.sum((lphi[i] @ terms.channel_metric[i][j]) * lphi[j]))
    div = 0.0
    for i, l in enumerate(ls):
        s = np.sum((phi @ terms.v[i]) * phi, axis=1)
        div += float(np.sum(l @ s))
    return mass, kinetic, div


def loss_invariance_check(phi, layer, w):
    """|I(w Phi) - I(Phi)| / I(Phi) for a d x d group element w.

    Exact (up to rounding) when w commutes with the layer's generators and
    acts unitarily on the field's spectral support; on an even periodic
    grid that means fields free of Nyquist content, while integer shifts
    are exact for every field.
    """
    base = mse_loss_direct(phi, layer)
    moved = mse_loss_direct(w @ phi, layer)
    return abs(moved - base) / max(base, 1e-300)


# -- Euler-Lagrange and Noether diagnostics (translation group, 1-D) ------

def _check_points(phi, need, who):
    """phi as a matrix of at least `need` grid points (rows)."""
    phi = as_matrix(phi)
    if phi.shape[0] < need:
        raise DimensionError(
            f"{who} needs at least {need} grid points, got {phi.shape[0]}")
    return phi


def _central_first(phi, dx):
    return (phi[2:] - phi[:-2]) / (2.0 * dx)


def _central_second(phi, dx):
    return (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / (dx * dx)


def el_residual(phi, dx, terms):
    """Pointwise m2 phi - H phi'' on interior points, central differences.

    phi is (n, m) on a uniform non-periodic 1-D grid with spacing dx; for
    fields solving the Helmholtz equation the residual decays as O(dx^2).
    It needs an interior point, so n >= 3.
    """
    phi = _check_points(phi, 3, "el_residual")
    h = terms.channel_metric[0][0]
    return phi[1:-1] @ terms.m2.T - _central_second(phi, dx) @ h.T


def noether_divergence(phi, dx, terms):
    """Max |dJ/dx| over interior points for J = phi'^T H phi' - phi^T m2 phi.

    J is the conserved current of the translation symmetry; on
    Euler-Lagrange solutions it is constant, so the discrete divergence
    measures distance from stationarity plus O(dx^2) discretization.
    Differencing J, itself built from differences, needs n >= 5 points.
    """
    phi = _check_points(phi, 5, "noether_divergence")
    dphi = _central_first(phi, dx)
    h = terms.channel_metric[0][0]
    current = (np.sum((dphi @ h.T) * dphi, axis=1)
               - np.sum((phi[1:-1] @ terms.m2.T) * phi[1:-1], axis=1))
    return float(np.abs(_central_first(current[:, None], dx)).max())


def helmholtz_field(n_points, eps_scale):
    """cosh(x / |eps|) sampled on the interval [-1, 1].

    The analytic stationary field of the 1-D translation loss with scalar
    channel, H = eps^2 m2: H phi'' = m2 phi for any m2 > 0.
    """
    x = np.linspace(-1.0, 1.0, n_points)
    return x[1] - x[0], np.cosh(x / abs(eps_scale))[:, None]


def helmholtz_convergence(sizes, eps_scale):
    """Rows (n, el_residual_max, noether_divergence) over grid refinements
    of n >= 5 points each, for the scalar channel m2 = 1, H = eps^2,
    v = eps that `helmholtz_field` solves for a nonzero eps_scale."""
    if any(check_value("grid size", n, int) < 5 for n in sizes):
        raise DimensionError(f"helmholtz_convergence needs grids of at least "
                             f"5 points, got sizes {list(sizes)}")
    if check_value("eps_scale", eps_scale, float) == 0:
        raise DegenerateInputError("eps_scale must be nonzero")
    terms = FieldTheoryTerms(m2=np.array([[1.0]]),
                             channel_metric=[[np.array([[eps_scale ** 2]])]],
                             v=[np.array([[eps_scale]])])
    rows = []
    for n in sizes:
        dx, phi = helmholtz_field(n, eps_scale)
        res = float(np.abs(el_residual(phi, dx, terms)).max())
        div = noether_divergence(phi, dx, terms)
        rows.append((int(n), res, div))
    return rows


def decomposition_check(grid_size, channels, instances, seed):
    """Worst |direct - decomposed| / direct loss over `instances` random layers
    (W0, scalar eps, SW shift generator) and fields of `channels` channels."""
    check_value("channels", channels, int, 1)
    rng = SeededRng(check_value("seed", seed, int))
    gen = sw_shift_generator(grid_size)
    worst = 0.0
    for _ in range(check_value("instances", instances, int, 1)):
        layer = LConvLayer(rng.uniform_signed(0.8, (channels, channels)),
                           [rng.uniform_signed(0.4, ()) * np.eye(channels)], [gen])
        phi = rng.uniform(grid_size, channels)
        direct = mse_loss_direct(phi, layer)
        dec = mse_loss_decomposed(phi, field_terms(layer), [gen])
        worst = max(worst, abs(direct - dec) / max(direct, 1e-300))
    return worst


def metric_equivariance_check(eps, w0, xi, theta):
    """2-tensor transformation law of the metric for the so(2) generator.

    Builds h(x) = [eps^T m2 eps] x outer(Lhat(x), Lhat(x)) from the exact
    2x2 rotation representation and returns the max-norm over channel
    blocks of R(-xi) h(R(theta) x0) R(-xi)^T - h(R(theta - xi) x0) at
    x0 = (1, 0).
    """
    eps = as_matrix(np.atleast_2d(eps))
    w0 = as_matrix(np.atleast_2d(w0))
    m2 = w0 @ w0.T
    channel = eps.T @ m2 @ eps

    def fld(a):   # the so(2) vector field (-y, x) at R(a) x0
        return np.array([-np.sin(a), np.cos(a)])

    c, s = np.cos(-xi), np.sin(-xi)
    rminus = np.array([[c, -s], [s, c]])
    v_theta = fld(theta)
    v_shift = fld(theta - xi)
    spatial = rminus @ np.outer(v_theta, v_theta) @ rminus.T - np.outer(v_shift, v_shift)
    return float(np.abs(channel).max() * np.abs(spatial).max())
