"""The invariant MSE loss as a lattice field theory.

Summing ||Q[Phi]||^2 over a periodic grid splits into a mass term, a
kinetic term with metric built from the couplings, and a divergence term
that telescopes away.  The script verifies the split, the shift
invariance of the loss, and the 2-tensor transformation law of the metric
under exact rotations.
"""

import numpy as np

from lconv.fieldtheory import (field_terms, loss_invariance_check, loss_terms,
                               metric_equivariance_check, mse_loss_decomposed,
                               mse_loss_direct)
from lconv.groups import sw_shift_generator, sw_shift_matrix
from lconv.layer import LConvLayer
from lconv.numerics import SeededRng

rng = SeededRng(3)
d, m = 24, 2
gen = sw_shift_generator(d)
layer = LConvLayer(rng.uniform_signed(0.8, (m, m)), [0.31 * np.eye(m)], [gen])
phi = rng.uniform(d, m)   # the field, one row per point of the ring
terms = field_terms(layer)

print("== direct loss vs mass + kinetic + divergence ==")
direct = mse_loss_direct(phi, layer)
mass, kinetic, div = loss_terms(phi, terms, [gen])
print(f"   direct      = {direct:.10f}")
print(f"   mass        = {mass:.10f}")
print(f"   kinetic     = {kinetic:.10f}")
print(f"   divergence  = {div:.3e}   (telescopes on the periodic grid)")
print(f"   relative gap = {abs(direct - mse_loss_decomposed(phi, terms, [gen])) / direct:.2e}")

print("== loss invariance under the shift group ==")
print(f"   integer shift : {loss_invariance_check(phi, layer, sw_shift_matrix(d, 5)):.2e}")
spec = np.fft.rfft(phi, axis=0)
spec[-1] = 0.0
band = np.fft.irfft(spec, n=d, axis=0)
print(f"   half shift (band-limited field): "
      f"{loss_invariance_check(band, layer, sw_shift_matrix(d, 0.5)):.2e}")

print("== metric transforms as a 2-tensor under rotations ==")
worst = max(metric_equivariance_check(0.4, 0.9, xi, th)
            for xi, th in SeededRng(4).uniform(20, 2, low=0, high=2 * np.pi))
print(f"   worst residual over 20 random (xi, theta): {worst:.2e}")
