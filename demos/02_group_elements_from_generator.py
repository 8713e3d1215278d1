"""Rebuilding finite group elements from many near-identity steps.

A finite shift g(z) can be approximated by n small steps along the
generator: (I + (z/n) L)^n.  The table reproduces the classic two-pixel
experiment: with a d = 20 grid the correlation against the exact g(2) is
about 0.77 at n = 8 and 0.93 at n = 16, and the error order behaves as
O(eta^2) per step / O(eta) composed.
"""

import numpy as np

from lconv.approx import (approx_group_element, fit_loglog_slope,
                          shift_approx_sweep)
from lconv.groups import sw_shift_generator, sw_shift_matrix

d, z = 20, 2.0
print(f"== approximating the {z:g}-pixel shift on a d={d} ring ==")
print("   n      eta     frobenius error   correlation")
for n, eta, err, corr in shift_approx_sweep(d, z, [4, 8, 16, 32, 64, 256]):
    print(f"  {n:4d}  {eta:8.5f}   {err:12.4f}     {corr:9.4f}")

print("== error orders ==")
etas = [0.2, 0.1, 0.05, 0.025]
single = [np.linalg.norm(np.eye(d) + e * sw_shift_generator(d)
                         - sw_shift_matrix(d, e).matrix) for e in etas]
print(f"   single-step slope (expect ~2): "
      f"{fit_loglog_slope(etas, single):.3f}")
ns = [32, 64, 128, 256]
gen = sw_shift_generator(d)
exact = sw_shift_matrix(d, z).matrix
comp = [np.linalg.norm(approx_group_element(gen, z, n) - exact) for n in ns]
print(f"   composed slope at fixed z (expect ~1): "
      f"{fit_loglog_slope([z / n for n in ns], comp):.3f}")
