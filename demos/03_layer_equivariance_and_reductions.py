"""The layer in action: equivariance, and how CNN / GCN drop out of it.

A layer whose generators commute with a transformation is exactly
equivariant under it.  With integer-shift anchors the reference group
convolution is a circular CNN; with the single generator P - I for a
normalized adjacency P, the residual form f W0 + (P - I) f W0 is the graph
convolution update P f W0.
"""

import numpy as np

from lconv.approx import cnn_equivalence_check
from lconv.groups import sw_shift_generator, sw_shift_matrix
from lconv.layer import (LConvLayer, equivariance_residual,
                         gcn_propagation_matrix, gcn_reduction_check)
from lconv.numerics import SeededRng

rng = SeededRng(0)
d = 16
layer = LConvLayer(w0=rng.uniform(2, 3), eps=[rng.uniform(2, 2)],
                   generators=[sw_shift_generator(d)])
f = rng.uniform(d, 2)

print("== equivariance under commuting shifts ==")
for z in (1.0, 0.4, -2.3):
    res = equivariance_residual(f, sw_shift_matrix(d, z), layer)
    print(f"   shift z={z:+.1f}: residual = {res:.2e}")

print("== diagnostic: a non-commuting transformation ==")
from lconv.groups import rotation_matrix_bilinear  # noqa: E402
from lconv.layer import LConvLayer as _L  # noqa: E402

rot_layer = _L(w0=rng.uniform(1, 1), eps=[rng.uniform(1, 1)],
               generators=[rng.uniform(16, 16)])
res = equivariance_residual(rng.uniform(16, 1),
                            rotation_matrix_bilinear(4, 4, 0.4), rot_layer)
print(f"   bilinear rotation vs a random learned generator: residual = {res:.3f}"
      "  (nonzero; reported, not thresholded)")

print("== circular CNN as a shift-anchored group convolution ==")
taps = rng.uniform(4, 1).ravel()
print(f"   taps {np.round(taps, 3)}: max gap = "
      f"{cnn_equivalence_check(taps, d, f=rng.uniform(d, 1)):.2e}")

print("== GCN update as the layer with generator P - I ==")
n = 7
a = (rng.uniform(n, n) > 0.25).astype(float)
a = np.triu(a, 1)
a = a + a.T
prop = gcn_propagation_matrix(a)
w = rng.uniform(3, 2)
print(f"   random {n}-node graph: max gap = "
      f"{gcn_reduction_check(rng.uniform(n, 2), prop, w):.2e}")
