"""Fractional shifts of periodic signals and their infinitesimal generator.

The Shannon-Whittaker shift family g(z) translates a length-d periodic
signal by any real amount z.  This script shows what is exact and what is
not: integer shifts are exact permutations, the family composes exactly
on the Nyquist-free subspace, and the z-derivative at 0 is a circulant
matrix that differentiates band-limited signals to machine precision.
"""

import numpy as np

from lconv.groups import sw_shift_generator, sw_shift_matrix

d = 16

print("== g(0) is the identity ==")
g0 = sw_shift_matrix(d, 0.0)
print(f"   max |g(0) - I| = {np.abs(g0 - np.eye(d)).max():.2e}")

print("== integer shifts are exact one-pixel permutations ==")
g1 = sw_shift_matrix(d, 1.0)
perm = np.zeros((d, d))
perm[np.arange(d), (np.arange(d) + 1) % d] = 1.0
print(f"   max |g(1) - exact shift| = {np.abs(g1 - perm).max():.2e}")

print("== group closure ==")
for w, z in ((3.0, -5.0), (0.3, 0.7)):
    gw, gz = sw_shift_matrix(d, w), sw_shift_matrix(d, z)
    gwz = sw_shift_matrix(d, w + z)
    err = np.linalg.norm(gw @ gz - gwz)
    note = "(exact: integers)" if float(w).is_integer() else \
        f"(Nyquist mode residual |sin(pi w) sin(pi z)| = {abs(np.sin(np.pi*w)*np.sin(np.pi*z)):.3f})"
    print(f"   ||g({w})g({z}) - g({w + z})|| = {err:.3e}  {note}")

print("== the generator differentiates band-limited signals ==")
gen = sw_shift_generator(d)
x = np.arange(d)
f = np.sin(2 * np.pi * x / d) + 0.25 * np.cos(6 * np.pi * x / d)
fprime = (2 * np.pi / d) * np.cos(2 * np.pi * x / d) \
    - 0.25 * (6 * np.pi / d) * np.sin(6 * np.pi * x / d)
print(f"   max |L f - f'| = {np.abs(gen @ f - fprime).max():.2e}")
print(f"   skew-symmetry  : max |L + L^T| = {np.abs(gen + gen.T).max():.2e}")

fd = (sw_shift_matrix(d, 1e-6) - sw_shift_matrix(d, -1e-6)) / 2e-6
print(f"   derivative oracle: max |L - (g(h) - g(-h))/2h| = {np.abs(gen - fd).max():.2e}")
