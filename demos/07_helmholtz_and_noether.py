"""Variational diagnostics: Euler-Lagrange residual and Noether current.

Fields that minimize the translation-invariant loss solve a Helmholtz
equation whose symmetric solution is cosh(x / |eps|); along such fields
the current J = H phi'^2 - m2 phi^2 is constant.  Both diagnostics use
plain central differences and converge at second order; a random field
fails them by orders of magnitude (the negative control).
"""

import numpy as np

from lconv.fieldtheory import (FieldTheoryTerms, el_residual, helmholtz_convergence,
                               helmholtz_field, noether_divergence)
from lconv.numerics import SeededRng

eps = 1.0
terms = FieldTheoryTerms(m2=np.array([[1.0]]),
                         channel_metric=[[np.array([[eps ** 2]])]],
                         v=[np.array([[eps]])])

print("grid    EL residual    Noether divergence")
rows = helmholtz_convergence([32, 64, 128, 256], eps)
for n, res, div in rows:
    print(f"{n:5d}   {res:10.3e}    {div:10.3e}")
for name, col in (("EL", 1), ("Noether", 2)):
    slope = np.polyfit(np.log([r[0] for r in rows]),
                       np.log([r[col] for r in rows]), 1)[0]
    print(f"{name} convergence order: {-slope:.2f} (expect ~2)")

dx, _ = helmholtz_field(128, eps)
noise = SeededRng(1).uniform(128, 1)
print(f"negative control (random field): EL residual "
      f"{np.abs(el_residual(noise, dx, terms)).max():.2e}, divergence "
      f"{noether_divergence(noise, dx, terms):.2e}")
