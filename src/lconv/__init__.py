"""Lie-algebra convolutional layers and symmetry-discovery tooling.

Modules by theme:

- numerics:     matrices, RNG, least squares, gradient checking, file I/O
- groups:       Shannon-Whittaker shifts and rotations
- layer:        the L-conv layer with hand-written reverse-mode gradients
- discovery:    datasets, Adam, the two generator-learning pipelines
- approx:       building finite group convolutions out of near-identity steps
- fieldtheory:  the invariant-MSE decomposition and its variational checks
- cli:          reproducible command-line runs of all of the above
"""

__version__ = "0.1.0"

from . import numerics, groups, layer  # noqa: F401
