"""Exact local and global potential theory for effective divisors over Q.

The package computes chordal and disk based pairing kernels, weighted
Mahler measures, pairwise Fekete sums, and adelic heights for divisors
cut out by integer polynomials, keeping every finite-place quantity as
an exact rational multiple of log p and every archimedean quantity as a
float with a tracked error bound.

Each module's __all__ is its public interface; the package republishes
them all.
"""

from .berkovich import *
from .certify import *
from .divisors import *
from .exact import *
from .heights import *
from .local import *
from .places import *
from .roots import *
from .sequences import *
from .weights import *

__version__ = "0.1.0"

# importing a submodule binds its name in the package, so each module
# named here is the one star-imported above
__all__ = sorted({name for module in (berkovich, certify, divisors, exact, heights, local,
                                      places, roots, sequences, weights)
                  for name in module.__all__})
