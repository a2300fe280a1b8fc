"""Evaluation and optimization of the Montgomery-Odlyzko gap functional h(c).

The package computes h(c) for mollifier-style coefficient schemes three
independent ways (exact Beta-integral algebra, nested Gauss quadrature, and
brute-force arithmetic sums over the integers), and searches scheme space
for the smallest c with h(c) > 1, which certifies an upper bound on the
liminf of normalized gaps between consecutive zeros of the Riemann
zeta-function on the critical line.  The public API is declared once, in
each module's __all__, and re-exported here in module order.
"""

from . import fracpoly, hfunc, presets, quadcheck, sieve, optimizer
from .fracpoly import *
from .hfunc import *
from .presets import *
from .quadcheck import *
from .sieve import *
from .optimizer import *

__version__ = "0.1.0"

__all__ = []
__all__ += fracpoly.__all__
__all__ += hfunc.__all__
__all__ += presets.__all__
__all__ += quadcheck.__all__
__all__ += sieve.__all__
__all__ += optimizer.__all__
