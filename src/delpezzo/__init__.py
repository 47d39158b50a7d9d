"""Exact-arithmetic toolkit for marked del Pezzo lattices.

Rank-r markings of Z^{1,r} (3 <= r <= 8) with their E_r-series root
systems, Weyl group action, line configurations, rational-double-point
degenerations, representation weights and torsion period points.
Everything is computed over exact integers and rationals.
"""

from . import degeneration, errors, geometry, lattice, period, roots, weights, weyl
from .errors import *
from .lattice import *
from .roots import *
from .weyl import *
from .geometry import *
from .degeneration import *
from .weights import *
from .period import *

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += lattice.__all__
__all__ += roots.__all__
__all__ += weyl.__all__
__all__ += geometry.__all__
__all__ += degeneration.__all__
__all__ += weights.__all__
__all__ += period.__all__
