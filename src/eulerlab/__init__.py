"""eulerlab: a pseudo-spectral laboratory for the pressure-free form of the
incompressible Euler equation on a periodic box.

Eulerian evolution  d_t u = grad B(u) - (u . grad) u,  its Lagrangian
geodesic formulation on diffeomorphisms of the torus, the associated
conservation laws (energy, volume, transported vorticity), and
separation experiments exhibiting the non-uniform continuity of the
composition and solution maps.

The package re-exports exactly each submodule's ``__all__``.
"""

from .spectral import *
from .fields import *
from .bform import *
from .interp import *
from .eulerian import *
from .lagrangian import *
from .illposedness import *
from .snapshots import *

__version__ = "0.1.0"
