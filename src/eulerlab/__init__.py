"""eulerlab: a pseudo-spectral laboratory for the pressure-free form of the
incompressible Euler equation on a periodic box.

Eulerian evolution  d_t u = grad B(u) - (u . grad) u,  its Lagrangian
geodesic formulation on diffeomorphisms of the torus, the associated
conservation laws (energy, volume, transported vorticity), and
separation experiments exhibiting the non-uniform continuity of the
composition and solution maps.
"""

from .spectral import (
    DEFAULT_BOX_LENGTH,
    Grid,
    GridMismatchError,
    MatrixField,
    ScalarField,
    VectorField,
    chi_cutoff,
    chi_symbol,
    dealias,
    partial_derivative,
    random_scalar,
    sobolev_inner,
    sobolev_norm,
)
from .fields import (
    advect,
    biot_savart,
    bump,
    div_free_bump,
    divergence,
    gradient,
    jacobian,
    leray_project,
    mollify,
    plateau,
    random_div_free,
    taylor_green,
    vorticity,
)
from .bform import BAssembly
from .interp import ORDERS, Interpolant, sample
from .eulerian import (
    BlowUpError,
    EulerState,
    StepperConfig,
    Trajectory,
    div_evolution_residual,
    energy,
    rhs,
    solve,
    step,
)
from .lagrangian import (
    Diffeo,
    GeodesicConfig,
    GeodesicState,
    GeodesicTrajectory,
    compose,
    compose_diffeo,
    det_jacobian,
    eulerian_from_lagrangian,
    exp_map,
    flow_of,
    geodesic_solve,
    geodesic_step,
    identity,
    invert,
    shift,
    vorticity_pullback,
)
from .illposedness import (
    SeparationSeries,
    composition_experiment,
    dexp_fd,
    dexp_richardson,
    scaling_check,
    solution_map_experiment,
)
from .snapshots import SnapshotError, load_snapshot, save_snapshot

__version__ = "0.1.0"
