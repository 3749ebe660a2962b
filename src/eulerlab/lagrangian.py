"""Lagrangian side: diffeomorphism arithmetic, the geodesic equation and
the exponential map.

A diffeomorphism of the torus is stored through its periodic displacement
g, phi(x) = x + g(x), so Sobolev norms of phi - id are directly those of
g and periodicity is automatic.  The geodesic equation for the flow of an
ideal fluid reads

    d_t (phi, v) = (v, Gamma_phi(v, v)),
    Gamma_phi(v, v) = (grad B(v o phi^{-1})) o phi,

with B the pressure quadratic form; its time-1 solution map u0 -> phi(1)
is the Riemannian exponential map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bform import BAssembly
from .eulerian import (
    BlowUpError,
    EulerState,
    StepperConfig,
    Trajectory,
    _check_assembly,
    _rk,
    _step_count,
    _stepped,
    _trajectory,
)
from .fields import jacobian
from .interp import (
    DEFAULT_ORDER,
    Interpolant,
    _check_order,
    _shifted_lines,
    _warn_nyquist,
)
from .spectral import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    _check_same_grid,
    sobolev_norm,
)

__all__ = [
    "Diffeo",
    "GeodesicState",
    "GeodesicConfig",
    "GeodesicTrajectory",
    "identity",
    "shift",
    "compose",
    "compose_diffeo",
    "invert",
    "det_jacobian",
    "geodesic_step",
    "geodesic_solve",
    "exp_map",
    "flow_of",
    "eulerian_from_lagrangian",
    "vorticity_pullback",
]

_INVERT_MAX_ITER = 100


@dataclass(frozen=True)
class Diffeo:
    """phi = id + g with periodic displacement g; orientation preserving."""

    displacement: VectorField

    @property
    def grid(self) -> Grid:
        return self.displacement.grid

    def positions(self) -> np.ndarray:
        """phi evaluated on the grid, shape (dim,) + grid.shape (not wrapped)."""
        return self.grid.nodes + self.displacement.data

    def check_orientation(self) -> np.ndarray:
        """The samples of det d(phi); ValueError unless all are positive."""
        det = det_jacobian(self).data
        if np.min(det) <= 0.0:
            raise ValueError(
                f"map is not orientation preserving (min det = {np.min(det):.3e})"
            )
        return det


def identity(grid: Grid) -> Diffeo:
    return Diffeo(VectorField.zero(grid))


def shift(grid: Grid, a) -> Diffeo:
    """Rigid translation x -> x + a."""
    a = np.asarray(a, dtype=np.float64).reshape(grid.dim, *([1] * grid.dim))
    return Diffeo(VectorField(grid, np.broadcast_to(a, (grid.dim,) + grid.shape).copy()))


def _moved_nodes(g: np.ndarray):
    """Index of the nodes a displacement g, shape (dim, nodes), that is
    not a shear moves: slice(None) when it moves all of them, else their
    flat indices (a map that fixes every node is a shear)."""
    moved = np.any(g != 0.0, axis=0)
    return slice(None) if moved.all() else np.flatnonzero(moved)


def _is_shear(g: np.ndarray) -> bool:
    """Whether the map id + g is a shear, which ``compose`` and ``invert``
    treat in closed form: every component of the displacement samples g,
    shape (dim,) + grid shape, is constant along each axis in which some
    component is nonzero (strip shears, ``shift``, the identity).  Compares
    g with its first slice along such an axis, a broadcast view, and stops
    at the first axis that fails."""
    for axis in range(g.shape[0]):
        first = g[(slice(None),) * (axis + 1) + (slice(0, 1),)]
        if g[axis].any() and not (g == first).all():
            return False
    return True


def _node_coords(grid: Grid, sel) -> np.ndarray:
    """Coordinates, shape (dim, nodes), of the nodes ``sel`` selects: for
    all of them a view of ``grid.nodes``, for flat indices their
    unravelled indices times the spacing, bit for bit ``grid.coords()``."""
    if isinstance(sel, slice):
        return grid.nodes.reshape(grid.dim, -1)
    return np.stack(np.unravel_index(sel, grid.shape)) * grid.spacing


def compose(f, phi: Diffeo, order=DEFAULT_ORDER):
    """Right translation R_phi f = f o phi by periodic interpolation.

    A shear (``_is_shear``) moves each node along the axes it moves by a
    displacement that is constant on the node's line along each of them,
    and x + g(x) is a node in every other axis.  The prefilter is
    separable, so on such a line the tensor interpolant is the line's 1-D
    one, and f o phi is that interpolant shifted by g / h grid units: one
    Fourier multiplier per nonzero line that moves
    (``interp._shifted_lines``), one moved axis after the other, and the
    samples of every other line copied.  Nothing is prefiltered or
    evaluated at points; the identity is a copy.  A spline order warns, as
    ``Interpolant`` does, about the unpaired Nyquist content of f when
    some line moves.
    Otherwise only the nodes phi moves are interpolated; at a node phi
    fixes (zero displacement) the sample of f is copied, which is exact.
    When phi moves every node, the interpolated values are the result as
    they are.  ValueError for an order not in ``interp.ORDERS``.
    """
    grid = _check_same_grid(f, phi.displacement)
    _check_order(order)
    if _is_shear(phi.displacement.data):
        return _compose_shear(f, phi.displacement.data, order)
    g = phi.displacement.data.reshape(grid.dim, -1)
    sel = _moved_nodes(g)
    if isinstance(sel, slice):
        vals = Interpolant(f, order=order).at(_node_coords(grid, sel) + g)
        return type(f)(grid, vals.reshape(f.data.shape))
    vals = f.data.copy()
    points = _node_coords(grid, sel) + g[:, sel]
    flat = vals.reshape(vals.shape[:vals.ndim - grid.dim] + (-1,))
    flat[..., sel] = Interpolant(f, order=order).at(points)
    return type(f)(grid, vals)


def _compose_shear(f, g: np.ndarray, order):
    """f o (id + g) for the displacement samples g of a shear (see
    ``compose``).  The Nyquist check reads the spectrum f holds, else one
    ``Grid.rfft`` not cached on f, as ``Interpolant`` does."""
    grid = f.grid
    lead = f.data.ndim - grid.dim
    # g[axis] is constant along axis: one shift, in grid units, per line
    shifts = [g[axis].take(0, axis=axis) / grid.spacing for axis in range(grid.dim)]
    if order != "fourier" and any(t.any() for t in shifts):  # as Interpolant warns
        _warn_nyquist(grid, grid.rfft(f.data) if f._hat is None else f._hat, f.data)
    # the trigonometric sum is complex until every axis is done
    vals = f.data.astype(np.complex128 if order == "fourier" else np.float64)
    for axis, t in enumerate(shifts):
        moved = t != 0.0
        if moved.any():
            lines = np.moveaxis(vals, lead + axis, -1)
            sel = (Ellipsis, moved, slice(None))
            lines[sel] = _shifted_lines(lines[sel], t[moved], order)
    return type(f)(grid, np.ascontiguousarray(vals.real))


def compose_diffeo(outer: Diffeo, inner: Diffeo, order=DEFAULT_ORDER) -> Diffeo:
    """(outer o inner)(x) = inner(x) + g_outer(inner(x))."""
    g = compose(outer.displacement, inner, order=order)
    return Diffeo(inner.displacement + g)


def invert(phi: Diffeo, order=DEFAULT_ORDER, tol: float = 1e-10,
           guess: VectorField | None = None) -> Diffeo:
    """Inverse diffeomorphism: psi with phi(psi(x)) = x on the torus.

    A shear, a map whose displacement g is, in every component, constant
    along each axis in which some component of g is nonzero (strip
    shears, the translations ``shift`` makes, the identity), has the
    exact inverse id - g: x - g(x) moves only along axes where g is
    constant, so g(x - g(x)) = g(x), also for every interpolant of g.
    It is returned as it is, without interpolation and whatever the
    guess.  Otherwise the displacement h of psi solves the fixed-point
    equation h(x) = -g(x + h(x)); iterated undamped, h <- -g(x + h),
    with a Newton step using the interpolated Jacobian of g once the
    contraction stalls.  At a node phi fixes (g = 0) the exact solution
    is h = 0: it is set there, and the iteration, its residual and the
    guess cover the moved nodes only.  Without a guess the first iterate
    h = 0 queries the nodes themselves, where every interpolant in
    ``interp.ORDERS`` reproduces the samples, so its residual reads g's
    samples instead of evaluating the interpolant.
    Raises BlowUpError at once on a non-finite iterate, and RuntimeError
    when _INVERT_MAX_ITER iterations run out or a Newton step raises the
    residual; ValueError unless ``tol`` is positive and finite or for an
    order not in ``interp.ORDERS``, and GridMismatchError for a guess on
    another grid, each before any evaluation, also for a shear.
    """
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if guess is not None:
        _check_same_grid(phi.displacement, guess)
    _check_order(order)
    grid = phi.grid
    if _is_shear(phi.displacement.data):
        return Diffeo(VectorField(grid, 0.0 - phi.displacement.data))  # +0.0 where g = 0
    g = phi.displacement.data.reshape(grid.dim, -1)
    sel = _moved_nodes(g)
    g_interp = Interpolant(phi.displacement, order=order)
    x = _node_coords(grid, sel)
    if guess is None:
        h, gh = np.zeros_like(x), g[:, sel]
    else:
        h, gh = guess.data.reshape(grid.dim, -1)[:, sel], None

    dg_interp = None
    newton = False
    prev_res = res = np.inf
    it = 0
    for it in range(1, _INVERT_MAX_ITER + 1):
        if gh is None:
            gh = g_interp.at(x + h)
        res = float(np.max(np.abs(h + gh)))
        if res <= tol:
            if isinstance(sel, slice):  # every node moves: h is the result
                return Diffeo(VectorField(grid, h.reshape(phi.displacement.data.shape)))
            out = np.zeros_like(phi.displacement.data)
            out.reshape(grid.dim, -1)[:, sel] = h
            return Diffeo(VectorField(grid, out))
        if not np.isfinite(res):
            raise BlowUpError(f"non-finite iterate in diffeomorphism inversion "
                              f"(residual {res})")
        if newton and res > prev_res:
            break  # Newton diverges: the map is folded, not slow
        if not newton and res >= 0.5 * prev_res:
            # contraction too slow to hit tol in the iteration budget:
            # switch (permanently) to Newton on F(h) = h + g(x + h)
            newton = True
        if newton:
            if dg_interp is None:
                dg_interp = Interpolant(jacobian(phi.displacement), order=order)
            dg = dg_interp.at(x + h)
            jac = np.moveaxis(dg, (0, 1), (-2, -1)) + np.eye(grid.dim)
            f_val = np.moveaxis(h + gh, 0, -1)
            delta = np.linalg.solve(jac, f_val[..., None])[..., 0]
            h = h - np.moveaxis(delta, -1, 0)
        else:
            h = -gh
        prev_res, gh = res, None
    raise RuntimeError(
        f"diffeomorphism inversion did not reach {tol:.1e} in {it} "
        f"iterations (residual {res:.3e})"
    )


def det_jacobian(phi: Diffeo) -> ScalarField:
    """Pointwise det(d phi) = det(I + dg) with spectral derivatives, in
    closed form in 2D; phi gains no cached spectrum, so a trajectory's
    maps keep samples only."""
    grid = phi.grid
    dg = jacobian(VectorField(grid, phi.displacement.data)).data
    if grid.dim == 2:
        return ScalarField(grid, (1.0 + dg[0, 0]) * (1.0 + dg[1, 1])
                           - dg[0, 1] * dg[1, 0])
    mats = np.moveaxis(dg, (0, 1), (-2, -1)) + np.eye(grid.dim)
    return ScalarField(grid, np.linalg.det(mats))


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicState:
    t: float
    phi: Diffeo
    v: VectorField


@dataclass(frozen=True)
class GeodesicConfig:
    dt: float = 1e-2
    order: object = DEFAULT_ORDER  # one of interp.ORDERS
    cutoff: float = 1.0

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        _check_order(self.order)


@dataclass(frozen=True)
class GeodesicTrajectory:
    """The states at t = 0 and T and, per step at t = 0, dt, ..., T, the
    times, the L^2 speeds ||v||_0 and the volume defects
    max |det d(phi) - 1|."""

    states: tuple[GeodesicState, ...]
    times: np.ndarray
    speeds: np.ndarray
    det_defects: np.ndarray

    @property
    def final(self) -> GeodesicState:
        return self.states[-1]


def _christoffel(phi, v, bb, order, inv_guess):
    """(Gamma_phi(v, v), psi = phi^{-1}); Gamma_phi(v, v) = R_phi grad B(v o psi)."""
    psi = invert(phi, order=order, guess=inv_guess)
    u = compose(v, psi, order=order)
    return compose(bb.grad_b(u), phi, order=order), psi


def _seed(psi_disp: VectorField, g: np.ndarray, g_prev: np.ndarray) -> VectorField:
    """First-order inverse of the map id + g from the inverse, displacement
    ``psi_disp``, of the map id + g_prev: h_prev - (g - g_prev)."""
    return VectorField(psi_disp.grid, psi_disp.data - (g - g_prev))


def _geodesic_step(state: GeodesicState, bb: BAssembly, cfg: GeodesicConfig,
                   inv_guess: VectorField | None):
    """RK4 on the stacked (g, v).  Each stage's inversion starts from the
    previous stage's inverse, moved to first order by the change of g
    (``_seed``); ``inv_guess`` seeds the first.  Returns the new state, the
    seed its step's first inversion takes, and the new map's volume
    defect, from the det its orientation check takes.  A folded map or
    non-finite samples raise BlowUpError."""
    grid, d = state.v.grid, state.v.grid.dim
    guess, g_prev = inv_guess, None

    def f(c, y):
        nonlocal guess, g_prev
        g = y[:d]
        if g_prev is not None:
            guess = _seed(guess, g, g_prev)
        gamma, psi = _christoffel(Diffeo(VectorField(grid, g)),
                                  VectorField(grid, y[d:]), bb, cfg.order, guess)
        # _rk overwrites its stage buffer: keep a copy of this stage's g
        guess, g_prev = psi.displacement, g.copy()
        return np.concatenate([y[d:], gamma.data])

    t = state.t + cfg.dt
    try:
        y = _rk(f, np.concatenate([state.phi.displacement.data, state.v.data]),
                cfg.dt)
        phi, v = Diffeo(VectorField(grid, y[:d])), VectorField(grid, y[d:])
        defect = float(np.max(np.abs(phi.check_orientation() - 1.0)))
        guess = _seed(guess, y[:d], g_prev)
    except ValueError as exc:  # folded map or non-finite samples
        raise BlowUpError(f"geodesic left the smooth regime at t = {t}: "
                          f"{exc}") from exc
    return GeodesicState(t, phi, v), guess, defect


def geodesic_step(state: GeodesicState, cfg: GeodesicConfig | None = None,
                  bb: BAssembly | None = None) -> GeodesicState:
    """One RK4 step of d_t(phi, v) = (v, Gamma_phi(v, v)) of size cfg.dt;
    raises BlowUpError when the map folds or a sample turns non-finite,
    and rejects, before stepping, a state or an assembly that mixes grids
    and an assembly with another cutoff than ``cfg``'s."""
    if cfg is None:
        cfg = GeodesicConfig()
    if bb is None:
        bb = BAssembly(state.v.grid, cutoff=cfg.cutoff)
    _check_assembly(bb, cfg.cutoff, state.v, state.phi.displacement)
    return _geodesic_step(state, bb, cfg, None)[0]


def geodesic_solve(u0: VectorField, T: float,
                   cfg: GeodesicConfig | None = None) -> GeodesicTrajectory:
    """Integrate the geodesic system from (id, u0) up to time T.

    Keeps the states at t = 0 ((id, u0) itself) and T; the times, speeds
    and volume defects cover every step.
    """
    if cfg is None:
        cfg = GeodesicConfig()
    n_steps = _step_count(T, cfg.dt)
    bb = BAssembly(u0.grid, cutoff=cfg.cutoff)

    state = start = GeodesicState(0.0, identity(u0.grid), u0)
    times = [0.0]
    speeds = [sobolev_norm(u0, 0.0)]
    defects = [0.0]  # det of the identity is exactly 1
    guess: VectorField | None = None
    for i in range(n_steps):
        state, guess, defect = _geodesic_step(state, bb, cfg, guess)
        state = GeodesicState((i + 1) * cfg.dt, state.phi, state.v)
        times.append(state.t)
        # the norm of a samples-only copy: a kept v caches no spectrum
        speeds.append(sobolev_norm(VectorField(u0.grid, state.v.data), 0.0))
        defects.append(defect)
    return GeodesicTrajectory((start, state), np.array(times), np.array(speeds),
                              np.array(defects))


def exp_map(u0: VectorField, t: float, cfg: GeodesicConfig | None = None) -> Diffeo:
    """Exponential map: time-t endpoint of the geodesic issued from (id, u0).

    Satisfies exp_map(t*u0, 1) = exp_map(u0, t) (geodesic rescaling);
    with step counts paired as n(1)/dt and n(t)/(dt*t) the identity even
    holds at round-off because the Runge-Kutta recursion commutes with
    the rescaling of a quadratic-homogeneous right-hand side.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0 or sobolev_norm(u0, 0.0) == 0.0:
        return identity(u0.grid)
    return geodesic_solve(u0, t, cfg=cfg).final.phi


def flow_of(u0: VectorField, T: float, cfg: StepperConfig | None = None,
            order=DEFAULT_ORDER) -> tuple[Trajectory, Diffeo]:
    """Solve from u0 to time T as ``solve`` does, bit for bit, and
    integrate the flow map d_t phi = u(t) o phi alongside; returns the
    trajectory and phi(T).  RK4 with a flow step of two solver steps, so
    stage fraction c = 0, 1/2, 1 reads solver state i, i + 1, i + 2 (no
    interpolation in time).  Each state is prefiltered once (u0 as it is,
    the stepped ones from samples-only copies), and only one flow step's
    three interpolants are held.  An odd step count is a ValueError
    before any step.
    """
    if cfg is None:
        cfg = StepperConfig()
    n_steps = _step_count(T, cfg.dt)
    if n_steps % 2 != 0:
        raise ValueError("flow_of needs an even number of solver steps")
    grid, rows = u0.grid, []
    states = _stepped(u0, n_steps, cfg, rows)
    u = [Interpolant(next(states).u, order=order)]
    g, x = np.zeros((grid.dim,) + grid.shape), grid.nodes
    for pair in zip(states, states):  # states i + 1, i + 2; i's is reused
        u = [u[-1]] + [Interpolant(VectorField(grid, st.u.data), order=order)
                       for st in pair]
        g = _rk(lambda c, y: u[int(2 * c)].at(x + y), g, 2.0 * cfg.dt)
    return _trajectory(u0, pair[-1], rows), Diffeo(VectorField(grid, g))


def eulerian_from_lagrangian(traj: GeodesicTrajectory,
                             order=DEFAULT_ORDER) -> list[EulerState]:
    """Recover u(t) = v(t) o phi(t)^{-1} at the kept states of a geodesic
    trajectory, t = 0 and T."""
    out = []
    guess: VectorField | None = None
    for st in traj.states:
        psi = invert(st.phi, order=order, guess=guess)
        guess = psi.displacement
        out.append(EulerState(st.t, compose(st.v, psi, order=order)))
    return out


def vorticity_pullback(phi: Diffeo, omega: MatrixField,
                       order=DEFAULT_ORDER) -> MatrixField:
    """Congruence transport d(phi)^T (Omega o phi) d(phi).

    Along a solved flow this is constant in time (vorticity conservation):
    pulling back Omega(t) with phi(t) recovers Omega(0).
    """
    grid = phi.grid
    om_phi = compose(omega, phi, order=order).data
    dphi = jacobian(phi.displacement).data + np.eye(grid.dim).reshape(
        (grid.dim, grid.dim) + (1,) * grid.dim
    )
    pulled = np.einsum("ji...,jk...,kl...->il...", dphi, om_phi, dphi)
    return MatrixField(grid, pulled)
