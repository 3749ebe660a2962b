"""Time integration of the pressure-free Euler equation in Eulerian form.

The evolution is  d_t u = grad B(u) - (u . grad) u  with B from
:mod:`eulerlab.bform`; for divergence-free data this coincides with the
incompressible Euler equation and the divergence stays zero along the
flow, which the solver instruments per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bform import BAssembly
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    _check_same_grid,
    _power,
    _sobolev_weight,
    chi_symbol,
)

__all__ = [
    "BlowUpError",
    "EulerState",
    "StepperConfig",
    "Trajectory",
    "rhs",
    "step",
    "solve",
    "div_evolution_residual",
    "energy",
]

_DRIFT_BUDGET = 1e-6  # H^(s-1) div drift allowed, times the initial H^s norm
_NORM_GROWTH_LIMIT = 1e6  # H^s norm over the initial one that counts as blow-up


class BlowUpError(RuntimeError):
    """Raised when the solution leaves the smooth regime (NaN or norm blow-up)."""


@dataclass(frozen=True)
class EulerState:
    """Velocity at time t; a stepped state's field keeps the half spectrum
    it was built from (``u.hat``), so the next step transforms nothing."""

    t: float
    u: VectorField


@dataclass(frozen=True)
class StepperConfig:
    dt: float = 1e-3
    s_monitor: float = 3.0
    cutoff: float = 1.0

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class Trajectory:
    """Solver output: the states at t = 0 and T and, per step at t = 0,
    dt, ..., T, the times and diagnostics."""

    states: tuple[EulerState, ...]
    times: np.ndarray
    energies: np.ndarray
    norms: np.ndarray
    div_drifts: np.ndarray

    @property
    def drift_budget_exceeded(self) -> bool:
        return bool(np.any(self.div_drifts > _DRIFT_BUDGET * self.norms[0]))

    @property
    def final(self) -> EulerState:
        return self.states[-1]


def rhs(u: VectorField, bb: BAssembly | None = None) -> VectorField:
    """grad B(u) - (u . grad) u."""
    if bb is None:
        bb = BAssembly(u.grid)
    _check_same_grid(u, bb.grid)
    return VectorField.from_hat(u.grid, bb.rhs_hat(u.hat))


def _rk(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(c, y), c = 0, 1/2, 1/2, 1 the
    stage's fraction of the step.  A stage that overflows the float range
    gives non-finite values without a warning; every integrator rejects
    those as a blow-up.

    ``f`` must return a new array and keep no reference to its input.
    The stages accumulate in place: k1 + 2 k2 + 2 k3 + k4 is summed into
    k1 in that order (doubling is exact, so k is scaled in place), and
    every stage input y + c dt k is formed in one reused buffer, so while
    a stage runs only y, the sum and that buffer are held.  The result is
    the array k1 held, bit for bit the plain expression; ``y`` is left
    untouched.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        acc = f(0.0, y)
        stage = np.multiply(acc, 0.5 * dt)
        k = f(0.5, np.add(stage, y, out=stage))
        for c, h in ((0.5, 0.5 * dt), (1.0, dt)):
            np.multiply(k, h, out=stage)
            np.add(stage, y, out=stage)
            np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
            del k  # freed before the next stage runs
            k = f(c, stage)
        np.add(acc, k, out=acc)
        np.multiply(acc, dt / 6.0, out=acc)
        return np.add(acc, y, out=acc)


def _check_assembly(bb: BAssembly, cutoff: float, *fields) -> None:
    """Reject an assembly built on another grid than ``fields`` or with
    another cutoff than the stepper's."""
    _check_same_grid(*fields, bb)
    if bb.cutoff != cutoff:
        raise ValueError(f"assembly cutoff {bb.cutoff} differs from the "
                         f"configured cutoff {cutoff}")


def step(state: EulerState, cfg: StepperConfig,
         bb: BAssembly | None = None) -> EulerState:
    """One RK4 step on the half spectrum; aborts on non-finite samples
    and rejects an assembly built on another grid or with another cutoff
    than ``cfg``'s."""
    grid = state.u.grid
    if bb is None:
        bb = BAssembly(grid, cutoff=cfg.cutoff)
    _check_assembly(bb, cfg.cutoff, state.u)
    u_next = _rk(lambda c, y: bb.rhs_hat(y), state.u.hat, cfg.dt)
    try:
        u = VectorField.from_hat(grid, u_next)
    except ValueError as exc:  # non-finite samples rejected by field ctor
        raise BlowUpError(f"non-finite state at t = {state.t + cfg.dt}") from exc
    return EulerState(state.t + cfg.dt, u)


def _monitors(grid: Grid, s: float):
    """Energy, H^s norm and H^(s-1) norm of the divergence of a velocity
    half spectrum: sums over the half lattice with Hermitian weights."""
    w = grid.weight
    w_s = _sobolev_weight(grid, s)
    w_div = _sobolev_weight(grid, s - 1.0)

    def measure(u_hat: np.ndarray) -> tuple[float, float, float]:
        # past the float range a norm reads inf, or nan where a weight
        # underflowed to 0; solve reports either as blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.sum(u_hat.real ** 2 + u_hat.imag ** 2, axis=0)
            div = np.sum(grid.deriv * u_hat, axis=0)
            return (float(np.sum(w * power)),
                    float(np.sqrt(np.sum(w_s * power))),
                    float(np.sqrt(np.sum(w_div * (div.real ** 2 + div.imag ** 2)))))

    return measure


def _step_count(T: float, dt: float, name: str = "T") -> int:
    """round(T / dt); raises ValueError unless T is a positive multiple of dt
    and the step count is finite."""
    if not (T > 0 and np.isfinite(T)):
        raise ValueError(f"final time must be positive and finite, got {T}")
    if not np.isfinite(T / dt):
        raise ValueError(f"{name} / dt = {T} / {dt} overflows the step count")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"{name} = {T} is not a multiple of dt = {dt}")
    return n_steps


def _stepped(u0: VectorField, n_steps: int, cfg: StepperConfig, rows: list):
    """Yield the state at t = 0 (``u0`` itself), then those of n_steps RK4
    steps through ``eulerian.step`` as looked up on the module, each at an
    exact multiple of dt and carrying its half spectrum.  Each state's
    (t, energy, H^s norm, div drift) goes to ``rows`` before it is
    yielded; a norm past the blow-up limit raises BlowUpError instead."""
    bb = BAssembly(u0.grid, cutoff=cfg.cutoff)
    measure = _monitors(u0.grid, cfg.s_monitor)
    e0, norm0, drift0 = measure(u0.hat)
    norm0 = max(norm0, 1e-300)
    state = EulerState(0.0, u0)
    rows.append((0.0, e0, norm0, drift0))
    yield state
    for i in range(n_steps):
        state = EulerState((i + 1) * cfg.dt, step(state, cfg, bb).u)
        e, nrm, drift = measure(state.u.hat)
        if not np.isfinite(nrm) or nrm > _NORM_GROWTH_LIMIT * norm0:
            raise BlowUpError(
                f"H^{cfg.s_monitor} norm grew to {nrm:.3e} at t = {state.t}"
            )
        rows.append((state.t, e, nrm, drift))
        yield state


def _trajectory(u0: VectorField, final: EulerState, rows: list) -> Trajectory:
    """``_stepped``'s rows as a trajectory keeping u0 and final's samples."""
    kept = EulerState(final.t, VectorField(u0.grid, final.u.data))
    return Trajectory((EulerState(0.0, u0), kept), *map(np.array, zip(*rows)))


def solve(u0: VectorField, T: float, cfg: StepperConfig | None = None) -> Trajectory:
    """Integrate from u0 to time T, recording energy / H^s norm / div drift.

    The step count is round(T / dt); T must be an integer multiple of dt
    up to round-off.  Keeps the states at t = 0 (``u0`` itself) and T, the
    latter with samples only; the times and monitors cover every step.
    """
    if cfg is None:
        cfg = StepperConfig()
    rows: list = []
    for state in _stepped(u0, _step_count(T, cfg.dt), cfg, rows):
        pass
    return _trajectory(u0, state, rows)


def div_evolution_residual(u: VectorField, cutoff: float = 1.0) -> ScalarField:
    """Instantaneous drift of div u along the evolution:

        chi(D)(2 (u . grad) div u + (div u)^2) - (u . grad) div u.

    Identically zero on divergence-free fields, since every term carries
    a factor of div u.  Products are dealiased by the 2/3 rule.
    """
    grid = u.grid
    d_hat = np.sum(grid.deriv * u.hat, axis=0)
    d = grid.irfft(d_hat)
    grad_d = grid.irfft(grid.deriv * d_hat)
    keep = grid.dealias_mask
    adv = keep * grid.rfft(np.sum(u.data * grad_d, axis=0))
    sq = keep * grid.rfft(d * d)
    low = chi_symbol(grid, cutoff)
    return ScalarField.from_hat(grid, low * (2.0 * adv + sq) - adv)


def energy(u: VectorField) -> float:
    """Squared L^2 norm sum_k |u_hat_k|^2 over the full lattice (Parseval,
    grid-size normalized)."""
    return _power(u.hat, u.grid.weight)
