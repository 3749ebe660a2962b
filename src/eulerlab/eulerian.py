"""Time integration of the pressure-free Euler equation in Eulerian form.

The evolution is  d_t u = grad B(u) - (u . grad) u  with B from
:mod:`eulerlab.bform`; for divergence-free data this coincides with the
incompressible Euler equation and the divergence stays zero along the
flow, which the solver instruments per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bform import BAssembly
from .spectral import Grid, ScalarField, VectorField, chi_symbol

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


class BlowUpError(RuntimeError):
    """Raised when the solution leaves the smooth regime (NaN or norm blow-up)."""


@dataclass(frozen=True)
class EulerState:
    """Velocity at time t; ``u_hat`` optionally carries its half spectrum
    (``Grid.rfft``) from one step to the next."""

    t: float
    u: VectorField
    u_hat: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class StepperConfig:
    dt: float = 1e-3
    method: str = "rk4"  # "rk4" or "rk2"
    s_monitor: float = 3.0
    drift_budget: float = 1e-6
    cutoff: float = 1.0
    norm_growth_limit: float = 1e6

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.method not in ("rk4", "rk2"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class Trajectory:
    """Solver output: states at t = 0, dt, ..., T plus per-step diagnostics."""

    states: tuple[EulerState, ...]
    energies: np.ndarray
    norms: np.ndarray
    div_drifts: np.ndarray
    drift_budget_exceeded: bool

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def final(self) -> EulerState:
        return self.states[-1]

    def sample(self, t: float, tol: float = 1e-9) -> EulerState:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.states[idx].t - t) > tol:
            raise KeyError(f"no stored state at t = {t}")
        return self.states[idx]


def rhs(u: VectorField, bb: BAssembly | None = None) -> VectorField:
    """grad B(u) - (u . grad) u."""
    if bb is None:
        bb = BAssembly(u.grid)
    bb._check(u)
    return VectorField(u.grid, u.grid.irfft(bb.rhs_hat(u.grid.rfft(u.data))))


def _rk_step(u_hat: np.ndarray, dt: float, bb: BAssembly, method: str) -> np.ndarray:
    f = bb.rhs_hat
    if method == "rk2":
        return u_hat + dt * f(u_hat + 0.5 * dt * f(u_hat))
    k1 = f(u_hat)
    k2 = f(u_hat + 0.5 * dt * k1)
    k3 = f(u_hat + 0.5 * dt * k2)
    k4 = f(u_hat + dt * k3)
    return u_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: EulerState, cfg: StepperConfig,
         bb: BAssembly | None = None) -> EulerState:
    """One explicit Runge-Kutta step on the half spectrum; aborts on
    non-finite samples."""
    grid = state.u.grid
    if bb is None:
        bb = BAssembly(grid, cutoff=cfg.cutoff)
    u_hat = grid.rfft(state.u.data) if state.u_hat is None else state.u_hat
    u_next = _rk_step(u_hat, cfg.dt, bb, cfg.method)
    try:
        u = VectorField(grid, grid.irfft(u_next))
    except ValueError as exc:  # non-finite samples rejected by field ctor
        raise BlowUpError(f"non-finite state at t = {state.t + cfg.dt}") from exc
    return EulerState(state.t + cfg.dt, u, u_next)


def _monitors(grid: Grid, s: float):
    """Energy, H^s norm and H^(s-1) norm of the divergence of a velocity
    half spectrum: sums over the half lattice with Hermitian weights."""
    w = grid.weight
    w_s = w * (1.0 + grid.xi_sq) ** s
    w_div = w * (1.0 + grid.xi_sq) ** (s - 1.0)

    def measure(u_hat: np.ndarray) -> tuple[float, float, float]:
        power = np.sum(u_hat.real ** 2 + u_hat.imag ** 2, axis=0)
        div = np.sum(grid.deriv * u_hat, axis=0)
        return (float(np.sum(w * power)),
                float(np.sqrt(np.sum(w_s * power))),
                float(np.sqrt(np.sum(w_div * (div.real ** 2 + div.imag ** 2)))))

    return measure


def _step_count(T: float, dt: float) -> int:
    """round(T / dt); raises ValueError unless T is a positive multiple of dt."""
    if not T > 0:
        raise ValueError(f"final time must be positive, got {T}")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T = {T} is not a multiple of dt = {dt}")
    return n_steps


def solve(u0: VectorField, T: float, cfg: StepperConfig | None = None) -> Trajectory:
    """Integrate from u0 to time T, recording energy / H^s norm / div drift.

    The step count is round(T / dt); T must be an integer multiple of dt
    up to round-off, so stored states land exactly on the sample times.
    Stored states hold samples only; the half spectrum is carried from
    step to step.
    """
    if cfg is None:
        cfg = StepperConfig()
    n_steps = _step_count(T, cfg.dt)

    bb = BAssembly(u0.grid, cutoff=cfg.cutoff)
    measure = _monitors(u0.grid, cfg.s_monitor)
    e0, norm0, drift0 = measure(u0.grid.rfft(u0.data))
    norm0 = max(norm0, 1e-300)
    states = [EulerState(0.0, u0)]
    energies = [e0]
    norms = [norm0]
    drifts = [drift0]
    exceeded = drift0 > cfg.drift_budget * norm0

    state = states[0]
    for i in range(n_steps):
        state = step(state, cfg, bb)
        # keep stored times exact multiples of dt (no accumulation error)
        state = EulerState((i + 1) * cfg.dt, state.u, state.u_hat)
        e, nrm, drift = measure(state.u_hat)
        if not np.isfinite(nrm) or nrm > cfg.norm_growth_limit * norm0:
            raise BlowUpError(
                f"H^{cfg.s_monitor} norm grew to {nrm:.3e} at t = {state.t}"
            )
        exceeded = exceeded or drift > cfg.drift_budget * norm0
        states.append(EulerState(state.t, state.u))
        energies.append(e)
        norms.append(nrm)
        drifts.append(drift)

    return Trajectory(tuple(states), np.array(energies), np.array(norms),
                      np.array(drifts), exceeded)


def div_evolution_residual(u: VectorField, cutoff: float = 1.0) -> ScalarField:
    """Instantaneous drift of div u along the evolution:

        chi(D)(2 (u . grad) div u + (div u)^2) - (u . grad) div u.

    Identically zero on divergence-free fields, since every term carries
    a factor of div u.  Products are dealiased by the 2/3 rule.
    """
    grid = u.grid
    d_hat = np.sum(grid.deriv * grid.rfft(u.data), axis=0)
    d = grid.irfft(d_hat)
    grad_d = grid.irfft(grid.deriv * d_hat)
    keep = grid.dealias_mask
    adv = keep * grid.rfft(np.sum(u.data * grad_d, axis=0))
    sq = keep * grid.rfft(d * d)
    low = chi_symbol(cutoff).on(grid)
    return ScalarField(grid, grid.irfft(low * (2.0 * adv + sq) - adv))


def energy(u: VectorField) -> float:
    """Squared L^2 norm sum_k |u_hat_k|^2 over the full lattice (Parseval,
    grid-size normalized)."""
    hat = u.hat
    return float(np.sum(u.grid.weight * (hat.real ** 2 + hat.imag ** 2)))
