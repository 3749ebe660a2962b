"""The quadratic form B = B1 + B2 replacing the pressure.

For a velocity field v,

    B1(v) = sum_{i,k} chi(D) Laplace^{-1} d_i d_k (v_i v_k)
    B2(v) = sum_{i,k} Laplace^{-1} (1 - chi(D)) (d_i v_k d_k v_i)

so that grad B(v) = -grad p whenever v is divergence-free.  The band
split at the cutoff radius keeps each piece a bounded operation: on low
modes Laplace^{-1} d_i d_k has the bounded symbol xi_i xi_k / |xi|^2, on
high modes plain Laplace inversion is bounded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import advect, divergence, jacobian, leray_project
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    _check_same_grid,
    chi_symbol,
    sobolev_norm,
)

__all__ = ["BAssembly"]

_DIV_TOL = 1e-6


@dataclass(frozen=True)
class BAssembly:
    """Evaluator for B, its pieces and its gradient on a fixed grid.

    ``cutoff`` is the radius of the sharp low/high frequency split; the
    sum B1 + B2 is independent of it up to the band bookkeeping, so any
    positive value yields a consistent pressure.

    Everything is evaluated on half spectra (``Grid.rfft``): one inverse
    transform per factor (u and du) and one forward transform per
    product, with the 2/3-rule mask folded into the precomputed symbols.
    """

    grid: Grid
    cutoff: float = 1.0

    def __post_init__(self) -> None:
        g = self.grid
        low = chi_symbol(g, self.cutoff) > 0  # rejects a cutoff <= 0
        safe = np.where(g.xi_sq > 0, g.xi_sq, 1.0)
        keep = g.dealias_mask
        pairs = [(i, k) for i in range(g.dim) for k in range(i, g.dim)]
        # B1: chi(xi) xi_i xi_k / |xi|^2 (zero at the origin) per product
        # u_i u_k with i <= k, the off-diagonal ones counted twice
        b1_sym = np.stack([
            (1.0 if i == k else 2.0)
            * np.where(low & keep & (g.xi_sq > 0),
                       g.xi_axes[i] * g.xi_axes[k] / safe, 0.0)
            for i, k in pairs])
        # B2: -(1 - chi(xi)) / |xi|^2 on the trace sum_ik d_i u_k d_k u_i
        b2_sym = np.where(~low & keep, -1.0 / safe, 0.0)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_b1_symbol", b1_sym)
        object.__setattr__(self, "_b2_symbol", b2_sym)

    # -- half-spectrum core ----------------------------------------------

    def _b1_hat(self, u: np.ndarray) -> np.ndarray:
        prods = np.stack([u[i] * u[k] for i, k in self._pairs])
        return np.sum(self._b1_symbol * self.grid.rfft(prods), axis=0)

    def _b2_hat(self, du: np.ndarray) -> np.ndarray:
        trace = np.einsum("ik...,ki...->...", du, du)
        return self._b2_symbol * self.grid.rfft(trace)

    def rhs_hat(self, u_hat: np.ndarray) -> np.ndarray:
        """Half spectrum of grad B(u) - (u . grad) u from that of u."""
        g = self.grid
        u = g.irfft(u_hat)
        du = g.irfft(u_hat[:, None] * g.deriv)  # du[i, j] = d u_i / d x_j
        b_hat = self._b1_hat(u) + self._b2_hat(du)
        adv = g.rfft(sum(du[:, k] * u[k] for k in range(g.dim)))
        return g.deriv * b_hat - g.dealias_mask * adv

    # -- the two pieces --------------------------------------------------

    def b1(self, u: VectorField) -> ScalarField:
        """Low-pass piece; output spectrally supported on |xi| <= cutoff."""
        _check_same_grid(u, self.grid)
        return ScalarField(self.grid, self.grid.irfft(self._b1_hat(u.data)))

    def b2(self, u: VectorField) -> ScalarField:
        """High-pass piece; output spectrally supported on |xi| > cutoff."""
        _check_same_grid(u, self.grid)
        return ScalarField(self.grid, self.grid.irfft(self._b2_hat(jacobian(u).data)))

    def _b_hat(self, u: VectorField) -> np.ndarray:
        _check_same_grid(u, self.grid)
        return self._b1_hat(u.data) + self._b2_hat(jacobian(u).data)

    def b(self, u: VectorField) -> ScalarField:
        return ScalarField(self.grid, self.grid.irfft(self._b_hat(u)))

    def grad_b(self, u: VectorField) -> VectorField:
        return VectorField(self.grid,
                           self.grid.irfft(self.grid.deriv * self._b_hat(u)))

    # -- pressure bridge --------------------------------------------------

    def pressure_from(self, u: VectorField) -> ScalarField:
        """Classical pressure p = -B(u); warns unless u is divergence-free
        (||div u||_0 <= _DIV_TOL max(||u||_1, 1))."""
        drift = sobolev_norm(divergence(u), 0.0)
        scale = max(sobolev_norm(u, 1.0), 1.0)
        if drift > _DIV_TOL * scale:
            warnings.warn(
                f"pressure_from called with ||div u||_0 = {drift:.3e}; "
                "the pressure identification assumes a divergence-free field",
                stacklevel=2,
            )
        return -1.0 * self.b(u)

    def gradient_residual(self, u: VectorField) -> float:
        """|| grad B(u) - (I - P)(u . grad)u ||_0 for divergence-free u.

        grad B(u) = -grad p = (I - P)(u . grad)u on divergence-free
        fields, so this vanishes (to round-off) exactly when B
        reproduces the pressure gradient of the classical formulation.
        """
        adv = advect(u)
        return sobolev_norm(self.grad_b(u) - (adv - leray_project(adv)), 0.0)
