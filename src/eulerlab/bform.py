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
from functools import cached_property

import numpy as np

from .fields import advect, divergence, leray_project
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

    Everything is evaluated on half spectra (``u.hat``; B methods return
    fields that keep theirs), the 2/3-rule mask folded into the symbols.
    ``rhs_hat`` and every B method share one pass in buffers the assembly
    owns, allocated on its first call: d + d^2 complex planes and one real
    stack of d + d^2 + 1 planes (7 in 2D, 13 in 3D).  One inverse transform
    fills the stack with the samples of (u, du); the trace, advection and
    products are written over the planes they have consumed, and one
    forward transform takes all of them; the B methods skip the advection.
    Those buffers make an assembly unsafe to share between threads, for
    any of its methods.
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
        object.__setattr__(self, "_low", low)
        object.__setattr__(self, "_b1_symbol", b1_sym)
        object.__setattr__(self, "_b2_symbol", b2_sym)

    # -- half-spectrum core ----------------------------------------------

    @cached_property
    def _workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """``_spectra``'s buffers: d + d^2 complex planes for the spectra of
        (u, du) and later of the products, trace and advection, and d + d^2
        + 1 real planes: the samples of u, of du as rows du[k] = d_k u, and
        one spare plane."""
        g = self.grid
        factors = g.dim + g.dim * g.dim
        return (np.empty((factors,) + g.xi_sq.shape, dtype=np.complex128),
                np.empty((factors + 1,) + g.shape))

    def _spectra(self, u_hat: np.ndarray, advection: bool = True):
        """Half spectra of B(u) and, unless ``advection`` is false (then
        None), of the advection (u . grad) u from that of u, the latter not
        yet dealiased: views of the workspace, valid until the next call;
        ``u_hat`` is left untouched.

        The real stack ends in [m products, d advection planes, trace]
        (without the advection for B alone), so one forward transform takes
        that slice, and its spectra hold the products first and the trace
        last."""
        g, d, m = self.grid, self.grid.dim, len(self._pairs)
        spec, stack = self._workspace
        np.copyto(spec[:d], u_hat)
        # du_hat[k, i] = i xi_k * u_hat_i
        np.multiply(g.deriv[:, None], u_hat,
                    out=spec[d:].reshape((d, d) + g.xi_sq.shape))
        g._irfft_consuming(spec, out=stack[:-1])
        u, du = stack[:d], stack[d:-1].reshape((d, d) + g.shape)
        # the trace sum_ik d_i u_k d_k u_i into the spare last plane
        np.einsum("ik...,ki...->...", du, du, out=stack[-1])
        n = m + 1
        if advection:
            # (u . grad) u_i = sum_k u_k d_k u_i, summed left to right into
            # the last row from +0.0 as np.sum would; rows 0..d-2 are free
            n += d
            np.multiply(du, u[:, None], out=du)
            np.add(du[0], 0.0, out=du[0])
            for k in range(1, d):
                np.add(du[k - 1], du[k], out=du[k])
        lo = len(stack) - n
        # the products u_i u_k (i <= k) into the m planes before the
        # advection row (or the trace), last pair first: in 2D with the
        # advection the first of those planes is u[1], which only the later
        # pairs read
        for p in reversed(range(m)):
            i, k = self._pairs[p]
            np.multiply(u[i], u[k], out=stack[lo + p])
        spec = g.rfft(stack[lo:], out=spec[:n])
        # contraction with the B1 and B2 symbols, summed into spec[0]
        np.multiply(self._b1_symbol, spec[:m], out=spec[:m])
        np.multiply(self._b2_symbol, spec[-1], out=spec[-1])
        for p in range(1, m):
            np.add(spec[0], spec[p], out=spec[0])
        np.add(spec[0], spec[-1], out=spec[0])
        return spec[0], (spec[m:m + d] if advection else None)

    def rhs_hat(self, u_hat: np.ndarray) -> np.ndarray:
        """Half spectrum of grad B(u) - (u . grad) u from that of u; a new
        array, ``u_hat`` is left untouched."""
        b_hat, adv_hat = self._spectra(u_hat)
        out = self.grid.deriv * b_hat
        np.multiply(self.grid.dealias_mask, adv_hat, out=adv_hat)
        return np.subtract(out, adv_hat, out=out)

    # -- B, its two pieces and its gradient ---------------------------------

    def _b_hat(self, u: VectorField) -> np.ndarray:
        """Half spectrum of B(u): a workspace view, valid until the next
        B call."""
        _check_same_grid(u, self.grid)
        return self._spectra(u.hat, advection=False)[0]

    # B1 and B2 have symbols on disjoint modes, so each is B on its band

    def b1(self, u: VectorField) -> ScalarField:
        """Low-pass piece; output spectrally supported on |xi| <= cutoff.
        Costs a full evaluation of B."""
        return ScalarField.from_hat(self.grid,
                                    np.where(self._low, self._b_hat(u), 0.0))

    def b2(self, u: VectorField) -> ScalarField:
        """High-pass piece; output spectrally supported on |xi| > cutoff.
        Costs a full evaluation of B."""
        return ScalarField.from_hat(self.grid,
                                    np.where(self._low, 0.0, self._b_hat(u)))

    def b(self, u: VectorField) -> ScalarField:
        return ScalarField.from_hat(self.grid, self._b_hat(u).copy())

    def grad_b(self, u: VectorField) -> VectorField:
        return VectorField.from_hat(self.grid, self.grid.deriv * self._b_hat(u))

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
