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

# OpenBLAS runs a real matrix product of at most 2^18 multiply-adds on one
# thread (its SMP threshold 65536 times GEMM_MULTITHREAD_THRESHOLD 4); a
# threaded call on a loaded host can take 100 times as long.  Complex
# products thread from 2^16 on, so the contractions below use real ones.
_ONE_THREAD = 2**18


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``np.matmul(a, b, out=out)`` for a 2-D real ``a``, in blocks of the
    columns of ``b`` small enough that each product runs on one thread."""
    step = max(1, _ONE_THREAD // a.size)
    for s in range(0, b.shape[-1], step):
        np.matmul(a, b[..., s:s + step], out=out[..., s:s + step])


def _roots_of_unity(n: int) -> np.ndarray:
    """exp(2 pi i j / n) for j = 0..n-1, n a power of two >= 8, each taken
    from a cosine or sine of a first-octant angle by the exact symmetries
    of the circle: off by about 1e-16, where ``exp(2j * pi * j / n)``
    carries the rounding of pi times the phase, up to 6.5e-16."""
    o = n // 8
    t = 2.0 * np.pi * np.arange(o + 1) / n
    c, s = np.cos(t), np.sin(t)
    # the first quadrant by cos(pi/2 - t) = sin t, the others by rotation
    z = (np.concatenate([c, s[o - 1:0:-1]])
         + 1j * np.concatenate([s, c[o - 1:0:-1]]))
    return np.concatenate([z, 1j * z, -z, -1j * z])


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
    products are written over the planes they have consumed.  One forward
    transform takes the advection and the trace (the B methods skip the
    advection), 3 planes in 2D and 4 in 3D, or 1 for B.  B1's symbol is
    zero off the band |xi| <= cutoff, so the products' spectra are needed
    on its bounding box |k_j| <= K of integer modes only, where K follows
    from the cutoff and the box length (K = 1 at cutoff 1 on a 2 pi box).
    There the products are contracted with the box's DFT rows (small
    real matrix products) instead of being transformed.  That costs
    about n^d 2(K+1) multiply-adds per product, against a transform's
    n^d log n.  At 2D n = 128, ``rhs_hat`` takes 0.84 times as long as
    with the products transformed at K = 1, 1.04 times at K = 30 and 1.26
    times with the whole 2/3 box (K = n/3): it breaks even near K = 25
    (a 2-core x86-64 host, one thread).
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
        # B1's band and the box |k_j| <= K of integer modes around it
        # (K = 0 for an empty band); index arrays of the box on the half
        # lattice, its modes 0..K, -K..-1 along every axis but the last
        band = low & keep & (g.xi_sq > 0)
        kmax = int(max(np.minimum(i, g.n - i).max(initial=0)
                       for i in np.nonzero(band)))
        modes = np.r_[0:kmax + 1, -kmax:0]
        box = np.ix_(*[modes % g.n] * (g.dim - 1), np.arange(kmax + 1))
        # B1: chi(xi) xi_i xi_k / |xi|^2 (zero at the origin) per product
        # u_i u_k with i <= k, the off-diagonal ones counted twice; zero
        # off the box, so kept on it only
        xi = [x.ravel()[b] for x, b in zip(g.xi_axes, box)]
        b1_sym = np.stack([
            (1.0 if i == k else 2.0)
            * np.where(band[box], xi[i] * xi[k] / safe[box], 0.0)
            for i, k in pairs])
        # B2: -(1 - chi(xi)) / |xi|^2 on the trace sum_ik d_i u_k d_k u_i
        b2_sym = np.where(~low & keep, -1.0 / safe, 0.0)
        # the box's DFT rows, 1/n included (exact: n is a power of two),
        # from a table of the roots of unity, phases k x reduced mod n
        roots = np.conj(_roots_of_unity(g.n)) / g.n
        x = np.arange(g.n)
        # last axis: [cos | -sin] interleaved per mode 0..K, (n, 2(K+1)),
        # so that a real product's rows view as the complex coefficients
        last = roots[np.outer(x, np.arange(kmax + 1)) % g.n].view(np.float64)
        # other axes: real and imaginary parts of the rows of modes
        # 0..K, -K..-1 stacked, (2(2K+1), n)
        rows = roots[np.outer(modes, x) % g.n]
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_low", low)
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_b1_symbol", b1_sym)
        object.__setattr__(self, "_b2_symbol", b2_sym)
        object.__setattr__(self, "_dft_last", last)
        object.__setattr__(self, "_dft_rows",
                           np.concatenate([rows.real, rows.imag]))

    # -- half-spectrum core ----------------------------------------------

    @cached_property
    def _workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """``_spectra``'s buffers: d + d^2 complex planes for the spectra of
        (u, du) and later of the advection and trace, and d + d^2
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
        (without the advection for B alone).  The products go to
        ``_box_spectra``, their spectra on B1's box; one forward transform
        takes the slice after them, its spectra the advection first and
        the trace last.  The B2 symbol times the trace's spectrum is B off
        the box, and the B1 sum of the box spectra is added on it."""
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
        n = 1
        if advection:
            # (u . grad) u_i = sum_k u_k d_k u_i, summed left to right into
            # the last row from +0.0 as np.sum would; rows 0..d-2 are free
            n += d
            np.multiply(du, u[:, None], out=du)
            np.add(du[0], 0.0, out=du[0])
            for k in range(1, d):
                np.add(du[k - 1], du[k], out=du[k])
        lo = len(stack) - n - m
        # the products u_i u_k (i <= k) into the m planes before the
        # advection row (or the trace), last pair first: in 2D with the
        # advection the first of those planes is u[1], which only the later
        # pairs read
        for p in reversed(range(m)):
            i, k = self._pairs[p]
            np.multiply(u[i], u[k], out=stack[lo + p])
        box = self._box_spectra(stack[lo:lo + m])
        spec = g.rfft(stack[lo + m:], out=spec[:n])
        # B2 on the trace, and B1, zero off the box, added on it
        b_hat = np.multiply(self._b2_symbol, spec[-1], out=spec[-1])
        b_hat[self._box] += np.sum(self._b1_symbol * box, axis=0)
        return b_hat, (spec[:d] if advection else None)

    def _box_spectra(self, planes: np.ndarray) -> np.ndarray:
        """Half spectra of the real ``planes`` on B1's box, shape
        ``(len(planes),) + box shape``: the DFT of each plane contracted
        with the box's rows, first along the last axis by one real product
        with ``_dft_last``, whose rows view as complex coefficients, then
        along each other axis, leading first, by one with ``_dft_rows``."""
        g, last, rows = self.grid, self._dft_last, self._dft_rows
        part = np.empty((len(planes), g.size // g.n, last.shape[1]))
        _matmul(last.T, planes.reshape(-1, g.n).T,
                part.reshape(-1, last.shape[1]).T)
        box, b = part.view(np.complex128), len(rows) // 2
        for j in range(g.dim - 1):
            x = box.reshape(len(planes) * b**j, g.n, -1).view(np.float64)
            y = np.empty(x.shape[:1] + rows.shape[:1] + x.shape[2:])
            _matmul(rows, x, y)
            y = y.view(np.complex128)
            box = y[:, :b] + 1j * y[:, b:]
        return box.reshape((len(planes),) + self._b1_symbol.shape[1:])

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
        """Low-pass piece; output spectrally supported on |xi| <= cutoff,
        where the products' spectra come from the box contraction.  Costs
        a full evaluation of B."""
        return ScalarField.from_hat(self.grid,
                                    np.where(self._low, self._b_hat(u), 0.0))

    def b2(self, u: VectorField) -> ScalarField:
        """High-pass piece; output spectrally supported on |xi| > cutoff,
        the B2 symbol times the transformed trace.  Costs a full
        evaluation of B."""
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
