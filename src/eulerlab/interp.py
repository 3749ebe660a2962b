"""Periodic interpolation of grid fields at arbitrary points.

Two families:

- B-spline (order 3 or 5): ``scipy.ndimage.spline_filter`` turns samples
  into spline coefficients (the periodic recursive prefilter, mode
  ``grid-wrap``), then ``scipy.ndimage.map_coordinates`` evaluates the
  compact-support kernel per query point with the same wrapping.
  O(1) per point after the prefilter; accuracy O(h^{order+1}).
- Exact trigonometric evaluation (``order="fourier"``): sums the Fourier
  series at the query points by sum factorisation, dim * n exponentials
  per point and a contraction of the coefficients one axis at a time.
  Exact for band-limited fields; used for convergence studies.

Query points are physical coordinates on the torus; any real values are
accepted and wrapped into [0, L) by ``fmod`` plus L where negative, the
value ``%`` gives without the quotient it also computes.  An interpolant
keeps the field it was built from (``.field``), so ``lagrangian.compose``
can take one in place of the field and a caller composing one field with
many maps pays the prefilter once.
"""

from __future__ import annotations

import warnings

import numpy as np

from .spectral import Grid, _Field

__all__ = ["Interpolant", "sample"]

DEFAULT_ORDER = 3
_NYQUIST_WARN = 1e-6
_FOURIER_BLOCK = 4096  # query points per trigonometric-sum block


class Interpolant:
    """Prepared interpolant of one field; evaluate with ``.at(points)``.

    ``points`` has shape (dim, ...) in physical coordinates; the result
    has the field's component axes followed by the point shape.  Splines
    warn when unpaired Nyquist modes carry > _NYQUIST_WARN of the power,
    measured on the samples without a transform (:func:`_nyquist_power`).
    An identically zero component gets no prefilter and evaluates to 0.0.
    """

    def __init__(self, field: _Field, order: int | str = DEFAULT_ORDER):
        grid = field.grid
        if order not in (3, 5, "fourier"):
            raise ValueError(f"order must be 3, 5 or 'fourier', got {order!r}")
        self.grid = grid
        self.order = order
        self.field = field
        self._comp_shape = field.data.shape[: field.data.ndim - grid.dim]
        if order == "fourier":
            # Full lattice: off the grid points the half lattice's +N/2 sign
            # of an unpaired Nyquist mode would change the trig sum.
            hat = np.fft.fftn(field.data, axes=tuple(range(-grid.dim, 0))) / grid.size
            self._hat = hat.reshape((-1,) + grid.shape)
            self._xi = (2.0 * np.pi / grid.length) * np.fft.fftfreq(grid.n, 1.0 / grid.n)
        else:
            total, nyq = _nyquist_power(grid, field.data)
            if total > 0 and nyq > _NYQUIST_WARN * total:
                warnings.warn(
                    "field has significant unpaired Nyquist content; "
                    "spline interpolation of it is not well defined",
                    stacklevel=2,
                )
            from scipy import ndimage

            self._coeffs = [
                ndimage.spline_filter(c, order=order, mode="grid-wrap")
                if c.any() else None
                for c in field.data.reshape((-1,) + grid.shape)
            ]

    def at(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0] != self.grid.dim:
            raise ValueError(f"points must have leading axis {self.grid.dim}")
        pshape = points.shape[1:]
        flat = points.reshape(self.grid.dim, -1)
        if self.order == "fourier":
            vals = self._fourier_at(flat)
        else:
            from scipy import ndimage

            # flat % L without the quotient np.remainder also computes
            t = np.fmod(flat, self.grid.length)
            np.add(t, self.grid.length, out=t, where=t < 0)
            t /= self.grid.spacing
            vals = np.empty((len(self._coeffs), flat.shape[1]))
            for c, coeffs in enumerate(self._coeffs):
                if coeffs is None:
                    vals[c] = 0.0
                else:
                    ndimage.map_coordinates(coeffs, t, output=vals[c],
                                            order=self.order, mode="grid-wrap",
                                            prefilter=False)
        return vals.reshape(self._comp_shape + pshape)

    def _fourier_at(self, flat: np.ndarray) -> np.ndarray:
        m = flat.shape[1]
        out = np.empty((self._hat.shape[0], m))
        for start in range(0, m, _FOURIER_BLOCK):
            sl = slice(start, min(start + _FOURIER_BLOCK, m))
            # sum factorisation: contract one axis at a time with exp(i x_j xi)
            e = np.exp(1j * flat[:, sl, None] * self._xi)  # (dim, points, n)
            acc = np.einsum("c...a,pa->cp...", self._hat, e[-1])
            for e_j in e[-2::-1]:
                acc = np.einsum("cp...a,pa->cp...", acc, e_j)
            out[:, sl] = acc.real
        return out


def _nyquist_power(grid: Grid, data: np.ndarray) -> tuple[float, float]:
    """(total, nyquist) power of real samples over the last ``dim`` axes,
    summed over components: the full-lattice sum of |f_hat|^2 and its part
    on the unpaired Nyquist modes (some |k_j| = n/2), without a transform.

    The k_j = n/2 part of f along axis j is s_j mean_j(s_j f), with
    s_j = (-1)^index; the power on the union of these planes follows by
    inclusion-exclusion over the non-empty sets of pinned axes, each term
    the mean square (Parseval) of the samples reduced against s / n.
    """
    def sum_sq(m):  # einsum: a threaded BLAS dot took ~20x longer on 2 cores
        return float(np.einsum("i,i->", m.ravel(), m.ravel()))

    sign = np.resize([1.0, -1.0], grid.n) / grid.n
    lead = data.ndim - grid.dim
    nyq = 0.0
    level = [(data, -1)]  # (samples reduced over the pinned axes, last one)
    for k in range(1, grid.dim + 1):
        level = [(np.moveaxis(m, lead + j - (k - 1), -1) @ sign, j)
                 for m, last in level for j in range(last + 1, grid.dim)]
        nyq += (-1) ** (k + 1) * grid.n**k * sum(sum_sq(m) for m, _ in level)
    return sum_sq(data) / grid.size, nyq / grid.size


def sample(field: _Field, points: np.ndarray,
           order: int | str = DEFAULT_ORDER) -> np.ndarray:
    """One-shot interpolation; see :class:`Interpolant`."""
    return Interpolant(field, order=order).at(points)
