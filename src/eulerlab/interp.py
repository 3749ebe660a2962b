"""Periodic interpolation of grid fields at arbitrary points.

Two families:

- B-spline (order 3 or 5): a copy of the half spectrum the field holds,
  else one ``Grid.rfft`` per component, gives its unpaired-Nyquist power
  share (the warning) and, divided by the B-spline symbols, its
  coefficients; ``scipy.ndimage.map_coordinates`` evaluates
  the compact-support kernel per query point, ``grid-wrap`` wrapped.
  O(1) per point after the prefilter; accuracy O(h^{order+1}).
- Exact trigonometric evaluation (``order="fourier"``): sums the Fourier
  series at the query points by sum factorisation, dim * n exponentials
  per point and a contraction of the coefficients one axis at a time.
  Exact for band-limited fields; used for convergence studies.

Query points are physical coordinates on the torus; any real values are
accepted and wrapped into [0, L) by ``fmod`` plus L where negative, the
value ``%`` gives without the quotient it also computes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .spectral import _Field

__all__ = ["ORDERS", "Interpolant", "sample"]

# Transforms, per axis at theta = xi h, of the centred B-splines sampled on
# the integers: the prefilter divides by them (Unser, Aldroubi & Eden 1993).
_BSPLINE_SYMBOLS = {
    3: lambda theta: (2.0 + np.cos(theta)) / 3.0,
    5: lambda theta: (33.0 + 26.0 * np.cos(theta) + np.cos(2.0 * theta)) / 60.0,
}
ORDERS = (*_BSPLINE_SYMBOLS, "fourier")
DEFAULT_ORDER = 3
_NYQUIST_WARN = 1e-6
_FOURIER_BLOCK = 4096  # query points per trigonometric-sum block


def _check_order(order) -> None:
    """ValueError unless order is one of ORDERS as an integer or a string:
    3.0 == 3, but the spline evaluation takes only an integer order."""
    if order not in ORDERS or not isinstance(order, (int, np.integer, str)):
        raise ValueError(f"order must be 3, 5 or 'fourier', got {order!r}")


class Interpolant:
    """Prepared interpolant of one field; evaluate with ``.at(points)``.

    ``points`` has shape (dim, ...) in physical coordinates; the result
    has the field's component axes followed by the point shape.  Splines
    prefilter on each component's half spectrum (a copy of the one the
    field holds, else a transform not cached on the field) and warn when
    unpaired Nyquist modes carry > _NYQUIST_WARN of its power.
    An identically zero component gets no transform and evaluates to 0.0.
    """

    def __init__(self, field: _Field, order: int | str = DEFAULT_ORDER):
        grid = field.grid
        _check_order(order)
        self.grid = grid
        self.order = order
        self._comp_shape = field.data.shape[: field.data.ndim - grid.dim]
        if order == "fourier":
            # Full lattice: off the grid points the half lattice's +N/2 sign
            # of an unpaired Nyquist mode would change the trig sum.
            hat = np.fft.fftn(field.data, axes=tuple(range(-grid.dim, 0))) / grid.size
            self._hat = hat.reshape((-1,) + grid.shape)
            self._xi = (2.0 * np.pi / grid.length) * np.fft.fftfreq(grid.n, 1.0 / grid.n)
        else:
            self._coeffs = []
            total = nyq = 0.0
            held = field._hat
            for i, c in enumerate(field.data.reshape((-1,) + grid.shape)):
                if not c.any():
                    self._coeffs.append(None)
                    continue
                hat = (grid.rfft(c) if held is None else
                       held.reshape((-1,) + grid.xi_sq.shape)[i].copy())
                power = grid.weight * (hat.real ** 2 + hat.imag ** 2)
                total += power.sum()
                nyq += power.sum(where=grid.nyquist_mask)
                for xi in grid.xi_axes:
                    hat /= _BSPLINE_SYMBOLS[order](xi * grid.spacing)
                self._coeffs.append(grid._irfft_consuming(hat))
            if nyq > _NYQUIST_WARN * total:
                warnings.warn(
                    "field has significant unpaired Nyquist content; "
                    "spline interpolation of it is not well defined",
                    stacklevel=2,
                )

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


def sample(field: _Field, points: np.ndarray,
           order: int | str = DEFAULT_ORDER) -> np.ndarray:
    """One-shot interpolation; see :class:`Interpolant`."""
    return Interpolant(field, order=order).at(points)
