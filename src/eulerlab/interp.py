"""Periodic interpolation of grid fields at arbitrary points.

Two families:

- B-spline (order 3 or 5): one batched prefilter of every nonzero
  component.  Their half spectra (a copy of the one the field holds, else
  one ``Grid.rfft`` of the stack) give the unpaired-Nyquist power, read
  from the Nyquist lines only, against the total power, read from the
  samples by Parseval (the warning); multiplied by the reciprocal
  B-spline symbol plane the grid keeps, and transformed back into the
  interior of an array wrap-padded by ``order // 2 + 1`` on every side,
  they are the coefficients.  ``scipy.ndimage.map_coordinates`` evaluates
  the compact-support kernel per query point on the padded array, where
  every tap is in bounds, so none is wrapped per point.  O(1) per point
  after the prefilter; accuracy O(h^{order+1}).
- Exact trigonometric evaluation (``order="fourier"``): sums the Fourier
  series at the query points by sum factorisation, dim * n exponentials
  per point and a contraction of the coefficients one axis at a time.
  Exact for band-limited fields; used for convergence studies.

Query points are physical coordinates on the torus; any finite values are
accepted and wrapped into [0, L) by ``fmod`` plus L where negative, the
value ``%`` gives without the quotient it also computes.  A point with a
non-finite coordinate evaluates to NaN in every order and component,
without a warning; it never reaches the spline or the trigonometric sum.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from .spectral import _Field, _power

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


def _reciprocal_symbol(grid, order: int) -> np.ndarray:
    """1 / prod_j symbol(xi_j h) on the half lattice, read-only: the
    prefilter's one multiplier.  The grid keeps the last plane built on
    it, as it keeps the Sobolev weight, so interpolants of one order
    rebuild nothing."""
    last = grid.__dict__.get("_bspline_reciprocal")
    if last is not None and last[0] == order:
        return last[1]
    symbol = 1.0
    for xi in grid.xi_axes:
        symbol = symbol * _BSPLINE_SYMBOLS[order](xi * grid.spacing)
    plane = 1.0 / symbol
    plane.flags.writeable = False
    object.__setattr__(grid, "_bspline_reciprocal", (order, plane))
    return plane


def _nyquist_power(grid, hat: np.ndarray) -> float:
    """Hermitian-weighted power of the half spectra ``hat`` (components
    first) on the unpaired Nyquist modes, read from their lines only: the
    last axis's plane n/2 (weight 1) and, off it, the union of the other
    axes' planes n/2, by inclusion-exclusion."""
    lead, m = grid.dim - 1, grid.n // 2
    total = _power(hat[..., -1])
    w = grid.weight.reshape(-1)[:-1]
    for r in range(1, lead + 1):
        for axes in itertools.combinations(range(lead), r):
            idx = tuple(m if a in axes else slice(None) for a in range(lead))
            total += (-1) ** (r + 1) * _power(hat[(Ellipsis,) + idx + (slice(-1),)], w)
    return total


class Interpolant:
    """Prepared interpolant of one field; evaluate with ``.at(points)``.

    ``points`` has shape (dim, ...) in physical coordinates; the result
    has the field's component axes followed by the point shape.  Splines
    prefilter the nonzero components in one pass on their half spectra (a
    copy of the one the field holds, else a transform not cached on the
    field), keep the coefficients wrap-padded by ``_pad`` on every side
    of every axis, and warn when unpaired Nyquist modes carry
    > _NYQUIST_WARN of the power.  An identically zero component gets no
    transform and evaluates to 0.0.
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
            return
        comps = field.data.reshape((-1,) + grid.shape)
        nonzero = [i for i, c in enumerate(comps) if c.any()]
        self._coeffs = [None] * len(comps)
        self._pad = p = order // 2 + 1
        if not nonzero:
            return
        data = comps if len(nonzero) == len(comps) else comps[nonzero]
        if field._hat is None:
            hat = grid.rfft(data)
        else:
            hat = field._hat.reshape((-1,) + grid.xi_sq.shape)[nonzero]
        # Parseval: the full-lattice power is the mean square of the samples
        if _nyquist_power(grid, hat) > _NYQUIST_WARN * np.vdot(data, data) / grid.size:
            warnings.warn(
                "field has significant unpaired Nyquist content; "
                "spline interpolation of it is not well defined",
                stacklevel=2,
            )
        hat *= _reciprocal_symbol(grid, order)
        n = grid.n
        coeffs = np.empty((len(nonzero),) + (n + 2 * p,) * grid.dim)
        grid._irfft_consuming(hat, out=coeffs[(Ellipsis,) + (slice(p, p + n),) * grid.dim])
        for axis in range(1, grid.dim + 1):  # the pads, corners included
            lead = (slice(None),) * axis
            coeffs[lead + (slice(p),)] = coeffs[lead + (slice(n, n + p),)]
            coeffs[lead + (slice(n + p, None),)] = coeffs[lead + (slice(p, 2 * p),)]
        for i, c in zip(nonzero, coeffs):
            self._coeffs[i] = c

    def at(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        if points.shape[0] != self.grid.dim:
            raise ValueError(f"points must have leading axis {self.grid.dim}")
        pshape = points.shape[1:]
        flat = points.reshape(self.grid.dim, -1)
        finite = None
        # min and max read every coordinate without a temporary, and a NaN
        # or an infinity shows in one of them
        if flat.size and not (np.isfinite(flat.min()) and np.isfinite(flat.max())):
            finite = np.isfinite(flat).all(axis=0)
            flat = np.where(finite, flat, 0.0)
        if self.order == "fourier":
            vals = self._fourier_at(flat)
        else:
            from scipy import ndimage

            # flat % L without the quotient np.remainder also computes,
            # in grid units of the padded coefficients
            t = np.fmod(flat, self.grid.length)
            np.add(t, self.grid.length, out=t, where=t < 0)
            t /= self.grid.spacing
            t += self._pad
            vals = np.empty((len(self._coeffs), flat.shape[1]))
            for c, coeffs in enumerate(self._coeffs):
                if coeffs is None:
                    vals[c] = 0.0
                else:
                    # every tap lies in the padded array but, at t = n
                    # exactly, one of zero weight past its end, which
                    # "nearest" clamps
                    ndimage.map_coordinates(coeffs, t, output=vals[c],
                                            order=self.order, mode="nearest",
                                            prefilter=False)
        if finite is not None:
            vals[:, ~finite] = np.nan
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
