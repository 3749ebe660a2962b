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
- Trigonometric evaluation (``order="fourier"``): sums the Fourier
  series at the query points by sum factorisation, dim * n exponentials
  per point and a contraction of the coefficients one axis at a time.
  Exact for band-limited fields up to round-off that does not grow with
  n (node phases come from roots of unity); for convergence studies.

Both are separable, so on a line of nodes moved by a constant number of
grid units either one is a Fourier multiplier of that line alone
(``_shifted_lines``); ``lagrangian.compose`` composes with a shear that
way.

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

from .spectral import _Field, _matmul, _power, _roots_of_unity

__all__ = ["ORDERS", "Interpolant"]

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


def _warn_nyquist(grid, hat: np.ndarray, data: np.ndarray) -> None:
    """Warn, for the caller of the caller, when the unpaired Nyquist modes
    of the half spectra ``hat`` carry more than _NYQUIST_WARN of the power
    of the samples ``data`` (components first): spline interpolation of
    them is not well defined.  By Parseval the full-lattice power is the
    mean square of the samples."""
    if _nyquist_power(grid, hat) > _NYQUIST_WARN * np.vdot(data, data) / grid.size:
        warnings.warn(
            "field has significant unpaired Nyquist content; "
            "spline interpolation of it is not well defined",
            stacklevel=3,
        )


def _bspline(order: int, x: np.ndarray) -> np.ndarray:
    """The centred B-spline of degree ``order`` at x, by the Cox-de Boor
    recursion on the integer knots, which combines nonnegative terms only
    (the truncated-power sum cancels to about 2e-14 at quintic order)."""
    y = x + 0.5 * (order + 1)  # the cardinal B-spline, supported on [0, order + 1]
    b = [((y >= s) & (y < s + 1)).astype(np.float64) for s in range(order + 1)]
    for q in range(1, order + 1):  # b[s] holds B_{q-1}(y - s)
        b = [((y - s) * b[s] + (q + 1 - y + s) * b[s + 1]) / q
             for s in range(order + 1 - q)]
    return b[0]


def _shifted_lines(lines: np.ndarray, t: np.ndarray, order) -> np.ndarray:
    """The periodic interpolant of each line of samples ``lines`` (samples
    along the last axis, lines along the one before it) at its nodes moved
    by t grid units, one finite t per line, written over ``lines``, which
    is returned.

    The 1-D interpolant shifted by t is a circular convolution, so this is
    the line's transform times a multiplier, at omega = 2 pi k / n, and
    transformed back.  For a spline, on the half lattice,
    S_t = exp(i omega [t]) sum_j beta(t - [t] - j) exp(i omega j) / symbol,
    |j| <= order // 2 + 1 (Unser, Aldroubi & Eden 1993), real at the
    Nyquist bin; the sum over j is two real matrix products, of the taps
    with the real and the imaginary parts of the phases, in blocks that
    each run on one BLAS thread (``spectral._matmul``), so the multipliers
    do not depend on the thread count.  For ``"fourier"``,
    S_t = exp(i omega t) on the full lattice, k = -n/2 included, and the
    complex result is the trigonometric sum itself: lines may be complex,
    and the caller takes the real part once every axis is done, as the
    sum does.  The integer part [t] is split off, so that the taps cover
    the kernel's support for any t, and the phases of integers are read
    from the n-th roots of unity.  Lines of equal t share one multiplier.

    An identically zero line shifts to zeros: it is kept as it is and
    never transformed.  The multipliers still span the distinct t of
    every line, zero ones included, so that they do not depend on which
    lines are zero: a single shift would make the product of taps and
    roots a matrix-vector product, which numpy rounds differently from
    a row of a matrix product.
    """
    n = lines.shape[-1]
    ts, which = np.unique(t, return_inverse=True)
    whole = np.floor(ts)
    frac = ts - whole
    roots = _roots_of_unity(n)
    if order == "fourier":
        k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    else:
        k = np.arange(n // 2 + 1)
    mult = roots[(whole.astype(np.int64)[:, None] * k) % n]
    live = lines.any(axis=-1)
    which = np.broadcast_to(which, live.shape)[live]
    if order == "fourier":
        mult *= np.exp(2j * np.pi / n * frac[:, None] * k)
        lines[live] = np.fft.ifft(np.fft.fft(lines[live]) * mult[which])
        return lines
    j = np.arange(-(order // 2 + 1), order // 2 + 2)
    taps = _bspline(order, frac[:, None] - j)  # (shifts, taps)
    phases = (j[:, None] * k) % n
    re, im = np.empty((2,) + mult.shape)
    _matmul(taps, roots.real[phases], re)
    _matmul(taps, roots.imag[phases], im)
    mult *= re + 1j * im
    mult /= _BSPLINE_SYMBOLS[order](2.0 * np.pi / n * k)
    hat = np.fft.rfft(lines[live])
    hat *= mult[which]
    lines[live] = np.fft.irfft(hat, n=n)
    return lines


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
            self._k = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64)
            self._xi = (2.0 * np.pi / grid.length) * self._k
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
        _warn_nyquist(grid, hat, data)
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
        n, m = self.grid.n, flat.shape[1]
        roots = _roots_of_unity(n)
        out = np.empty((self._hat.shape[0], m))
        for start in range(0, m, _FOURIER_BLOCK):
            sl = slice(start, min(start + _FOURIER_BLOCK, m))
            # x = j h + r with 0 <= r < h (exact remainder): the phase of
            # j h is that of an n-th root of unity, and r xi stays below
            # pi, so no phase grows with n
            j, r = np.divmod(flat[:, sl, None], self.grid.spacing)
            j = np.mod(j, n).astype(np.int64)
            e = roots[(j * self._k) % n]  # (dim, points, n)
            e *= np.exp(1j * r * self._xi)
            # sum factorisation: contract one axis at a time
            acc = np.einsum("c...a,pa->cp...", self._hat, e[-1])
            for e_j in e[-2::-1]:
                acc = np.einsum("cp...a,pa->cp...", acc, e_j)
            out[:, sl] = acc.real
        return out
