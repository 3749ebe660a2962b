"""Periodic grid, Fourier transforms, the low-pass chi(D) and Sobolev norms.

Coefficient convention: for a field f sampled on the uniform grid of
[0, L)^dim, the spectral coefficient attached to the wavenumber
xi = 2*pi*k/L is

    f_hat[k] = (1/N^dim) * sum_j f(x_j) exp(-i xi . x_j)

so that a single cosine mode carries coefficients of magnitude 1/2
independent of the grid.  All Sobolev norms below use this convention.

Fields are real, so f_hat[-k] = conj(f_hat[k]) and the half lattice
0 <= k_last <= N/2 of ``Grid.rfft`` holds every coefficient; all
spectra and masks here live on it, as does the one Fourier multiplier
besides derivatives and the 2/3 mask: the ``chi_symbol`` indicator of
|xi| <= radius behind the sharp low-pass chi(D).  A sum over the full lattice
is the sum over the half lattice weighted by ``Grid.weight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_BOX_LENGTH",
    "Grid",
    "GridMismatchError",
    "ScalarField",
    "VectorField",
    "MatrixField",
    "chi_symbol",
    "chi_cutoff",
    "partial_derivative",
    "dealias",
    "sobolev_norm",
    "sobolev_inner",
    "random_scalar",
]

# Large default box so compactly supported test data sits far from its
# periodic images.
DEFAULT_BOX_LENGTH = 16.0 * np.pi

# Largest grid, in points: one real sample plane of 512 MiB (2D n <= 8192,
# 3D n <= 256).  A solve holds a few dozen planes, so a larger grid would
# not fit in memory; it is refused before anything is allocated.
_MAX_POINTS = 2**26


class GridMismatchError(ValueError):
    """Raised when an operation mixes fields living on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim together with its half frequency
    lattice.

    Parameters
    ----------
    dim : 2 or 3.
    n : points per axis; a power of two >= 8.
    length : physical period L of the box.
    """

    dim: int = 2
    n: int = 64
    length: float = DEFAULT_BOX_LENGTH

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if int(self.n) ** self.dim > _MAX_POINTS:
            raise ValueError(f"a grid of {self.n}^{self.dim} points exceeds the "
                             f"budget of {_MAX_POINTS} points")
        if not (self.length > 0 and np.isfinite(self.length)):
            raise ValueError(f"length must be positive, got {self.length}")
        # the largest |xi|^2, dim (pi n / L)^2, must stay a finite float;
        # half the largest one leaves room for rounding
        if self.length < np.pi * self.n * np.sqrt(2.0 * self.dim
                                                  / np.finfo(float).max):
            raise ValueError(f"length {self.length} is too small: the "
                             f"wavenumbers of {self.n} points overflow")
        # the smallest nonzero |xi|^2, (2 pi / L)^2, must stay a normal
        # float, or every derivative vanishes
        if (2.0 * np.pi / self.length) ** 2 < np.finfo(float).tiny:
            raise ValueError(f"length {self.length} is too large: the "
                             f"wavenumbers of {self.n} points underflow")

        # Half lattice: every axis but the last carries the modes
        # -n/2..n/2-1 (fftfreq order), the last one 0..n/2.  The dropped
        # modes are the complex conjugates of kept ones, so a sum of
        # |f_hat|^2 over the full lattice is the sum over the half lattice
        # weighted by ``weight`` (1 on the self-conjugate planes 0 and n/2
        # of the last axis, 2 elsewhere).
        h = self.n // 2 + 1
        kint = np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)
        kmax = self.n // 3  # 2/3-rule retention limit (integer modes)
        xi_axes, keep, nyq = [], True, False
        for j in range(self.dim):
            k = kint if j < self.dim - 1 else np.arange(h)
            shape = [1] * self.dim
            shape[j] = k.size
            k = k.reshape(shape)
            xi_axes.append((2.0 * np.pi / self.length) * k)
            keep = keep & (np.abs(k) <= kmax)
            nyq = nyq | (np.abs(k) == self.n // 2)
        weight = np.full((1,) * (self.dim - 1) + (h,), 2.0)
        weight[..., [0, -1]] = 1.0

        object.__setattr__(self, "xi_axes", tuple(xi_axes))
        object.__setattr__(self, "xi_sq", sum(x * x for x in xi_axes))
        object.__setattr__(self, "dealias_mask", keep)
        object.__setattr__(self, "nyquist_mask", nyq)
        object.__setattr__(self, "weight", weight)

    @cached_property
    def deriv(self) -> np.ndarray:
        """Symbols i xi_j of d/dx_j, shape (dim,) + half-lattice shape;
        zero on the unpaired Nyquist modes."""
        deriv = np.zeros((self.dim,) + self.xi_sq.shape, dtype=np.complex128)
        for j, x in enumerate(self.xi_axes):
            deriv[j].imag = x
        deriv[:, self.nyquist_mask] = 0.0
        return deriv

    # -- geometry ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def coords(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays, one per axis, each of shape ``self.shape``:
        read-only broadcast views of the 1-D axis ``arange(n) * spacing``,
        equal to ``np.meshgrid(..., indexing="ij")`` without its copies."""
        x = np.arange(self.n) * self.spacing
        return tuple(
            np.broadcast_to(x.reshape((-1,) + (1,) * (self.dim - 1 - j)), self.shape)
            for j in range(self.dim)
        )

    # -- transforms ----------------------------------------------------

    def rfft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of real samples over the last ``dim`` axes,
        written into ``out`` (complex, half-lattice shape) when given.

        ``norm="forward"`` puts the 1/n^dim of the coefficient convention
        into the transform: it scales each axis by 1/n, a power of two, so
        the result equals the unnormalised transform divided by n^dim
        exactly, and no complex division pass is needed.
        """
        return np.fft.rfftn(values, axes=tuple(range(-self.dim, 0)),
                            norm="forward", out=out)

    def irfft(self, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real samples of a half spectrum (inverse of ``rfft``), written
        into ``out`` (real, grid shape) when given; ``hat`` is left
        untouched.

        ``norm="forward"`` leaves the inverse unscaled; scaling each axis
        by 1/n and the result by n^dim, powers of two, would give the same
        numbers exactly.
        """
        return self._irfft_consuming(np.array(hat, dtype=np.complex128), out)

    def _irfft_consuming(self, hat: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
        """``irfft`` that uses the complex array ``hat`` as scratch and
        leaves it overwritten: the complex transforms along every axis but
        the last run in place on it, in the axis order of ``irfftn``, so no
        complex temporary is allocated."""
        for axis in range(-self.dim, -1):
            np.fft.ifft(hat, axis=axis, norm="forward", out=hat)
        return np.fft.irfft(hat, n=self.n, axis=-1, norm="forward", out=out)


def _check_same_grid(*objs) -> Grid:
    grid = objs[0].grid if hasattr(objs[0], "grid") else objs[0]
    for o in objs[1:]:
        g = o.grid if hasattr(o, "grid") else o
        if g is not grid and g != grid:
            raise GridMismatchError("fields live on different grids")
    return grid


class _Field:
    """Samples of a (possibly tensor-valued) field and its read-only half
    spectrum: the one ``from_hat`` built it from, else computed on first use.

    ``+``, ``-``, scalar ``*`` and unary ``-`` give a field that holds the
    same linear combination of the operands' held spectra when every
    operand holds one, and none otherwise: they never transform."""

    _comp_axes: int = 0

    def __init__(self, grid: Grid, data: np.ndarray, hat: np.ndarray | None = None):
        data = np.asarray(data, dtype=np.float64)
        expected = (grid.dim,) * self._comp_axes + grid.shape
        if data.shape != expected:
            raise ValueError(f"{type(self).__name__} data shape {data.shape} != {expected}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{type(self).__name__} contains non-finite samples")
        self.grid = grid
        self.data = data
        self.data.flags.writeable = False
        self._hat = hat

    @property
    def hat(self) -> np.ndarray:
        if self._hat is None:
            self._hat = self.grid.rfft(self.data)
            self._hat.flags.writeable = False
        return self._hat

    @classmethod
    def from_hat(cls, grid: Grid, hat: np.ndarray):
        hat = np.asarray(hat, dtype=np.complex128).view()  # the caller's array stays writable
        expected = (grid.dim,) * cls._comp_axes + grid.xi_sq.shape
        if hat.shape != expected:
            raise ValueError(f"{cls.__name__} spectrum shape {hat.shape} != {expected}")
        hat.flags.writeable = False
        return cls(grid, grid.irfft(hat), hat=hat)

    # basic vector-space arithmetic (kept minimal; heavy lifting is in ops)
    def _combined(self, data: np.ndarray, operands, op):
        """A field of this kind with samples ``data`` and, when every
        operand holds a spectrum, ``op`` of those spectra (read-only);
        the samples are checked first."""
        out = type(self)(self.grid, data)
        hats = [f._hat for f in operands]
        if all(h is not None for h in hats):
            out._hat = op(*hats)
            out._hat.flags.writeable = False
        return out

    def _check_operand(self, other, verb: str) -> None:
        _check_same_grid(self, other)
        if type(other) is not type(self):
            raise TypeError(f"can only {verb} fields of the same kind")

    def __add__(self, other):
        self._check_operand(other, "add")
        return self._combined(self.data + other.data, (self, other), np.add)

    def __sub__(self, other):
        self._check_operand(other, "subtract")
        return self._combined(self.data - other.data, (self, other), np.subtract)

    def __mul__(self, c: float):
        c = float(c)
        return self._combined(self.data * c, (self,), lambda h: h * c)

    __rmul__ = __mul__

    def __neg__(self):
        return self._combined(-self.data, (self,), np.negative)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.grid.n}, dim={self.grid.dim})"


class ScalarField(_Field):
    _comp_axes = 0

    @classmethod
    def zero(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))


class VectorField(_Field):
    _comp_axes = 1

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    @classmethod
    def from_components(cls, comps) -> "VectorField":
        grid = _check_same_grid(*comps)
        return cls(grid, np.stack([c.data for c in comps]))


class MatrixField(_Field):
    _comp_axes = 2

    def skew_defect(self) -> float:
        """sup-norm of Omega + Omega^T (zero for a vorticity field)."""
        return float(np.max(np.abs(self.data + np.swapaxes(self.data, 0, 1))))


# ---------------------------------------------------------------------------
# spectral operators
# ---------------------------------------------------------------------------


def chi_symbol(grid: Grid, radius: float = 1.0) -> np.ndarray:
    """Sharp low-pass symbol on the half lattice: 1.0 on the closed ball
    |xi| <= radius, 0.0 outside."""
    if not radius > 0:
        raise ValueError(f"cutoff radius must be positive, got {radius}")
    r2 = radius * radius * (1.0 + 1e-12)
    return (grid.xi_sq <= r2).astype(np.float64)


def chi_cutoff(f: _Field, radius: float = 1.0):
    """The low-pass chi(D): keep the modes with |xi| <= radius."""
    return type(f).from_hat(f.grid, f.hat * chi_symbol(f.grid, radius))


def partial_derivative(f: _Field, axis: int):
    """Spectral d/dx_axis; the unpaired Nyquist mode is zeroed."""
    grid = f.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis must be in [0, {grid.dim}), got {axis}")
    return type(f).from_hat(grid, f.hat * grid.deriv[axis])


def dealias(f: _Field):
    """2/3-rule truncation of a field.  The package's products do not call
    it: ``bform`` folds ``dealias_mask`` into its symbols, ``fields.advect``
    and ``div_evolution_residual`` multiply by it."""
    return type(f).from_hat(f.grid, np.where(f.grid.dealias_mask, f.hat, 0.0))


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------


def _sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """(1+|xi|^2)^s times the Hermitian weight of each half-lattice mode,
    read-only; ValueError when a weight is not a finite float.  The grid
    keeps the last weight built on it, as it keeps ``deriv``, so repeated
    norms of one order rebuild nothing."""
    if not np.isfinite(s):
        raise ValueError("s must be finite")
    last = grid.__dict__.get("_sobolev_weight")
    if last is not None and last[0] == s:
        return last[1]
    with np.errstate(over="ignore"):
        w = grid.weight * (1.0 + grid.xi_sq) ** s
    if not np.all(np.isfinite(w)):
        raise ValueError(f"H^{s} weights overflow on {grid.n} points of a box "
                         f"of length {grid.length}")
    w.flags.writeable = False
    object.__setattr__(grid, "_sobolev_weight", (s, w))
    return w


def sobolev_norm(f: _Field, s: float) -> float:
    """H^s norm ( sum_k (1+|xi_k|^2)^s |f_hat_k|^2 )^(1/2), k over the
    full lattice.

    Vector and matrix fields sum the squared norms of their components.
    """
    hat = f.hat
    w = _sobolev_weight(f.grid, s)
    return float(np.sqrt(np.sum(w * (hat.real ** 2 + hat.imag ** 2))))


def sobolev_inner(f: _Field, g: _Field, s: float = 0.0) -> float:
    _check_same_grid(f, g)
    if type(f) is not type(g):
        raise TypeError("inner product requires fields of the same kind")
    w = _sobolev_weight(f.grid, s)
    return float(np.sum(w * (f.hat * np.conj(g.hat)).real))


# ---------------------------------------------------------------------------
# random test fields
# ---------------------------------------------------------------------------


def random_scalar(grid: Grid, rng: np.random.Generator, max_xi: float | None = None,
                  decay: float = 2.0, norm_s: float | None = None,
                  norm_value: float = 1.0) -> ScalarField:
    """Random smooth band-limited real field (mean-free).

    Spectrum: white noise shaped by (1+|xi|^2)^(-decay), truncated to
    |xi| <= max_xi (default: 80% of the dealiasing limit).
    """
    if max_xi is None:
        max_xi = 0.8 * (grid.n // 3) * (2.0 * np.pi / grid.length)
    w = rng.standard_normal(grid.shape)
    hat = grid.rfft(w) * (1.0 + grid.xi_sq) ** (-decay / 2.0)
    hat = np.where(grid.xi_sq <= max_xi**2, hat, 0.0)
    hat.flat[0] = 0.0
    f = ScalarField.from_hat(grid, hat)
    if norm_s is not None:
        nrm = sobolev_norm(f, norm_s)
        if nrm == 0:
            raise ValueError("degenerate random field")
        f = f * (norm_value / nrm)
    return f
