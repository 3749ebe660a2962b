import numpy as np
import pytest

from eulerlab import Grid


class FullLattice:
    """Full complex frequency lattice of a grid, built on np.fft.fftn and
    fftfreq: the reference for the half-lattice spectral core.

    ``fft``/``ifft`` use the same normalisation as ``Grid.rfft``/``irfft``;
    the masks and wavenumbers cover all N^dim modes.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.axes = tuple(range(-grid.dim, 0))
        kint = np.rint(np.fft.fftfreq(grid.n) * grid.n).astype(np.int64)
        xi_axes, keep, nyq = [], True, False
        for j in range(grid.dim):
            shape = [1] * grid.dim
            shape[j] = grid.n
            k = kint.reshape(shape)
            xi_axes.append((2.0 * np.pi / grid.length) * k)
            keep = keep & (np.abs(k) <= grid.n // 3)
            nyq = nyq | (np.abs(k) == grid.n // 2)
        self.xi_axes = tuple(xi_axes)
        self.xi_sq = sum(x * x for x in xi_axes)
        self.dealias_mask = keep
        self.nyquist_mask = nyq

    def fft(self, values):
        return np.fft.fftn(values, axes=self.axes) / self.grid.size

    def ifft(self, hat):
        return np.real(np.fft.ifftn(hat, axes=self.axes)) * self.grid.size

    def deriv(self, hat, axis):
        """Spectral d/dx_axis with the unpaired Nyquist modes zeroed."""
        return np.where(self.nyquist_mask, 0.0, 1j * self.xi_axes[axis] * hat)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid16():
    return Grid(dim=2, n=16, length=2.0 * np.pi)


@pytest.fixture
def grid32():
    return Grid(dim=2, n=32, length=2.0 * np.pi)


@pytest.fixture
def grid3d():
    return Grid(dim=3, n=16, length=2.0 * np.pi)
