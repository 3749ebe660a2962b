import tracemalloc

import numpy as np
import pytest

from eulerlab import Grid
from eulerlab.interp import Interpolant


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

    def dealiased(self, values):
        """2/3-rule truncation by an fft -> mask -> ifft round trip."""
        return self.ifft(np.where(self.dealias_mask, self.fft(values), 0.0))

    def jacobian(self, v):
        """Samples of d_j v_i, as nested lists indexed [i][j]."""
        v_hat = self.fft(v)
        return [[self.ifft(self.deriv(v_hat[i], j)) for j in range(self.grid.dim)]
                for i in range(self.grid.dim)]

    def grad_b(self, u, cutoff):
        """Samples of grad B(u) for the samples u, one product at a time:
        every product dealiased by a round trip, B2 from its own Jacobian."""
        dim, fft, ifft = self.grid.dim, self.fft, self.ifft
        r2 = cutoff * cutoff * (1.0 + 1e-12)
        low = self.xi_sq <= r2
        safe = np.where(self.xi_sq > 0, self.xi_sq, 1.0)
        b_hat = np.zeros(self.grid.shape, dtype=complex)
        for i in range(dim):
            for k in range(dim):
                sym = np.where(low & (self.xi_sq > 0),
                               self.xi_axes[i] * self.xi_axes[k] / safe, 0.0)
                b_hat += sym * fft(self.dealiased(u[i] * u[k]))
        du = self.jacobian(u)
        trace = self.dealiased(sum(du[i][k] * du[k][i]
                                   for i in range(dim) for k in range(dim)))
        b_hat += np.where(low, 0.0, -1.0 / safe) * fft(trace)
        b = ifft(b_hat)
        return np.stack([ifft(self.deriv(fft(b), j)) for j in range(dim)])


def compose_all_nodes(f, phi, order):
    """Reference right translation f o phi: ``Interpolant`` evaluates f at
    phi(x) on every node."""
    return Interpolant(f, order=order).at(phi.positions())


class TracedPeak:
    """``with TracedPeak() as traced:`` traces the block's allocations with
    tracemalloc; ``traced.peak`` is then their peak in bytes."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.fixture
def planes(monkeypatch):
    """Transform planes made while the test runs, counted by patching
    ``Grid``: forward ones through ``rfft``, inverse ones through
    ``_irfft_consuming``, which every inverse transform runs through."""
    count = {"rfft": 0, "irfft": 0}

    def counted(name, attr, plane):
        orig = getattr(Grid, attr)

        def wrapper(self, arr, *args, **kwargs):
            count[name] += np.size(arr) // plane(self)
            return orig(self, arr, *args, **kwargs)
        monkeypatch.setattr(Grid, attr, wrapper)

    counted("rfft", "rfft", lambda g: g.size)
    counted("irfft", "_irfft_consuming", lambda g: g.xi_sq.size)
    return count


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
