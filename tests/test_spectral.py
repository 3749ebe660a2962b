"""Grid, field containers, the low-pass chi(D), Sobolev norms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import (
    Grid,
    GridMismatchError,
    ScalarField,
    VectorField,
    bump,
    chi_cutoff,
    chi_symbol,
    partial_derivative,
    random_scalar,
    sobolev_inner,
    sobolev_norm,
)
from eulerlab.spectral import _rfft_rows

from conftest import FullLattice, TracedPeak

TAU = 2.0 * np.pi


def cosine_field(grid: Grid) -> ScalarField:
    x = grid.coords()[0]
    return ScalarField(grid, np.cos(TAU / grid.length * x))


class TestGrid:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Grid(dim=4, n=16)
        with pytest.raises(ValueError):
            Grid(dim=2, n=17)
        with pytest.raises(ValueError):
            Grid(dim=2, n=16, length=-1.0)

    @pytest.mark.parametrize("dim,n", [(2, 2**14), (3, 512), (2, 2**20)])
    def test_rejects_grid_beyond_the_point_budget(self, dim, n):
        # refused before anything is allocated: 2**20 points per axis
        # would need 512 GiB for one 2D mask
        with TracedPeak() as traced:
            with pytest.raises(ValueError, match="budget"):
                Grid(dim=dim, n=n, length=TAU)
        assert traced.peak < 100_000

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rejects_length_whose_wavenumbers_overflow(self, dim):
        # |xi|^2 up to dim (pi n / L)^2: finite at L = 1e-150, not at 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="wavenumbers"):
                Grid(dim=dim, n=8, length=1e-300)
            assert np.all(np.isfinite(Grid(dim=dim, n=8, length=1e-150).xi_sq))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rejects_length_whose_wavenumbers_underflow(self, dim):
        # (2 pi / L)^2 is subnormal at L = 1e160 and 0.0 at 1e200, where
        # every derivative would vanish; at 1e150 it is a normal float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for length in (1e160, 1e200):
                with pytest.raises(ValueError, match="underflow"):
                    Grid(dim=dim, n=8, length=length)
            xi_sq = Grid(dim=dim, n=8, length=1e150).xi_sq
            assert np.all(xi_sq.flat[1:] >= np.finfo(float).tiny)

    def test_fft_roundtrip(self, grid16, rng):
        data = rng.standard_normal(grid16.shape)
        back = grid16.irfft(grid16.rfft(data))
        assert np.max(np.abs(back - data)) < 1e-13

    @pytest.mark.parametrize("dim, n", [(2, 8), (2, 64), (2, 512), (3, 16)])
    def test_rows_transform_is_the_plane_transform(self, dim, n, rng):
        # random lines along the last axis at a fifth of the indices of
        # the other axes, every third of them zero; zero samples elsewhere
        grid = Grid(dim=dim, n=n, length=TAU)
        lead = np.unravel_index(
            rng.choice(n ** (dim - 1), size=max(1, n ** (dim - 1) // 5),
                       replace=False), (n,) * (dim - 1))
        rows = rng.standard_normal((lead[0].size, n))
        rows[::3] = 0.0
        data = np.zeros(grid.shape)
        data[lead] = rows
        got = _rfft_rows(grid, lead, rows)
        assert np.array_equal(got, grid.rfft(data))

    def test_fft_normalization_mean(self, grid16):
        # zero mode of the normalized transform is the spatial mean
        data = np.full(grid16.shape, 3.5)
        assert abs(grid16.rfft(data)[0, 0] - 3.5) < 1e-14

    @pytest.mark.parametrize("dim", [2, 3])
    def test_transforms_into_out(self, dim, rng):
        # out= gives the same numbers and leaves the input untouched
        g = Grid(dim=dim, n=8)
        data = rng.standard_normal((2,) + g.shape)
        hat = g.rfft(data)
        hat_out = np.empty_like(hat)
        assert g.rfft(data, out=hat_out) is hat_out
        assert np.array_equal(hat_out, hat)
        values = np.empty_like(data)
        assert g.irfft(hat_out, out=values) is values
        assert np.array_equal(hat_out, hat)
        assert np.array_equal(values, np.fft.irfftn(
            hat, s=g.shape, axes=tuple(range(-dim, 0)), norm="forward"))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_irfft_consuming_overwrites_its_input(self, dim, rng):
        # the in-place inverse gives irfft's numbers and spends hat on them
        g = Grid(dim=dim, n=8)
        hat = g.rfft(rng.standard_normal((2,) + g.shape))
        scratch = hat.copy()
        values = np.empty((2,) + g.shape)
        assert g._irfft_consuming(scratch, out=values) is values
        assert np.array_equal(values, g.irfft(hat))
        assert not np.array_equal(scratch, hat)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_coords_are_read_only_meshgrid_views(self, dim):
        grid = Grid(dim=dim, n=16, length=3.0)
        x = np.arange(grid.n) * grid.spacing
        ref = np.meshgrid(*([x] * dim), indexing="ij")
        got = grid.coords()
        assert len(got) == dim
        for c, r in zip(got, ref):
            assert c.shape == grid.shape
            assert np.array_equal(c, r)
            assert not c.flags.writeable

    def test_frequency_axis_spacing(self):
        g = Grid(dim=2, n=16, length=4.0 * np.pi)
        assert np.isclose(np.sort(g.xi_axes[0].ravel())[g.n // 2 + 1], 0.5)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_half_spectrum_matches_full(self, dim, rng):
        g = Grid(dim=dim, n=8, length=4.0 * np.pi)
        ref = FullLattice(g)
        data = rng.standard_normal((2,) + g.shape)
        full, half = ref.fft(data), g.rfft(data)
        h = g.n // 2 + 1
        assert np.max(np.abs(half - full[..., :h])) < 1e-15
        assert np.max(np.abs(g.irfft(half) - data)) < 1e-13
        for name in ("xi_sq", "dealias_mask", "nyquist_mask"):
            assert np.array_equal(getattr(g, name), getattr(ref, name)[..., :h])
        for j in range(dim - 1):
            assert np.array_equal(g.xi_axes[j], ref.xi_axes[j])
        assert np.array_equal(g.xi_axes[-1], np.abs(ref.xi_axes[-1][..., :h]))
        # Hermitian weights: half-lattice power sums are full-lattice sums
        power = np.abs(full) ** 2
        rpower = g.weight * np.abs(half) ** 2
        assert np.sum(rpower) == pytest.approx(np.sum(power), rel=1e-13)
        assert np.sum(rpower[..., g.nyquist_mask]) == pytest.approx(
            np.sum(power[..., ref.nyquist_mask]), rel=1e-13)
        # deriv is the full-lattice derivative symbol on the half lattice
        f = ScalarField(g, data[0])
        for j in range(dim):
            assert np.max(np.abs(partial_derivative(f, j).data
                                 - ref.ifft(ref.deriv(ref.fft(f.data), j)))) < 1e-12


class TestSobolevNorm:
    def test_cosine_exact_values(self, grid16):
        # cos(x1) on [0,2pi)^2: two modes of weight 1/2 -> H^0 norm 1/sqrt(2),
        # H^2 norm sqrt(2*(1/4)*(1+1)^2) = sqrt(2)
        f = cosine_field(grid16)
        assert abs(sobolev_norm(f, 0.0) - 1.0 / np.sqrt(2.0)) < 1e-13
        assert abs(sobolev_norm(f, 2.0) - np.sqrt(2.0)) < 1e-13

    def test_inner_product_polarization(self, grid16, rng):
        f = random_scalar(grid16, rng)
        g = random_scalar(grid16, rng)
        s = 1.5
        lhs = sobolev_inner(f, g, s)
        rhs = 0.25 * (sobolev_norm(f + g, s) ** 2 - sobolev_norm(f - g, s) ** 2)
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
    def test_non_finite_s_rejected(self, grid16, rng, s):
        f = random_scalar(grid16, rng)
        with pytest.raises(ValueError, match="s must be finite"):
            sobolev_norm(f, s)
        with pytest.raises(ValueError, match="s must be finite"):
            sobolev_inner(f, f, s)

    def test_norm_past_the_float_range_is_inf_without_warning(self, grid16,
                                                              rng):
        # squares of samples near 1e160 pass the float range: inf, and no
        # RuntimeWarning from the power sum; nan where an infinite square
        # meets a weight (1 + |xi|^2)^-400 that underflowed to 0
        f = bump(grid16, [3.0, 3.0], r=0.5) * 1e160
        g = random_scalar(grid16, rng) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sobolev_norm(f, 0.0) == sobolev_norm(f, 2.0) == np.inf
            assert np.isnan(sobolev_norm(g, -400.0))

    def test_inner_product_past_the_float_range_without_warning(self, grid16,
                                                                rng):
        # the policy of the norm: inf past the float range, nan where an
        # infinite product meets a weight that underflowed to 0
        f = bump(grid16, [3.0, 3.0], r=0.5) * 1e160
        g = random_scalar(grid16, rng) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sobolev_inner(f, f, 0.0) == np.inf
            assert np.isnan(sobolev_inner(g, g, -400.0))

    def test_overflowing_weight_rejected(self, grid16, rng):
        # (1 + |xi|^2)^400 is inf on 16 points of a 2 pi box; said at once,
        # without a RuntimeWarning, naming s, n and L
        f = random_scalar(grid16, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in (lambda: sobolev_norm(f, 400.0),
                         lambda: sobolev_inner(f, f, 400.0)):
                with pytest.raises(ValueError,
                                   match=r"H\^400.0 .* 16 points .* 6.28"):
                    norm()
            assert np.isfinite(sobolev_norm(f, 100.0))

    def test_weight_kept_per_grid(self, grid16, rng):
        # the last order's weight is reused, read-only; another order
        # replaces it, and an equal grid object keeps its own
        from eulerlab.spectral import _sobolev_weight

        w = _sobolev_weight(grid16, 2.5)
        assert _sobolev_weight(grid16, 2.5) is w
        assert not w.flags.writeable
        assert np.array_equal(w, grid16.weight * (1.0 + grid16.xi_sq) ** 2.5)
        other = _sobolev_weight(grid16, 1.5)
        assert other is not w and _sobolev_weight(grid16, 1.5) is other
        twin = Grid(dim=2, n=16, length=TAU)
        assert _sobolev_weight(twin, 1.5) is not other

    def test_monotone_in_s(self, grid16, rng):
        f = random_scalar(grid16, rng)
        norms = [sobolev_norm(f, s) for s in (0.0, 1.0, 2.0, 3.0)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), s=st.floats(0.0, 4.0))
    def test_derivative_bounded_by_next_norm(self, seed, s):
        # |xi_i| <= (1+|xi|^2)^{1/2} pointwise on the lattice
        g = Grid(dim=2, n=16, length=TAU)
        f = random_scalar(g, np.random.default_rng(seed))
        assert sobolev_norm(partial_derivative(f, 0), s) \
            <= sobolev_norm(f, s + 1.0) + 1e-12


class TestChiCutoff:
    def test_symbol_range(self, grid16):
        sym = chi_symbol(grid16, 1.0)
        assert np.all((sym == 0.0) | (sym == 1.0))
        assert sym.flat[0] == 1.0  # zero mode kept by the low-pass

    def test_idempotent_exactly(self, grid16, rng):
        f = random_scalar(grid16, rng)
        once = chi_cutoff(f)
        twice = chi_cutoff(once)
        assert np.array_equal(once.data, twice.data)

    def test_self_adjoint(self, grid16, rng):
        f = random_scalar(grid16, rng)
        g = random_scalar(grid16, rng)
        lhs = sobolev_inner(chi_cutoff(f), g, 0.0)
        rhs = sobolev_inner(f, chi_cutoff(g), 0.0)
        assert abs(lhs - rhs) < 1e-12

    def test_smoothing_gain(self, grid16, rng):
        # on |xi| <= 1 the weight (1+|xi|^2)^{s'} is at most 2^{s'}
        for s, sp in ((2.0, 1.0), (3.0, 2.0)):
            f = random_scalar(grid16, rng)
            lo = chi_cutoff(f)
            assert sobolev_norm(lo, s + sp) <= 2 ** (sp / 2) * sobolev_norm(f, s) + 1e-12

    def test_complement_is_high_frequency(self, grid16, rng):
        f = random_scalar(grid16, rng)
        hi = f - chi_cutoff(f)
        # every surviving mode has |xi| > 1, so H^0 and the weighted norm differ by >= sqrt(2)
        assert sobolev_norm(hi, 1.0) >= np.sqrt(2.0) * sobolev_norm(hi, 0.0) - 1e-12


class TestFieldAlgebra:
    def test_grid_mismatch_rejected(self, grid16, rng):
        other = Grid(dim=2, n=32, length=TAU)
        with pytest.raises(GridMismatchError):
            random_scalar(grid16, rng) + random_scalar(other, rng)

    def test_vector_shape_checked(self, grid16):
        with pytest.raises(ValueError):
            VectorField(grid16, np.zeros((3,) + grid16.shape))

    def test_full_lattice_spectrum_rejected(self, grid16):
        with pytest.raises(ValueError, match="spectrum shape"):
            ScalarField.from_hat(grid16, np.zeros(grid16.shape, dtype=complex))

    def test_spectrum_is_read_only(self, grid16, rng):
        # neither the spectrum a field was built from nor one computed
        # from its samples can be written; the caller's array stays writable
        hat = grid16.rfft(rng.standard_normal(grid16.shape))
        built = ScalarField.from_hat(grid16, hat)
        for f in (built, ScalarField(grid16, built.data)):
            with pytest.raises(ValueError, match="read-only"):
                f.hat[0, 0] = 1.0
        assert hat.flags.writeable

    def test_truncate_removes_high_modes(self, grid16, rng):
        f = random_scalar(grid16, rng)
        t = chi_cutoff(f, 2.0)
        xi_sq = grid16.xi_sq
        assert np.max(np.abs(t.hat[xi_sq > 4.0 + 1e-9])) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        g = Grid(dim=2, n=16, length=TAU)
        r = np.random.default_rng(seed)
        f1, f2 = random_scalar(g, r), random_scalar(g, r)
        combo = f1 * a + f2 * b
        expect = a * f1.data + b * f2.data
        assert np.max(np.abs(combo.data - expect)) < 1e-12


_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b}
_UNARY = {"mul": lambda a: a * -1.5, "rmul": lambda a: 0.25 * a,
          "neg": lambda a: -a}


class TestCarriedSpectra:
    """Linear arithmetic gives its result the same combination of the
    operands' held spectra, read-only, and transforms nothing."""

    @staticmethod
    def _operand(f, held):
        return f if held else type(f)(f.grid, f.data)

    def _check(self, out, expect, planes):
        assert planes == {"rfft": 0, "irfft": 0}
        if expect is None:
            assert out._hat is None
            return
        assert np.array_equal(out._hat, expect)
        assert not out._hat.flags.writeable
        ref = out.grid.rfft(out.data)
        assert np.max(np.abs(out._hat - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("held", [(True, True), (True, False),
                                      (False, True), (False, False)])
    @pytest.mark.parametrize("op", sorted(_BINARY))
    @pytest.mark.parametrize("kind", ["scalar", "vector"])
    def test_binary(self, grid16, rng, planes, kind, op, held):
        make = {"scalar": random_scalar,
                "vector": lambda g, r: VectorField.from_hat(
                    g, np.stack([random_scalar(g, r).hat for _ in range(2)]))}[kind]
        f, g = make(grid16, rng), make(grid16, rng)
        a, b = self._operand(f, held[0]), self._operand(g, held[1])
        planes.update(dict.fromkeys(planes, 0))
        out = _BINARY[op](a, b)
        self._check(out, _BINARY[op](f.hat, g.hat) if all(held) else None,
                    planes)
        assert np.array_equal(out.data, _BINARY[op](f.data, g.data))

    @pytest.mark.parametrize("held", [True, False])
    @pytest.mark.parametrize("op", sorted(_UNARY))
    def test_unary(self, grid16, rng, planes, op, held):
        f = random_scalar(grid16, rng)
        a = self._operand(f, held)
        planes.update(dict.fromkeys(planes, 0))
        out = _UNARY[op](a)
        self._check(out, _UNARY[op](f.hat) if held else None, planes)
        assert np.array_equal(out.data, _UNARY[op](f.data))

    def test_non_finite_result_rejected_before_its_spectrum(self, grid16, rng):
        f = random_scalar(grid16, rng)  # holds the spectrum it was built from
        with pytest.raises(ValueError, match="non-finite"):
            f * np.inf


def test_random_scalar_normalization(grid16, rng):
    f = random_scalar(grid16, rng, norm_s=2.5, norm_value=0.7)
    assert abs(sobolev_norm(f, 2.5) - 0.7) < 1e-12
    assert abs(np.mean(f.data)) < 1e-14


def test_random_scalar_deterministic(grid16):
    a = random_scalar(grid16, np.random.default_rng(7))
    b = random_scalar(grid16, np.random.default_rng(7))
    assert np.array_equal(a.data, b.data)
