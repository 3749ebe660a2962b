"""Periodic B-spline / Fourier interpolation."""

import itertools

import numpy as np
import pytest

from eulerlab import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    bump,
    random_div_free,
    random_scalar,
)
from eulerlab.bform import BAssembly
from eulerlab.fields import jacobian
from eulerlab.interp import (
    _FOURIER_BLOCK,
    _NYQUIST_WARN,
    Interpolant,
    _shifted_lines,
)
from eulerlab.spectral import _ONE_THREAD

from conftest import FullLattice

TAU = 2.0 * np.pi


def trig_poly(grid):
    x, y = grid.coords()
    return ScalarField(grid, np.cos(x) + 0.5 * np.sin(2 * y) + 0.25 * np.cos(x + y))


def exact(points):
    tx, ty = points
    return np.cos(tx) + 0.5 * np.sin(2 * ty) + 0.25 * np.cos(tx + ty)


@pytest.fixture
def points(rng):
    return rng.uniform(0.0, TAU, size=(2, 400))


class TestSplineAccuracy:
    def test_exact_on_grid_nodes(self, grid32):
        f = trig_poly(grid32)
        x, y = grid32.coords()
        pts = np.stack([np.broadcast_to(x, grid32.shape).ravel(),
                        np.broadcast_to(y, grid32.shape).ravel()])
        for order in (3, 5):
            vals = Interpolant(f, order=order).at(pts)
            assert np.max(np.abs(vals - f.data.ravel())) < 1e-12

    def test_convergence_order(self, points):
        errs = {}
        for n in (16, 32, 64):
            g = Grid(dim=2, n=n, length=TAU)
            f = trig_poly(g)
            errs[n] = {
                order: np.max(np.abs(Interpolant(f, order=order).at(points)
                                     - exact(points)))
                for order in (3, 5)}
        # cubic ~ h^4, quintic ~ h^6
        rate3 = np.log2(errs[16][3] / errs[32][3])
        rate5 = np.log2(errs[16][5] / errs[32][5])
        assert rate3 > 3.5
        assert rate5 > 5.5

    def test_fourier_mode_is_exact(self, grid16, points):
        f = trig_poly(grid16)
        vals = Interpolant(f, order="fourier").at(points)
        assert np.max(np.abs(vals - exact(points))) < 1e-12

    def test_periodength_wrapping(self, grid32):
        f = trig_poly(grid32)
        p = np.array([[0.3], [1.1]])
        shifted = p + TAU * np.array([[3.0], [-2.0]])
        for order in (3, 5, "fourier"):
            interp = Interpolant(f, order=order)
            assert np.max(np.abs(interp.at(p) - interp.at(shifted))) < 1e-12

    def test_vector_field_component_consistency(self, grid32, rng, points):
        u = VectorField(grid32, np.stack([trig_poly(grid32).data,
                                          random_scalar(grid32, rng).data]))
        vu = Interpolant(u, order=5).at(points)
        v0 = Interpolant(ScalarField(grid32, u.data[0]), order=5).at(points)
        assert np.max(np.abs(vu[0] - v0)) < 1e-14

    def test_3d_roundtrip(self, grid3d, rng):
        f = random_scalar(grid3d, rng, max_xi=3.0)
        pts = rng.uniform(0, TAU, size=(3, 200))
        v3 = Interpolant(f, order=3).at(pts)
        vf = Interpolant(f, order="fourier").at(pts)
        assert np.max(np.abs(v3 - vf)) < 5e-4


class TestOrder:
    @pytest.mark.parametrize("order", [3.0, 5.0, 7, "linear"])
    def test_rejects_non_order(self, grid16, rng, order):
        with pytest.raises(ValueError, match="order must be 3, 5 or 'fourier'"):
            Interpolant(random_scalar(grid16, rng), order=order)


def _interior(interp, coeffs):
    """The unpadded coefficients inside a padded array."""
    p = interp._pad
    return coeffs[(slice(p, -p),) * coeffs.ndim]


class TestWrap:
    """Spline evaluation wraps points into [0, L) as ``%`` does, and the
    padded coefficients evaluate as wrapped taps on unpadded ones."""

    @pytest.mark.parametrize("order", [3, 5])
    def test_matches_remainder_reference(self, grid32, rng, order):
        from scipy import ndimage

        L, h = grid32.length, grid32.spacing
        edge = np.array([-L, -0.0, -1e-300, L, np.nextafter(L, 0.0),
                         np.nextafter(-L, 0.0), 1e6, -1e6, 0.3])
        pts = np.stack([a.ravel() for a in np.meshgrid(edge, edge, indexing="ij")])
        f = random_div_free(grid32, rng)
        interp = Interpolant(f, order=order)
        ref = np.stack([
            ndimage.map_coordinates(c, (pts % L) / h + interp._pad, order=order,
                                    mode="nearest", prefilter=False)
            for c in interp._coeffs])
        assert np.array_equal(interp.at(pts), ref)

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_padded_matches_grid_wrap(self, rng, dim, n, order):
        from scipy import ndimage

        grid = Grid(dim=dim, n=n, length=TAU)
        L = grid.length
        edge = np.array([0.0, L, np.nextafter(L, 0.0), -1e-300])
        pts = np.concatenate([
            np.stack([a.ravel() for a in np.meshgrid(*[edge] * dim, indexing="ij")]),
            rng.uniform(-L, 2.0 * L, size=(dim, 300))], axis=1)
        u = random_div_free(grid, rng)
        interp = Interpolant(u, order=order)
        vals = interp.at(pts)
        for c, coeffs in enumerate(interp._coeffs):
            ref = ndimage.map_coordinates(_interior(interp, coeffs),
                                          (pts % L) / grid.spacing, order=order,
                                          mode="grid-wrap", prefilter=False)
            assert np.max(np.abs(vals[c] - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestNonFinitePoints:
    """A point with a non-finite coordinate evaluates to NaN in every
    order and component, without a warning; finite points are unchanged."""

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_nan_without_warning(self, rng, dim, order):
        import warnings

        grid = Grid(dim=dim, n=16, length=TAU)
        f = random_scalar(grid, rng, max_xi=3.0)
        u = VectorField(grid, np.stack([f.data] + [np.zeros(grid.shape)] * (dim - 1)))
        bad = rng.uniform(0.0, TAU, size=(dim, 4))
        bad[0, 0], bad[-1, 1], bad[0, 2], bad[-1, 3] = np.nan, np.inf, -np.inf, np.nan
        good = rng.uniform(-TAU, 2.0 * TAU, size=(dim, 5))
        pts = np.concatenate([bad, good], axis=1)
        for field in (f, u):
            interp = Interpolant(field, order=order)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = interp.at(pts)
            assert np.all(np.isnan(vals[..., :4]))
            assert np.array_equal(vals[..., 4:], interp.at(good))

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    def test_sample_of_non_finite_points(self, grid16, rng, order):
        f = random_scalar(grid16, rng)
        pts = np.array([[np.nan, np.inf, 1.0], [0.5, 0.5, np.nan]])
        assert np.all(np.isnan(Interpolant(f, order=order).at(pts)))


class TestPrefilter:
    """The spectral prefilter against ndimage's recursive one."""

    @pytest.mark.parametrize("kind", ["smooth", "noise"])
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 64), (2, 512), (3, 16)])
    def test_matches_ndimage_spline_filter(self, rng, dim, n, order, kind):
        import warnings

        from scipy import ndimage

        grid = Grid(dim=dim, n=n, length=TAU)
        if kind == "smooth":
            data = random_scalar(grid, rng).data
        else:  # white noise: every mode, the unpaired Nyquist ones too
            data = rng.standard_normal(grid.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            interp = Interpolant(ScalarField(grid, data), order=order)
        (coeffs,) = interp._coeffs
        inner = _interior(interp, coeffs)
        ref = ndimage.spline_filter(data, order=order, mode="grid-wrap")
        assert np.linalg.norm(inner - ref) <= 1e-14 * np.linalg.norm(ref)
        # the pad is an exact periodic copy, corners included
        assert np.array_equal(coeffs, np.pad(inner, interp._pad, mode="wrap"))

    def test_reciprocal_symbol_is_built_once_per_grid_and_order(self, rng,
                                                                monkeypatch):
        from eulerlab import interp as interp_mod

        built = []
        symbols = dict(interp_mod._BSPLINE_SYMBOLS)
        for order, symbol in symbols.items():
            monkeypatch.setitem(interp_mod._BSPLINE_SYMBOLS, order,
                                lambda theta, s=symbol, o=order:
                                built.append(o) or s(theta))
        for dim in (2, 3):
            grid = Grid(dim=dim, n=16, length=TAU)
            u = random_div_free(grid, rng)
            # one symbol per axis when the order changes, none after
            for order, fresh in ((3, True), (3, False), (5, True), (5, False)):
                built.clear()
                plane = interp_mod._reciprocal_symbol(grid, order)
                Interpolant(u, order=order)
                Interpolant(u * 0.5, order=order)
                assert interp_mod._reciprocal_symbol(grid, order) is plane
                assert built == ([order] * dim if fresh else [])


class TestHeldSpectrum:
    """A field built from its spectrum is prefiltered from a copy of it."""

    @pytest.mark.parametrize("order", [3, 5])
    def test_no_forward_transform_and_samples_path_agrees(self, grid32, rng,
                                                           planes, order):
        u = random_div_free(grid32, rng)
        points = rng.uniform(0.0, TAU, (2, 50))
        for f in (BAssembly(grid32).grad_b(u), jacobian(u * 0.1)):
            planes.update(dict.fromkeys(planes, 0))
            got = Interpolant(f, order=order).at(points)
            assert planes["rfft"] == 0
            ref = Interpolant(type(f)(grid32, f.data), order=order).at(points)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_samples_only_field_gets_no_spectrum(self, grid32, rng, planes):
        # one transform per component, none kept on the field
        u = VectorField(grid32, random_div_free(grid32, rng).data)
        planes.update(dict.fromkeys(planes, 0))
        Interpolant(u)
        assert planes["rfft"] == 2
        assert u._hat is None

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("zero_rows", [0, 1])
    def test_one_pass_makes_a_plane_per_nonzero_component(self, grid32, rng,
                                                          planes, monkeypatch,
                                                          order, zero_rows):
        # the nonzero components of a field without a spectrum go through
        # one forward and one inverse transform of their stack
        data = random_div_free(grid32, rng).data.copy()
        data[2 - zero_rows:] = 0.0
        calls = []
        rfft = type(grid32).rfft
        monkeypatch.setattr(type(grid32), "rfft",
                            lambda self, v, *a: calls.append(v.shape) or rfft(self, v, *a))
        planes.update(dict.fromkeys(planes, 0))
        Interpolant(VectorField(grid32, data), order=order)
        assert planes == {"rfft": 2 - zero_rows, "irfft": 2 - zero_rows}
        assert calls == [(2 - zero_rows,) + grid32.shape]


class TestNyquistWarning:
    def test_warns_on_unpaired_nyquist(self, grid16):
        hat = np.zeros(grid16.shape, dtype=complex)
        hat[grid16.n // 2, 1] = 1.0  # unpaired Nyquist content
        f = ScalarField(grid16, FullLattice(grid16).ifft(hat))
        with pytest.warns(UserWarning):
            Interpolant(f, order=3)

    def test_silent_on_smooth_data(self, grid16, rng):
        import warnings
        f = random_scalar(grid16, rng, max_xi=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Interpolant(f, order=3)

    def test_silent_past_the_float_range(self, grid16):
        # a bump has Nyquist content; at 1e160 its Nyquist power and its
        # mean square are both inf, and summing them warns of nothing
        import warnings
        f = bump(grid16, [3.0, 3.0], r=0.5) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Interpolant(f, order=3)


class TestNyquistPower:
    """The Nyquist-content warning against the Hermitian-weighted power of
    an FFT reference: planted fields warn, smooth ones stay silent."""

    @pytest.mark.parametrize("planted", [False, True])
    @pytest.mark.parametrize("rank", [0, 1, 2])
    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (3, 16), (3, 32)])
    def test_matches_fft_reference(self, rng, dim, n, rank, planted):
        import warnings

        grid = Grid(dim=dim, n=n, length=TAU)
        comps = (dim,) * rank
        data = np.stack([random_scalar(grid, rng, max_xi=3.0).data
                         for _ in range(int(np.prod(comps)))]).reshape(comps + grid.shape)
        if planted:
            # white noise: power on every Nyquist plane and their intersections
            data = data + 0.3 * rng.standard_normal(data.shape)
        hat = grid.rfft(data)
        power = grid.weight * (hat.real ** 2 + hat.imag ** 2)
        ref_nyq = float(np.sum(np.where(grid.nyquist_mask, power, 0.0)))
        assert (ref_nyq > _NYQUIST_WARN * float(np.sum(power))) == planted
        field = {0: ScalarField, 1: VectorField, 2: MatrixField}[rank](grid, data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Interpolant(field, order=3)
        assert [str(w.message) for w in caught] == (
            ["field has significant unpaired Nyquist content; "
             "spline interpolation of it is not well defined"] if planted else [])


class TestZeroComponents:
    @pytest.mark.parametrize("order", [3, 5])
    def test_zero_row_is_exact_and_other_row_unchanged(self, grid32, rng, points, order):
        p = random_scalar(grid32, rng).data
        vals = Interpolant(VectorField(grid32, np.stack([p, np.zeros_like(p)])),
                           order=order).at(points)
        assert np.all(vals[1] == 0.0)
        assert np.array_equal(vals[0],
                              Interpolant(ScalarField(grid32, p), order=order).at(points))

    @pytest.mark.parametrize("order", [3, 5])
    def test_all_zero_field_interpolates_to_zero(self, grid16, grid3d, rng, order):
        for grid in (grid16, grid3d):
            u = VectorField(grid, np.zeros((grid.dim,) + grid.shape))
            pts = rng.uniform(-TAU, 2.0 * TAU, size=(grid.dim, 5, 40))
            vals = Interpolant(u, order=order).at(pts)
            assert vals.shape == (grid.dim, 5, 40)
            assert np.all(vals == 0.0)


def bspline_weights(f, order):
    """Centered B-spline weights at offsets -lo..order-lo, lo = (order-1)//2,
    for fractional parts f; shape (order + 1,) + f.shape."""
    g = 1.0 - f
    if order == 3:
        return np.stack([g**3, 4.0 - 6.0 * f**2 + 3.0 * f**3,
                         1.0 + 3.0 * f + 3.0 * f**2 - 3.0 * f**3, f**3]) / 6.0
    return np.stack([
        g**5,
        (2.0 - f) ** 5 - 6.0 * g**5,
        (3.0 - f) ** 5 - 6.0 * (2.0 - f) ** 5 + 15.0 * g**5,
        (2.0 + f) ** 5 - 6.0 * (1.0 + f) ** 5 + 15.0 * f**5,
        (1.0 + f) ** 5 - 6.0 * f**5,
        f**5,
    ]) / 120.0


def reference_spline(data, t, order):
    """Periodic B-spline interpolant of samples ``data`` at grid-unit points
    ``t`` (shape (dim, M)), summed term by term over the kernel's support.
    Coefficients divide the samples by the kernel's transfer function."""
    n, dim, lo = data.shape[0], data.ndim, (order - 1) // 2
    taps = bspline_weights(np.zeros(()), order)  # kernel at integer offsets
    theta = TAU * np.fft.fftfreq(n)
    gain = sum(w * np.cos((j - lo) * theta) for j, w in enumerate(taps))
    hat = np.fft.fftn(data)
    for ax in range(dim):
        hat /= gain.reshape([-1 if a == ax else 1 for a in range(dim)])
    coeffs = np.real(np.fft.ifftn(hat))
    base = np.floor(t).astype(int)
    w = bspline_weights(t - base, order)
    out = np.zeros(t.shape[1])
    for offs in itertools.product(range(order + 1), repeat=dim):
        weight = np.prod([w[o, ax] for ax, o in enumerate(offs)], axis=0)
        idx = tuple((base[ax] + o - lo) % n for ax, o in enumerate(offs))
        out += weight * coeffs[idx]
    return out


class TestSplineReference:
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_matches_direct_bspline_sum(self, rng, order, dim, n):
        grid = Grid(dim=dim, n=n, length=TAU)
        u = random_div_free(grid, rng, s=2.0)
        pts = rng.uniform(-TAU, 2.0 * TAU, size=(dim, 300))
        vals = Interpolant(u, order=order).at(pts)
        t = (pts % TAU) / grid.spacing
        for c in range(dim):
            ref = reference_spline(u.data[c], t, order)
            assert np.max(np.abs(vals[c] - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    def test_constant_field_is_reproduced(self, rng, grid16, grid3d, order):
        for grid in (grid16, grid3d):
            f = ScalarField(grid, np.full(grid.shape, 2.5))
            pts = rng.uniform(-TAU, 2.0 * TAU, size=(grid.dim, 200))
            vals = Interpolant(f, order=order).at(pts)
            assert np.max(np.abs(vals - 2.5)) < 1e-13


def reference_trig_sum(data, grid, points):
    """Direct trigonometric sum over the full-lattice coefficients:
    one complex exponential per (point, mode) pair."""
    lattice = FullLattice(grid)
    hat = lattice.fft(data).reshape(-1, grid.size)
    xi = np.stack([np.broadcast_to(x, grid.shape).ravel() for x in lattice.xi_axes])
    return np.real(hat @ np.exp(1j * (xi.T @ points))).reshape(
        data.shape[: data.ndim - grid.dim] + points.shape[1:])


class TestFourierReference:
    @pytest.mark.parametrize("kind", [ScalarField, VectorField, MatrixField])
    @pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (3, 8)])
    def test_matches_direct_trig_sum(self, rng, kind, dim, n):
        grid = Grid(dim=dim, n=n, length=TAU)
        comps = {ScalarField: (), VectorField: (dim,), MatrixField: (dim, dim)}[kind]
        # white noise keeps its unpaired Nyquist modes, whose sign convention
        # only shows off the grid points
        f = kind(grid, rng.standard_normal(comps + grid.shape))
        # a full block and a partial one, many points outside [0, L)
        pts = rng.uniform(-TAU, 2.0 * TAU, size=(dim, _FOURIER_BLOCK + 300))
        vals = Interpolant(f, order="fourier").at(pts)
        ref = reference_trig_sum(f.data, grid, pts)
        assert vals.shape == ref.shape
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_phase_error_does_not_grow_with_n(self, n):
        # a unit mode k = n/2 - 3 at the nodes shifted by 0.37 h, against
        # cos(2 pi ((k j) mod n + k r / h) / n), its phase reduced modulo
        # 2 pi exactly (x = j h + r).  On the unit box h and the nodes are
        # exact and x - j h is the exact remainder r.  Forming exp(i x xi)
        # itself, with phases up to about pi n, was off by 4.9e-15,
        # 3.0e-14 and 1.1e-13
        grid = Grid(dim=2, n=n, length=1.0)
        k, j = n // 2 - 3, np.arange(n)
        mode = np.cos(2.0 * np.pi / n * ((k * j) % n))
        f = ScalarField(grid, np.broadcast_to(mode[:, None], grid.shape).copy())
        x = grid.nodes[:, :, :3] + 0.37 * grid.spacing
        r = x[0, :, 0] - grid.nodes[0, :, 0]
        expect = np.cos(2.0 * np.pi / n * ((k * j) % n) + 2.0 * np.pi * k * r)
        vals = Interpolant(f, order="fourier").at(x)
        assert np.max(np.abs(vals - expect[:, None])) <= 2e-15


class TestShiftedLines:
    @pytest.mark.parametrize("order", [3, 5])
    def test_multipliers_run_in_one_thread_blocks(self, rng, monkeypatch,
                                                  order):
        # the taps-by-phases products are real and cut into blocks of
        # columns of at most _ONE_THREAD multiply-adds, which OpenBLAS runs
        # on one thread; one complex product of 300 shifts x (order + 2)
        # taps x 513 modes would thread
        n, m = 1024, 300
        lines = rng.standard_normal((m, n))
        t = rng.uniform(-3.0, 3.0, m)
        ref = _shifted_lines(lines.copy(), t, order)
        calls = []
        matmul = np.matmul

        def recorded(a, b, out):
            calls.append((a.dtype, b.dtype, out.dtype, a.size * b.shape[-1]))
            return matmul(a, b, out=out)
        monkeypatch.setattr(np, "matmul", recorded)
        got = _shifted_lines(lines.copy(), t, order)
        monkeypatch.undo()
        assert np.array_equal(got, ref)
        assert {c[:3] for c in calls} == {(np.dtype(np.float64),) * 3}
        sizes = [c[3] for c in calls]
        assert len(sizes) > 2
        assert max(sizes) <= _ONE_THREAD
        assert sum(sizes) == 2 * m * (order + 2) * (n // 2 + 1)
