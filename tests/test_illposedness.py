"""Separation series, scaling identities, exponential-map derivative."""

import warnings

import numpy as np
import pytest

from eulerlab import (
    BlowUpError,
    Diffeo,
    GeodesicConfig,
    Grid,
    ScalarField,
    SeparationSeries,
    VectorField,
    bump,
    compose,
    composition_experiment,
    dexp_fd,
    dexp_richardson,
    invert,
    random_div_free,
    scaling_check,
    sobolev_norm,
    solution_map_experiment,
)
from eulerlab import illposedness
from eulerlab.fields import _smooth_step
from eulerlab.interp import Interpolant

from conftest import TracedPeak, compose_all_nodes

TAU = 2.0 * np.pi


class TestSeparationSeries:
    def test_rejects_unsorted_k(self):
        with pytest.raises(ValueError):
            SeparationSeries(np.array([2, 1]), np.ones(2), np.ones(2))

    def test_rejects_negative_gaps(self):
        with pytest.raises(ValueError):
            SeparationSeries(np.array([1, 2]), np.array([1.0, -0.1]), np.ones(2))

    def test_slope_of_power_law(self):
        k = np.arange(1, 9)
        ser = SeparationSeries(k, 3.0 / k**2, np.ones(8))
        assert ser.input_gap_slope() == pytest.approx(-2.0, abs=1e-12)

    def test_slope_needs_two_rows(self):
        ser = SeparationSeries(np.array([1]), np.ones(1), np.ones(1))
        with pytest.raises(ValueError, match="two rows"):
            ser.input_gap_slope()

    def test_rows_match_columns(self):
        k = np.arange(1, 4)
        ser = SeparationSeries(k, 1.0 / k, np.ones(3),
                               extras={"flag": np.array([1.0, 0.0, 1.0])})
        rows = list(ser.rows())
        assert ser.column_names() == ["k", "input_gap", "output_gap", "flag"]
        assert rows[2] == [3, pytest.approx(1 / 3), 1.0, 1.0]


@pytest.fixture(scope="module")
def series():
    # small grid keeps this a unit test; the acceptance suite runs the
    # full-resolution version
    return composition_experiment(R=0.1, k_max=4,
                                  grid=Grid(dim=2, n=256, length=TAU))


def _row_with_base(dphi, k, x_star, dk, R, s, compose=compose):
    """A composition row on full planes that forms the base point, as the
    rows did before they moved to df_k's rows and before the base point
    was dropped: f_base, the bump of radius 1 at (3L/4, L/4) normalised in
    H^s, plus df_k is composed with psi_k by ``compose``, the gap is taken
    against f_base + df_k, and every norm is ``sobolev_norm`` of a field.
    The gap's norm comes first, so that gap + df_k holds the sum of the
    two spectra, as in the full-plane rows."""
    grid = dphi.grid
    f_base = bump(grid, [0.75 * grid.length, 0.25 * grid.length], r=1.0)
    f_base = f_base * (1.0 / sobolev_norm(f_base, s))
    df = bump(grid, x_star, r=dk)
    df = df * (0.5 * R / sobolev_norm(df, s))
    nu_base = f_base + df
    psi_k = invert(Diffeo(VectorField(grid, dphi.data * (1.0 / k))),
                   order=illposedness._COMPOSITION_ORDER)
    with warnings.catch_warnings():  # near-cell-size bumps, by design
        warnings.simplefilter("ignore", UserWarning)
        comp = compose(nu_base, psi_k, order=illposedness._COMPOSITION_ORDER)
    gap = comp - nu_base
    out_gap = sobolev_norm(gap, s)
    half_a = gap + df
    return out_gap, sobolev_norm(half_a, s) + sobolev_norm(df, s)


def _compose_all_nodes(f, phi, order):
    return type(f)(f.grid, compose_all_nodes(f, phi, order))


class TestAxisPlateau:
    @pytest.mark.parametrize("centre", [3.0, 3.5, 0.2, -0.4])  # in cells
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_full_plane_step(self, dim, centre):
        grid = Grid(dim=dim, n=32, length=TAU)
        c = centre * grid.spacing
        for axis in range(dim):
            d = np.abs(grid.coords()[axis] - c)
            d = np.minimum(d, grid.length - d)
            ref = _smooth_step((1.0 - d) / (1.0 - 0.4))
            got = illposedness._axis_plateau(grid, axis, c, 0.4, 1.0)
            assert got.shape == grid.shape
            assert np.array_equal(got, ref)


class TestCompositionExperiment:
    def test_input_gap_is_exact_power_law(self, series):
        assert series.input_gap_slope() == pytest.approx(-1.0, abs=1e-12)

    def test_output_gap_does_not_decay(self, series):
        assert series.output_gap.min() > 0.5 * series.output_gap[0]

    def test_split_output_gap_near_R(self, series):
        trusted = series.extras["trusted"] > 0
        assert trusted.any()
        sums = series.extras["output_gap_sum"][trusted]
        assert np.all(np.abs(sums - 0.1) < 0.02)

    def test_small_grid_row_raises_no_warning(self):
        # on 16 points df_k fills the Nyquist lines, which compose would
        # warn of; the rows compose without that check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            composition_experiment(R=0.1, k_max=2,
                                   grid=Grid(dim=2, n=16, length=TAU))

    def test_prefilters_only_the_row_fields(self, monkeypatch):
        # no row prefilters: the strip map's inverse is exact from its
        # samples, df_k is composed with that shear line by line, and
        # f_base is never built
        built = []
        init = Interpolant.__init__
        monkeypatch.setattr(Interpolant, "__init__", lambda self, *a, **kw:
                            built.append(1) or init(self, *a, **kw))
        k_max = 3
        composition_experiment(R=0.1, k_max=k_max,
                               grid=Grid(dim=2, n=64, length=TAU))
        assert len(built) == 0

    def test_series_reuses_what_it_holds(self, planes, monkeypatch):
        # 4 rows at N = 128: the strip map's H^s norm reads the 1-D rfft of
        # its profile, and each row transforms df_k's rows and the gap's,
        # which are the same 13, 7, 5 and 3 rows (|i - n/4| h < delta1/k):
        # no plane is transformed.  The spectra of the scaled df_k and of
        # gap + df_k follow from those two, the strip map's inverse from
        # its samples alone, and df_k o psi_k from 1-D line transforms, so
        # no row prefilters or evaluates anything, and no plane is spent
        # on the base bump, which cancels (rfft, irfft and at: 27, 8 and
        # 12 planes before any of these; 11, 8 and 8 while invert still
        # interpolated the strip map; 11, 4 and 4 while compose still
        # prefiltered and evaluated f_base + df_k; 11, 0 and 0 while the
        # series still built f_base; 10, 0 and 0 while the strip map's
        # norm also transformed its zero component; 9, 0 and 0 planes of
        # 128 rows while the rows worked on full planes)
        calls, rows = [], []
        at = Interpolant.at
        monkeypatch.setattr(Interpolant, "at", lambda self, p:
                            calls.append(1) or at(self, p))
        rfft_rows = illposedness._rfft_rows
        monkeypatch.setattr(illposedness, "_rfft_rows", lambda grid, index, r:
                            rows.append(len(r)) or rfft_rows(grid, index, r))
        composition_experiment(R=0.1, k_max=4,
                               grid=Grid(dim=2, n=128, length=TAU))
        assert rows == [13, 13, 7, 7, 5, 5, 3, 3]
        assert planes["rfft"] == 0
        assert planes["irfft"] == 0
        assert len(calls) == 0

    @pytest.mark.parametrize("n, k_max", [(64, 13), (512, 4)])
    def test_strip_maps_fix_the_base_bump(self, monkeypatch, n, k_max):
        # the rows drop the base bump: each inverse strip map psi_k must
        # fix every node where f_base, the bump of radius r_base = 1 at
        # (3L/4, L/4), is nonzero, so that compose returns f_base as it is
        grid = Grid(dim=2, n=n, length=TAU)
        f_base = bump(grid, [0.75 * TAU, 0.25 * TAU], r=1.0)
        maps = []
        invert = illposedness.invert
        monkeypatch.setattr(illposedness, "invert", lambda *a, **kw:
                            maps.append(invert(*a, **kw)) or maps[-1])
        composition_experiment(R=0.1, k_max=k_max, grid=grid)
        assert len(maps) == k_max
        for psi in maps:
            moved = np.any(psi.displacement.data != 0.0, axis=0)
            assert moved.any()
            assert not np.any(moved & (f_base.data != 0.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                got = compose(f_base, psi, order=illposedness._COMPOSITION_ORDER)
            assert np.array_equal(got.data, f_base.data)

    @pytest.mark.parametrize("R", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("n, k_max", [(128, 5), (512, 4), (1024, 3)])
    def test_rows_without_the_base_bump(self, monkeypatch, n, k_max, R):
        # a row on full planes that builds f_base + df_k and composes it,
        # as the rows did before they moved to df_k's rows and dropped the
        # base bump, gives every column bit for bit
        grid = Grid(dim=2, n=n, length=TAU)
        got = composition_experiment(R=R, k_max=k_max, grid=grid)
        monkeypatch.setattr(illposedness, "_composition_row", _row_with_base)
        ref = composition_experiment(R=R, k_max=k_max, grid=grid)
        for name in got.column_names():
            a = getattr(got, name, None)
            b = getattr(ref, name, None)
            if a is None:
                a, b = got.extras[name], ref.extras[name]
            assert np.array_equal(a, b), name

    def test_row_compose_matches_interpolant(self, monkeypatch):
        # each row composes df_k with its strip shear by shifting the rows
        # psi_k moves; Interpolant evaluates the same spline at every node
        # of the plane those rows make, moved by psi_k
        grid = Grid(dim=2, n=512, length=TAU)
        maps, shifts = [], []
        invert, shifted = illposedness.invert, illposedness._shifted_lines

        def recorded(lines, t, order):
            before = lines.copy()
            shifts.append((before, order, shifted(lines, t, order)))
            return shifts[-1][2]
        monkeypatch.setattr(illposedness, "invert", lambda *a, **kw:
                            maps.append(invert(*a, **kw)) or maps[-1])
        monkeypatch.setattr(illposedness, "_shifted_lines", recorded)
        composition_experiment(R=0.1, k_max=4, grid=grid)
        assert len(shifts) == 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for i in (0, 3):  # k = 1 and 4
                psi, (lines, order, got) = maps[i], shifts[i]
                assert order == illposedness._COMPOSITION_ORDER
                moved = np.any(psi.displacement.data != 0.0, axis=(0, 2))
                f = np.zeros(grid.shape)
                f[moved] = lines
                ref = compose_all_nodes(ScalarField(grid, f), psi, order)[moved]
                assert np.abs(got).max() > 0.1 * np.abs(lines).max()
                assert (np.max(np.abs(got - ref))
                        <= 1e-14 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("n, k_max", [(128, 5), (512, 3)])
    def test_series_matches_all_node_interpolation(self, monkeypatch, n, k_max):
        # against full-plane rows whose composition evaluates the spline
        # at every node
        grid = Grid(dim=2, n=n, length=TAU)
        got = composition_experiment(R=0.1, k_max=k_max, grid=grid)
        monkeypatch.setattr(illposedness, "_composition_row", lambda *a:
                            _row_with_base(*a, compose=_compose_all_nodes))
        ref = composition_experiment(R=0.1, k_max=k_max, grid=grid)
        assert np.array_equal(got.input_gap, ref.input_gap)
        for name in ("resolved", "trusted"):
            assert np.array_equal(got.extras[name], ref.extras[name])
        for a, b in ((got.output_gap, ref.output_gap),
                     (got.extras["output_gap_sum"], ref.extras["output_gap_sum"])):
            assert np.max(np.abs(a - b) / b) <= 1e-12

    def test_row_transient_memory(self, monkeypatch):
        # a row holds df_k's rows, its shifted rows and a few half spectra
        # (2 MiB each at N = 512) besides invert's argument, a broadcast
        # view, and its 4 MiB result; full-plane rows peaked at 18 MiB
        rows = []
        row = illposedness._composition_row
        monkeypatch.setattr(illposedness, "_composition_row", lambda *a:
                            rows.append(a) or row(*a))
        composition_experiment(R=0.1, k_max=2,
                               grid=Grid(dim=2, n=512, length=TAU))
        row(*rows[1])  # warm-up
        with TracedPeak() as traced:
            row(*rows[1])
        assert traced.peak <= 12 * 2**20

    def test_metadata_recorded(self, series):
        assert series.metadata["experiment"] == "composition"
        assert series.metadata["R"] == 0.1

    def test_rejects_single_row_before_any_row_runs(self, monkeypatch):
        from eulerlab import illposedness

        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran")
        monkeypatch.setattr(illposedness, "invert", no_rows)
        with pytest.raises(ValueError, match="k_max must be >= 2"):
            composition_experiment(k_max=1, grid=Grid(dim=2, n=16, length=TAU))

    def test_rejects_overlapping_supports(self):
        with pytest.raises(ValueError):
            composition_experiment(M=0.5, delta1=0.4)

    def test_rejects_a_3d_grid_first(self, monkeypatch):
        from eulerlab import illposedness

        def no_field(*args, **kwargs):
            raise AssertionError("a field was built")
        monkeypatch.setattr(illposedness, "_axis_plateau", no_field)
        monkeypatch.setattr(illposedness, "_bump_box", no_field)
        with pytest.raises(ValueError, match="composition experiment is 2D only"):
            composition_experiment(k_max=2, grid=Grid(dim=3, n=16, length=TAU))


class TestSolutionMapExperiment:
    def test_small_run_shape(self):
        g = Grid(dim=2, n=64, length=TAU)
        ser = solution_map_experiment(R=0.1, k_max=3, grid=g, dt=0.05, T=0.1)
        assert len(ser.k) <= 3
        assert ser.input_gap_slope() == pytest.approx(-1.0, abs=0.05)
        assert "vorticity_gap" in ser.extras

    def test_rejects_no_rows(self):
        g = Grid(dim=2, n=32, length=TAU)
        with pytest.raises(ValueError, match="k_max must be >= 1, got 0"):
            solution_map_experiment(k_max=0, grid=g)

    def test_rejects_a_3d_grid_first(self, monkeypatch):
        from eulerlab import illposedness

        def no_field(*args, **kwargs):
            raise AssertionError("a field was built")
        monkeypatch.setattr(illposedness, "div_free_bump", no_field)
        with pytest.raises(ValueError, match="solution-map experiment is 2D only"):
            solution_map_experiment(k_max=2, grid=Grid(dim=3, n=16, length=TAU))


class TestScalingIdentity:
    def test_residual_vanishes_with_paired_steps(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.3)
        assert scaling_check(u0, 0.5, dt=0.01) < 1e-12

    def test_other_horizon(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.3)
        assert scaling_check(u0, 2.0, dt=0.01) < 1e-12

    def test_overflowing_norm_is_a_blow_up(self, rng):
        # the L^2 norm squares beyond the float range: the run fails as a
        # blow-up, not with an overflow warning
        u0 = random_div_free(Grid(dim=2, n=8, length=TAU), rng) * 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError):
                scaling_check(u0, 0.5, dt=0.01)


class TestExpDerivative:
    def test_identity_at_zero(self, grid32, rng):
        from eulerlab import VectorField
        v = random_div_free(grid32, rng, s=0.0, norm_value=0.5, max_xi=4.0)
        zero = VectorField.zero(grid32)
        cfg = GeodesicConfig(dt=0.05)
        errs = []
        for eps in (1e-2, 5e-3):
            d = dexp_fd(zero, v, eps, cfg)
            errs.append(sobolev_norm(d - v, 0.0))
        # O(eps^2): halving eps cuts the error by about 4
        assert errs[1] < 0.3 * errs[0]
        assert errs[0] < 1e-3 * sobolev_norm(v, 0.0)

    def test_richardson_reports_disagreement(self, grid16, rng):
        from eulerlab import VectorField
        v = random_div_free(grid16, rng, s=0.0, norm_value=0.5, max_xi=3.0)
        zero = VectorField.zero(grid16)
        est, gap = dexp_richardson(zero, v, 1e-2, GeodesicConfig(dt=0.05))
        assert gap < 1e-4
        assert sobolev_norm(est - v, 0.0) < 1e-5
