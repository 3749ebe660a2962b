"""Separation series, scaling identities, exponential-map derivative."""

import warnings

import numpy as np
import pytest

from eulerlab import (
    GeodesicConfig,
    Grid,
    SeparationSeries,
    compose,
    composition_experiment,
    dexp_fd,
    dexp_richardson,
    random_div_free,
    scaling_check,
    sobolev_norm,
    solution_map_experiment,
)
from eulerlab.interp import Interpolant

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
        # on 16 points the strip's own inversion trips the Nyquist-content
        # warning; the row silences it together with the compositions
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            composition_experiment(R=0.1, k_max=2,
                                   grid=Grid(dim=2, n=16, length=TAU))

    def test_prefilters_only_the_row_fields(self, monkeypatch):
        # per row: the strip displacement and nu_base; f_base never
        built = []
        init = Interpolant.__init__
        monkeypatch.setattr(Interpolant, "__init__", lambda self, *a, **kw:
                            built.append(1) or init(self, *a, **kw))
        k_max = 3
        composition_experiment(R=0.1, k_max=k_max,
                               grid=Grid(dim=2, n=64, length=TAU))
        assert len(built) == 2 * k_max

    @pytest.mark.parametrize("n, k_max", [(64, 13), (512, 4)])
    def test_strip_maps_fix_the_base_bump(self, monkeypatch, n, k_max):
        # the rows take nu(f_base, phi_k) = f_base: each inverse strip map
        # psi_k must fix every node where the base bump is nonzero
        from eulerlab import illposedness

        bumps, maps = [], []
        bump, invert = illposedness.bump, illposedness.invert
        monkeypatch.setattr(illposedness, "bump", lambda *a, **kw:
                            bumps.append(bump(*a, **kw)) or bumps[-1])
        monkeypatch.setattr(illposedness, "invert", lambda *a, **kw:
                            maps.append(invert(*a, **kw)) or maps[-1])
        composition_experiment(R=0.1, k_max=k_max,
                               grid=Grid(dim=2, n=n, length=TAU))
        f_base = bumps[0]  # the base bump, before its normalisation
        assert len(maps) == k_max
        for psi in maps:
            moved = np.any(psi.displacement.data != 0.0, axis=0)
            assert moved.any()
            assert not np.any(moved & (f_base.data != 0.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                got = compose(f_base, psi, order=illposedness._COMPOSITION_ORDER)
            assert (np.max(np.abs(got.data - f_base.data))
                    <= 1e-14 * np.max(np.abs(f_base.data)))

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
        monkeypatch.setattr(illposedness, "bump", no_field)
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
