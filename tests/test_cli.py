"""Command-line interface: subcommands, config handling, exit codes,
determinism of outputs."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eulerlab import VectorField, cli
from eulerlab.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    RunConfig,
    load_config,
    main,
)
from eulerlab.snapshots import _HEADER

from conftest import TracedPeak

TAU = 2.0 * np.pi


def run(args):
    return main([str(a) for a in args])


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validated()

    def test_rejects_bad_dim(self):
        with pytest.raises(ConfigError):
            RunConfig(dim=5).validated()

    def test_file_plus_override(self, tmp_path):
        f = tmp_path / "run.ini"
        f.write_text("[run]\nn = 32\ndt = 0.01\n")
        cfg = load_config(str(f), {"dt": 0.02})
        assert cfg.n == 32
        assert cfg.dt == 0.02

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.ini"
        f.write_text("[run]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(f), {})

    def test_bad_value_rejected(self, tmp_path):
        f = tmp_path / "run.ini"
        f.write_text("[run]\ndt = fast\n")
        with pytest.raises(ConfigError):
            load_config(str(f), {})

    def test_hash_depends_on_values(self):
        a = RunConfig(seed=1).hash()
        b = RunConfig(seed=2).hash()
        assert a != b
        assert RunConfig(seed=1).hash() == a


class TestExitCodes:
    def test_config_error_is_2(self):
        assert run(["verify", "--N", "7"]) == EXIT_CONFIG

    def test_missing_config_file_is_2(self):
        assert run(["verify", "--config", "/nonexistent.ini"]) == EXIT_CONFIG

    def test_verify_ok_is_0(self):
        assert run(["verify", "--N", "16", "--dt", "0.005"]) == EXIT_OK

    def test_snapshot_dump_missing_file_is_2(self):
        assert run(["snapshot-dump", "/nonexistent.egl"]) == EXIT_CONFIG

    def test_carrier_beyond_band_is_2(self, tmp_path, capsys):
        code = run(["illposedness", "--experiment", "solution-map", "--N", "16",
                    "--R", "0.01", "--out", tmp_path / "s"])
        assert code == EXIT_CONFIG
        assert "config error: carrier" in capsys.readouterr().err

    def test_box_too_small_is_2(self, tmp_path, capsys):
        code = run(["illposedness", "--experiment", "composition", "--N", "16",
                    "--L", "3", "--out", tmp_path / "c"])
        assert code == EXIT_CONFIG
        assert "config error: box length" in capsys.readouterr().err

    def test_time_not_multiple_of_dt_is_2(self, tmp_path, capsys):
        code = run(["simulate", "--N", "16", "--T", "0.0015", "--dt", "0.001",
                    "--out", tmp_path / "o"])
        assert code == EXIT_CONFIG
        assert "not a multiple of dt" in capsys.readouterr().err

    def test_non_finite_composition_row_is_numeric(self, tmp_path, monkeypatch):
        # a NaN sample reaching a field constructor inside the row loop
        from eulerlab import illposedness

        monkeypatch.setattr(illposedness, "compose", lambda f, phi, order: type(f)(
            f.grid, np.full_like(f.data, np.nan)))
        code = run(["illposedness", "--experiment", "composition", "--N", "64",
                    "--out", tmp_path / "c"])
        assert code == EXIT_NUMERIC

    def test_non_finite_solution_map_row_is_numeric(self, tmp_path, monkeypatch):
        from eulerlab import illposedness

        monkeypatch.setattr(illposedness, "solve", lambda u, T, cfg: VectorField(
            u.grid, np.full_like(u.data, np.nan)))
        code = run(["illposedness", "--experiment", "solution-map", "--N", "16",
                    "--out", tmp_path / "s"])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("command", ["verify", "illposedness"])
    def test_rk2_outside_simulate_is_2(self, command, tmp_path, capsys):
        # only simulate steps with the configured method; the other
        # commands integrate with RK4 and must not record rk2 in a hash
        f = tmp_path / "run.ini"
        f.write_text("[run]\nmethod = rk2\n")
        out = tmp_path / "o"
        code = run([command, "--config", f, "--N", "16", "--dt", "0.01",
                    "--out", out])
        assert code == EXIT_CONFIG
        assert f"{command} integrates with RK4 only" in capsys.readouterr().err
        assert not out.exists()

    def test_solution_map_time_not_multiple_of_dt_is_2(self, tmp_path, capsys):
        code = run(["illposedness", "--experiment", "solution-map", "--N", "16",
                    "--T", "0.0015", "--dt", "0.001", "--out", tmp_path / "s"])
        assert code == EXIT_CONFIG
        assert "not a multiple of dt" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["simulate", "--N", "16", "--T", "inf"],
        ["simulate", "--N", "16", "--dt", "nan"],
        ["illposedness", "--experiment", "composition", "--N", "16", "--R", "inf"],
        ["illposedness", "--experiment", "solution-map", "--N", "16", "--s=-inf"],
    ])
    def test_non_finite_float_is_2(self, args, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(args + ["--out", out]) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["composition", "solution-map", "both"])
    def test_separation_in_3d_is_2(self, experiment, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["illposedness", "--experiment", experiment, "--n", "3",
                    "--N", "16", "--kmax", "2", "--out", out])
        assert code == EXIT_CONFIG
        assert "experiment is 2D only" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_names_its_fixed_horizon(self, capsys):
        assert run(["verify", "--N", "16", "--dt", "0.03"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fixed horizon t = 0.1 is not a multiple of dt = 0.03" in err
        assert "T = 0.1" not in err

    def test_verify_horizon_is_not_checked_in_3d(self):
        # the 3D battery has no time integration
        assert run(["verify", "--n", "3", "--N", "8", "--dt", "0.03"]) == EXIT_OK

    def test_composition_single_row_is_2(self, tmp_path, capsys):
        code = run(["illposedness", "--experiment", "composition", "--N", "16",
                    "--kmax", "1", "--out", tmp_path / "c"])
        assert code == EXIT_CONFIG
        assert "config error: k_max must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [(2, 12, TAU), (2, 16, float("nan"))])
    def test_snapshot_dump_bad_header_is_2(self, header, tmp_path, capsys):
        dim, n, length = header
        p = tmp_path / "bad.egl"
        p.write_bytes(_HEADER.pack(b"EGL1", dim, n, length, 0, 1)
                      + bytes(8 * n**dim))
        assert run(["snapshot-dump", p]) == EXIT_CONFIG
        assert "bad header" in capsys.readouterr().err

    def test_snapshot_dump_non_finite_is_2(self, tmp_path, capsys):
        p = tmp_path / "nan.egl"
        n = 16
        data = np.zeros((2, n, n))
        data[1, 3, 4] = np.nan
        p.write_bytes(_HEADER.pack(b"EGL1", 2, n, TAU, 1, 2)
                      + data.astype("<f8").tobytes())
        assert run(["snapshot-dump", p]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{p}: non-finite samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["illposedness", "--experiment", "composition", "--N", "16", "--kmax", "1"],
        ["illposedness", "--experiment", "composition", "--N", "16", "--L", "3"],
        ["simulate", "--N", "16", "--n", "3", "--initial", "taylor-green"],
        ["simulate", "--N", "16", "--dt", "0.03", "--T", "0.1"],
    ])
    def test_rejected_run_leaves_no_out_dir(self, args, tmp_path, capsys):
        # the output directory is made only when the first file is written
        out = tmp_path / "o"
        assert run(args + ["--out", out]) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_box_length_is_2(self, tmp_path, capsys):
        # wavenumbers 2 pi k / L beyond the float range are a config error
        out = tmp_path / "o"
        assert run(["simulate", "--N", "8", "--L", "1e-300", "--T", "0.01",
                    "--dt", "0.01", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args,names", [
        (["--s", "400"], "H^400.0 weights overflow on 8 points of a box of "
                         "length 6.28"),
        (["--L", "1e-100"], "H^3.0 weights overflow on 8 points of a box of "
                            "length 1e-100"),
    ])
    def test_overflowing_sobolev_weight_is_2(self, args, names, tmp_path,
                                             capsys):
        # (1 + |xi|^2)^s beyond the float range: the monitor weight (--s)
        # or the initial field's H^3 normalisation (--L) says so before
        # --out is made
        out = tmp_path / "o"
        assert run(["simulate", "--N", "8", "--T", "0.01", "--dt", "0.01",
                    "--out", out] + args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {names}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dynamics", ["eulerian", "geodesic"])
    def test_overflowing_step_count_is_2(self, dynamics, tmp_path, capsys):
        # T / dt = 1e600 is inf in floating point: no step count, and no
        # OverflowError traceback from rounding it
        out = tmp_path / "o"
        assert run(["simulate", "--dynamics", dynamics, "--N", "8",
                    "--T", "1e300", "--dt", "1e-300",
                    "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: T / dt = 1e+300 / 1e-300 overflows" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dynamics,dt,message", [
        ("eulerian", "1e46", "non-finite state at t = 1e+46"),
        ("eulerian", "1e13", "H^2.5 norm grew to inf"),
        ("geodesic", "1e300", "diffeomorphism inversion did not reach"),
    ])
    def test_overflowing_step_is_3(self, dynamics, dt, message, tmp_path,
                                   capsys):
        # one step of dt overflows a Runge-Kutta stage (1e46), the power
        # sum of a stage map's spline prefilter (1e300) or a monitor's
        # squares (1e13): a numerical failure, with no RuntimeWarning on
        # the way (the suite makes those errors)
        assert run(["simulate", "--dynamics", dynamics, "--N", "8",
                    "--T", dt, "--dt", dt,
                    "--out", tmp_path / "o"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"numerical failure: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dynamics", ["eulerian", "geodesic"])
    @pytest.mark.parametrize("amplitude", ["1e155", "1e160", "1e200", "1e300"])
    def test_overflowing_amplitude_is_3(self, dynamics, amplitude, tmp_path,
                                        capsys):
        # the initial L^2 speed (geodesic) or H^s norm (eulerian) squares
        # beyond the float range: a numerical failure in the first step,
        # with no RuntimeWarning from the speed monitor on the way
        assert run(["simulate", "--dynamics", dynamics, "--N", "8",
                    "--T", "0.01", "--dt", "0.01", "--amplitude", amplitude,
                    "--out", tmp_path / "o"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure: " in err and "Traceback" not in err

    def test_geodesic_run_ignores_sobolev_index(self, tmp_path):
        assert run(["simulate", "--dynamics", "geodesic", "--N", "8", "--s",
                    "400", "--T", "0.01", "--dt", "0.01",
                    "--out", tmp_path / "o"]) == EXIT_OK

    @pytest.mark.parametrize("length", ["1e160", "1e200"])
    def test_underflowing_box_length_is_2(self, length, tmp_path, capsys):
        # (2 pi / L)^2 below the smallest normal float: every derivative
        # would vanish (1e200) or the Leray projection overflow (1e160)
        out = tmp_path / "o"
        assert run(["simulate", "--N", "8", "--L", length, "--T", "0.01",
                    "--dt", "0.01", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "underflow" in err
        assert not out.exists()

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        code = run(["simulate", "--N", "16", "--T", "0.01", "--dt", "0.01",
                    "--out", afile / "sub"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert afile.is_file()


    @pytest.mark.parametrize("dynamics", ["eulerian", "geodesic"])
    def test_unwritable_out_fails_before_integrating(self, dynamics, tmp_path,
                                                     monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before --out was made")
        monkeypatch.setattr(cli, "solve", no_run)
        monkeypatch.setattr(cli, "geodesic_solve", no_run)
        afile = tmp_path / "afile"
        afile.write_text("")
        code = run(["simulate", "--dynamics", dynamics, "--N", "16",
                    "--T", "1", "--dt", "0.01", "--out", afile / "sub"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err


def _edge_or_log_uniform(edges):
    """The edge values, then signed log-uniform magnitudes; the "--L=" form
    keeps argparse from reading "-1e300" as a flag."""
    return st.sampled_from(edges) | st.builds(
        lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
        st.floats(-300.0, 300.0))


# --L and --s
_EDGES = [0.0, -1.0, 400.0, -400.0, 1e300, -1e300, 1e-300, 1e-150, 1e-10,
          1e160, 1e200]
# --T and --dt
_TIME_EDGES = [0.0, -1.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, 0.015]
# --amplitude
_AMPLITUDE_EDGES = [0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300,
                    1e-155, 1e155, 1e300]


class TestExitCodeContract:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dynamics=st.sampled_from(["eulerian", "geodesic"]),
           length=_edge_or_log_uniform(_EDGES),
           s=_edge_or_log_uniform(_EDGES))
    def test_simulate_length_and_index(self, tmp_path_factory, dynamics,
                                       length, s):
        out = tmp_path_factory.mktemp("contract") / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(["simulate", "--dynamics", dynamics, "--N", "8",
                        "--T", "0.01", "--dt", "0.01", f"--L={length!r}",
                        f"--s={s!r}", "--out", out])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
        assert code != EXIT_CONFIG or not out.exists()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dynamics=st.sampled_from(["eulerian", "geodesic"]),
           T=_edge_or_log_uniform(_TIME_EDGES),
           dt=_edge_or_log_uniform(_TIME_EDGES))
    def test_simulate_horizon_and_step(self, tmp_path_factory, dynamics, T,
                                       dt):
        # a valid run of more than 8 steps is a long run, not a contract
        # break (--T 1e10 --dt 1e-10 is 1e20 steps); an infinite step
        # count is a config error and stays
        valid = T > 0 and dt > 0 and np.isfinite(T) and np.isfinite(dt)
        assume(not (valid and 8.5 < T / dt < np.inf))
        out = tmp_path_factory.mktemp("contract") / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(["simulate", "--dynamics", dynamics, "--N", "8",
                        f"--T={T!r}", f"--dt={dt!r}", "--out", out])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
        assert code != EXIT_CONFIG or not out.exists()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dynamics=st.sampled_from(["eulerian", "geodesic"]),
           initial=st.sampled_from(["random", "taylor-green"]),
           amplitude=_edge_or_log_uniform(_AMPLITUDE_EDGES))
    def test_simulate_amplitude(self, tmp_path_factory, dynamics, initial,
                                amplitude):
        out = tmp_path_factory.mktemp("contract") / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(["simulate", "--dynamics", dynamics, "--N", "8",
                        "--T", "0.01", "--dt", "0.01", "--initial", initial,
                        f"--amplitude={amplitude!r}", "--out", out])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
        assert code != EXIT_CONFIG or not out.exists()

    def test_grid_beyond_the_point_budget_is_a_config_error(self, tmp_path,
                                                            capsys):
        # 2**40 points: refused before the grid allocates anything, not a
        # MemoryError traceback
        out = tmp_path / "o"
        with TracedPeak() as traced:
            code = run(["simulate", "--N", "1048576", "--T", "0.01",
                        "--dt", "0.01", "--out", out])
        assert code == EXIT_CONFIG
        assert "budget" in capsys.readouterr().err
        assert traced.peak < 1_000_000
        assert not out.exists()


class TestSimulate:
    def test_writes_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.05",
                    "--out", out])
        assert code == EXIT_OK
        assert (out / "trajectory.csv").exists()
        assert (out / "final_u.egl").exists()

    def test_csv_has_hash_comment_and_header(self, tmp_path):
        out = tmp_path / "o"
        run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.05",
             "--out", out])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# config-hash: ")
        assert lines[1].split(",")[0] == "t"
        assert len(lines) == 2 + 6  # comment, header, six states

    def test_deterministic_for_fixed_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.05",
                 "--seed", "42", "--out", out])
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.05",
                 "--seed", seed, "--out", out])
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_geodesic_dynamics(self, tmp_path):
        out = tmp_path / "g"
        code = run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.05",
                    "--dynamics", "geodesic", "--out", out])
        assert code == EXIT_OK
        assert (out / "final_phi.egl").exists()

    def test_geodesic_rk2_is_config_error(self, tmp_path, capsys):
        # the geodesic integrator has no RK2; the config must not claim one
        f = tmp_path / "run.ini"
        f.write_text("[run]\ndynamics = geodesic\nmethod = rk2\n")
        out = tmp_path / "g"
        code = run(["simulate", "--config", f, "--N", "16", "--dt", "0.01",
                    "--T", "0.02", "--out", out])
        assert code == EXIT_CONFIG
        assert "the geodesic integrator is RK4 only" in capsys.readouterr().err
        assert not out.exists()

    def test_geodesic_folding_step_is_numeric_failure(self, tmp_path):
        # dt * |du| = 2: the stage maps fold and cannot be inverted
        code = run(["simulate", "--N", "16", "--dt", "0.1", "--T", "0.1",
                    "--dynamics", "geodesic", "--initial", "taylor-green",
                    "--amplitude", "20", "--out", tmp_path / "g"])
        assert code == EXIT_NUMERIC

    def test_geodesic_orientation_failure_is_numeric(self, tmp_path, monkeypatch):
        from eulerlab import lagrangian
        from eulerlab.spectral import ScalarField

        monkeypatch.setattr(lagrangian, "det_jacobian",
                            lambda phi: ScalarField(phi.grid, -np.ones(phi.grid.shape)))
        code = run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.02",
                    "--dynamics", "geodesic", "--out", tmp_path / "g"])
        assert code == EXIT_NUMERIC

    def test_singular_newton_system_is_numeric(self, tmp_path, monkeypatch):
        # LinAlgError is a ValueError, but not a rejected parameter
        from eulerlab import cli

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(cli, "solve", singular)
        code = run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.02",
                    "--out", tmp_path / "o"])
        assert code == EXIT_NUMERIC

    def test_snapshot_dump_reads_result(self, tmp_path, capsys):
        out = tmp_path / "o"
        run(["simulate", "--N", "16", "--dt", "0.01", "--T", "0.05",
             "--out", out])
        assert run(["snapshot-dump", out / "final_u.egl"]) == EXIT_OK
        assert "VectorField" in capsys.readouterr().out


class TestIllposedness:
    def test_composition_outputs(self, tmp_path):
        out = tmp_path / "ill"
        code = run(["illposedness", "--experiment", "composition",
                    "--N", "128", "--kmax", "3", "--out", out])
        assert code == EXIT_OK
        csv = (out / "composition.csv").read_text().splitlines()
        assert csv[1].split(",")[:3] == ["k", "input_gap", "output_gap"]
        assert len(csv) == 2 + 3
        svg = (out / "composition.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_deterministic(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["illposedness", "--experiment", "composition",
                 "--N", "128", "--kmax", "2", "--seed", "9", "--out", out])
            blobs.append((out / "composition.csv").read_bytes())
        assert blobs[0] == blobs[1]
