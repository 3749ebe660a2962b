"""Command-line interface: subcommands, config handling, exit codes,
determinism of outputs."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulerlab import (
    Diffeo,
    Grid,
    ScalarField,
    SeparationSeries,
    VectorField,
    cli,
    jacobian,
    random_div_free,
    vorticity,
)
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
from eulerlab.snapshots import _HEADER, save_snapshot

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

    @pytest.mark.parametrize("command", ["simulate", "verify", "illposedness"])
    def test_method_is_an_unknown_key(self, command, tmp_path, capsys):
        # every integrator is RK4; a config that picks a scheme is refused
        f = tmp_path / "run.ini"
        f.write_text("[run]\nmethod = rk2\n")
        out = tmp_path / "o"
        code = run([command, "--config", f, "--N", "16", "--dt", "0.01",
                    "--T", "0.02", "--out", out])
        assert code == EXIT_CONFIG
        assert "unknown config key 'method'" in capsys.readouterr().err
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


_SNAPSHOT_KINDS = {
    "scalar": lambda u: ScalarField(u.grid, u.data[0]),
    "vector": lambda u: u,
    "diffeo": lambda u: Diffeo(u * 0.1),
    "matrix": jacobian,
    "skew": vorticity,
}


def _snapshot_bytes(directory, kind, dim):
    """The bytes of a valid snapshot of one kind on an 8-point grid."""
    grid = Grid(dim=dim, n=8, length=TAU)
    u = random_div_free(grid, np.random.default_rng(0))
    path = directory / f"{kind}-{dim}.egl"
    save_snapshot(path, _SNAPSHOT_KINDS[kind](u))
    return path.read_bytes()


def _dump(path):
    """snapshot-dump in this process: exit code and captured output; an
    uncaught exception (a traceback) fails the calling test."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run(["snapshot-dump", path])
    return code, sink.getvalue()


_snapshot_files = dict(kind=st.sampled_from(sorted(_SNAPSHOT_KINDS)),
                       dim=st.sampled_from([2, 3]))


class TestSnapshotDumpContract:
    """snapshot-dump on truncated and garbled copies of valid files: a
    file that does not hold what its header states exits 2."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), **_snapshot_files)
    def test_cut_file_is_2(self, tmp_path_factory, data, kind, dim):
        d = tmp_path_factory.mktemp("snap")
        raw = _snapshot_bytes(d, kind, dim)
        cut = data.draw(st.integers(0, _HEADER.size - 1)
                        | st.integers(_HEADER.size, len(raw) - 1))
        (d / "cut.egl").write_bytes(raw[:cut])
        code, out = _dump(d / "cut.egl")
        assert code == EXIT_CONFIG
        assert ("truncated header" if cut < _HEADER.size else "payload is") in out

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=64), **_snapshot_files)
    def test_long_payload_is_2(self, tmp_path_factory, extra, kind, dim):
        d = tmp_path_factory.mktemp("snap")
        (d / "long.egl").write_bytes(_snapshot_bytes(d, kind, dim) + extra)
        code, out = _dump(d / "long.egl")
        assert code == EXIT_CONFIG
        assert "payload is" in out

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data(), in_header=st.booleans(), **_snapshot_files)
    def test_flipped_bytes_are_0_or_2(self, tmp_path_factory, data, in_header,
                                      kind, dim):
        # a flip can leave a valid file (a finite sample, another length
        # or a vector read as a diffeo); anything else is a config error
        d = tmp_path_factory.mktemp("snap")
        raw = bytearray(_snapshot_bytes(d, kind, dim))
        samples = (len(raw) - _HEADER.size) // 8
        # any payload byte, or the sign-and-exponent byte of a sample
        where = (st.integers(0, _HEADER.size - 1) if in_header
                 else st.integers(_HEADER.size, len(raw) - 1)
                 | st.integers(0, samples - 1).map(lambda i: _HEADER.size + 8 * i + 7))
        for _ in range(data.draw(st.integers(1, 3))):
            raw[data.draw(where)] ^= data.draw(st.integers(1, 255))
        (d / "flipped.egl").write_bytes(bytes(raw))
        code, out = _dump(d / "flipped.egl")
        assert code in (EXIT_OK, EXIT_CONFIG)
        assert ("sup |.|" in out) == (code == EXIT_OK)
        assert (code == EXIT_CONFIG) == out.startswith("config error: ")


    @pytest.mark.parametrize("kind", sorted(_SNAPSHOT_KINDS))
    def test_huge_samples_print_inf_norms_without_warning(self, tmp_path,
                                                          kind):
        # a flipped exponent bit made a sample 3e307: its H^s norms square
        # past the float range, which raised a RuntimeWarning
        raw = bytearray(_snapshot_bytes(tmp_path, kind, 2))
        raw[_HEADER.size + 7] ^= 0x40
        (tmp_path / "huge.egl").write_bytes(bytes(raw))
        code, out = _dump(tmp_path / "huge.egl")
        assert code == EXIT_OK
        assert "H^2 norm = inf" in out


class TestExitCodeContract:
    # the default --s and --L as a third of the draws, so that runs with
    # another drawn field get past the parameter checks
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dynamics=st.sampled_from(["eulerian", "geodesic"]),
           length=st.just(TAU) | _edge_or_log_uniform(_EDGES),
           s=st.just(2.5) | _edge_or_log_uniform(_EDGES))
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

    # sizes are tiny or refused before anything is allocated: an admitted
    # large size (2D N = 8192 sits at the point budget) would fill memory;
    # the default cutoff is a third of the draws
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dynamics=st.sampled_from(["eulerian", "geodesic"]),
           dim=st.sampled_from([2, 3]),
           n=st.sampled_from([8, 16, 0, -8, 12, 2**40]),
           cutoff=st.just(1.0) | _edge_or_log_uniform(_EDGES))
    def test_simulate_dimension_size_and_cutoff(self, tmp_path_factory,
                                                dynamics, dim, n, cutoff):
        d = tmp_path_factory.mktemp("contract")
        (d / "run.ini").write_text(f"[run]\ncutoff = {cutoff!r}\n")
        out = d / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(["simulate", "--config", d / "run.ini", "--dynamics",
                        dynamics, f"--n={dim}", f"--N={n}", "--T", "0.01",
                        "--dt", "0.01", "--out", out])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
        assert code != EXIT_CONFIG or not out.exists()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dynamics=st.sampled_from(["eulerian", "geodesic"]),
           T=_edge_or_log_uniform(_TIME_EDGES),
           dt=_edge_or_log_uniform(_TIME_EDGES))
    @example(dynamics="geodesic", T=8.0, dt=1.0)  # warns, see below
    def test_simulate_horizon_and_step(self, tmp_path_factory, dynamics, T,
                                       dt):
        # a valid run of more than 8 steps is a long run, not a contract
        # break (--T 1e10 --dt 1e-10 is 1e20 steps); an infinite step
        # count is a config error and stays
        valid = T > 0 and dt > 0 and np.isfinite(T) and np.isfinite(dt)
        assume(not (valid and 8.5 < T / dt < np.inf))
        out = tmp_path_factory.mktemp("contract") / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["simulate", "--dynamics", dynamics, "--N", "8",
                        f"--T={T!r}", f"--dt={dt!r}", "--out", out])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
        assert code != EXIT_CONFIG or not out.exists()
        # the one warning a draw may raise: compose and invert of a field
        # whose geodesic steps on 8 points fill the Nyquist lines
        for w in caught:
            assert dynamics == "geodesic" and w.category is UserWarning
            assert "unpaired Nyquist content" in str(w.message)

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

    # the default --s and --L as a third of the draws, so that runs with
    # another drawn field get past the parameter checks
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(experiment=st.sampled_from(["composition", "solution-map", "both"]),
           R=_edge_or_log_uniform(_AMPLITUDE_EDGES),
           s=st.just(2.5) | _edge_or_log_uniform(_EDGES),
           length=st.just(TAU) | _edge_or_log_uniform(_EDGES),
           k_max=st.sampled_from([2, 3]))
    def test_illposedness(self, tmp_path_factory, experiment, R, s, length,
                          k_max):
        # one solution-map step per solve keeps a draw at a few ms
        out = tmp_path_factory.mktemp("contract") / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(["illposedness", "--experiment", experiment, "--N", "16",
                        "--kmax", k_max, "--T", "0.01", "--dt", "0.01",
                        f"--R={R!r}", f"--s={s!r}", f"--L={length!r}",
                        "--out", out])
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
        assert code != EXIT_CONFIG or not out.exists()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(s=st.just(2.5) | _edge_or_log_uniform(_EDGES),
           length=st.just(TAU) | _edge_or_log_uniform(_EDGES),
           seed=st.integers(-2**70, 2**70),
           dt=st.sampled_from([0.1, 0.05, 0.025]))
    def test_verify(self, tmp_path_factory, s, length, seed, dt):
        out = tmp_path_factory.mktemp("contract") / "o"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(["verify", "--N", "8", f"--dt={dt!r}", f"--s={s!r}",
                        f"--L={length!r}", f"--seed={seed}", "--out", out])
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

    def test_plot_drops_non_finite_gaps(self, tmp_path):
        # an inf gap made the axis range infinite (OverflowError); inf and
        # nan points are dropped like non-positive ones
        svg = cli.svg_loglog({"a": ([1, 2, 3], [1.0, np.inf, 0.1]),
                              "b": ([1, 2, 3], [np.nan, 2.0, 0.5])}, "t")
        polylines = [line for line in svg.splitlines() if "<polyline" in line]
        assert [p.count(",") for p in polylines] == [2, 2]
        assert "nan" not in svg and "inf" not in svg

    def test_nothing_to_plot_writes_nothing(self, tmp_path):
        # the csv was written before the plot raised and was left behind;
        # every plot now renders first, also the other series' in "both"
        out = tmp_path / "ill"
        zero = SeparationSeries(np.array([1, 2]), np.zeros(2), np.zeros(2),
                                metadata={"experiment": "x", "R": 0.1})
        ok = SeparationSeries(np.array([1, 2]), np.ones(2), np.ones(2))
        for outputs in ([(zero, "x")], [(ok, "y"), (zero, "x")]):
            with pytest.raises(ValueError, match="nothing to plot"):
                cli._series_outputs(outputs, out, "hash")
            assert not out.exists()

    @pytest.mark.parametrize("experiment,R,s,message", [
        ("composition", "1e155", "2.5", "composition row k = 1 failed"),
        ("composition", "1e200", "2.5", "composition row k = 1 failed"),
        ("composition", "1e300", "2.5", "composition row k = 1 failed"),
        ("composition", "1e155", "-400", "composition row k = 1 failed"),
        ("solution-map", "1", "-400", "H^-400.0 norm grew to nan"),
    ])
    def test_norms_past_the_float_range_are_3(self, experiment, R, s, message,
                                              tmp_path, capsys):
        # the rows' gaps (composition) or the packet's monitored norm
        # (solution map, its H^-400 scaling makes huge samples) read inf,
        # or nan where a weight underflowed to 0: a numerical failure, with
        # no RuntimeWarning, no csv of inf gaps and no plot of them
        out = tmp_path / "ill"
        assert run(["illposedness", "--experiment", experiment, "--N", "16",
                    "--kmax", "2", "--T", "0.01", "--dt", "0.01", "--R", R,
                    f"--s={s}", "--out", out]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"numerical failure: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_both_with_a_rejected_solution_map_writes_nothing(self, tmp_path,
                                                              capsys):
        # the solution map's carrier is beyond the band at R = 1e-3: a
        # config error, after which no composition output may be left
        out = tmp_path / "ill"
        assert run(["illposedness", "--experiment", "both", "--N", "16",
                    "--kmax", "2", "--R", "1e-3", "--T", "0.01", "--dt",
                    "0.01", "--out", out]) == EXIT_CONFIG
        assert "carrier wavenumber" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["illposedness", "--experiment", "composition",
                 "--N", "128", "--kmax", "2", "--seed", "9", "--out", out])
            blobs.append((out / "composition.csv").read_bytes())
        assert blobs[0] == blobs[1]
