"""Command-line interface: subcommands, config handling, exit codes,
determinism of outputs."""

import numpy as np
import pytest

from eulerlab import VectorField
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

    def test_solution_map_time_not_multiple_of_dt_is_2(self, tmp_path, capsys):
        code = run(["illposedness", "--experiment", "solution-map", "--N", "16",
                    "--T", "0.0015", "--dt", "0.001", "--out", tmp_path / "s"])
        assert code == EXIT_CONFIG
        assert "not a multiple of dt" in capsys.readouterr().err


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

    def test_deterministic(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["illposedness", "--experiment", "composition",
                 "--N", "128", "--kmax", "2", "--seed", "9", "--out", out])
            blobs.append((out / "composition.csv").read_bytes())
        assert blobs[0] == blobs[1]
