"""Binary snapshot round trips and header validation."""

import numpy as np
import pytest

from eulerlab import (
    Diffeo,
    Grid,
    MatrixField,
    SnapshotError,
    jacobian,
    load_snapshot,
    random_div_free,
    random_scalar,
    save_snapshot,
    taylor_green,
    vorticity,
)
from eulerlab.snapshots import _HEADER

from conftest import TracedPeak

TAU = 2.0 * np.pi


def test_scalar_roundtrip(tmp_path, grid16, rng):
    f = random_scalar(grid16, rng)
    p = tmp_path / "f.egl"
    save_snapshot(p, f)
    g = load_snapshot(p)
    assert type(g) is type(f)
    assert g.grid == grid16
    assert np.array_equal(g.data, f.data)


def test_vector_roundtrip(tmp_path, grid16, rng):
    u = random_div_free(grid16, rng)
    p = tmp_path / "u.egl"
    save_snapshot(p, u)
    v = load_snapshot(p)
    assert np.array_equal(v.data, u.data)


def test_skew_matrix_stored_compactly(tmp_path, grid16):
    om = vorticity(taylor_green(Grid(dim=2, n=16, length=TAU)))
    p_skew = tmp_path / "om.egl"
    save_snapshot(p_skew, om)
    back = load_snapshot(p_skew)
    assert np.allclose(back.data, om.data, atol=1e-15)
    # a 2x2 skew matrix has one independent component vs four stored naively
    naive = 4 * 16 * 16 * 8
    assert p_skew.stat().st_size < naive / 2


def test_tiny_matrix_roundtrip_is_exact(tmp_path, grid16, rng):
    # a non-skew matrix is stored in full however small its entries are
    m = jacobian(random_div_free(grid16, rng, norm_value=1e-12))
    p = tmp_path / "m.egl"
    save_snapshot(p, m)
    assert load_snapshot(p).data.tobytes() == m.data.tobytes()


def test_near_skew_matrix_keeps_its_diagonal(tmp_path, grid16, rng):
    om = vorticity(random_div_free(grid16, rng)).data.copy()
    om[0, 0] += 4e-12
    m = MatrixField(grid16, om)
    p = tmp_path / "m.egl"
    save_snapshot(p, m)
    assert load_snapshot(p).data.tobytes() == m.data.tobytes()


def test_diffeo_roundtrip(tmp_path, grid16, rng):
    phi = Diffeo(random_div_free(grid16, rng) * 0.1)
    p = tmp_path / "phi.egl"
    save_snapshot(p, phi)
    back = load_snapshot(p)
    assert isinstance(back, Diffeo)
    assert np.array_equal(back.displacement.data, phi.displacement.data)


def test_3d_roundtrip(tmp_path, grid3d, rng):
    u = random_div_free(grid3d, rng)
    p = tmp_path / "u3.egl"
    save_snapshot(p, u)
    assert np.array_equal(load_snapshot(p).data, u.data)


def test_rejects_corrupt_magic(tmp_path, grid16, rng):
    p = tmp_path / "f.egl"
    save_snapshot(p, random_scalar(grid16, rng))
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError):
        load_snapshot(p)


def test_rejects_non_finite_samples(tmp_path, grid16, rng):
    p = tmp_path / "u.egl"
    save_snapshot(p, random_div_free(grid16, rng))
    raw = bytearray(p.read_bytes())
    raw[_HEADER.size + 8 * 5:_HEADER.size + 8 * 6] = np.array([np.nan], "<f8").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match=f"{p}: non-finite samples"):
        load_snapshot(p)


def test_rejects_truncated_payload(tmp_path, grid16, rng):
    p = tmp_path / "f.egl"
    save_snapshot(p, random_scalar(grid16, rng))
    p.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(SnapshotError):
        load_snapshot(p)


def test_grid_check(tmp_path, grid16, rng):
    p = tmp_path / "f.egl"
    save_snapshot(p, random_scalar(grid16, rng))
    other = Grid(dim=2, n=32, length=TAU)
    with pytest.raises(SnapshotError):
        load_snapshot(p, grid=other)


def test_values_bitwise_identical(tmp_path, grid16, rng):
    f = random_scalar(grid16, rng)
    p = tmp_path / "f.egl"
    save_snapshot(p, f)
    assert load_snapshot(p).data.tobytes() == f.data.tobytes()


@pytest.mark.parametrize("header", [(2, 12, TAU), (2, 16, float("nan")),
                                    (4, 8, TAU)])
def test_rejects_invalid_grid_header(tmp_path, header):
    dim, n, length = header
    p = tmp_path / "f.egl"
    p.write_bytes(_HEADER.pack(b"EGL1", dim, n, length, 0, 1) + bytes(8 * n**dim))
    with pytest.raises(SnapshotError, match="bad header"):
        load_snapshot(p)


def test_huge_header_rejected_before_allocating(tmp_path):
    p = tmp_path / "f.egl"
    p.write_bytes(_HEADER.pack(b"EGL1", 2, 4096, TAU, 0, 1).ljust(40, b"\0"))
    with TracedPeak() as traced:
        with pytest.raises(SnapshotError, match="payload"):
            load_snapshot(p)
    assert traced.peak < 1 << 20
