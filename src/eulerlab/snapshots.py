"""Binary snapshot format for grid fields and diffeomorphisms.

Layout (little-endian):

    magic   4 bytes  b"EGL1"
    dim     u8
    n       u32
    length  f64
    kind    u8       0 scalar / 1 vector / 2 matrix / 3 skew / 4 diffeo
    ncomp   u8       number of stored component planes
    data    ncomp * n^dim f64, row-major

Skew-symmetric matrices (kind 3) store only the strict upper triangle;
the rest is reconstructed on load.  Diffeos (kind 4) store the
displacement components.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .lagrangian import Diffeo
from .spectral import Grid, MatrixField, ScalarField, VectorField

__all__ = ["save_snapshot", "load_snapshot", "SnapshotError"]

_MAGIC = b"EGL1"
_HEADER = struct.Struct("<4sBIdBB")

KIND_SCALAR, KIND_VECTOR, KIND_MATRIX, KIND_SKEW, KIND_DIFFEO = range(5)


class SnapshotError(ValueError):
    """Malformed or inconsistent snapshot file."""


def _upper_pairs(dim: int):
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def save_snapshot(path, obj) -> None:
    """Write a field or diffeomorphism; the kind is inferred from the type."""
    if isinstance(obj, Diffeo):
        grid, kind = obj.grid, KIND_DIFFEO
        planes = [obj.displacement.data[i] for i in range(grid.dim)]
    elif isinstance(obj, MatrixField):
        grid = obj.grid
        if obj.skew_defect() == 0.0:  # exact, so the round trip is lossless
            kind = KIND_SKEW
            planes = [obj.data[i, j] for i, j in _upper_pairs(grid.dim)]
        else:
            kind = KIND_MATRIX
            planes = [obj.data[i, j] for i in range(grid.dim)
                      for j in range(grid.dim)]
    elif isinstance(obj, VectorField):
        grid, kind = obj.grid, KIND_VECTOR
        planes = [obj.data[i] for i in range(grid.dim)]
    elif isinstance(obj, ScalarField):
        grid, kind = obj.grid, KIND_SCALAR
        planes = [obj.data]
    else:
        raise TypeError(f"cannot snapshot object of type {type(obj).__name__}")

    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, grid.dim, grid.n, grid.length,
                              kind, len(planes)))
        for p in planes:
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_snapshot(path, grid: Grid | None = None):
    """Read a snapshot; verifies the header against `grid` when given."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header")
    magic, dim, n, length, kind, ncomp = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    # the size check comes first: a Grid allocates O(n^dim) lattice tables
    expected = ncomp * n**dim * 8
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise SnapshotError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    try:
        file_grid = Grid(dim=dim, n=n, length=length)
    except ValueError as exc:
        raise SnapshotError(f"{path}: bad header: {exc}") from exc
    if grid is not None and grid != file_grid:
        raise SnapshotError(f"{path}: grid mismatch ({file_grid} vs {grid})")
    grid = file_grid
    planes = np.frombuffer(payload, dtype="<f8").reshape((ncomp,) + grid.shape)
    planes = planes.astype(np.float64)
    if not np.all(np.isfinite(planes)):
        raise SnapshotError(f"{path}: non-finite samples")

    if kind == KIND_SCALAR:
        if ncomp != 1:
            raise SnapshotError(f"{path}: scalar snapshot with {ncomp} planes")
        return ScalarField(grid, planes[0])
    if kind in (KIND_VECTOR, KIND_DIFFEO):
        if ncomp != grid.dim:
            raise SnapshotError(f"{path}: expected {grid.dim} planes")
        vec = VectorField(grid, planes)
        return Diffeo(vec) if kind == KIND_DIFFEO else vec
    if kind == KIND_MATRIX:
        if ncomp != grid.dim * grid.dim:
            raise SnapshotError(f"{path}: expected {grid.dim * grid.dim} planes")
        return MatrixField(grid, planes.reshape((grid.dim, grid.dim) + grid.shape))
    if kind == KIND_SKEW:
        pairs = _upper_pairs(grid.dim)
        if ncomp != len(pairs):
            raise SnapshotError(f"{path}: expected {len(pairs)} planes")
        data = np.zeros((grid.dim, grid.dim) + grid.shape)
        for plane, (i, j) in zip(planes, pairs):
            data[i, j] = plane
            data[j, i] = -plane
        return MatrixField(grid, data)
    raise SnapshotError(f"{path}: unknown kind tag {kind}")
