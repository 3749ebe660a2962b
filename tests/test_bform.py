"""The quadratic form B = B1 + B2 replacing the pressure gradient."""

import tracemalloc

import numpy as np
import pytest

from eulerlab import (
    BAssembly,
    Grid,
    GridMismatchError,
    advect,
    divergence,
    random_div_free,
    random_scalar,
    rhs,
    sobolev_norm,
    taylor_green,
)
from eulerlab.spectral import VectorField

from conftest import FullLattice

TAU = 2.0 * np.pi


@pytest.fixture
def bb(grid32):
    return BAssembly(grid32)


def test_b_splits_into_low_and_high(bb, grid32, rng):
    u = random_div_free(grid32, rng)
    total = bb.b(u)
    parts = bb.b1(u) + bb.b2(u)
    assert sobolev_norm(total - parts, 2.0) < 1e-13


def test_b1_supported_on_low_modes(bb, grid32, rng):
    u = random_div_free(grid32, rng)
    hat = bb.b1(u).hat
    assert np.max(np.abs(hat[grid32.xi_sq > 1.0 + 1e-9])) < 1e-16


def test_b2_supported_on_high_modes(bb, grid32, rng):
    u = random_div_free(grid32, rng)
    hat = bb.b2(u).hat
    assert np.max(np.abs(hat[grid32.xi_sq <= 1.0 + 1e-9])) < 1e-16


def test_gradient_identity_taylor_green(grid32):
    # grad B(u) equals minus the gradient part of (u.grad)u
    bb = BAssembly(grid32)
    u = taylor_green(grid32)
    assert bb.gradient_residual(u) < 1e-13


def test_gradient_identity_random(bb, grid32, rng):
    for _ in range(5):
        u = random_div_free(grid32, rng)
        res = bb.gradient_residual(u) / max(sobolev_norm(u, 2.5) ** 2, 1e-30)
        assert res < 1e-9


def test_poisson_residual(bb, grid32, rng):
    # -Delta B(u) should match div((u.grad)u) above the cutoff and the
    # localized symbol below: check the assembled pressure solves the
    # Poisson problem  -Delta p = div((u.grad)u)  for div-free u
    u = random_div_free(grid32, rng, max_xi=6.0)
    p = bb.pressure_from(u)
    full = FullLattice(grid32)
    lap_p = full.ifft(-full.xi_sq * full.fft(p.data)).real
    rhs = divergence(advect(u)).data
    num = np.linalg.norm(lap_p + rhs) / max(np.linalg.norm(rhs), 1e-30)
    assert num < 1e-9


def test_pressure_warns_on_divergent_input(bb, grid32, rng):
    u = VectorField(grid32, np.stack([random_scalar(grid32, rng).data,
                                      random_scalar(grid32, rng).data]))
    with pytest.warns(UserWarning):
        bb.pressure_from(u)


def test_quadratic_homogeneity(bb, grid32, rng):
    u = random_div_free(grid32, rng)
    lhs = bb.b(u * 3.0)
    rhs = bb.b(u) * 9.0
    assert sobolev_norm(lhs - rhs, 2.0) < 1e-11 * sobolev_norm(rhs, 2.0)


def test_cutoff_radius_controls_split(grid32, rng):
    u = random_div_free(grid32, rng)
    wide = BAssembly(grid32, cutoff=3.0)
    hat = wide.b1(u).hat
    assert np.max(np.abs(hat[grid32.xi_sq > 9.0 + 1e-9])) < 1e-16
    # total is independent of where the split happens (both solve the
    # same Poisson problem away from the zero mode)
    narrow = BAssembly(grid32, cutoff=1.0)
    assert sobolev_norm(wide.b(u) - narrow.b(u), 2.0) \
        < 1e-10 * max(sobolev_norm(narrow.b(u), 2.0), 1e-30)


def test_rejects_mismatched_grid(bb, rng):
    other = Grid(dim=2, n=16, length=TAU)
    with pytest.raises(Exception):
        bb.b(random_div_free(other, rng))


def test_mismatched_grid_is_grid_mismatch_error(grid16, grid32, rng):
    # the assembly shares the package's grid check, and so does rhs
    bb16 = BAssembly(grid16)
    u32 = random_div_free(grid32, rng)
    for evaluate in (bb16.b, bb16.b1, bb16.b2, bb16.grad_b,
                     lambda u: rhs(u, bb16)):
        with pytest.raises(GridMismatchError):
            evaluate(u32)


# -- the shared workspace pass ----------------------------------------------


def _white_noise(grid, rng):
    # not divergence-free, content up to the Nyquist modes
    return VectorField(grid, 0.3 * rng.standard_normal((grid.dim,) + grid.shape))


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (3, 16)])
@pytest.mark.parametrize("cutoff", [1.0, 3.0])
def test_grad_b_matches_full_spectrum_reference(dim, n, cutoff, rng):
    grid = Grid(dim=dim, n=n, length=TAU)
    u = _white_noise(grid, rng)
    ref = FullLattice(grid).grad_b(u.data, cutoff)
    got = BAssembly(grid, cutoff=cutoff).grad_b(u).data
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
@pytest.mark.parametrize("method,factor", [("b", 8), ("b1", 8), ("b2", 8),
                                           ("grad_b", 4)])
def test_b_methods_allocate_little_beyond_their_result(dim, n, method, factor,
                                                       rng):
    # after the first call has built the workspace, a call allocates its
    # input spectrum, its result and small buffers only
    grid = Grid(dim=dim, n=n, length=TAU)
    evaluate = getattr(BAssembly(grid), method)
    u = _white_noise(grid, rng)
    evaluate(u)
    tracemalloc.start()
    try:
        result = evaluate(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= factor * result.data.nbytes


def test_b_result_survives_later_calls(grid3d, rng):
    bb = BAssembly(grid3d)
    u, v = _white_noise(grid3d, rng), _white_noise(grid3d, rng)
    first = bb.b(u)
    kept, kept_hat = first.data.copy(), first.hat.copy()
    bb.grad_b(v)
    bb.b(v)
    assert np.array_equal(first.data, kept)
    assert np.array_equal(first.hat, kept_hat)
    assert np.array_equal(bb.b(u).data, kept)
