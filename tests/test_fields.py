"""Differential operators, Biot-Savart, bump constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab import (
    Grid,
    ScalarField,
    VectorField,
    advect,
    biot_savart,
    bump,
    chi_cutoff,
    div_free_bump,
    divergence,
    energy,
    gradient,
    jacobian,
    leray_project,
    partial_derivative,
    random_div_free,
    random_scalar,
    sobolev_inner,
    sobolev_norm,
    taylor_green,
    vorticity,
)
from eulerlab import fields

from conftest import FullLattice

TAU = 2.0 * np.pi


class TestDerivatives:
    def test_gradient_of_cosine(self, grid16):
        x = grid16.coords()[0]
        f = ScalarField(grid16, np.cos(x))
        g = gradient(f)
        assert np.max(np.abs(g.data[0] + np.sin(x))) < 1e-13
        assert np.max(np.abs(g.data[1])) < 1e-13

    def test_divergence_of_gradient_is_laplacian(self, grid16, rng):
        f = random_scalar(grid16, rng)
        lap = divergence(gradient(f))
        full = FullLattice(grid16)
        expect = full.ifft(-full.xi_sq * full.fft(f.data)).real
        assert np.max(np.abs(lap.data - expect)) < 1e-12

    def test_jacobian_entries(self, grid32, rng):
        u = random_div_free(grid32, rng)
        J = jacobian(u)
        d1u0 = partial_derivative(ScalarField(grid32, u.data[0]), 1)
        assert np.max(np.abs(J.data[0, 1] - d1u0.data)) < 1e-13


class TestProjection:
    def test_projection_is_divergence_free(self, grid16, rng):
        u = type(random_div_free(grid16, rng))(
            grid16, np.stack([random_scalar(grid16, rng).data,
                              random_scalar(grid16, rng).data]))
        p = leray_project(u)
        assert sobolev_norm(divergence(p), 0.0) < 1e-12

    def test_projection_fixes_divergence_free(self, grid16, rng):
        u = random_div_free(grid16, rng)
        assert sobolev_norm(leray_project(u) - u, 2.0) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_projection_idempotent(self, seed):
        g = Grid(dim=2, n=16, length=TAU)
        r = np.random.default_rng(seed)
        u = random_div_free(g, r) + gradient(random_scalar(g, r))
        once = leray_project(u)
        assert sobolev_norm(leray_project(once) - once, 1.0) < 1e-11


class TestBiotSavart:
    def test_taylor_green_roundtrip(self, grid32):
        u = taylor_green(grid32)
        v = biot_savart(vorticity(u))
        assert sobolev_norm(v - u, 2.0) / sobolev_norm(u, 2.0) < 1e-12

    def test_random_roundtrip_3d(self, grid3d, rng):
        u = random_div_free(grid3d, rng)
        v = biot_savart(vorticity(u))
        assert sobolev_norm(v - u, 2.0) / sobolev_norm(u, 2.0) < 1e-10

    def test_rejects_non_skew(self, grid16, rng):
        u = random_div_free(grid16, rng)
        J = jacobian(u)  # not skew in general
        with pytest.raises(ValueError):
            biot_savart(J)

    def test_gradient_bounded_by_vorticity(self, grid16, rng):
        # ||du||_{s-1} <= dim * ||Omega||_{s-1} for divergence-free u
        for _ in range(10):
            u = random_div_free(grid16, rng)
            s = 2.5
            assert sobolev_norm(jacobian(u), s - 1.0) \
                <= grid16.dim * sobolev_norm(vorticity(u), s - 1.0) + 1e-12


class TestAdvection:
    def test_constant_field_advects_nothing(self, grid16, rng):
        u = random_div_free(grid16, rng)
        c = type(u)(grid16, np.zeros_like(u.data))
        assert np.max(np.abs(advect(c, u).data)) < 1e-14

    def test_matches_pointwise_product(self, grid32, rng):
        # solid-rotation-free check on band-limited data: (u . grad)u
        u = random_div_free(grid32, rng, max_xi=3.0)
        a = advect(u)
        J = jacobian(u)
        expect = np.einsum("ij...,j...->i...", J.data, u.data)
        # advect dealiases; compare after projecting the product too
        product = type(u)(grid32, expect)
        expect = type(u).from_hat(
            grid32, np.where(grid32.dealias_mask, product.hat, 0.0)).data
        assert np.max(np.abs(a.data - expect)) < 1e-11


def _full_plane_bump(grid, center, r, amp):
    """The bump's expression evaluated on every node of the grid."""
    x = np.arange(grid.n) * grid.spacing
    d2 = np.zeros(grid.shape)
    for xj, cj in zip(np.meshgrid(*([x] * grid.dim), indexing="ij"),
                      center % grid.length):
        d = np.abs(xj - cj)
        d = np.minimum(d, grid.length - d)
        d2 += d * d
    inside = d2 < r * r
    return np.where(inside, amp * np.exp(-r * r / np.where(inside, r * r - d2, 1.0)),
                    0.0)


class TestBumps:
    def test_bump_support_and_positivity(self, grid32):
        f = bump(grid32, (np.pi, np.pi), r=1.0)
        x, y = grid32.coords()
        outside = (x - np.pi) ** 2 + (y - np.pi) ** 2 > 1.0
        assert np.max(np.abs(f.data[outside])) == 0.0
        assert f.data.max() == pytest.approx(np.exp(-1.0))  # peak a*e^{-1}

    @pytest.mark.parametrize("radius", ["below-a-cell", "few-cells", "half-box"])
    @pytest.mark.parametrize("centre", ["node", "between", "seam", "near-edge"])
    @pytest.mark.parametrize("dim,n", [(2, 64), (3, 16)])
    def test_bump_matches_meshgrid_formula(self, dim, n, centre, radius):
        # the support box may be empty, one node, wrap across the seam or
        # span nearly the whole box
        grid = Grid(dim=dim, n=n, length=TAU)
        h, amp = grid.spacing, 0.8
        center = {"node": h * np.array([5.0, 7.0, 3.0]),
                  "between": h * np.array([5.5, 7.25, 3.6]),
                  "seam": h * np.array([0.3, n - 0.4, -0.2]),
                  "near-edge": np.array([0.02, TAU - 0.03, 3.1])}[centre][:dim]
        # 3.02 cells: from a centre on a node, the box's edge nodes lie
        # inside by a hair and carry values near exp(-76)
        r = {"below-a-cell": 0.45 * h, "few-cells": 3.02 * h,
             "half-box": 0.5 * TAU * (1.0 - 1e-12)}[radius]
        got = bump(grid, center, r, amplitude=amp).data
        assert np.array_equal(got, _full_plane_bump(grid, center, r, amp))
        if radius == "below-a-cell":  # zero nodes inside, or the nearest one
            assert np.count_nonzero(got) == (centre in ("node", "near-edge"))

    @pytest.mark.parametrize("modulation", [0.0, 3.0])
    @pytest.mark.parametrize("dim,n,r", [(2, 64, 0.8), (2, 64, 3.0), (3, 16, 1.2)])
    def test_div_free_bump_matches_full_plane_bump(self, dim, n, r, modulation,
                                                   monkeypatch):
        grid = Grid(dim=dim, n=n, length=TAU)
        center = np.array([0.1, TAU - 0.2, 2.0])[:dim]
        got = div_free_bump(grid, center, r=r, modulation=modulation).data
        monkeypatch.setattr(fields, "bump", lambda g, c, r: ScalarField(
            g, _full_plane_bump(g, np.asarray(c), r, 1.0)))
        ref = div_free_bump(grid, center, r=r, modulation=modulation).data
        assert np.array_equal(got, ref)

    def test_bump_rejects_oversize_radius(self, grid16):
        with pytest.raises(ValueError):
            bump(grid16, (0.0, 0.0), r=0.6 * grid16.length)

    def test_div_free_bump_properties(self, grid32):
        u = div_free_bump(grid32, (np.pi, np.pi), r=1.0, s=2.5, norm_value=0.3)
        assert abs(sobolev_norm(u, 2.5) - 0.3) < 1e-10
        assert sobolev_norm(divergence(u), 1.0) < 1e-10

    def test_div_free_bump_scale_past_the_float_range_rejected(self):
        # on a box of length 1e154 a bump of radius 0.7 is one node, its
        # H^2.5 norm about 1e-154: the scale to 2.5e154 is inf, a
        # ValueError before the product, with no RuntimeWarning from it
        grid = Grid(dim=2, n=16, length=1e154)
        center = (0.75e154, 0.75e154)
        with pytest.raises(ValueError, match="cannot be scaled"):
            div_free_bump(grid, center, r=0.7, s=2.5, norm_value=2.5e154)

    def test_div_free_bump_3d(self, grid3d):
        u = div_free_bump(grid3d, (np.pi, np.pi, np.pi), r=1.0)
        assert sobolev_norm(divergence(u), 1.0) < 1e-10


def test_taylor_green_is_divergence_free_eigenfield(grid32):
    u = taylor_green(grid32)
    assert sobolev_norm(divergence(u), 1.0) < 1e-13
    # eigenfunction of the Laplacian with |xi|^2 = 2
    full = FullLattice(grid32)
    lap = np.stack([
        full.ifft(-full.xi_sq * full.fft(u.data[i])).real
        for i in range(2)
    ])
    assert np.max(np.abs(lap + 2.0 * u.data)) < 1e-12


def test_random_div_free_normalization(grid16, rng):
    u = random_div_free(grid16, rng, s=3.0, norm_value=0.5)
    assert abs(sobolev_norm(u, 3.0) - 0.5) < 1e-12
    assert sobolev_norm(divergence(u), 2.0) < 1e-12


# -- the half-lattice operators against the full-lattice reference --------


def _nyquist_free_noise(full, shape, rng):
    hat = full.fft(rng.standard_normal(shape + full.grid.shape))
    return full.ifft(np.where(full.nyquist_mask, 0.0, hat))


def _reference(name, f, g, full):
    """Full-lattice value of each operator, as sums and masks over all
    N^dim modes."""
    F, G = full.fft(f.data), full.fft(g.data)
    w = (1.0 + full.xi_sq) ** 1.5
    safe = np.where(full.xi_sq > 0, full.xi_sq, 1.0)
    if name == "sobolev_norm":
        return np.sqrt(np.sum(w * np.abs(F) ** 2))
    if name == "sobolev_inner":
        return np.real(np.sum(w * F * np.conj(G)))
    if name == "energy":
        return np.sum(np.abs(F) ** 2)
    if name == "chi_cutoff":
        return full.ifft(np.where(full.xi_sq <= 4.0 * (1.0 + 1e-12), F, 0.0))
    if name == "leray_project":
        div = sum(x * F[j] for j, x in enumerate(full.xi_axes))
        return full.ifft(F - np.stack([x * div / safe for x in full.xi_axes]))
    om = full.fft(vorticity(f).data)
    acc = [sum(om[ell, j] * full.xi_axes[j] for j in range(len(F)))
           for ell in range(len(F))]
    return full.ifft(np.stack([np.where(full.xi_sq > 0, -1j * a / safe, 0.0)
                               for a in acc]))


_OPERATORS = {
    "sobolev_norm": lambda f, g: sobolev_norm(f, 1.5),
    "sobolev_inner": lambda f, g: sobolev_inner(f, g, 1.5),
    "energy": lambda f, g: energy(f),
    "chi_cutoff": lambda f, g: chi_cutoff(f, 2.0).data,
    "leray_project": lambda f, g: leray_project(f).data,
    "biot_savart": lambda f, g: biot_savart(vorticity(f)).data,
}


@pytest.mark.parametrize("name", sorted(_OPERATORS))
@pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (3, 16)])
def test_half_lattice_matches_full_reference(name, dim, n, rng):
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    full = FullLattice(grid)
    f = VectorField(grid, _nyquist_free_noise(full, (dim,), rng))
    # correlated second field, so the inner product is not a cancellation
    g = f + VectorField(grid, _nyquist_free_noise(full, (dim,), rng))
    ref = _reference(name, f, g, full)
    got = _OPERATORS[name](f, g)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
