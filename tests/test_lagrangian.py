"""Diffeomorphisms, composition, inversion, geodesic flow, pullbacks."""

import numpy as np
import pytest

from eulerlab import (
    BAssembly,
    BlowUpError,
    Diffeo,
    GeodesicConfig,
    StepperConfig,
    VectorField,
    compose,
    compose_diffeo,
    det_jacobian,
    divergence,
    eulerian_from_lagrangian,
    exp_map,
    flow_of,
    geodesic_solve,
    identity,
    invert,
    random_div_free,
    random_scalar,
    ScalarField,
    shift,
    sobolev_norm,
    solve,
    taylor_green,
    vorticity,
    vorticity_pullback,
)
from eulerlab import lagrangian
from eulerlab.interp import Interpolant

from conftest import FullLattice

TAU = 2.0 * np.pi


class TestDiffeoBasics:
    def test_identity_positions_are_grid(self, grid16):
        phi = identity(grid16)
        pos = phi.positions()
        coords = np.stack([np.broadcast_to(c, grid16.shape)
                           for c in grid16.coords()])
        assert np.array_equal(pos, coords)

    def test_shift_composes_to_sum(self, grid32, rng):
        a, b = np.array([0.7, -0.3]), np.array([1.1, 0.5])
        ab = compose_diffeo(shift(grid32, a), shift(grid32, b))
        expect = shift(grid32, a + b)
        gap = np.max(np.abs(ab.displacement.data - expect.displacement.data))
        assert gap < 1e-11

    def test_compose_with_shift_translates(self, grid32, rng):
        f = random_scalar(grid32, rng, max_xi=3.0)
        a = np.array([0.4, 1.3])
        g = compose(f, shift(grid32, a), order="fourier")
        # (f o shift_a)(x) = f(x + a): modulation e^{+i xi . a}
        full = FullLattice(grid32)
        expect = full.ifft(full.fft(f.data)
                           * np.exp(1j * sum(x * v for x, v in
                                             zip(full.xi_axes, a)))).real
        assert np.max(np.abs(g.data - expect)) < 1e-11

    def test_orientation_check(self, grid16):
        x = grid16.coords()[0]
        bad = Diffeo(VectorField(grid16, np.stack(
            [-1.5 * np.sin(x) * np.ones(grid16.shape),
             np.zeros(grid16.shape)])))
        with pytest.raises(ValueError):
            bad.check_orientation()


class TestInversion:
    def test_invert_shift_is_negative_shift(self, grid32):
        a = np.array([0.9, -0.2])
        inv = invert(shift(grid32, a))
        assert np.max(np.abs(inv.displacement.data + a[:, None, None])) < 1e-12

    def test_invert_roundtrip(self, grid32, rng):
        u = random_div_free(grid32, rng, max_xi=3.0, norm_value=1.0)
        phi = Diffeo(u * 0.2)
        psi = invert(phi, order=5)
        rt = compose_diffeo(phi, psi, order=5)
        assert np.max(np.abs(rt.displacement.data)) < 1e-7

    def test_invert_converges_tightly(self, grid32, rng):
        u = random_div_free(grid32, rng, max_xi=2.0)
        phi = Diffeo(u * 0.3)
        psi = invert(phi, order="fourier", tol=1e-12)
        rt = compose_diffeo(phi, psi, order="fourier")
        assert np.max(np.abs(rt.displacement.data)) < 1e-9

    def test_folded_map_fails_fast(self, grid16, monkeypatch):
        # x1 + 1.5 sin x1 folds near x1 = pi: Newton fires and the
        # residual rises, which ends the iteration well before max_iter
        calls = []
        at = Interpolant.at
        monkeypatch.setattr(Interpolant, "at",
                            lambda self, p: calls.append(1) or at(self, p))
        x = grid16.coords()[0]
        phi = Diffeo(VectorField(grid16, np.stack([1.5 * np.sin(x),
                                                   np.zeros(grid16.shape)])))
        with pytest.raises(RuntimeError, match="did not reach"):
            invert(phi, max_iter=100)
        assert len(calls) < 100


class TestDeterminant:
    def test_identity_has_unit_det(self, grid16):
        d = det_jacobian(identity(grid16))
        assert np.max(np.abs(d.data - 1.0)) == 0.0

    def test_known_shear(self, grid32):
        # phi = x + (0.3 sin(x2), 0): triangular jacobian, det = 1
        x2 = grid32.coords()[1]
        disp = np.stack([0.3 * np.sin(x2) * np.ones(grid32.shape),
                         np.zeros(grid32.shape)])
        d = det_jacobian(Diffeo(VectorField(grid32, disp)))
        assert np.max(np.abs(d.data - 1.0)) < 1e-12

    def test_linear_stretch(self, grid32):
        # phi = x + 0.2 sin(x1) e1: det = 1 + 0.2 cos(x1)
        x1 = grid32.coords()[0]
        disp = np.stack([0.2 * np.sin(x1) * np.ones(grid32.shape),
                         np.zeros(grid32.shape)])
        d = det_jacobian(Diffeo(VectorField(grid32, disp)))
        assert np.max(np.abs(d.data - (1.0 + 0.2 * np.cos(x1)))) < 1e-12


class TestGeodesic:
    def test_zero_velocity_stays_at_identity(self, grid16):
        u0 = VectorField.zero(grid16)
        traj = geodesic_solve(u0, 0.1, GeodesicConfig(dt=0.05))
        assert np.max(np.abs(traj.final.phi.displacement.data)) == 0.0

    def test_speed_conserved(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        traj = geodesic_solve(u0, 0.2, GeodesicConfig(dt=0.02))
        assert abs(traj.speeds[-1] - traj.speeds[0]) < 1e-8 * traj.speeds[0]

    def test_volume_preserved(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        traj = geodesic_solve(u0, 0.2, GeodesicConfig(dt=0.01, order=5))
        d = det_jacobian(traj.final.phi)
        # resolution-limited at n = 32 (independent of dt and spline order)
        assert np.max(np.abs(d.data - 1.0)) < 5e-6

    def test_matches_eulerian_velocity(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        T, dt = 0.2, 0.02
        geo = geodesic_solve(u0, T, GeodesicConfig(dt=dt))
        eul = solve(u0, T, StepperConfig(dt=dt)).final.u
        u_lag = eulerian_from_lagrangian(geo)[-1].u
        rel = sobolev_norm(u_lag - eul, 2.0) / sobolev_norm(eul, 2.0)
        assert rel < 2e-3

    def test_exp_map_at_zero_time_is_identity(self, grid16, rng):
        u0 = random_div_free(grid16, rng)
        assert np.max(np.abs(exp_map(u0, 0.0).displacement.data)) == 0.0


class TestGeodesicFailures:
    """Every numerical failure inside a geodesic step surfaces from
    geodesic_solve as BlowUpError."""

    def test_folded_map(self, grid16, rng, monkeypatch):
        # check_orientation's own ValueError, forced by a negative det
        monkeypatch.setattr(lagrangian, "det_jacobian",
                            lambda phi: ScalarField(phi.grid, -np.ones(phi.grid.shape)))
        u0 = random_div_free(grid16, rng, norm_value=0.2)
        with pytest.raises(BlowUpError) as err:
            geodesic_solve(u0, 0.1, GeodesicConfig(dt=0.05))
        assert isinstance(err.value.__cause__, ValueError)
        assert "orientation" in str(err.value)

    def test_non_finite_velocity(self, grid16, rng, monkeypatch):
        # an overflowing acceleration reaches the field constructor
        monkeypatch.setattr(BAssembly, "grad_b", lambda self, u: VectorField(
            u.grid, np.full((2,) + u.grid.shape, 1e308)))
        u0 = random_div_free(grid16, rng, norm_value=0.2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowUpError) as err:
            geodesic_solve(u0, 0.1, GeodesicConfig(dt=0.05))
        assert isinstance(err.value.__cause__, ValueError)
        assert "non-finite" in str(err.value)

    def test_non_finite_newton_iterate(self, grid16, rng, monkeypatch):
        # a negative tolerance is never met, not even by a residual that
        # rounds to 0, so the contraction stalls and Newton fires; its
        # solve is replaced by one returning NaN
        solve_ = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.full_like(solve_(a, b), np.nan))
        u0 = random_div_free(grid16, rng, norm_value=0.2)
        with pytest.raises(BlowUpError, match="non-finite iterate"):
            geodesic_solve(u0, 0.1, GeodesicConfig(dt=0.05, inversion_tol=-1.0))


class TestFlowAndPullback:
    def test_flow_matches_exp(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        T, dt = 0.2, 0.01
        traj = solve(u0, T, StepperConfig(dt=dt))
        flows = flow_of(traj)
        phi_exp = exp_map(u0, T, GeodesicConfig(dt=dt))
        gap = np.max(np.abs(flows[-1][1].displacement.data
                            - phi_exp.displacement.data))
        assert gap < 1e-6

    def test_flow_requires_even_step_count(self, grid16, rng):
        u0 = random_div_free(grid16, rng, norm_value=0.1)
        traj = solve(u0, 0.03, StepperConfig(dt=0.01))
        with pytest.raises(ValueError):
            flow_of(traj)

    def test_vorticity_pullback_identity(self, grid32, rng):
        u = random_div_free(grid32, rng)
        om = vorticity(u)
        back = vorticity_pullback(identity(grid32), om)
        assert sobolev_norm(back - om, 1.0) < 1e-12

    def test_vorticity_transported(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        T, dt = 0.2, 0.01
        traj = solve(u0, T, StepperConfig(dt=dt))
        t_end, phi = flow_of(traj)[-1]
        om_t = vorticity(traj.final.u)
        pulled = vorticity_pullback(phi, om_t)
        om_0 = vorticity(u0)
        rel = sobolev_norm(pulled - om_0, 1.5) / sobolev_norm(om_0, 1.5)
        assert rel < 1e-3


def test_taylor_green_geodesic_keeps_speed(grid32):
    # the material velocity is not divergence-free pointwise, but its L2
    # norm (the geodesic speed) is a constant of motion
    u0 = taylor_green(grid32)
    traj = geodesic_solve(u0, 0.1, GeodesicConfig(dt=0.01))
    assert abs(traj.speeds[-1] - traj.speeds[0]) < 1e-6 * traj.speeds[0]
    assert sobolev_norm(divergence(u0), 1.0) < 1e-13
