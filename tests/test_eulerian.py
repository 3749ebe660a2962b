"""Time integration of the velocity equation d_t u = grad B(u) - (u.grad)u."""

import numpy as np
import pytest

from eulerlab import (
    BlowUpError,
    EulerState,
    Grid,
    GridMismatchError,
    StepperConfig,
    VectorField,
    div_evolution_residual,
    divergence,
    energy,
    random_div_free,
    rhs,
    sobolev_norm,
    solve,
    step,
    taylor_green,
)
from eulerlab import eulerian
from eulerlab.bform import BAssembly

from conftest import FullLattice, TracedPeak


def test_rhs_divergence_free_input_gives_projected_advection(grid32, rng):
    # for div-free u: grad B(u) - (u.grad)u = -P (u.grad) u
    from eulerlab import advect, leray_project
    u = random_div_free(grid32, rng)
    f = rhs(u, BAssembly(grid32))
    expect = leray_project(advect(u)) * (-1.0)
    assert sobolev_norm(f - expect, 2.0) < 1e-10 * max(sobolev_norm(expect, 2.0), 1e-30)


def test_solve_step_count_and_times(grid16, rng):
    u0 = random_div_free(grid16, rng, norm_value=0.2)
    traj = solve(u0, 0.1, StepperConfig(dt=0.02), keep="all")
    assert len(traj.states) == 6
    assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])


def test_solve_rejects_unaligned_horizon(grid16, rng):
    u0 = random_div_free(grid16, rng)
    with pytest.raises(ValueError):
        solve(u0, 0.05, StepperConfig(dt=0.02))


@pytest.mark.parametrize("T", [np.inf, np.nan])
def test_solve_rejects_non_finite_horizon(grid16, rng, T):
    u0 = random_div_free(grid16, rng)
    with pytest.raises(ValueError, match="positive and finite"):
        solve(u0, T, StepperConfig(dt=0.02))


def test_energy_conservation_short_run(grid32, rng):
    u0 = random_div_free(grid32, rng, norm_value=0.5)
    traj = solve(u0, 0.2, StepperConfig(dt=0.01))
    e = traj.energies
    assert abs(e[-1] - e[0]) < 1e-10 * e[0]


def test_divergence_stays_small(grid32, rng):
    u0 = random_div_free(grid32, rng, norm_value=0.5)
    traj = solve(u0, 0.2, StepperConfig(dt=0.01))
    assert traj.div_drifts.max() < 1e-10
    assert not traj.drift_budget_exceeded


def test_taylor_green_is_a_fixed_point(grid32):
    u0 = taylor_green(grid32)
    traj = solve(u0, 0.2, StepperConfig(dt=0.01))
    assert sobolev_norm(traj.final.u - u0, 2.0) < 1e-11


def test_rk2_less_accurate_than_rk4(grid32, rng):
    u0 = random_div_free(grid32, rng, s=0.0, norm_value=0.8, max_xi=4.0)
    ref = solve(u0, 0.2, StepperConfig(dt=0.0025)).final.u
    e4 = sobolev_norm(solve(u0, 0.2, StepperConfig(dt=0.02)).final.u - ref, 0.0)
    e2 = sobolev_norm(
        solve(u0, 0.2, StepperConfig(dt=0.02, method="rk2")).final.u - ref, 0.0)
    assert e4 < e2


def test_blowup_guard_triggers(grid16, rng, monkeypatch):
    monkeypatch.setattr(eulerian, "_NORM_GROWTH_LIMIT", 1.0 + 1e-12)
    u0 = random_div_free(grid16, rng, s=0.0, norm_value=1.0)
    with pytest.raises(BlowUpError):
        solve(u0, 1.0, StepperConfig(dt=0.05))


def test_drift_budget_flags_divergent_data(grid16, rng):
    # white noise is far from divergence-free: its drift is O(1) relative
    noise = VectorField(grid16, 1e-3 * rng.standard_normal((2,) + grid16.shape))
    traj = solve(noise, 0.02, StepperConfig(dt=0.01))
    assert traj.drift_budget_exceeded


def test_trajectory_sampling(grid16, rng):
    u0 = random_div_free(grid16, rng, norm_value=0.2)
    traj = solve(u0, 0.1, StepperConfig(dt=0.02), keep="all")
    st = traj.sample(0.04)
    assert st.t == pytest.approx(0.04)


def test_div_evolution_residual_closes(grid32, rng):
    # the divergence of the right-hand side reproduces the claimed
    # evolution law for div u up to the localized commutator terms
    u = random_div_free(grid32, rng, max_xi=5.0)
    res = div_evolution_residual(u)
    assert sobolev_norm(res, 1.0) < 1e-9


def test_energy_matches_l2_norm(grid16, rng):
    u = random_div_free(grid16, rng)
    assert energy(u) == pytest.approx(sobolev_norm(u, 0.0) ** 2, rel=1e-12)


def test_solution_scaling_covariance(grid32, rng):
    # u_c(t,x) = c u(ct, x) solves the same equation: compare trajectories
    c = 2.0
    u0 = random_div_free(grid32, rng, norm_value=0.3)
    a = solve(u0 * c, 0.25, StepperConfig(dt=0.005)).final.u
    b = solve(u0, 0.5, StepperConfig(dt=0.01)).final.u * c
    assert sobolev_norm(a - b, 2.0) < 1e-10 * max(sobolev_norm(b, 2.0), 1e-30)


# -- the half-spectrum core against a full-spectrum reference ---------------


def _reference_rhs(u, cutoff):
    """grad B(u) - (u . grad) u on full complex spectra: the reference
    grad B of ``FullLattice``, and the advection from its own Jacobian,
    dealiased by an fft -> mask -> ifft round trip."""
    g, dim = FullLattice(u.grid), u.grid.dim
    du = g.jacobian(u.data)
    adv = [g.dealiased(sum(u.data[k] * du[i][k] for k in range(dim)))
           for i in range(dim)]
    return g.grad_b(u.data, cutoff) - np.stack(adv)


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (3, 16)])
@pytest.mark.parametrize("cutoff", [1.0, 3.0])
def test_rhs_matches_full_spectrum_reference(dim, n, cutoff, rng):
    # white noise: not divergence-free, content up to the Nyquist modes
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    u = VectorField(grid, 0.3 * rng.standard_normal((dim,) + grid.shape))
    ref = _reference_rhs(u, cutoff)
    got = rhs(u, BAssembly(grid, cutoff=cutoff)).data
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("method", ["rk4", "rk2"])
def test_solve_is_repeated_step(grid32, rng, method):
    u0 = random_div_free(grid32, rng, norm_value=0.5)
    cfg = StepperConfig(dt=0.01, method=method)
    traj = solve(u0, 0.05, cfg, keep="all")
    state = EulerState(0.0, u0)
    for stored in traj.states[1:]:
        state = step(state, cfg)
        assert np.array_equal(state.u.data, stored.u.data)


@pytest.mark.parametrize("method", ["rk4", "rk2"])
def test_solve_steps_through_module_step(grid16, rng, monkeypatch, method):
    # one eulerian.step call per time step, looked up on the module: the
    # benchmark times its units at that boundary
    calls = []
    step_ = eulerian.step
    monkeypatch.setattr(eulerian, "step",
                        lambda *a: calls.append(a[0].t) or step_(*a))
    solve(random_div_free(grid16, rng), 0.05, StepperConfig(dt=0.01, method=method))
    assert calls == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04], abs=1e-15)


def test_rk_stage_fractions():
    # dy/dt = t^3 (RK4) and t (RK2) are integrated exactly only when f
    # is told each stage's fraction c of the step
    dt = 0.3
    y = np.array([1.0])
    rk4 = eulerian._rk(lambda c, y: np.array([(c * dt) ** 3]), y, dt)
    rk2 = eulerian._rk(lambda c, y: np.array([c * dt]), y, dt, method="rk2")
    assert rk4[0] == pytest.approx(1.0 + dt ** 4 / 4.0, rel=1e-15)
    assert rk2[0] == pytest.approx(1.0 + dt ** 2 / 2.0, rel=1e-15)


@pytest.mark.parametrize("method", ["rk4", "rk2"])
def test_rk_leaves_y_and_returns_a_new_array(method, rng):
    # the stages accumulate in place, never in y
    y = rng.standard_normal((2, 8, 5)) + 1j * rng.standard_normal((2, 8, 5))
    kept = y.copy()
    y.flags.writeable = False
    out = eulerian._rk(lambda c, v: (1.0 + c) * v * v, y, 0.1, method)
    assert np.array_equal(y, kept)
    assert not np.shares_memory(out, y)
    assert not np.array_equal(out, kept)


def test_monitors_match_field_norms(grid32, rng):
    # Hermitian-weighted half-spectrum sums equal the full-spectrum norms,
    # also for a field with divergence and Nyquist content
    u0 = VectorField(grid32, 0.1 * rng.standard_normal((2,) + grid32.shape))
    cfg = StepperConfig(dt=0.01, s_monitor=2.5)
    traj = solve(u0, 0.02, cfg, keep="all")
    for i, st in enumerate(traj.states):
        assert traj.energies[i] == pytest.approx(energy(st.u), rel=1e-12)
        assert traj.norms[i] == pytest.approx(sobolev_norm(st.u, 2.5), rel=1e-12)
        assert traj.div_drifts[i] == pytest.approx(
            sobolev_norm(divergence(st.u), 1.5), rel=1e-12)


def test_rhs_hat_transform_count(grid32, rng, planes):
    # 2D: u and du inverse (2 + 4 planes); the 3 B1 products, the B2
    # trace and the 2 advection components forward (6 planes)
    bb = BAssembly(grid32)
    u_hat = grid32.rfft(random_div_free(grid32, rng).data)
    planes.update(dict.fromkeys(planes, 0))
    bb.rhs_hat(u_hat)
    assert planes == {"rfft": 6, "irfft": 6}


def test_rhs_hat_transform_count_3d(grid3d, rng, planes):
    # 3D: u and du inverse (3 + 9 planes); the 6 B1 products, the B2
    # trace and the 3 advection components forward (10 planes)
    bb = BAssembly(grid3d)
    u_hat = grid3d.rfft(random_div_free(grid3d, rng).data)
    planes.update(dict.fromkeys(planes, 0))
    bb.rhs_hat(u_hat)
    assert planes == {"rfft": 10, "irfft": 12}


@pytest.mark.parametrize("dim,n,bound", [(2, 128, 27), (3, 32, 48)])
def test_fresh_step_memory(dim, n, bound, rng):
    # one step with a new assembly holds the assembly's symbols, its d + d^2
    # complex and d + d^2 + 1 real planes, the stage sum, the stage input,
    # one stage and rhs_hat's temporaries: 24.4 real planes in 2D and 42.8
    # in 3D; keeping k1..k4 and two real stacks took 34.4 and 60.9
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    u = random_div_free(grid, rng, norm_value=0.5)
    state = EulerState(0.0, VectorField.from_hat(grid, grid.rfft(u.data)))
    with TracedPeak() as traced:
        step(state, StepperConfig(dt=0.01))
    assert traced.peak <= bound * grid.size * 8


@pytest.mark.parametrize("n_steps", [1, 3])
def test_solve_transforms_the_initial_field_once(grid32, rng, planes, n_steps):
    # the monitors and the first step share the initial field's spectrum:
    # random_div_free keeps the one its projection built, and a
    # samples-only copy is transformed once (2 planes); each later step
    # starts from the spectrum its field keeps, so an RK4 step costs its
    # 4 rhs_hat calls of 6 forward planes only
    u0 = random_div_free(grid32, rng)
    for field, initial in ((u0, 0), (VectorField(grid32, u0.data), 2)):
        planes.update(dict.fromkeys(planes, 0))
        solve(field, n_steps * 0.01, StepperConfig(dt=0.01))
        assert planes["rfft"] == 24 * n_steps + initial


def test_stored_states_keep_samples_only(grid32, rng):
    # a stored spectrum would about double each state's memory
    traj = solve(random_div_free(grid32, rng), 0.03, StepperConfig(dt=0.01),
                 keep="all")
    assert all(st.u._hat is None for st in traj.states[1:])


def test_solve_keeps_initial_and_final_by_default(grid16, rng):
    u0 = random_div_free(grid16, rng, norm_value=0.2)
    traj = solve(u0, 0.1, StepperConfig(dt=0.02))
    assert len(traj.states) == 2
    assert traj.states[0].u is u0
    assert traj.final.t == traj.times[-1] == pytest.approx(0.1)
    assert len(traj.times) == len(traj.energies) == len(traj.norms) == 6
    with pytest.raises(KeyError, match='keep="all"'):
        traj.sample(0.04)
    with pytest.raises(KeyError, match="no stored state"):
        traj.sample(0.05)
    assert traj.sample(0.1) is traj.final


@pytest.mark.parametrize("method", ["rk4", "rk2"])
def test_keep_final_matches_keep_all(grid32, rng, method):
    u0 = random_div_free(grid32, rng, norm_value=0.5)
    cfg = StepperConfig(dt=0.01, method=method)
    final, full = solve(u0, 0.05, cfg), solve(u0, 0.05, cfg, keep="all")
    assert final.final.t == full.final.t
    assert np.array_equal(final.final.u.data, full.final.u.data)
    for name in ("times", "energies", "norms", "div_drifts"):
        assert np.array_equal(getattr(final, name), getattr(full, name))


@pytest.mark.parametrize("keep", ["every", "ALL", None, 2])
def test_solve_rejects_unknown_keep(grid16, rng, keep):
    with pytest.raises(ValueError, match="keep"):
        solve(random_div_free(grid16, rng), 0.02, StepperConfig(dt=0.01),
              keep=keep)


def test_solve_memory_is_bounded_unless_all_states_are_kept(rng):
    # 36 more steps cost less than one state's samples when only the final
    # state is kept, and 36 states' samples when all are
    grid = Grid(dim=2, n=64, length=2.0 * np.pi)
    u0 = random_div_free(grid, rng, norm_value=0.2)
    cfg = StepperConfig(dt=0.01)
    solve(u0, 0.02, cfg)  # builds the grid's cached symbols
    state_bytes = u0.data.nbytes
    for keep, low, high in (("final", -np.inf, state_bytes),
                            ("all", 30 * state_bytes, np.inf)):
        peaks = []
        for n_steps in (4, 40):
            with TracedPeak() as traced:
                solve(u0, n_steps * cfg.dt, cfg, keep=keep)
            peaks.append(traced.peak)
        assert low <= peaks[1] - peaks[0] < high


def test_step_count_overflow_is_a_value_error():
    # T / dt = inf: int(round(...)) raised OverflowError
    with pytest.raises(ValueError, match="overflows the step count"):
        eulerian._step_count(1e300, 1e-300)


def _white_noise_hat(grid, rng):
    return grid.rfft(0.3 * rng.standard_normal((grid.dim,) + grid.shape))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("cutoff", [1.0, 3.0])
def test_rhs_hat_equals_unbuffered_expression(dim, n, cutoff, rng):
    # the workspace evaluation reproduces, value for value, the plain
    # expression with one temporary per product
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    bb = BAssembly(grid, cutoff=cutoff)
    u_hat = _white_noise_hat(grid, rng)
    u, du = grid.irfft(u_hat), grid.irfft(u_hat[:, None] * grid.deriv)
    prods = np.stack([u[i] * u[k] for i, k in bb._pairs])
    b_hat = (np.sum(bb._b1_symbol * grid.rfft(prods), axis=0)
             + bb._b2_symbol * grid.rfft(np.einsum("ik...,ki...->...", du, du)))
    adv = grid.rfft(sum(du[:, k] * u[k] for k in range(dim)))
    expect = grid.deriv * b_hat - grid.dealias_mask * adv
    assert np.array_equal(bb.rhs_hat(u_hat), expect)


def test_rhs_hat_keeps_input_and_earlier_results(grid3d, rng):
    bb = BAssembly(grid3d)
    a_hat, b_hat = _white_noise_hat(grid3d, rng), _white_noise_hat(grid3d, rng)
    a_copy = a_hat.copy()
    first = bb.rhs_hat(a_hat)
    kept = first.copy()
    assert np.array_equal(a_hat, a_copy)
    second = bb.rhs_hat(b_hat)
    assert np.array_equal(first, kept)
    assert not np.array_equal(second, kept)


@pytest.mark.parametrize("dim,n", [(2, 128), (3, 32)])
def test_rhs_hat_allocates_little_beyond_its_result(dim, n, rng):
    # after the first call has built the workspace, a call allocates its
    # result and small buffers only, not one temporary per product
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    bb = BAssembly(grid)
    u_hat = _white_noise_hat(grid, rng)
    bb.rhs_hat(u_hat)
    with TracedPeak() as traced:
        result = bb.rhs_hat(u_hat)
    assert traced.peak <= 2 * result.nbytes


def test_step_rejects_assembly_on_other_grid(grid16, grid32, rng):
    state = EulerState(0.0, random_div_free(grid32, rng))
    with pytest.raises(GridMismatchError):
        step(state, StepperConfig(dt=0.01), BAssembly(grid16))


def test_step_rejects_assembly_with_other_cutoff(grid16, rng):
    state = EulerState(0.0, random_div_free(grid16, rng))
    with pytest.raises(ValueError, match="cutoff"):
        step(state, StepperConfig(dt=0.01, cutoff=3.0), BAssembly(grid16))
