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
    bump,
    divergence,
    energy,
    flow_of,
    random_div_free,
    rhs,
    sobolev_norm,
    solve,
    step,
    taylor_green,
)
from eulerlab import eulerian
from eulerlab.bform import BAssembly

from conftest import FullLattice, TracedPeak, unbuffered_spectra


def test_rhs_divergence_free_input_gives_projected_advection(grid32, rng):
    # for div-free u: grad B(u) - (u.grad)u = -P (u.grad) u
    from eulerlab import advect, leray_project
    u = random_div_free(grid32, rng)
    f = rhs(u, BAssembly(grid32))
    expect = leray_project(advect(u)) * (-1.0)
    assert sobolev_norm(f - expect, 2.0) < 1e-10 * max(sobolev_norm(expect, 2.0), 1e-30)


def test_solve_step_count_and_times(grid16, rng):
    u0 = random_div_free(grid16, rng, norm_value=0.2)
    traj = solve(u0, 0.1, StepperConfig(dt=0.02))
    assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    assert traj.final.t == traj.times[-1]


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


def test_energy_matches_l2_norm(grid16, rng):
    u = random_div_free(grid16, rng)
    assert energy(u) == pytest.approx(sobolev_norm(u, 0.0) ** 2, rel=1e-12)


def test_energy_past_the_float_range_is_inf_without_warning(grid16):
    import warnings
    f = bump(grid16, [3.0, 3.0], r=0.5).data * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert energy(VectorField(grid16, np.stack([f, -f]))) == np.inf


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


def test_solve_is_repeated_step(grid32, rng):
    u0 = random_div_free(grid32, rng, norm_value=0.5)
    cfg = StepperConfig(dt=0.01)
    state = EulerState(0.0, u0)
    for n_steps in range(1, 6):
        state = step(state, cfg)
        final = solve(u0, n_steps * cfg.dt, cfg).final
        assert np.array_equal(state.u.data, final.u.data)


def test_solve_steps_through_module_step(grid16, rng, monkeypatch):
    # one eulerian.step call per time step, looked up on the module: the
    # benchmark times its units at that boundary
    calls = []
    step_ = eulerian.step
    monkeypatch.setattr(eulerian, "step",
                        lambda *a: calls.append(a[0].t) or step_(*a))
    solve(random_div_free(grid16, rng), 0.05, StepperConfig(dt=0.01))
    assert calls == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04], abs=1e-15)


def test_rk_stage_fractions():
    # dy/dt = t^3 is integrated exactly only when f is told each stage's
    # fraction c of the step
    dt = 0.3
    y = np.array([1.0])
    rk4 = eulerian._rk(lambda c, y: np.array([(c * dt) ** 3]), y, dt)
    assert rk4[0] == pytest.approx(1.0 + dt ** 4 / 4.0, rel=1e-15)


def test_rk_leaves_y_and_returns_a_new_array(rng):
    # the stages accumulate in place, never in y
    y = rng.standard_normal((2, 8, 5)) + 1j * rng.standard_normal((2, 8, 5))
    kept = y.copy()
    y.flags.writeable = False
    out = eulerian._rk(lambda c, v: (1.0 + c) * v * v, y, 0.1)
    assert np.array_equal(y, kept)
    assert not np.shares_memory(out, y)
    assert not np.array_equal(out, kept)


def test_monitors_match_field_norms(grid32, rng):
    # Hermitian-weighted half-spectrum sums equal the full-spectrum norms,
    # also for a field with divergence and Nyquist content
    u0 = VectorField(grid32, 0.1 * rng.standard_normal((2,) + grid32.shape))
    cfg = StepperConfig(dt=0.01, s_monitor=2.5)
    traj = solve(u0, 0.02, cfg)
    state = EulerState(0.0, u0)
    for i in range(len(traj.times)):
        if i:
            state = step(state, cfg)
        u = VectorField(grid32, state.u.data)
        assert traj.energies[i] == pytest.approx(energy(u), rel=1e-12)
        assert traj.norms[i] == pytest.approx(sobolev_norm(u, 2.5), rel=1e-12)
        assert traj.div_drifts[i] == pytest.approx(
            sobolev_norm(divergence(u), 1.5), rel=1e-12)


def test_rhs_hat_transform_count(grid32, rng, planes):
    # 2D: u and du inverse (2 + 4 planes); the B2 trace and the 2
    # advection components forward (3 planes), the 3 B1 products
    # contracted with the DFT rows of B1's band
    bb = BAssembly(grid32)
    u_hat = grid32.rfft(random_div_free(grid32, rng).data)
    planes.update(dict.fromkeys(planes, 0))
    bb.rhs_hat(u_hat)
    assert planes == {"rfft": 3, "irfft": 6}


def test_rhs_hat_transform_count_3d(grid3d, rng, planes):
    # 3D: u and du inverse (3 + 9 planes); the B2 trace and the 3
    # advection components forward (4 planes), the 6 B1 products
    # contracted with the DFT rows of B1's band
    bb = BAssembly(grid3d)
    u_hat = grid3d.rfft(random_div_free(grid3d, rng).data)
    planes.update(dict.fromkeys(planes, 0))
    bb.rhs_hat(u_hat)
    assert planes == {"rfft": 4, "irfft": 12}


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
    # 4 rhs_hat calls of 3 forward planes only
    u0 = random_div_free(grid32, rng)
    for field, initial in ((u0, 0), (VectorField(grid32, u0.data), 2)):
        planes.update(dict.fromkeys(planes, 0))
        solve(field, n_steps * 0.01, StepperConfig(dt=0.01))
        assert planes["rfft"] == 12 * n_steps + initial


def test_stored_states_keep_samples_only(grid32, rng):
    # a stored spectrum would about double the final state's memory; the
    # state stepped to it carries one
    u0 = random_div_free(grid32, rng)
    cfg = StepperConfig(dt=0.01)
    traj = solve(u0, 0.02, cfg)
    assert traj.final.u._hat is None
    assert flow_of(u0, 0.02, cfg)[0].final.u._hat is None
    assert step(step(EulerState(0.0, u0), cfg), cfg).u._hat is not None


def test_solve_keeps_initial_and_final_by_default(grid16, rng):
    u0 = random_div_free(grid16, rng, norm_value=0.2)
    traj = solve(u0, 0.1, StepperConfig(dt=0.02))
    assert len(traj.states) == 2
    assert traj.states[0].u is u0
    assert traj.final.t == traj.times[-1] == pytest.approx(0.1)
    assert len(traj.times) == len(traj.energies) == len(traj.norms) == 6


def test_solve_monitors_match_step_chain(grid32, rng):
    # the times are exact multiples of dt, and the monitors those of the
    # states step by step, bit for bit
    u0 = random_div_free(grid32, rng, norm_value=0.5)
    cfg = StepperConfig(dt=0.01)
    traj = solve(u0, 0.05, cfg)
    measure = eulerian._monitors(grid32, cfg.s_monitor)
    state, rows = EulerState(0.0, u0), [measure(u0.hat)]
    for _ in range(5):
        state = step(state, cfg)
        rows.append(measure(state.u.hat))
    energies, norms, drifts = map(np.array, zip(*rows))
    assert np.array_equal(traj.times, np.arange(6) * cfg.dt)
    assert np.array_equal(traj.energies, energies)
    assert np.array_equal(traj.norms, norms)
    assert np.array_equal(traj.div_drifts, drifts)
    assert np.array_equal(traj.final.u.data, state.u.data)


@pytest.mark.parametrize("run", [solve, flow_of])
def test_solve_memory_is_bounded(rng, run):
    # 36 more steps cost less than one state's samples: the solve keeps
    # the initial and final states only, and the streamed flow map holds
    # the interpolants of one flow step only
    grid = Grid(dim=2, n=64, length=2.0 * np.pi)
    u0 = random_div_free(grid, rng, norm_value=0.2)
    cfg = StepperConfig(dt=0.01)
    run(u0, 0.02, cfg)  # builds the grid's cached symbols
    peaks = []
    for n_steps in (4, 40):
        with TracedPeak() as traced:
            run(u0, n_steps * cfg.dt, cfg)
        peaks.append(traced.peak)
    assert peaks[1] - peaks[0] < u0.data.nbytes


def test_step_count_overflow_is_a_value_error():
    # T / dt = inf: int(round(...)) raised OverflowError
    with pytest.raises(ValueError, match="overflows the step count"):
        eulerian._step_count(1e300, 1e-300)


def _white_noise_hat(grid, rng):
    return grid.rfft(0.3 * rng.standard_normal((grid.dim,) + grid.shape))


def _b1_band(bb):
    """Half-lattice mask of the modes where B1's symbol is nonzero."""
    band = np.zeros(bb.grid.xi_sq.shape, dtype=bool)
    band[bb._box] = np.any(bb._b1_symbol, axis=0)
    return band


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("cutoff", [1.0, 3.0])
def test_rhs_hat_equals_unbuffered_expression_off_the_b1_band(dim, n, cutoff,
                                                              rng):
    # the workspace evaluation reproduces, value for value, the plain
    # expression with one temporary per product: the advection and B2
    # everywhere, and so rhs_hat off the band where B1 lives
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    bb = BAssembly(grid, cutoff=cutoff)
    u_hat = _white_noise_hat(grid, rng)
    b1, b2, adv = unbuffered_spectra(bb, u_hat)
    b_hat, adv_hat = (s.copy() for s in bb._spectra(u_hat))
    off = ~_b1_band(bb)
    assert np.array_equal(adv_hat, adv)
    assert np.array_equal(b_hat[off], b2[off])
    expect = grid.deriv * (b1 + b2) - grid.dealias_mask * adv
    assert np.array_equal(bb.rhs_hat(u_hat)[:, off], expect[:, off])


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("cutoff", [1.0, 3.0])
def test_rhs_hat_b1_agrees_with_transformed_products(dim, n, cutoff, rng):
    # on its band B1 comes from the products contracted with the band's
    # DFT rows, not from their FFT.  Both take a coefficient as a mean of
    # the product's samples in another order, so they agree to eps times
    # the largest sample (read: below 1.5e-17 of it), and rhs_hat to that
    # times |xi| <= cutoff
    grid = Grid(dim=dim, n=n, length=2.0 * np.pi)
    bb = BAssembly(grid, cutoff=cutoff)
    u_hat = _white_noise_hat(grid, rng)
    b1, b2, adv = unbuffered_spectra(bb, u_hat)
    u = grid.irfft(u_hat)
    tol = np.finfo(float).eps * max(np.max(np.abs(u[i] * u[k]))
                                    for i, k in bb._pairs)
    band = _b1_band(bb)
    b_hat = bb._spectra(u_hat)[0]
    assert np.max(np.abs(b_hat[band] - b1[band])) <= tol
    expect = grid.deriv * (b1 + b2) - grid.dealias_mask * adv
    assert np.max(np.abs(bb.rhs_hat(u_hat) - expect)) <= tol * cutoff


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
