"""Acceptance suite: one test per acceptance criterion, each emitting a
single PASS/FAIL line with the measured values.

Desk scale throughout: dim = 2 (plus 3D spot checks), N = 16..128 for the
dynamics, T = 1 for the long runs.  Tolerances are pinned in-line.
"""

import time
import warnings

import numpy as np

from eulerlab import (
    BAssembly,
    Diffeo,
    GeodesicConfig,
    Grid,
    StepperConfig,
    VectorField,
    advect,
    chi_cutoff,
    composition_experiment,
    det_jacobian,
    dexp_fd,
    divergence,
    eulerian_from_lagrangian,
    exp_map,
    flow_of,
    geodesic_solve,
    jacobian,
    random_div_free,
    random_scalar,
    scaling_check,
    sobolev_inner,
    sobolev_norm,
    solution_map_experiment,
    solve,
    taylor_green,
    vorticity,
    vorticity_pullback,
)

from conftest import FullLattice

TAU = 2.0 * np.pi
G16 = Grid(dim=2, n=16, length=TAU)
G32 = Grid(dim=2, n=32, length=TAU)
G64 = Grid(dim=2, n=64, length=TAU)


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc} ({detail})")
    assert ok, f"criterion {num:02d} failed: {detail}"


def lift(u: VectorField, fine: Grid) -> VectorField:
    """Embed a band-limited field into a finer grid by zero-padding the
    spectrum (values are preserved exactly for resolved modes)."""
    coarse = u.grid
    m = (np.fft.fftfreq(coarse.n, 1.0 / coarse.n).astype(int)) % fine.n
    hat = np.zeros((coarse.dim,) + fine.shape, dtype=complex)
    hat[(slice(None),) + np.ix_(*[m] * coarse.dim)] = np.stack(
        [FullLattice(coarse).fft(u.data[i]) for i in range(coarse.dim)])
    return VectorField(fine, FullLattice(fine).ifft(hat))


def test_criterion_01_chi_operator_laws():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst_adj, worst_gain = 0.0, 0.0
    for i in range(100):
        f = random_scalar(G16, rng)
        g = random_scalar(G16, rng)
        lo = chi_cutoff(f)
        assert np.array_equal(lo.data, chi_cutoff(lo).data)  # exact idempotence
        worst_adj = max(worst_adj, abs(sobolev_inner(lo, g, 0.0)
                                       - sobolev_inner(f, chi_cutoff(g), 0.0)))
        for s, sp in ((2.0, 1.0), (3.0, 2.0)):
            ratio = sobolev_norm(lo, s + sp) / max(2 ** (sp / 2)
                                                   * sobolev_norm(f, s), 1e-300)
            worst_gain = max(worst_gain, ratio)
    dt_run = time.perf_counter() - t0
    ok = worst_adj <= 1e-12 and worst_gain <= 1.0 + 1e-12 and dt_run < 5.0
    report(1, "chi(D) self-adjoint/idempotent/smoothing", ok,
           f"adj defect {worst_adj:.2e}, gain ratio {worst_gain:.6f}, "
           f"{dt_run:.2f}s")


def test_criterion_02_interpolation_inequality():
    rng = np.random.default_rng(101)
    worst = -np.inf
    for i in range(100):
        f = random_scalar(G16, rng)
        for sp, s, lam in ((1.0, 3.0, 0.5), (0.0, 2.0, 0.25)):
            mid = lam * sp + (1.0 - lam) * s
            slack = sobolev_norm(f, mid) \
                - sobolev_norm(f, sp) ** lam * sobolev_norm(f, s) ** (1 - lam)
            worst = max(worst, slack)
    ok = worst <= 1e-10
    report(2, "Sobolev interpolation inequality", ok, f"max slack {worst:.2e}")


def test_criterion_03_biot_savart_roundtrip():
    from eulerlab import biot_savart
    rng = np.random.default_rng(102)
    worst = 0.0
    cases = [taylor_green(G32)]
    cases += [random_div_free(G32, rng) for _ in range(14)]
    g3 = Grid(dim=3, n=16, length=TAU)
    cases += [random_div_free(g3, rng) for _ in range(6)]
    for u in cases:
        v = biot_savart(vorticity(u))
        worst = max(worst, sobolev_norm(v - u, 2.0) / sobolev_norm(u, 2.0))
    ok = worst <= 1e-10
    report(3, "velocity from vorticity round trip", ok,
           f"max rel H^2 error {worst:.2e} over {len(cases)} fields")


def test_criterion_04_gradient_vorticity_bound():
    rng = np.random.default_rng(103)
    s = 2.5
    violations = 0
    worst = 0.0
    grids = [G16, Grid(dim=3, n=16, length=TAU)]
    for i in range(100):
        g = grids[i % 2]
        u = random_div_free(g, rng)
        ratio = sobolev_norm(jacobian(u), s - 1.0) \
            / max(g.dim * sobolev_norm(vorticity(u), s - 1.0), 1e-300)
        worst = max(worst, ratio)
        violations += ratio > 1.0 + 1e-12
    ok = violations == 0
    report(4, "|du| <= dim |Omega| in H^{s-1}", ok,
           f"{violations} violations, max ratio {worst:.6f}")


def test_criterion_05_pressure_consistency():
    rng = np.random.default_rng(104)
    bb = BAssembly(G32)
    worst_grad, worst_poisson = 0.0, 0.0
    for _ in range(20):
        u = random_div_free(G32, rng)
        worst_grad = max(worst_grad,
                         bb.gradient_residual(u) / sobolev_norm(u, 2.5) ** 2)
        p = bb.pressure_from(u)
        full = FullLattice(G32)
        lap_p = full.ifft(-full.xi_sq * full.fft(p.data)).real
        rhs = divergence(advect(u)).data
        worst_poisson = max(worst_poisson,
                            np.linalg.norm(lap_p + rhs) / np.linalg.norm(rhs))
    ok = worst_grad <= 1e-9 and worst_poisson <= 1e-9
    report(5, "grad B(u) = -grad p and Poisson residual", ok,
           f"gradient {worst_grad:.2e}, poisson {worst_poisson:.2e}")


def test_criterion_06_divergence_preservation():
    rng = np.random.default_rng(105)
    u0 = random_div_free(G64, rng, s=3.0, norm_value=0.5)
    t0 = time.perf_counter()
    traj = solve(u0, 1.0, StepperConfig(dt=1e-3, s_monitor=2.5))
    runtime = time.perf_counter() - t0
    drift = traj.div_drifts.max()
    ok = drift <= 1e-7 and runtime < 60.0
    report(6, "divergence-free preserved over T=1", ok,
           f"max |div u|_{{H^1.5}} = {drift:.2e}, {runtime:.1f}s")


def test_criterion_07_taylor_green_stationarity():
    u0 = taylor_green(G64)
    traj = solve(u0, 1.0, StepperConfig(dt=1e-3))
    gap = sobolev_norm(traj.final.u - u0, 2.0)
    ok = gap <= 1e-8
    report(7, "Taylor-Green is a steady state", ok, f"|u(1)-u(0)|_2 = {gap:.2e}")


def _equivalence_gap(u0, dt):
    geo = geodesic_solve(u0, 1.0, GeodesicConfig(dt=dt, order=5))
    eul = solve(u0, 1.0, StepperConfig(dt=dt)).final.u
    u_lag = eulerian_from_lagrangian(geo, order=5)[-1].u
    return sobolev_norm(u_lag - eul, 2.5) / sobolev_norm(eul, 2.5), geo


def test_criterion_08_eulerian_lagrangian_equivalence():
    rng = np.random.default_rng(106)
    u32 = random_div_free(G32, rng, s=3.0, norm_value=0.5, max_xi=10.0,
                          decay=3.0)
    gap_coarse, _ = _equivalence_gap(u32, 2e-2)
    gap_fine, geo = _equivalence_gap(lift(u32, G64), 1e-2)
    test_criterion_08_eulerian_lagrangian_equivalence.geo = geo
    ok = gap_fine <= 1e-3 and gap_fine < gap_coarse
    report(8, "u(t) = (d_t phi) o phi^{-1}", ok,
           f"gap {gap_fine:.2e} at N=64 (coarse N=32: {gap_coarse:.2e})")


def test_criterion_09_volume_preservation_and_det_formula():
    geo = getattr(test_criterion_08_eulerian_lagrangian_equivalence, "geo",
                  None)
    if geo is None:  # run standalone
        rng = np.random.default_rng(106)
        u0 = lift(random_div_free(G32, rng, s=3.0, norm_value=0.5,
                                  max_xi=10.0, decay=3.0), G64)
        geo = geodesic_solve(u0, 1.0, GeodesicConfig(dt=1e-2, order=5))
    det_defect = np.max(np.abs(det_jacobian(geo.final.phi).data - 1.0))

    # synthetic flow of v = (sin x1, 0): on the invariant lines x1 = 0 and
    # x1 = pi the divergence is constant (+1 / -1), so det d phi_t = e^{ct}
    x1 = G64.coords()[0]
    T, dt = 0.5, 1e-3
    disp = np.zeros((2,) + G64.shape)

    def vel(d):
        out = np.zeros_like(d)
        out[0] = np.sin(x1 + d[0])
        return out

    for _ in range(int(round(T / dt))):
        k1 = vel(disp)
        k2 = vel(disp + 0.5 * dt * k1)
        k3 = vel(disp + 0.5 * dt * k2)
        k4 = vel(disp + dt * k3)
        disp = disp + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    det = det_jacobian(Diffeo(VectorField(G64, disp))).data
    exp_err = max(np.max(np.abs(det[0, :] - np.exp(T))),
                  np.max(np.abs(det[G64.n // 2, :] - np.exp(-T))))
    ok = det_defect <= 1e-6 and exp_err <= 1e-6
    report(9, "det d phi = 1 for div-free data; det = e^{ct} synthetic", ok,
           f"defect {det_defect:.2e}, e^(ct) error {exp_err:.2e}")


def test_criterion_10_vorticity_conservation():
    g = Grid(dim=2, n=128, length=TAU)
    rng = np.random.default_rng(107)
    u0 = random_div_free(g, rng, s=3.0, norm_value=0.5, max_xi=12.0, decay=3.0)
    s = 2.5
    t0 = time.perf_counter()
    traj, phi = flow_of(u0, 1.0, StepperConfig(dt=2e-3), order=5)
    om0 = vorticity(u0)
    pulled = vorticity_pullback(phi, vorticity(traj.final.u), order=5)
    runtime = time.perf_counter() - t0
    rel = sobolev_norm(pulled - om0, s - 1.0) / sobolev_norm(om0, s - 1.0)
    ok = rel <= 1e-4 and runtime < 180.0
    report(10, "pulled-back vorticity is conserved", ok,
           f"rel H^1.5 drift {rel:.2e} at N=128, {runtime:.1f}s")


def test_criterion_11_exponential_map_identities():
    rng = np.random.default_rng(108)
    u0 = random_div_free(G32, rng, s=3.0, norm_value=0.5)
    a = exp_map(u0, 0.5, GeodesicConfig(dt=5e-3)).displacement
    b = exp_map(u0 * 0.5, 1.0, GeodesicConfig(dt=1e-2)).displacement
    resc = sobolev_norm(a - b, 2.5)

    v = random_div_free(G32, rng, s=0.0, norm_value=0.5, max_xi=4.0)
    zero = VectorField.zero(G32)
    cfg = GeodesicConfig(dt=1e-2)
    errs = [sobolev_norm(dexp_fd(zero, v, eps, cfg) - v, 0.0)
            for eps in (1e-2, 5e-3, 2.5e-3)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = resc <= 1e-7 and all(3.0 < r < 5.0 for r in ratios)
    report(11, "exp rescaling and d_0 exp = id (O(eps^2))", ok,
           f"rescaling {resc:.2e}, FD ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


def test_criterion_12_scaling_identities():
    rng = np.random.default_rng(109)
    u0 = random_div_free(G32, rng, s=3.0, norm_value=0.3)
    c = 2.0
    a = solve(u0 * c, 0.25, StepperConfig(dt=5e-3)).final.u
    b = solve(u0, 0.5, StepperConfig(dt=1e-2)).final.u * c
    cov = sobolev_norm(a - b, 2.5) / sobolev_norm(b, 2.5)
    et = scaling_check(u0, 0.5, dt=1e-2)
    ok = cov <= 1e-6 and et <= 1e-5
    report(12, "trajectory covariance and E_T scaling", ok,
           f"covariance {cov:.2e}, E_T residual {et:.2e}")


def test_criterion_13_composition_map_separation():
    R = 0.1
    ser = composition_experiment(R=R)
    slope = ser.input_gap_slope()
    c1 = ser.output_gap[0] / R  # measured 1/C of the linear estimate
    floor_ok = ser.output_gap.min() >= 0.5 * R * c1
    trusted = ser.extras["trusted"] > 0
    sums = ser.extras["output_gap_sum"][trusted]
    translation_ok = np.all(np.abs(sums - R) <= 0.02 * R)
    ok = abs(slope + 1.0) <= 0.05 and floor_ok and translation_ok
    report(13, "composition map is nowhere uniformly continuous", ok,
           f"input slope {slope:+.4f}, min output {ser.output_gap.min():.4f} "
           f">= {0.5 * R * c1:.4f}, translation gap within "
           f"{np.max(np.abs(sums - R)) / R:.1%} of R")


def test_criterion_14_solution_map_separation():
    t0 = time.perf_counter()
    series = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for R in (0.05, 0.1, 0.2):
            series[R] = solution_map_experiment(R=R, k_max=8)
    runtime = time.perf_counter() - t0

    slopes = {R: s.input_gap_slope() for R, s in series.items()}
    slopes_ok = all(abs(sl + 1.0) <= 0.05 for sl in slopes.values())
    # a positive floor means the output gap stops tracking the decaying
    # input gap over the resolvable range
    floors = {R: s.output_gap.min() for R, s in series.items()}
    floor_ok = all(s.output_gap.min() >= 0.5 * s.output_gap[0]
                   for s in series.values())
    ratios = np.array([floors[R] / R for R in series])
    linear_ok = ratios.max() <= 1.25 * ratios.min()
    ok = slopes_ok and floor_ok and linear_ok and runtime < 300.0
    report(14, "solution map separation with R-linear output floor", ok,
           f"slopes {[f'{v:+.3f}' for v in slopes.values()]}, "
           f"floor/first-gap {[f'{s.output_gap.min() / s.output_gap[0]:.3f}' for s in series.values()]}, "
           f"floor/R spread {ratios.min():.4f}..{ratios.max():.4f}, "
           f"{runtime:.0f}s; no floor emerges: the output gap tracks the "
           f"input gap at this resolution (carrier wavenumber needed for a "
           f"floor lies far outside the dealiased band)")


def test_criterion_15_rk4_self_convergence():
    rng = np.random.default_rng(110)
    u0 = random_div_free(G16, rng, s=0.0, norm_value=0.8, max_xi=4.0)
    T = 0.1
    ref_e = solve(u0, T, StepperConfig(dt=T / 128)).final.u
    ee = [sobolev_norm(solve(u0, T, StepperConfig(dt=T / m)).final.u - ref_e,
                       0.0) for m in (4, 8, 16)]
    orders_e = [np.log2(ee[i] / ee[i + 1]) for i in range(2)]

    cfg = lambda m: GeodesicConfig(dt=T / m, order="fourier")
    ref_g = geodesic_solve(u0, T, cfg(64)).final.phi.displacement
    eg = [sobolev_norm(geodesic_solve(u0, T, cfg(m)).final.phi.displacement
                       - ref_g, 0.0) for m in (4, 8, 16)]
    orders_g = [np.log2(eg[i] / eg[i + 1]) for i in range(2)]
    ok = all(abs(o - 4.0) <= 0.3 for o in orders_e + orders_g)
    report(15, "RK4 order 4 for both integrators", ok,
           f"velocity orders {orders_e[0]:.2f}/{orders_e[1]:.2f}, "
           f"geodesic orders {orders_g[0]:.2f}/{orders_g[1]:.2f}")
