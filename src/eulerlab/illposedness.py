"""Desk-scale separation experiments: non-uniform continuity of the
composition map and of the time-1 Euler solution map.

Both experiments build pairs of input sequences whose distance decays
like 1/k while the distance of the outputs stays bounded away from zero
-- the operational signature of a map that is continuous but nowhere
locally uniformly continuous.

The constructions follow the shrinking-scale pattern: a perturbation of
size O(1/k) applied to data carrying structure at spatial scale O(1/k),
so the output difference is a scale-matched shift of order one relative
to the carried structure.  On a fixed grid the accessible scale range is
finite; every series carries resolution flags and the construction
parameters are desk-scaled versions of the idealized ones (see README).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eulerian import BlowUpError, StepperConfig, _step_count, solve
from .fields import _axis_dist, _bump_box, _smooth_step, div_free_bump, vorticity
from .interp import _shifted_lines
from .lagrangian import Diffeo, GeodesicConfig, exp_map, invert
from .spectral import (
    Grid,
    VectorField,
    _power,
    _rfft_rows,
    _sobolev_weight,
    chi_cutoff,
    sobolev_norm,
)

__all__ = [
    "SeparationSeries",
    "composition_experiment",
    "solution_map_experiment",
    "scaling_check",
    "dexp_fd",
]

# spline order of each row's composition and of its invert call; the
# row's map is a strip shear, so invert returns its exact inverse and the
# row applies that inverse line by line as a Fourier multiplier, neither
# interpolating.  The composed field is df_k alone: the base bump f_base,
# off every line the shear moves, would come out of the composition as it
# went in and cancel from the gap, so no row forms it
_COMPOSITION_ORDER = 5


@dataclass(frozen=True)
class SeparationSeries:
    """Rows (k, input_gap, output_gap, extra columns) plus run metadata."""

    k: np.ndarray
    input_gap: np.ndarray
    output_gap: np.ndarray
    extras: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.k) <= 0):
            raise ValueError("k must be strictly increasing")
        if np.any(self.input_gap < 0) or np.any(self.output_gap < 0):
            raise ValueError("gaps must be nonnegative")

    def column_names(self) -> list[str]:
        return ["k", "input_gap", "output_gap", *self.extras.keys()]

    def rows(self):
        cols = [self.k, self.input_gap, self.output_gap, *self.extras.values()]
        for i in range(len(self.k)):
            yield [c[i] for c in cols]

    def input_gap_slope(self) -> float:
        """Least-squares slope of log(input_gap) vs log(k)."""
        if len(self.k) < 2:
            raise ValueError(f"a slope needs at least two rows, got {len(self.k)}")
        return float(np.polyfit(np.log(self.k), np.log(self.input_gap), 1)[0])


def _axis_plateau(grid: Grid, axis: int, center: float, r_flat: float,
                  r_out: float) -> np.ndarray:
    """1D plateau in coordinate `axis`: 1 inside r_flat, 0 outside r_out.
    The step is evaluated on the 1-D axis and returned as a read-only
    broadcast view of grid shape."""
    d = _axis_dist(grid, center)
    prof = _smooth_step((r_out - d) / (r_out - r_flat))
    return np.broadcast_to(prof.reshape((-1,) + (1,) * (grid.dim - 1 - axis)),
                           grid.shape)


def composition_experiment(R: float = 0.1, k_max: int = 13, s: float = 2.5,
                           grid: Grid | None = None, M: float = 0.8,
                           delta1: float = 0.32) -> SeparationSeries:
    """Separation series for the composition map nu(f, phi) = f o phi^{-1}.

    Base point: (f_base, id) with f_base a bump.  The k-th input pair
    shares the data component f_base + df_k, where df_k is a bump of
    radius delta1/k at a remote point x_star with ||df_k||_s = R/2, and
    differs in the diffeomorphism component by a localized translation
    field dphi/k (a volume-preserving shear plateau of amplitude M in the
    second coordinate, so phi_k moves the support of df_k rigidly by
    M/k e_2 while fixing the support of f_base).

    Input gap = ||dphi||_s / k decays exactly like 1/k; the output gap
    stays at the order of 2 ||df_k||_s = R because the translation by
    M/k separates df_k (width ~ 2 delta1/k < M/k) from itself.

    Desk-scale deviations from the idealized construction: dphi keeps
    unit amplitude instead of norm R/2 (otherwise the shifted supports
    would be far below grid resolution), and its support is a coordinate
    strip rather than a ball (keeps det(d phi_k) = 1 exactly, and makes
    phi_k a shear, whose inverse psi_k = id - dphi/k is exact and needs
    no interpolation, and with which a composition is a Fourier multiplier
    on each moved line, so no row prefilters or evaluates a spline at
    points).  Rows with under-resolved df_k carry resolved = 0.

    Extra columns: output_gap_sum = ||nu(f_base+df_k, phi_k) - nu(f_base,
    phi_k)||_s + ||df_k||_s, which measures the two disjointly supported
    halves separately and equals R up to interpolation error.
    resolved / trusted are resolution flags (>= 4 and >= 8 cells per bump
    radius).

    The base point cancels, so f_base (a bump of radius r_base = 1 at
    (3L/4, L/4)) is never built.  The box check keeps the strip, and so
    every line phi_k moves, off f_base's support: there f_base + df_k is
    df_k, and on every other line the composition copies the samples.  So
    nu(f_base, phi_k) is f_base itself, and nu(f_base + df_k, phi_k) -
    (f_base + df_k) is df_k o psi_k - df_k sample for sample, which is
    what the rows compute.

    The strip varies along the first axis and shears along the last, so
    the lines it moves are rows (lines along the last axis), and df_k,
    its composition and the gap are zero off df_k's rows.  A zero row
    transforms to exact zeros, so every spectrum a row's norms read is
    ``Grid.rfft`` of the full plane bit for bit, taken from the nonzero
    rows alone (``spectral._rfft_rows``).  The series allocates once what
    every row writes over: two half spectra, the two planes of squares
    of a norm (``spectral._power``) and the rows the strip moves, so no
    row allocates an array of grid or half-lattice size.
    """
    if grid is None:
        grid = Grid(dim=2, n=1024, length=2.0 * np.pi)
    if grid.dim != 2:
        raise ValueError(f"the composition experiment is 2D only, got dim = {grid.dim}")
    if not (0 < 2.0 * delta1 < M < 1.0):
        raise ValueError("need 0 < 2*delta1 < M < 1 for support separation")
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2 for an input-gap slope, got {k_max}")
    L = grid.length
    x_star = np.array([0.25 * L, 0.25 * L])
    strip_flat, strip_out, r_base = 0.4, 1.0, 1.0
    # the base bump sits at (3L/4, L/4): half a box, along the axis the
    # strip varies in, from the strip's centre line
    if strip_out + r_base >= 0.5 * L:
        raise ValueError(
            f"box length {L} too small: the shear strip (half-width "
            f"{strip_out}) and the base bump (radius {r_base}) must not overlap"
        )

    # unit-amplitude localized translation field along e_2, constant on
    # the strip and along e_2: its samples are a read-only broadcast view
    # of one column per component
    prof = M * _axis_plateau(grid, 0, x_star[0], strip_flat, strip_out)[:, :1]
    dphi = VectorField(grid, np.broadcast_to(np.stack([np.zeros_like(prof), prof]),
                                             (2,) + grid.shape))
    # one workspace for the series: the two half spectra a row's norms
    # read, the two planes of squares of each norm, and room for the rows
    # the strip moves (a row's shifts are the profile's nonzero samples
    # times 1/k, no more of them nonzero).  The rows write over it, so
    # none allocates an array of grid or half-lattice size
    work = (np.empty((2,) + grid.xi_sq.shape, dtype=np.complex128),
            np.empty((2,) + grid.xi_sq.shape),
            np.empty((np.count_nonzero(prof), grid.n)))
    # ||dphi||_s is that of its profile along one axis.  The H^s weight
    # is symmetric in the axes, so take the profile along the last axis:
    # constant along the first, its half spectrum is the profile's rfft
    # on the line k_0 = 0 and zero elsewhere, which is what rfftn gives
    # bit for bit, so the input gap is that of a full-plane transform
    strip_hat = work[0][0]
    strip_hat.fill(0.0)
    strip_hat[0] = np.fft.rfft(prof[:, 0], norm="forward")
    dphi_norm = _hs_norm(strip_hat, _sobolev_weight(grid, s), work[1])

    ks = np.arange(1, k_max + 1)
    in_gap = np.empty(k_max)
    out_gap = np.empty(k_max)
    out_sum = np.empty(k_max)
    resolved = np.empty(k_max)
    trusted = np.empty(k_max)
    # near-cell-size bumps carry unpaired Nyquist content by design; the
    # rows compose without the check that would warn of it, and the
    # resolved/trusted flags carry that information
    try:
        for i, k in enumerate(ks):
            dk = delta1 / k
            out_gap[i], out_sum[i] = _composition_row(dphi, k, x_star, dk, R, s,
                                                      work)
            if not (np.isfinite(out_gap[i]) and np.isfinite(out_sum[i])):
                raise ValueError("its H^s norms pass the float range")
            in_gap[i] = dphi_norm / k
            resolved[i] = float(dk >= 4.0 * grid.spacing)
            trusted[i] = float(dk >= 8.0 * grid.spacing)
    except ValueError as exc:  # non-finite samples or norms
        raise BlowUpError(f"composition row k = {k} failed: {exc}") from exc

    return SeparationSeries(
        ks, in_gap, out_gap,
        extras={"output_gap_sum": out_sum, "resolved": resolved,
                "trusted": trusted},
        metadata={"R": R, "s": s, "n": grid.n, "length": grid.length,
                  "M": M, "delta1": delta1, "order": _COMPOSITION_ORDER,
                  "experiment": "composition"},
    )


def _hs_norm(hat: np.ndarray, weight: np.ndarray, out: np.ndarray) -> float:
    """``sobolev_norm`` of the field whose half spectrum is ``hat``, for
    the H^s weight plane ``weight`` (``spectral._sobolev_weight``), with
    ``out`` for ``_power``'s two planes of squares."""
    return float(np.sqrt(_power(hat, weight, out)))


def _composition_row(dphi, k, x_star, dk: float, R: float, s: float, work):
    """(output_gap, output_gap_sum) of row k of the composition series,
    computed on df_k's rows, in the series' workspace ``work`` (half
    spectra, planes of squares, moved rows; see
    ``composition_experiment``).  The base bump cancels, so the row
    composes df_k alone: nu(f_base + df_k, phi_k) - (f_base + df_k) is
    df_k o psi_k - df_k.

    df_k's rows come from ``bump``'s own box (``fields._bump_box``) and
    are scaled with their spectrum by c, as ``df * c`` scales a field's
    samples and held spectrum.  psi_k is ``invert``'s exact inverse of
    the strip shear, formed on its one column per component; its shift
    per row, read as ``lagrangian.compose`` reads it, moves the strip's
    rows by ``interp._shifted_lines``, whose multipliers span every moved
    row's shift, as in ``compose``.  So the gap's samples are those of
    ``compose(df_k, psi_k) - df_k``.  The norms read
    ``spectral._rfft_rows`` of df_k's and of the gap's rows, and the
    spectrum of gap + df_k is the sum of the two, as field arithmetic
    keeps it.  Non-finite samples pass through to the norms without a
    warning, and the series reports them there."""
    grid = dphi.grid
    weight = _sobolev_weight(grid, s)
    # samples only, a broadcast view: invert returns the strip shear's
    # inverse from them, of which the row keeps the shift per row
    shear = np.broadcast_to(dphi.data[..., :1] * (1.0 / k), dphi.data.shape)
    t = invert(Diffeo(VectorField(grid, shear)),
               order=_COMPOSITION_ORDER).displacement.data[1, :, 0] / grid.spacing
    moved = np.flatnonzero(t)
    (rows, cols), vals = _bump_box(grid, x_star, dk)
    df = np.zeros((rows.size, grid.n))
    df[:, cols] = vals
    hats, squares, lines = work
    df_hat = _rfft_rows(grid, rows, df, out=hats[0])
    with np.errstate(over="ignore", invalid="ignore"):
        c = float(0.5 * R / _hs_norm(df_hat, weight, squares))
        df *= c
        df_hat *= c
        lines = lines[:moved.size]
        lines.fill(0.0)
        live = np.searchsorted(moved, rows)  # df_k's rows all move
        lines[live] = df
        gap = _shifted_lines(lines, t[moved], _COMPOSITION_ORDER)[live] - df
        gap_hat = _rfft_rows(grid, rows, gap, out=hats[1])
        out_gap = _hs_norm(gap_hat, weight, squares)
        df_norm = _hs_norm(df_hat, weight, squares)
        gap_hat += df_hat  # the spectrum of gap + df_k
        return out_gap, _hs_norm(gap_hat, weight, squares) + df_norm


_PACKET_RADIUS = 0.7  # support radius of the wave packets w_k


def solution_map_experiment(R: float = 0.1, k_max: int = 8, s: float = 2.5,
                            grid: Grid | None = None, q_bar: float = 0.2,
                            dt: float = 1e-2, T: float = 1.0) -> SeparationSeries:
    """Separation series for the time-1 Euler solution map E_1.

    Initial pairs: u_k = u_base_smooth + w_k and u~_k = u_k + v_k where

    - u_base = divergence-free bump of H^s norm 1/4, low-passed to half
      the dealiased band;
    - v = divergence-free bump of norm 1 at a remote point x_star,
      v_k = (R / 4k) v (input gap exactly R/4k);
    - w_k = divergence-free wave packet of radius _PACKET_RADIUS at
      x_star with ||w_k||_s = R/4 and carrier wavenumber q_k = k q_bar / R.

    The extra drift v_k displaces the carrier of w_k by O(R/k) over unit
    time; against the carrier wavelength O(R/(k q_bar)) that is an O(1)
    phase shift, so the output difference carries a k-independent,
    R-linear component on top of the directly transported v_k.

    Rows whose carrier exceeds the dealiased band are dropped (flag in
    metadata records the truncation).  Measured columns: velocity gap
    ||E_1(u_k) - E_1(u~_k)||_s and vorticity gap in H^{s-1}.
    """
    if grid is None:
        grid = Grid(dim=2, n=128, length=2.0 * np.pi)
    if grid.dim != 2:
        raise ValueError(f"the solution-map experiment is 2D only, got dim = {grid.dim}")
    L = grid.length
    x_star = np.array([0.75 * L, 0.75 * L])
    u_base = div_free_bump(grid, [0.25 * L, 0.25 * L], r=1.2, s=s,
                           norm_value=0.25)
    # smooth the base to the comfortably resolved band
    xi_band = (grid.n // 3) * 2.0 * np.pi / grid.length
    u0_base = chi_cutoff(u_base, radius=0.5 * xi_band)

    v_dir = div_free_bump(grid, x_star, r=1.0, s=s, norm_value=1.0)
    cfg = StepperConfig(dt=dt, s_monitor=s)

    ks, in_gap, out_gap, vort_gap, q_list = [], [], [], [], []
    truncated = False
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    _step_count(T, dt)  # in the rows a ValueError is numerical, not a parameter
    try:
        for k in range(1, k_max + 1):
            q_k = k * q_bar / R
            if q_k > 0.85 * xi_band:
                truncated = True
                break
            w_k = div_free_bump(grid, x_star, r=_PACKET_RADIUS, s=s,
                                norm_value=0.25 * R, modulation=q_k)
            v_k = (0.25 * R / k) * v_dir
            u_k = u0_base + w_k
            u_tilde = u_k + v_k

            final = solve(u_k, T, cfg).final.u
            final_t = solve(u_tilde, T, cfg).final.u
            ks.append(k)
            in_gap.append(sobolev_norm(v_k, s))
            out_gap.append(sobolev_norm(final - final_t, s))
            vort_gap.append(sobolev_norm(vorticity(final) - vorticity(final_t),
                                         s - 1.0))
            q_list.append(q_k)
    except ValueError as exc:  # non-finite samples reached a field
        raise BlowUpError(f"solution-map row k = {k} failed: {exc}") from exc

    if not ks:
        raise ValueError(
            f"carrier wavenumber q_1 = {q_bar / R:.1f} already exceeds the "
            f"dealiased band ({xi_band:.1f}); increase the grid or R"
        )
    return SeparationSeries(
        np.array(ks), np.array(in_gap), np.array(out_gap),
        extras={"vorticity_gap": np.array(vort_gap),
                "carrier_q": np.array(q_list)},
        metadata={"R": R, "s": s, "n": grid.n, "length": grid.length,
                  "q_bar": q_bar, "rho": _PACKET_RADIUS, "dt": dt, "T": T,
                  "band_truncated": truncated,
                  "experiment": "solution_map"},
    )


def scaling_check(u0: VectorField, T: float, dt: float = 1e-3,
                  s: float = 2.5) -> float:
    """Residual of the solution-map scaling identity
    E_T(u0) = (1/T) E_1(T u0), relative in H^s.

    The two runs use step counts paired under the scaling (the T-run
    with step dt*T, the time-1 run with step dt), under which the
    Runge-Kutta recursions are exact images of each other.
    """
    if sobolev_norm(u0, 0.0) == 0.0:  # an inf norm fails in solve, as a blow-up
        return 0.0
    left = solve(u0, T, StepperConfig(dt=dt * T, s_monitor=s)).final.u
    right = solve(T * u0, 1.0, StepperConfig(dt=dt, s_monitor=s)).final.u
    return sobolev_norm(left - (1.0 / T) * right, s) / sobolev_norm(left, s)


def dexp_fd(u0: VectorField, v: VectorField, eps: float,
            cfg: GeodesicConfig | None = None) -> VectorField:
    """Central finite difference of the exponential map,
    (exp(u0 + eps v) - exp(u0 - eps v)) / (2 eps), as a displacement field.

    At u0 = 0 this converges to v with O(eps^2) error (the derivative of
    the exponential map at zero is the identity).
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    plus = exp_map(u0 + eps * v, 1.0, cfg=cfg).displacement
    minus = exp_map(u0 - eps * v, 1.0, cfg=cfg).displacement
    return (1.0 / (2.0 * eps)) * (plus - minus)

