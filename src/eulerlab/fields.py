"""Vector/matrix field calculus: divergence, Jacobian, advection, Leray
projection, vorticity, Biot-Savart inversion, mollifiers and bump fields."""

from __future__ import annotations

import numpy as np

from .spectral import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    _check_same_grid,
    partial_derivative,
    random_scalar,
    sobolev_norm,
)

__all__ = [
    "gradient",
    "divergence",
    "jacobian",
    "advect",
    "leray_project",
    "vorticity",
    "biot_savart",
    "mollify",
    "bump",
    "plateau",
    "div_free_bump",
    "random_div_free",
    "taylor_green",
]

_SKEW_TOL = 1e-8


def gradient(f: ScalarField) -> VectorField:
    return VectorField.from_hat(f.grid, f.grid.deriv * f.hat)


def divergence(u: VectorField) -> ScalarField:
    return ScalarField.from_hat(u.grid, np.sum(u.grid.deriv * u.hat, axis=0))


def jacobian(u: VectorField) -> MatrixField:
    """Entry (i, j) = d u_i / d x_j, computed spectrally."""
    return MatrixField.from_hat(u.grid, u.hat[:, None] * u.grid.deriv)


def advect(u: VectorField, w: VectorField | None = None) -> VectorField:
    """(u . grad) w (w defaults to u) with dealiased products."""
    if w is None:
        w = u
    grid = _check_same_grid(u, w)
    du = jacobian(w).data
    prod = sum(du[:, k] * u.data[k] for k in range(grid.dim))
    return VectorField.from_hat(grid, grid.dealias_mask * grid.rfft(prod))


def leray_project(u: VectorField) -> VectorField:
    """L^2-orthogonal projection onto divergence-free fields.

    Spectrally u_hat <- (I - xi xi^T / |xi|^2) u_hat; the mean mode is
    left unchanged.
    """
    grid = u.grid
    safe = np.where(grid.xi_sq > 0, grid.xi_sq, 1.0)
    div_hat = sum(grid.xi_axes[j] * u.hat[j] for j in range(grid.dim))
    hat = np.empty_like(u.hat)
    for i in range(grid.dim):
        hat[i] = u.hat[i] - np.where(grid.xi_sq > 0,
                                     grid.xi_axes[i] * div_hat / safe, 0.0)
    return VectorField.from_hat(grid, hat)


def vorticity(u: VectorField) -> MatrixField:
    """Skew matrix Omega_ij = d_j u_i - d_i u_j."""
    du = jacobian(u)
    return MatrixField(u.grid, du.data - np.swapaxes(du.data, 0, 1))


def biot_savart(omega: MatrixField) -> VectorField:
    """Unique mean-free divergence-free u with vorticity(u) = omega.

    Spectral inversion u_hat_l(xi) = (1/i) sum_j omega_hat_lj(xi) xi_j/|xi|^2
    for xi != 0; omega must be skew and mean-free to _SKEW_TOL relative.
    """
    grid = omega.grid
    scale = float(np.max(np.abs(omega.data)))
    if scale > 0 and omega.skew_defect() > _SKEW_TOL * scale:
        raise ValueError("biot_savart requires a skew-symmetric vorticity")
    mean = np.abs(omega.hat[(slice(None), slice(None)) + (0,) * grid.dim])
    if scale > 0 and np.max(mean) > _SKEW_TOL * scale:
        raise ValueError("biot_savart requires a mean-free vorticity")
    safe = np.where(grid.xi_sq > 0, grid.xi_sq, 1.0)
    hat = np.zeros((grid.dim,) + grid.xi_sq.shape, dtype=np.complex128)
    for ell in range(grid.dim):
        acc = np.zeros(grid.xi_sq.shape, dtype=np.complex128)
        for j in range(grid.dim):
            acc += omega.hat[ell, j] * grid.xi_axes[j]
        hat[ell] = np.where(grid.xi_sq > 0, -1j * acc / safe, 0.0)
    return VectorField.from_hat(grid, hat)


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

_MOLLIFIER_NODES = 512


def _mollifier_profile(q: np.ndarray, dim: int) -> np.ndarray:
    """Fourier transform of the unit-mass radial bump rho on |x| < 1.

    rho(r) = c exp(-1/(1-r^2)); the profile is normalised so that the
    value at q = 0 is exactly 1.  2D uses the Hankel (J0) transform,
    3D the spherical (sinc) transform.
    """
    from scipy.special import j0

    r = (np.arange(_MOLLIFIER_NODES) + 0.5) / _MOLLIFIER_NODES
    rho = np.exp(-1.0 / (1.0 - r * r))
    qf = np.asarray(q, dtype=np.float64).ravel()
    if dim == 2:
        weight = r * rho
        kernel = j0(np.outer(qf, r))
    else:
        weight = r * r * rho
        qr = np.outer(qf, r)
        kernel = np.ones_like(qr)
        nz = qr != 0
        kernel[nz] = np.sin(qr[nz]) / qr[nz]
    vals = kernel @ weight
    vals /= np.sum(weight)
    return vals.reshape(np.shape(q))


def mollify(f, eps: float):
    """Convolution with the rescaled radial bump, spectrally: f_hat * rho_hat(eps xi)."""
    if not eps > 0:
        raise ValueError(f"mollifier width must be positive, got {eps}")
    grid = f.grid
    # the profile is radial: one quadrature per distinct |xi|, not per mode
    xi_sq, mode = np.unique(grid.xi_sq, return_inverse=True)
    mult = _mollifier_profile(eps * np.sqrt(xi_sq), grid.dim)[mode]
    return type(f).from_hat(grid, f.hat * mult)


# ---------------------------------------------------------------------------
# bump constructions
# ---------------------------------------------------------------------------


def _check_support(grid: Grid, center, r: float) -> np.ndarray:
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (grid.dim,):
        raise ValueError(f"center must have {grid.dim} coordinates")
    if not r > 0:
        raise ValueError(f"bump radius must be positive, got {r}")
    if r >= 0.5 * grid.length:
        raise ValueError(
            f"support ball of radius {r} does not fit in a box of length {grid.length}"
        )
    return center % grid.length


def _torus_dist_sq(grid: Grid, center: np.ndarray) -> np.ndarray:
    """Squared periodic distance to ``center`` on the grid; each axis's
    distance is taken on the 1-D axis and broadcast into the sum."""
    x = np.arange(grid.n) * grid.spacing
    d2 = np.zeros(grid.shape)
    for j in range(grid.dim):
        d = np.abs(x - center[j])
        d = np.minimum(d, grid.length - d)
        d2 += (d * d).reshape((-1,) + (1,) * (grid.dim - 1 - j))
    return d2


def bump(grid: Grid, center, r: float, amplitude: float = 1.0) -> ScalarField:
    """C^inf bump a * exp(-r^2/(r^2 - |y - x|^2)) on |y - x| < r, 0 outside."""
    center = _check_support(grid, center, r)
    d2 = _torus_dist_sq(grid, center)
    inside = d2 < r * r
    vals = np.zeros(grid.shape)
    vals[inside] = amplitude * np.exp(-r * r / (r * r - d2[inside]))
    return ScalarField(grid, vals)


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C^inf monotone step: 0 for t <= 0, 1 for t >= 1; the standard
    transition h(t)/(h(t)+h(1-t)) with h(t) = exp(-1/t)."""
    def h(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    tc = np.clip(t, 0.0, 1.0)
    return h(tc) / (h(tc) + h(1.0 - tc))


def plateau(grid: Grid, center, r_flat: float, r: float,
            amplitude: float = 1.0) -> ScalarField:
    """Smooth cutoff equal to `amplitude` on |y - x| <= r_flat, 0 outside
    r, through the C^inf transition ``_smooth_step``."""
    if not 0 < r_flat < r:
        raise ValueError("need 0 < r_flat < r")
    center = _check_support(grid, center, r)
    d = np.sqrt(_torus_dist_sq(grid, center))
    return ScalarField(grid, amplitude * _smooth_step((r - d) / (r - r_flat)))


def div_free_bump(grid: Grid, center, r: float, s: float = 2.5,
                  norm_value: float = 1.0, modulation: float = 0.0) -> VectorField:
    """Compactly supported divergence-free field, normalised in H^s.

    2D: the perpendicular gradient (-d2 psi, d1 psi) of a bump psi;
    3D: curl of the vector potential (0, 0, psi).  Derivatives are taken
    spectrally, so the discrete divergence vanishes to round-off (the
    support is then exact only up to spectral truncation of psi).

    ``modulation`` > 0 multiplies psi by cos(modulation * x_1), giving a
    wave packet whose vorticity is concentrated near that wavenumber.
    """
    psi = bump(grid, center, r)
    if modulation > 0.0:
        x = grid.coords()[0]
        psi = ScalarField(grid, psi.data * np.cos(modulation * x))
    if grid.dim == 2:
        u = VectorField.from_components(
            [-1.0 * partial_derivative(psi, 1), partial_derivative(psi, 0)]
        )
    else:
        u = VectorField.from_components(
            [partial_derivative(psi, 1), -1.0 * partial_derivative(psi, 0),
             ScalarField.zero(grid)]
        )
    nrm = sobolev_norm(u, s)
    if nrm == 0:
        raise ValueError("degenerate bump (radius below grid resolution?)")
    return u * (norm_value / nrm)


def random_div_free(grid: Grid, rng: np.random.Generator, s: float = 3.0,
                    norm_value: float = 1.0, max_xi: float | None = None,
                    decay: float = 2.0) -> VectorField:
    """Random smooth mean-free divergence-free field with ||u||_s = norm_value."""
    comps = [random_scalar(grid, rng, max_xi=max_xi, decay=decay)
             for _ in range(grid.dim)]
    u = leray_project(VectorField.from_components(comps))
    nrm = sobolev_norm(u, s)
    if nrm == 0:
        raise ValueError("degenerate random field")
    return u * (norm_value / nrm)


def taylor_green(grid: Grid) -> VectorField:
    """Stationary Taylor-Green vortex (2D), u = (sin x1 cos x2, -cos x1 sin x2).

    Stationary on the 2*pi-periodic box; on other box lengths the wavenumber
    is scaled to stay periodic.
    """
    if grid.dim != 2:
        raise ValueError("taylor_green is 2D")
    a = 2.0 * np.pi / grid.length
    x, y = grid.coords()
    return VectorField(grid, np.stack([
        np.sin(a * x) * np.cos(a * y),
        -np.cos(a * x) * np.sin(a * y),
    ]))
