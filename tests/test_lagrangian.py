"""Diffeomorphisms, composition, inversion, geodesic flow, pullbacks."""

import functools
import warnings

import numpy as np
import pytest

from eulerlab import (
    BAssembly,
    BlowUpError,
    Diffeo,
    GeodesicConfig,
    GeodesicState,
    Grid,
    GridMismatchError,
    StepperConfig,
    VectorField,
    bump,
    compose,
    compose_diffeo,
    det_jacobian,
    divergence,
    eulerian_from_lagrangian,
    exp_map,
    flow_of,
    geodesic_solve,
    geodesic_step,
    identity,
    invert,
    jacobian,
    MatrixField,
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
from eulerlab import eulerian, lagrangian
from eulerlab.eulerian import EulerState, step
from eulerlab.interp import Interpolant

from conftest import FullLattice, TracedPeak, compose_all_nodes

TAU = 2.0 * np.pi


def _record_points(monkeypatch):
    """Patch Interpolant.at to record the number of points of each call."""
    sizes = []
    at = Interpolant.at
    monkeypatch.setattr(Interpolant, "at", lambda self, p: sizes.append(
        int(np.prod(np.shape(p)[1:]))) or at(self, p))
    return sizes


def _record_builds(monkeypatch):
    """Patch Interpolant.__init__ to record each construction."""
    built = []
    init = Interpolant.__init__
    monkeypatch.setattr(Interpolant, "__init__", lambda self, *a, **kw:
                        built.append(1) or init(self, *a, **kw))
    return built


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

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_invert_rejects_tol_not_positive_and_finite(self, grid16, tol,
                                                       monkeypatch):
        # a parameter error, raised before any interpolation, also for the
        # identity; inf would accept any iterate and nan, 0 and -1 none
        calls = _record_points(monkeypatch)
        for phi in (shift(grid16, np.array([0.3, -0.1])), identity(grid16)):
            with pytest.raises(ValueError, match="tol"):
                invert(phi, tol=tol)
        assert calls == []

    def test_folded_map_fails_fast(self, grid16, monkeypatch):
        # x1 + 1.5 sin x1 folds near x1 = pi: Newton fires and the
        # residual rises, which ends the iteration well before the cap
        calls = _record_points(monkeypatch)
        x = grid16.coords()[0]
        phi = Diffeo(VectorField(grid16, np.stack([1.5 * np.sin(x),
                                                   np.zeros(grid16.shape)])))
        with pytest.raises(RuntimeError, match="did not reach"):
            invert(phi)
        assert len(calls) < lagrangian._INVERT_MAX_ITER


    @pytest.mark.parametrize("n,length", [(32, 2.0 * TAU), (16, TAU),
                                          (16, 2.0 * TAU)])
    def test_guess_on_another_grid_is_rejected(self, grid32, rng, monkeypatch,
                                               n, length):
        # another L with the same n was used silently, another n failed
        # in numpy broadcasting; both are refused before any evaluation
        other = Grid(dim=2, n=n, length=length)
        phi = Diffeo(random_div_free(grid32, rng, norm_value=0.05))
        calls = _record_points(monkeypatch)
        with pytest.raises(GridMismatchError):
            invert(phi, guess=VectorField.zero(other))
        assert calls == []


def _invert_all_nodes(phi, order, tol=1e-10, max_iter=100):
    """Reference inversion: the damped fixed point h = -g(x + h), with the
    Newton switch, iterated on every node."""
    grid = phi.grid
    g_interp = Interpolant(phi.displacement, order=order)
    x = np.stack(grid.coords())
    h = np.zeros_like(x)
    dg_interp = None
    newton = False
    prev_res = np.inf
    for _ in range(max_iter):
        gh = g_interp.at(x + h)
        res = float(np.max(np.abs(h + gh)))
        if res <= tol:
            return h
        if not newton and res >= 0.5 * prev_res:
            newton = True
        if newton:
            if dg_interp is None:
                dg_interp = Interpolant(jacobian(phi.displacement), order=order)
            jac = np.moveaxis(dg_interp.at(x + h), (0, 1), (-2, -1)) + np.eye(grid.dim)
            f_val = np.moveaxis(h + gh, 0, -1)
            h = h - np.moveaxis(np.linalg.solve(jac, f_val[..., None])[..., 0], -1, 0)
        else:
            h = -gh
        prev_res = res
    raise AssertionError("reference inversion did not converge")


def _strip_shear(grid, amp=0.4, r=2.0, axis=0):
    """x_{axis}-displacement amp * b(x_j), with b a 1D bump of radius r
    and x_j the first other coordinate: it fixes every node outside a
    strip, and invert returns its exact inverse without interpolating."""
    across = 1 if axis == 0 else 0
    d = np.abs(grid.coords()[across] - 0.25 * grid.length)
    inside = d < r
    prof = np.where(inside, amp * np.exp(-r * r / np.where(inside, r * r - d * d, 1.0)), 0.0)
    comps = [np.zeros(grid.shape)] * grid.dim
    comps[axis] = prof
    return Diffeo(VectorField(grid, np.stack(comps)))


def _strip_wave(grid):
    """The strip shear with its profile modulated by 1 + 0.5 sin x_1 along
    its own direction: no longer a shear, so invert iterates, but it still
    fixes every node outside the strip and converges before any Newton
    switch."""
    g = _strip_shear(grid).displacement.data.copy()
    g[0] *= 1.0 + 0.5 * np.sin(grid.coords()[0])
    return Diffeo(VectorField(grid, g))


def _bump_displacement(grid, amp=0.3):
    """The same compact bump of radius 2.5 in every component."""
    b = bump(grid, [0.5 * grid.length] * grid.dim, r=2.5, amplitude=amp).data
    return Diffeo(VectorField(grid, np.stack([b] * grid.dim)))


_MAPS = {"strip": _strip_shear, "bump": _bump_displacement}


# compact supports on grids this small keep some Nyquist content; the
# comparisons below do not depend on it
@pytest.mark.filterwarnings("ignore:field has significant unpaired Nyquist")
class TestMovedNodes:
    """compose and invert interpolate only where the map moves a node;
    at a fixed node the exact answer (f itself, h = 0) is copied."""

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("kind", sorted(_MAPS))
    def test_matches_all_node_reference(self, kind, dim, n, order, rng):
        grid = Grid(dim=dim, n=n, length=TAU)
        phi = _MAPS[kind](grid)
        moved = np.any(phi.displacement.data != 0.0, axis=0)
        assert 0 < np.count_nonzero(moved) < grid.size
        for f in (random_scalar(grid, rng, max_xi=3.0),
                  random_div_free(grid, rng, max_xi=3.0)):
            ref = compose_all_nodes(f, phi, order)
            got = compose(f, phi, order=order).data
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        ref = _invert_all_nodes(phi, order)
        got = invert(phi, order=order).displacement.data
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.all(got[:, ~moved] == 0.0)

    @pytest.mark.parametrize("kind", sorted(_MAPS))
    def test_interpolates_exactly_the_moved_nodes(self, kind, grid32, rng,
                                                  monkeypatch):
        g = _MAPS[kind](grid32).displacement.data.copy()
        g[-1, 0, 0] = 1e-300  # a node moved by a tiny amount is still moved
        phi = Diffeo(VectorField(grid32, g))
        moved = np.count_nonzero(np.any(g != 0.0, axis=0))
        sizes = _record_points(monkeypatch)
        compose(random_scalar(grid32, rng), phi)
        invert(phi)
        assert len(sizes) >= 2 and set(sizes) == {moved}

    def test_identity_is_free_and_exact(self, grid32, rng, monkeypatch):
        sizes = _record_points(monkeypatch)
        f = random_div_free(grid32, rng)
        psi = invert(identity(grid32), tol=np.finfo(float).tiny)
        assert np.all(psi.displacement.data == 0.0)
        assert np.array_equal(compose(f, identity(grid32)).data, f.data)
        assert sizes == []

    def test_guess_ignored_on_fixed_nodes(self, grid32):
        phi = _strip_shear(grid32)
        fixed = ~np.any(phi.displacement.data != 0.0, axis=0)
        guess = VectorField(grid32, np.full((2,) + grid32.shape, 0.05))
        h = invert(phi, guess=guess).displacement.data
        assert np.all(h[:, fixed] == 0.0)
        ref = invert(phi).displacement.data
        assert np.max(np.abs(h - ref)) < 1e-9


def _masked_reference(f, phi, order, guess=None):
    """compose and invert gathering and scattering on a 2-D boolean mask
    of the moved nodes, with node coordinates from ``grid.coords()``: the
    bit-for-bit reference for the flat node index.  Fixed-point iterates
    only (a strip map converges before any Newton switch); without a
    guess the first residual reads the samples, as in ``invert``."""
    grid = phi.grid
    g = phi.displacement.data
    mask = np.any(g != 0.0, axis=0)
    x = np.stack([c[mask] for c in grid.coords()])
    vals = f.data.copy()
    vals[..., mask] = Interpolant(f, order=order).at(x + g[:, mask])
    g_interp = Interpolant(phi.displacement, order=order)
    if guess is None:
        h, gh = np.zeros_like(x), g[:, mask]
    else:
        h = guess.data[:, mask]
        gh = g_interp.at(x + h)
    while np.max(np.abs(h + gh), initial=0.0) > 1e-10:
        h = -gh
        gh = g_interp.at(x + h)
    out = np.zeros_like(g)
    out[:, mask] = h
    return vals, out


@pytest.mark.filterwarnings("ignore:field has significant unpaired Nyquist")
class TestFlatNodeIndex:
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_matches_boolean_mask_bit_for_bit(self, dim, n, order, rng):
        grid = Grid(dim=dim, n=n, length=TAU)
        phi = _strip_wave(grid)
        f = random_div_free(grid, rng, max_xi=3.0)
        for guess in (None, VectorField(grid, 0.5 * phi.displacement.data)):
            vals, h = _masked_reference(f, phi, order, guess)
            assert np.array_equal(compose(f, phi, order=order).data, vals)
            got = invert(phi, order=order, guess=guess).displacement.data
            assert np.array_equal(got, h)

    def test_node_coords_are_the_grid_coords(self, grid3d):
        sel = np.array([0, 5, 17, grid3d.size - 1])
        got = lagrangian._node_coords(grid3d, sel)
        ref = np.stack([c.reshape(-1)[sel] for c in grid3d.coords()])
        assert np.array_equal(got, ref)
        assert np.array_equal(lagrangian._node_coords(grid3d, slice(None)),
                              np.stack(grid3d.coords()).reshape(3, -1))


@pytest.mark.filterwarnings("ignore:field has significant unpaired Nyquist")
class TestGuessFreeFirstIterate:
    """Without a guess the first iterate reads g's samples at the nodes,
    where every interpolant reproduces them."""

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("kind", ["strip", "random"])
    def test_one_evaluation_fewer_and_same_inverse(self, grid32, rng,
                                                   monkeypatch, kind, order):
        if kind == "strip":
            phi = _strip_wave(grid32)
        else:
            phi = Diffeo(random_div_free(grid32, rng, norm_value=0.05))
        sizes = _record_points(monkeypatch)
        ref = invert(phi, order=order, guess=VectorField.zero(grid32))
        evaluated = len(sizes)
        got = invert(phi, order=order)
        assert len(sizes) - evaluated == evaluated - 1
        h_ref = ref.displacement.data
        assert (np.max(np.abs(got.displacement.data - h_ref))
                <= 1e-12 * np.max(np.abs(h_ref)))


_SHEARS = {
    "strip-first-2d": lambda g2, g3: _strip_shear(g2),
    "strip-last-2d": lambda g2, g3: _strip_shear(g2, axis=1),
    "strip-first-3d": lambda g2, g3: _strip_shear(g3),
    "strip-last-3d": lambda g2, g3: _strip_shear(g3, axis=2),
    "shift-2d": lambda g2, g3: shift(g2, [0.9, -0.2]),
    "shift-3d": lambda g2, g3: shift(g3, [0.9, -0.2, 2.5]),
    "identity-2d": lambda g2, g3: identity(g2),
    "identity-3d": lambda g2, g3: identity(g3),
}


@pytest.mark.filterwarnings("ignore:field has significant unpaired Nyquist")
class TestShearInverse:
    """A map whose displacement g is constant along every axis it moves
    nodes in is inverted by id - g, with nothing interpolated."""

    @pytest.mark.parametrize("guessed", [False, True])
    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("kind", list(_SHEARS))
    def test_closed_form_without_interpolation(self, grid32, grid3d, kind,
                                               order, guessed, monkeypatch):
        phi = _SHEARS[kind](grid32, grid3d)
        g = phi.displacement.data
        guess = VectorField(phi.grid, 0.5 * g) if guessed else None
        # invert's fixed-point iteration, forced on the moved nodes
        _, h_ref = _masked_reference(phi.displacement, phi, order, guess)
        built, calls = _record_builds(monkeypatch), _record_points(monkeypatch)
        got = invert(phi, order=order, guess=guess).displacement.data
        assert built == [] and calls == []
        assert np.array_equal(got, 0.0 - g)
        assert np.max(np.abs(got - h_ref)) <= 1e-14 * np.max(np.abs(g))

    @pytest.mark.parametrize("order", [4, "linear"])
    def test_order_is_checked_first(self, grid32, order):
        # no Interpolant rejects it any more: invert checks it itself
        for phi in (shift(grid32, [0.3, -0.1]), identity(grid32)):
            with pytest.raises(ValueError, match="order must be"):
                invert(phi, order=order)

    def test_zeros_are_positive(self, grid32):
        # 0.0 - g, not -g: +0.0 on fixed nodes as before, and no -0.0 in
        # the component a strip shear leaves at zero
        h = invert(_strip_shear(grid32)).displacement.data
        assert not np.any(np.signbit(h) & (h == 0.0))


def _band_limited(grid, rng, kind):
    """A band-limited scalar, vector or matrix field."""
    if kind == "scalar":
        return random_scalar(grid, rng, max_xi=3.0)
    if kind == "vector":
        return random_div_free(grid, rng, max_xi=3.0)
    return MatrixField(grid, np.stack([random_div_free(grid, rng, max_xi=3.0).data
                                       for _ in range(grid.dim)]))


@pytest.mark.filterwarnings("ignore:field has significant unpaired Nyquist")
class TestShearCompose:
    """compose applies a shear as one Fourier multiplier per line it
    moves: nothing is prefiltered or evaluated at points."""

    @pytest.mark.parametrize("field", ["scalar", "vector", "matrix"])
    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("kind", list(_SHEARS))
    def test_line_multipliers_without_interpolation(self, grid32, grid3d, kind,
                                                    order, field, rng,
                                                    monkeypatch):
        phi = _SHEARS[kind](grid32, grid3d)
        f = _band_limited(phi.grid, rng, field)
        ref = compose_all_nodes(f, phi, order)
        built, calls = _record_builds(monkeypatch), _record_points(monkeypatch)
        got = compose(f, phi, order=order).data
        assert built == [] and calls == []
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        if kind.startswith("identity"):
            assert np.array_equal(got, f.data)

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("t", [65.0, -65.0, 65.3, -65.3, -0.3, -2.7])
    def test_far_and_negative_shifts(self, t, order, rng):
        # h = 1/4, so g / h is t exactly on the shift and at the strip's
        # peak; the integer part lies far outside the kernel's support
        grid = Grid(dim=2, n=128, length=32.0)
        f = random_scalar(grid, rng)
        for phi in (shift(grid, [t * grid.spacing, 0.0]),
                    _strip_shear(grid, amp=t * grid.spacing, r=4.0, axis=1)):
            ref = compose_all_nodes(f, phi, order)
            got = compose(f, phi, order=order).data
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("m", [1, -3, 65, -65])
    def test_integer_shift_is_a_roll(self, m, order, rng):
        grid = Grid(dim=2, n=128, length=32.0)  # h = 1/4: g / h is m exactly
        f = random_div_free(grid, rng)
        got = compose(f, shift(grid, [0.0, m * grid.spacing]), order=order).data
        assert (np.max(np.abs(got - np.roll(f.data, -m, axis=2)))
                <= 1e-15 * np.max(np.abs(f.data)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fourier_keeps_the_full_lattice_nyquist_sign(self, dim):
        # the mode unpaired in every axis, shifted in every axis: each
        # axis's real part alone would give a product of cosines
        grid = Grid(dim=dim, n=8, length=TAU)
        corner = functools.reduce(np.add.outer, [np.arange(grid.n)] * dim)
        f = ScalarField(grid, (-1.0) ** corner)
        phi = shift(grid, np.array([0.3, 0.4, -1.7][:dim]) * grid.spacing)
        ref = compose_all_nodes(f, phi, "fourier")
        got = compose(f, phi, order="fourier").data
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("order", [4, "linear"])
    def test_order_is_checked_first(self, grid32, rng, order):
        f = random_scalar(grid32, rng)
        for phi in (shift(grid32, [0.3, -0.1]), identity(grid32)):
            with pytest.raises(ValueError, match="order must be"):
                compose(f, phi, order=order)

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("case", ["one-shift", "scalar", "vector", "matrix"])
    @pytest.mark.parametrize("kind", ["strip-first-2d", "strip-last-2d",
                                      "strip-first-3d", "strip-last-3d",
                                      "shift-2d"])
    def test_zero_lines_are_kept(self, grid32, grid3d, kind, case, order, rng,
                                 monkeypatch):
        f, phi = _with_zero_lines(_SHEARS[kind](grid32, grid3d), case, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            filled = _shift_every_moved_line(monkeypatch)
            ref = compose(f, phi, order=order).data
            monkeypatch.undo()
            assert filled
            zero_rows = _record_zero_rows(monkeypatch)
            got = compose(f, phi, order=order).data
        assert np.array_equal(got, ref)
        assert zero_rows and not any(zero_rows)


def _with_zero_lines(phi, case, rng):
    """(f, phi'): a field f with identically zero lines among those the
    shear phi' moves.  "one-shift": phi' is a plateau shear in phi's
    direction and f a bump in its flat part, so that the nonzero moved
    lines share one shift while the zero ones in the transition take
    many.  Otherwise phi' is phi and f a band-limited field of that kind
    with every third line across the strip zeroed, and in the first
    component every second one too."""
    grid = phi.grid
    moving = phi.displacement.data.reshape(grid.dim, -1).any(axis=1)
    axis = int(np.flatnonzero(moving)[0])
    across = 1 if axis == 0 else 0
    if case == "one-shift":
        from eulerlab.illposedness import _axis_plateau
        g = np.zeros_like(phi.displacement.data)
        g[axis] = 0.4 * _axis_plateau(grid, across, 0.5 * grid.length, 1.0, 2.0)
        f = bump(grid, [0.5 * grid.length] * grid.dim, r=0.9)
        return f, Diffeo(VectorField(grid, g))
    f = _band_limited(grid, rng, case)
    shape = [1] * grid.dim
    shape[across] = grid.n
    keep = (np.arange(grid.n) % 3 != 0).reshape(shape)
    data = f.data * keep
    first = data.reshape((-1,) + grid.shape)[0]
    first *= (np.arange(grid.n) % 2 != 0).reshape(shape)
    return type(f)(grid, data), phi


def _shift_every_moved_line(monkeypatch):
    """Make compose transform every line it moves: the line shift sees each
    zero line as a line of ones, and its result is set back to zeros, the
    shift of zeros.  Returns the list of the numbers of lines so filled."""
    filled = []
    shifted = lagrangian._shifted_lines

    def every_line(lines, t, order):
        zero = ~lines.any(axis=-1)
        filled.append(int(zero.sum()))
        out = shifted(np.where(zero[..., None], 1.0, lines), t, order)
        out[zero] = 0.0
        return out
    monkeypatch.setattr(lagrangian, "_shifted_lines", every_line)
    return filled


def _record_zero_rows(monkeypatch):
    """Patch the forward line transforms, real and complex, to record the
    number of identically zero lines each call receives."""
    zero_rows = []
    for name in ("rfft", "fft"):
        orig = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, _orig=orig, **kw:
                            zero_rows.append(int(np.sum(~np.asarray(a).any(axis=-1))))
                            or _orig(a, *args, **kw))
    return zero_rows


def _with_nyquist(grid, amp, held):
    """A band-limited scalar field plus amp times the unpaired Nyquist mode
    (-1)^i of the first axis, holding its spectrum when ``held``."""
    f = random_scalar(grid, np.random.default_rng(7), max_xi=3.0).data
    alt = (-1.0) ** np.arange(grid.n)
    f = ScalarField(grid, f + amp * alt.reshape((-1,) + (1,) * (grid.dim - 1)))
    if held:
        f.hat  # the property transforms once and holds the spectrum
    return f


class TestShearComposeWarning:
    """A spline compose with a shear warns about unpaired Nyquist content
    when some line moves, under the condition ``Interpolant`` warns on."""

    @pytest.mark.parametrize("held", [False, True])
    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("amp", [0.0, 1e-5, 3e-5, 1e-4, 0.1])
    def test_warns_exactly_when_interpolant_does(self, grid32, amp, order, held):
        f = _with_nyquist(grid32, amp, held)
        with warnings.catch_warnings(record=True) as ref:
            warnings.simplefilter("always")
            Interpolant(f, order=order)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            compose(f, _strip_shear(grid32), order=order)
        assert [str(w.message) for w in got] == [str(w.message) for w in ref]

    def test_strip_shear_warns(self, grid32):
        with pytest.warns(UserWarning, match="unpaired Nyquist"):
            compose(_with_nyquist(grid32, 0.1, False), _strip_shear(grid32), order=5)

    def test_identity_does_not_warn(self, grid32):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compose(_with_nyquist(grid32, 0.1, False), identity(grid32), order=5)


class TestAllNodesMoved:
    """When the map moves every node, compose returns the interpolated
    values and invert the iterate as they are, without a scatter."""

    @pytest.mark.parametrize("dim,n,order", [(2, 32, 3), (2, 32, 5), (2, 32, "fourier"),
                                             (3, 16, 3), (3, 16, 5)])
    def test_matches_all_node_reference(self, dim, n, order, rng):
        grid = Grid(dim=dim, n=n, length=TAU)
        phi = Diffeo(random_div_free(grid, rng, max_xi=3.0, norm_value=0.05))
        assert np.all(np.any(phi.displacement.data != 0.0, axis=0))
        f = random_div_free(grid, rng, max_xi=3.0)
        assert np.array_equal(compose(f, phi, order=order).data,
                              compose_all_nodes(f, phi, order))
        ref = _invert_all_nodes(phi, order)
        got = invert(phi, order=order).displacement.data
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_node_stack_is_kept_and_read_only(self, grid32):
        nodes = grid32.nodes
        assert grid32.nodes is nodes
        assert not nodes.flags.writeable
        assert np.array_equal(nodes, np.stack(grid32.coords()))


class TestDeterminant:
    @pytest.mark.parametrize("kind", ["div_free", "scalar_pair"])
    @pytest.mark.parametrize("amp", [0.1, 0.5, 1.0])
    def test_closed_form_2d_matches_linalg(self, grid32, rng, kind, amp):
        # the 2D det is (1 + g00)(1 + g11) - g01 g10; maps with |dg| <= 1
        if kind == "div_free":
            u = random_div_free(grid32, rng)
        else:
            u = VectorField.from_components([random_scalar(grid32, rng)
                                             for _ in range(2)])
        # samples only, as det_jacobian differentiates them
        u = VectorField(grid32, u.data * (amp / np.max(np.abs(jacobian(u).data))))
        dg = jacobian(u).data
        ref = np.linalg.det(np.moveaxis(dg, (0, 1), (-2, -1)) + np.eye(2))
        assert np.max(np.abs(det_jacobian(Diffeo(u)).data - ref)) <= 1e-15

    def test_closed_form_on_shear_and_stretch(self, grid32):
        x1, x2 = grid32.coords()
        zero = np.zeros(grid32.shape)
        for disp in (np.stack([0.3 * np.sin(x2), zero]),
                     np.stack([0.2 * np.sin(x1), zero])):
            u = VectorField(grid32, disp)
            dg = jacobian(u).data
            ref = np.linalg.det(np.moveaxis(dg, (0, 1), (-2, -1)) + np.eye(2))
            assert np.max(np.abs(det_jacobian(Diffeo(u)).data - ref)) <= 1e-15

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
        # the per-step orientation check and this one leave the stored
        # maps with samples only
        assert all(st.phi.displacement._hat is None for st in traj.states)
        # and so does the speed monitor the stepped velocity (the first
        # is the caller's u0)
        assert traj.final.v._hat is None

    def test_det_defects_are_those_of_the_states(self, grid32, rng):
        # recorded per step from the det the orientation check takes, at
        # t = 0 from the identity; the state of step k is the final one of
        # the k-step solve
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        cfg = GeodesicConfig(dt=0.02)
        traj = geodesic_solve(u0, 0.1, cfg)
        expect = [0.0] + [
            np.max(np.abs(det_jacobian(geodesic_solve(u0, k * cfg.dt, cfg)
                                       .final.phi).data - 1.0))
            for k in range(1, 6)]
        assert np.array_equal(traj.det_defects, expect)
        assert traj.det_defects[-1] > 0.0

    def test_matches_eulerian_velocity(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        T, dt = 0.2, 0.02
        geo = geodesic_solve(u0, T, GeodesicConfig(dt=dt))
        eul = solve(u0, T, StepperConfig(dt=dt)).final.u
        u_lag = eulerian_from_lagrangian(geo)[-1].u
        rel = sobolev_norm(u_lag - eul, 2.0) / sobolev_norm(eul, 2.0)
        assert rel < 2e-3

    def test_keeps_initial_and_final(self, grid16, rng):
        # the final state is that of a chain of private steps, each seeded
        # with the inverse the one before left, bit for bit
        u0 = random_div_free(grid16, rng, norm_value=0.2)
        cfg = GeodesicConfig(dt=0.02)
        traj = geodesic_solve(u0, 0.08, cfg)
        bb = BAssembly(grid16, cutoff=cfg.cutoff)
        state, guess = GeodesicState(0.0, identity(grid16), u0), None
        for _ in range(4):
            state, guess, _ = lagrangian._geodesic_step(state, bb, cfg, guess)
        assert len(traj.states) == 2
        assert traj.states[0].v is u0
        assert traj.final.t == traj.times[-1] == pytest.approx(0.08)
        assert np.array_equal(traj.final.phi.displacement.data,
                              state.phi.displacement.data)
        assert np.array_equal(traj.final.v.data, state.v.data)
        assert len(traj.times) == len(traj.speeds) == 5

    def test_memory_is_bounded(self, rng):
        # as for solve: 36 more steps cost less than one state, the
        # samples of phi and v
        grid = Grid(dim=2, n=64, length=TAU)
        u0 = random_div_free(grid, rng, norm_value=0.2)
        cfg = GeodesicConfig(dt=0.01)
        geodesic_solve(u0, 0.02, cfg)  # builds the cached symbols and tables
        peaks = []
        for n_steps in (4, 40):
            with TracedPeak() as traced:
                geodesic_solve(u0, n_steps * cfg.dt, cfg)
            peaks.append(traced.peak)
        assert peaks[1] - peaks[0] < 2 * u0.data.nbytes

    def test_exp_map_at_zero_time_is_identity(self, grid16, rng):
        u0 = random_div_free(grid16, rng)
        assert np.max(np.abs(exp_map(u0, 0.0).displacement.data)) == 0.0

    def test_exp_map_of_an_overflowing_speed_is_a_blow_up(self, grid16, rng):
        # ||u0||_0^2 beyond the float range: no RuntimeWarning from the
        # zero-speed check or the speed monitor, a BlowUpError from the step
        u0 = random_div_free(grid16, rng) * 1e200
        with pytest.raises(BlowUpError):
            exp_map(u0, 0.01, GeodesicConfig(dt=0.01))


class TestSeededStages:
    """Each RK stage's inversion starts from h_prev - (g - g_prev)."""

    # Interpolant.at calls per RK stage of the 25-step solve below before
    # the stages were seeded (each inversion started from the previous
    # stage's inverse as it was)
    UNSEEDED_CALLS_PER_STAGE = 4.22

    def test_seeded_matches_unseeded_invert(self, grid32, rng):
        u = random_div_free(grid32, rng, s=3.0, norm_value=0.5)
        w = random_div_free(grid32, rng, s=3.0, norm_value=0.5)
        g_prev, g = (u * 0.1).data, (u * 0.1 + w * 0.005).data
        psi_prev = invert(Diffeo(VectorField(grid32, g_prev)), tol=1e-12)
        phi = Diffeo(VectorField(grid32, g))
        seeded = invert(phi, tol=1e-12,
                        guess=lagrangian._seed(psi_prev.displacement, g, g_prev))
        plain = invert(phi, tol=1e-12)
        assert (np.max(np.abs(seeded.displacement.data - plain.displacement.data))
                <= 1e-12)

    def test_fewer_evaluations_per_stage(self, monkeypatch):
        grid = Grid(dim=2, n=64, length=TAU)
        u0 = random_div_free(grid, np.random.default_rng(1), s=3.0,
                             norm_value=0.5)
        calls = _record_points(monkeypatch)
        traj = geodesic_solve(u0, 0.25, GeodesicConfig(dt=1e-2))
        stages = 4 * (len(traj.times) - 1)
        assert stages == 100
        assert len(calls) / stages <= 0.9 * self.UNSEEDED_CALLS_PER_STAGE


class TestGeodesicConfig:
    @pytest.mark.parametrize("order", [7, 4, "linear", None, 3.0, 5.0])
    def test_rejects_unknown_order(self, order):
        # a parameter error at construction, not a BlowUpError (or, for
        # 3.0 == 3, a TypeError) mid-solve
        with pytest.raises(ValueError, match="order must be 3, 5 or 'fourier'"):
            GeodesicConfig(dt=0.01, order=order)


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

    def test_public_step_reports_blow_up(self, grid16, rng, monkeypatch):
        # geodesic_step reports a folded map as step does: BlowUpError
        monkeypatch.setattr(lagrangian, "det_jacobian",
                            lambda phi: ScalarField(phi.grid, -np.ones(phi.grid.shape)))
        u0 = random_div_free(grid16, rng, norm_value=0.2)
        with pytest.raises(BlowUpError, match="orientation") as err:
            geodesic_step(GeodesicState(0.0, identity(grid16), u0),
                          GeodesicConfig(dt=0.05))
        assert isinstance(err.value.__cause__, ValueError)

    def test_public_step_rejects_assembly_on_other_grid(self, grid16, grid32, rng):
        # a parameter error before stepping, as in eulerian.step
        state = GeodesicState(0.0, identity(grid32), random_div_free(grid32, rng))
        with pytest.raises(GridMismatchError):
            geodesic_step(state, GeodesicConfig(dt=0.01), BAssembly(grid16))

    def test_public_step_rejects_assembly_with_other_cutoff(self, grid16, rng):
        state = GeodesicState(0.0, identity(grid16), random_div_free(grid16, rng))
        with pytest.raises(ValueError, match="cutoff"):
            geodesic_step(state, GeodesicConfig(dt=0.01, cutoff=3.0),
                          BAssembly(grid16))

    def test_non_finite_newton_iterate(self, grid16, rng, monkeypatch):
        # the smallest positive tolerance is met only by a residual that
        # rounds to 0; at this amplitude the contraction stalls above 0
        # and Newton fires, its solve replaced by one returning NaN
        solve_ = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.full_like(solve_(a, b), np.nan))
        monkeypatch.setattr(lagrangian, "invert",
                            functools.partial(invert, tol=np.finfo(float).tiny))
        u0 = random_div_free(grid16, rng, norm_value=1.0)
        with pytest.raises(BlowUpError, match="non-finite iterate"):
            geodesic_solve(u0, 0.1, GeodesicConfig(dt=0.05))


def _geodesic_step_hand_written(state, dt, bb, cfg, inv_guess):
    """Reference geodesic step: RK4 written out on the fields g and v
    separately, each stage's inversion seeded by the previous stage's
    inverse moved by the change of g, h_prev - (g - g_prev); returns the
    new state and the seed of the next step's first inversion."""
    g, v = state.phi.displacement, state.v
    kw = dict(bb=bb, order=cfg.order)

    def seed(psi, g_now, g_prev):
        return psi.displacement - (g_now - g_prev)

    k1v, psi = lagrangian._christoffel(Diffeo(g), v, inv_guess=inv_guess, **kw)
    k1g = v
    g2 = g + 0.5 * dt * k1g
    k2v, psi = lagrangian._christoffel(Diffeo(g2), v + 0.5 * dt * k1v,
                                       inv_guess=seed(psi, g2, g), **kw)
    k2g = v + 0.5 * dt * k1v
    g3 = g + 0.5 * dt * k2g
    k3v, psi = lagrangian._christoffel(Diffeo(g3), v + 0.5 * dt * k2v,
                                       inv_guess=seed(psi, g3, g2), **kw)
    k3g = v + 0.5 * dt * k2v
    g4 = g + dt * k3g
    k4v, psi = lagrangian._christoffel(Diffeo(g4), v + dt * k3v,
                                       inv_guess=seed(psi, g4, g3), **kw)
    k4g = v + dt * k3v
    g_new = g + (dt / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
    v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return GeodesicState(state.t + dt, Diffeo(g_new), v_new), seed(psi, g_new, g4)


def _solver_states(u0, cfg, n_steps):
    """The states of an n-step solve, built with ``step``: u0 itself, then
    samples-only copies of the stepped fields, as the solver held them."""
    states, state = [EulerState(0.0, u0)], EulerState(0.0, u0)
    for i in range(n_steps):
        state = step(state, cfg)
        states.append(EulerState((i + 1) * cfg.dt,
                                 VectorField(u0.grid, state.u.data)))
    return states


def _flow_of_hand_written(states, order):
    """Reference flow-map displacements: RK4 written out, a flow step of
    two solver steps with stages on states i, i + 1, i + 1, i + 2."""
    grid = states[0].u.grid
    h = 2.0 * (states[1].t - states[0].t)
    g = np.zeros((grid.dim,) + grid.shape)
    x = np.stack(grid.coords())
    out = [g]
    for i in range(0, len(states) - 1, 2):
        ua, um, ub = (Interpolant(states[j].u, order=order)
                      for j in (i, i + 1, i + 2))
        k1 = ua.at(x + g)
        k2 = um.at(x + g + 0.5 * h * k1)
        k3 = um.at(x + g + 0.5 * h * k2)
        k4 = ub.at(x + g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(g)
    return out


def _flow_of_stored(states, order):
    """The maps phi(2 k dt), k = 0, 1, ..., as read from every stored
    state of a solve before the flow map was streamed alongside it."""
    grid = states[0].u.grid
    h = 2.0 * (states[1].t - states[0].t)
    out = [identity(grid)]
    g = np.zeros((grid.dim,) + grid.shape)
    x = grid.nodes
    u = [Interpolant(states[0].u, order=order)]
    for i in range(0, len(states) - 1, 2):
        u = [u[-1]] + [Interpolant(st.u, order=order) for st in states[i + 1:i + 3]]
        g = lagrangian._rk(lambda c, y: u[int(2 * c)].at(x + y), g, h)
        out.append(Diffeo(VectorField(grid, g)))
    return out


class TestSharedRungeKutta:
    """The geodesic and flow-map integrators step through
    eulerian._rk and reproduce the hand-written RK4 they replaced."""

    @pytest.mark.parametrize("dim,n,order", [(2, 32, 3), (2, 32, 5), (3, 16, 3)])
    def test_geodesic_solve_matches_hand_written(self, dim, n, order, rng):
        grid = Grid(dim=dim, n=n, length=TAU)
        u0 = random_div_free(grid, rng, norm_value=0.4)
        cfg = GeodesicConfig(dt=0.02, order=order)
        bb = BAssembly(grid, cutoff=cfg.cutoff)
        state, guess = GeodesicState(0.0, identity(grid), u0), None
        for k in range(1, 5):
            stored = geodesic_solve(u0, k * cfg.dt, cfg).final
            state, guess = _geodesic_step_hand_written(state, cfg.dt, bb, cfg, guess)
            assert np.array_equal(stored.phi.displacement.data,
                                  state.phi.displacement.data)
            assert np.array_equal(stored.v.data, state.v.data)

    @pytest.mark.parametrize("order", [3, 5])
    def test_flow_of_matches_hand_written(self, grid32, rng, order):
        # phi(2 k dt) is the final map of the solve to 2 k dt
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        cfg = StepperConfig(dt=0.01)
        ref = _flow_of_hand_written(_solver_states(u0, cfg, 8), order)
        for k in range(1, 5):
            traj, phi = flow_of(u0, 2 * k * cfg.dt, cfg, order=order)
            assert traj.final.t == 2 * k * cfg.dt
            gap = np.max(np.abs(phi.displacement.data - ref[k]))
            assert gap <= 1e-13 * np.max(np.abs(ref[k]))

    def test_flow_of_prefilters_each_state_once(self, grid32, rng, monkeypatch):
        # u0 itself, then a samples-only copy of each stepped state
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        cfg = StepperConfig(dt=0.01)
        states = _solver_states(u0, cfg, 8)
        built = []
        init = Interpolant.__init__
        monkeypatch.setattr(Interpolant, "__init__", lambda self, f, *a, **kw:
                            built.append(f) or init(self, f, *a, **kw))
        flow_of(u0, 8 * cfg.dt, cfg)
        assert len(built) == len(states) and built[0] is u0
        assert all(f._hat is None and np.array_equal(f.data, st.u.data)
                   for f, st in zip(built[1:], states[1:]))

    def test_geodesic_solve_steps_through_module_step(self, grid16, rng,
                                                      monkeypatch):
        # one lagrangian._geodesic_step call per time step, looked up on
        # the module: the benchmark times its units at that boundary
        calls = []
        step_ = lagrangian._geodesic_step
        monkeypatch.setattr(lagrangian, "_geodesic_step",
                            lambda *a: calls.append(a[0].t) or step_(*a))
        u0 = random_div_free(grid16, rng, norm_value=0.2)
        geodesic_solve(u0, 0.1, GeodesicConfig(dt=0.025))
        assert calls == pytest.approx([0.0, 0.025, 0.05, 0.075], abs=1e-15)

    def test_public_step_takes_its_size_from_cfg(self, grid16, rng):
        # geodesic_step has no dt of its own: one step of cfg.dt is the
        # first step of geodesic_solve, bit for bit
        u0 = random_div_free(grid16, rng, norm_value=0.2)
        cfg = GeodesicConfig(dt=0.03)
        got = geodesic_step(GeodesicState(0.0, identity(grid16), u0), cfg)
        ref = geodesic_solve(u0, cfg.dt, cfg).final
        assert got.t == ref.t
        assert np.array_equal(got.phi.displacement.data, ref.phi.displacement.data)
        assert np.array_equal(got.v.data, ref.v.data)


class TestStreamedFlow:
    """flow_of streams the flow map alongside the Euler solve and returns
    what reading every stored state of the solve gave, bit for bit."""

    @pytest.mark.parametrize("order", [3, 5, "fourier"])
    @pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
    def test_matches_flow_of_stored_states(self, dim, n, order, rng):
        grid = Grid(dim=dim, n=n, length=TAU)
        u0 = random_div_free(grid, rng, norm_value=0.4)
        cfg = StepperConfig(dt=0.01)
        ref = _flow_of_stored(_solver_states(u0, cfg, 6), order)
        for k in range(1, 4):
            T = 2 * k * cfg.dt
            traj, phi = flow_of(u0, T, cfg, order=order)
            assert np.array_equal(phi.displacement.data, ref[k].displacement.data)
            # and the trajectory is solve's
            plain = solve(u0, T, cfg)
            assert traj.states[0].u is u0 and traj.final.t == plain.final.t
            assert np.array_equal(traj.final.u.data, plain.final.u.data)
            for name in ("times", "energies", "norms", "div_drifts"):
                assert np.array_equal(getattr(traj, name), getattr(plain, name))


class TestFlowAndPullback:
    def test_flow_matches_exp(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        T, dt = 0.2, 0.01
        _, phi = flow_of(u0, T, StepperConfig(dt=dt))
        phi_exp = exp_map(u0, T, GeodesicConfig(dt=dt))
        gap = np.max(np.abs(phi.displacement.data - phi_exp.displacement.data))
        assert gap < 1e-6

    def test_flow_requires_even_step_count(self, grid16, rng, monkeypatch):
        # rejected before any step
        monkeypatch.setattr(eulerian, "step", None)
        u0 = random_div_free(grid16, rng, norm_value=0.1)
        with pytest.raises(ValueError, match="even number"):
            flow_of(u0, 0.03, StepperConfig(dt=0.01))

    def test_vorticity_pullback_identity(self, grid32, rng):
        u = random_div_free(grid32, rng)
        om = vorticity(u)
        back = vorticity_pullback(identity(grid32), om)
        assert sobolev_norm(back - om, 1.0) < 1e-12

    def test_vorticity_transported(self, grid32, rng):
        u0 = random_div_free(grid32, rng, norm_value=0.4)
        T, dt = 0.2, 0.01
        traj, phi = flow_of(u0, T, StepperConfig(dt=dt))
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
