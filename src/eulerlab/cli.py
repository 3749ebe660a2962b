"""Command-line front end: simulations, invariant battery, separation
experiments, snapshot inspection.

Configuration is plain key = value text (INI sections), overridable by
flags.  Every CSV written carries a header row and a comment line with
the hash of the full configuration, so outputs are traceable and
bit-reproducible for a fixed seed.

Exit codes: 0 success, 1 invariant/experiment failure, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__
from .bform import BAssembly
from .eulerian import BlowUpError, StepperConfig, _monitors, _step_count, solve
from .fields import (
    biot_savart,
    divergence,
    random_div_free,
    taylor_green,
    vorticity,
)
from .illposedness import (
    SeparationSeries,
    composition_experiment,
    scaling_check,
    solution_map_experiment,
)
from .lagrangian import GeodesicConfig, geodesic_solve
from .snapshots import load_snapshot, save_snapshot
from .spectral import (
    Grid,
    chi_cutoff,
    random_scalar,
    sobolev_norm,
)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3
_VERIFY_HORIZON = 0.1  # final time of the verify battery's 2D Taylor-Green run


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    dim: int = 2
    n: int = 64
    length: float = 2.0 * np.pi
    dt: float = 1e-3
    T: float = 1.0
    s: float = 2.5
    dynamics: str = "eulerian"  # eulerian | geodesic
    initial: str = "random"     # random | taylor-green
    amplitude: float = 0.5
    experiment: str = "composition"  # composition | solution-map | both
    R: float = 0.1
    k_max: int = 8
    cutoff: float = 1.0
    out: str = "out"
    seed: int = 0

    def validated(self) -> "RunConfig":
        non_finite = [f.name for f in dc_fields(self)
                      if f.type == "float" and not np.isfinite(getattr(self, f.name))]
        checks = [
            (not non_finite, f"{', '.join(non_finite)} must be finite"),
            (self.dim in (2, 3), "dim must be 2 or 3"),
            (self.n >= 8 and (self.n & (self.n - 1)) == 0,
             "n must be a power of two >= 8"),
            (self.length > 0, "length must be positive"),
            (self.dt > 0, "dt must be positive"),
            (self.T > 0, "T must be positive"),
            (self.dynamics in ("eulerian", "geodesic"),
             "dynamics must be eulerian or geodesic"),
            (self.initial in ("random", "taylor-green"),
             "initial must be random or taylor-green"),
            (self.experiment in ("composition", "solution-map", "both"),
             "experiment must be composition, solution-map or both"),
            (self.R > 0, "R must be positive"),
            (self.k_max >= 1, "k_max must be >= 1"),
            (self.cutoff > 0, "cutoff must be positive"),
            (self.amplitude > 0, "amplitude must be positive"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        return self

    def hash(self) -> str:
        # the output directory does not influence the numbers produced,
        # so it stays out of the hash (same run -> same hash, anywhere)
        text = ",".join(f"{f.name}={getattr(self, f.name)}"
                        for f in dc_fields(self) if f.name != "out")
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def grid(self) -> Grid:
        return Grid(dim=self.dim, n=self.n, length=self.length)


_CONFIG_TYPES = {f.name: f.type for f in dc_fields(RunConfig)}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # field names are case-sensitive (n vs N-like T, R)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                key = key.replace("-", "_")
                if key not in _CONFIG_TYPES:
                    raise ConfigError(f"unknown config key '{key}'")
                values[key] = raw
    values.update({k: v for k, v in overrides.items() if v is not None})

    kwargs = {}
    for key, raw in values.items():
        if isinstance(raw, str):
            caster = {"int": int, "float": float, "str": str}[_CONFIG_TYPES[key]]
            try:
                raw = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}': {raw}") from exc
        kwargs[key] = raw
    return RunConfig(**kwargs).validated()


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def write_csv(path: Path, header: list[str], rows, cfg_hash: str) -> None:
    """Write a CSV under its config-hash comment.  The output directory is
    made here, at the first write, or by ``simulate`` once its parameters
    are checked, so a rejected run has none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# config-hash: {cfg_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def svg_loglog(series: dict, title: str) -> str:
    """Minimal log-log plot of gap against k: axes, ticks, one polyline
    per series, as SVG text; ValueError when no gap is finite and
    positive."""
    w, h, m = 640, 480, 60
    xs = np.concatenate([np.asarray(s[0], float) for s in series.values()])
    ys = np.concatenate([np.asarray(s[1], float) for s in series.values()])
    ys = ys[np.isfinite(ys) & (ys > 0)]
    if xs.size == 0 or ys.size == 0:
        raise ValueError("nothing to plot")
    lx0, lx1 = np.log10(xs.min()), np.log10(xs.max())
    ly0, ly1 = np.log10(ys.min()), np.log10(ys.max())
    lx1 += (lx1 - lx0 or 1.0) * 0.05
    ly1 += (ly1 - ly0 or 1.0) * 0.05

    def px(v):
        return m + (np.log10(v) - lx0) / max(lx1 - lx0, 1e-12) * (w - 2 * m)

    def py(v):
        return h - m - (np.log10(v) - ly0) / max(ly1 - ly0, 1e-12) * (h - 2 * m)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>',
        f'<text x="{w/2:.0f}" y="{h-16}" text-anchor="middle" '
        'font-size="12">k (log)</text>',
        f'<text x="18" y="{h/2:.0f}" font-size="12" '
        f'transform="rotate(-90 18 {h/2:.0f})" '
        'text-anchor="middle">gap (log)</text>',
    ]
    for d in range(int(np.floor(ly0)), int(np.ceil(ly1)) + 1):
        v = 10.0 ** d
        if 10 ** ly0 <= v <= 10 ** ly1:
            y = py(v)
            parts.append(f'<line x1="{m-4}" y1="{y:.1f}" x2="{m}" y2="{y:.1f}"'
                         ' stroke="black"/>')
            parts.append(f'<text x="{m-8}" y="{y+4:.1f}" text-anchor="end" '
                         f'font-size="10">1e{d}</text>')
    for idx, (name, (x, y)) in enumerate(series.items()):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        keep = np.isfinite(y) & (y > 0)
        pts = " ".join(f"{px(a):.1f},{py(b):.1f}" for a, b in
                       zip(x[keep], y[keep]))
        col = colors[idx % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{col}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{w-m+4}" y="{m+16*idx+12}" font-size="11" '
                     f'fill="{col}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _series_outputs(outputs: list[tuple[SeparationSeries, str]], out: Path,
                    cfg_hash: str) -> None:
    """Write ``stem.csv`` and ``stem.svg`` for each (series, stem).  Every
    plot is rendered before any file is written, so a series with nothing
    to plot leaves no output of its own or of the others."""
    svgs = [svg_loglog({"input gap": (ser.k, ser.input_gap),
                        "output gap": (ser.k, ser.output_gap)},
                       title=f"{ser.metadata.get('experiment', stem)} separation "
                             f"(R={ser.metadata.get('R')})")
            for ser, stem in outputs]
    for (ser, stem), svg in zip(outputs, svgs):
        write_csv(out / f"{stem}.csv", ser.column_names(), ser.rows(), cfg_hash)
        (out / f"{stem}.svg").write_text(svg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _initial_field(cfg: RunConfig, grid: Grid):
    if cfg.initial == "taylor-green":
        if cfg.dim != 2:
            raise ConfigError("taylor-green initial data is 2D")
        return taylor_green(grid) * cfg.amplitude
    rng = np.random.default_rng(cfg.seed)
    return random_div_free(grid, rng, s=3.0, norm_value=cfg.amplitude)


def cmd_simulate(cfg: RunConfig) -> int:
    grid = cfg.grid()
    out = Path(cfg.out)
    u0 = _initial_field(cfg, grid)
    _step_count(cfg.T, cfg.dt)
    if cfg.dynamics == "eulerian":
        _monitors(grid, cfg.s)  # an overflowing H^s weight is a config error
    # parameters are checked: an unwritable --out fails now, not after T
    out.mkdir(parents=True, exist_ok=True)

    if cfg.dynamics == "eulerian":
        traj = solve(u0, cfg.T, StepperConfig(dt=cfg.dt, s_monitor=cfg.s,
                                              cutoff=cfg.cutoff))
        rows = zip(traj.times, traj.energies, traj.norms, traj.div_drifts)
        write_csv(out / "trajectory.csv",
                  ["t", "energy", f"H{cfg.s}_norm", "div_drift"],
                  rows, cfg.hash())
        save_snapshot(out / "final_u.egl", traj.final.u)
        print(f"simulate eulerian: {len(traj.times) - 1} steps to T={cfg.T}")
        print(f"  final H^{cfg.s} norm {traj.norms[-1]:.6e}")
        print(f"  max divergence drift {traj.div_drifts.max():.3e}"
              + ("  (budget exceeded)" if traj.drift_budget_exceeded else ""))
        print(f"  energy drift {abs(traj.energies[-1] - traj.energies[0]):.3e}")
        return EXIT_FAIL if traj.drift_budget_exceeded else EXIT_OK

    traj = geodesic_solve(u0, cfg.T, GeodesicConfig(dt=cfg.dt, cutoff=cfg.cutoff))
    rows = zip(traj.times, traj.speeds, traj.det_defects)
    write_csv(out / "trajectory.csv", ["t", "L2_speed", "max_det_defect"],
              rows, cfg.hash())
    save_snapshot(out / "final_phi.egl", traj.final.phi)
    save_snapshot(out / "final_v.egl", traj.final.v)
    print(f"simulate geodesic: {len(traj.times) - 1} steps to T={cfg.T}")
    print(f"  speed drift {abs(traj.speeds[-1] - traj.speeds[0]):.3e}")
    print(f"  max |det dphi - 1| {traj.det_defects[-1]:.3e}")
    return EXIT_OK


def _verify_battery(cfg: RunConfig):
    """(name, measured, tolerance) triples for the quick invariant table."""
    if cfg.dim == 2:
        _step_count(_VERIFY_HORIZON, cfg.dt, "the battery's fixed horizon t")
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    coarse = grid.n <= 16
    # documented relaxation schedule for coarse grids
    relax = 100.0 if coarse else 1.0

    rows = []
    f = random_scalar(grid, rng, norm_s=cfg.s)
    g2 = chi_cutoff(chi_cutoff(f, cfg.cutoff), cfg.cutoff)
    rows.append(("chi idempotence",
                 sobolev_norm(g2 - chi_cutoff(f, cfg.cutoff), cfg.s), 1e-12))
    lam = 0.5
    interp_slack = (sobolev_norm(f, lam * 1.0 + (1 - lam) * 3.0)
                    - sobolev_norm(f, 1.0) ** lam * sobolev_norm(f, 3.0) ** (1 - lam))
    rows.append(("interpolation inequality slack", interp_slack, 1e-10))

    u = random_div_free(grid, rng, s=3.0, norm_value=1.0)
    ub = biot_savart(vorticity(u))
    rows.append(("biot-savart round trip",
                 sobolev_norm(ub - u, 2.0) / sobolev_norm(u, 2.0), 1e-10))
    bb = BAssembly(grid, cutoff=cfg.cutoff)
    rows.append(("pressure gradient consistency",
                 bb.gradient_residual(u) / sobolev_norm(u, cfg.s) ** 2, 1e-9))

    if cfg.dim == 2:
        tg = taylor_green(grid)
        traj = solve(tg, _VERIFY_HORIZON,
                     StepperConfig(dt=cfg.dt, s_monitor=cfg.s, cutoff=cfg.cutoff))
        rows.append(("taylor-green stationarity",
                     sobolev_norm(traj.final.u - tg, 2.0), 1e-8 * relax))
        rows.append(("divergence drift", traj.div_drifts.max(), 1e-7 * relax))
        small = random_div_free(grid, rng, s=3.0, norm_value=0.3)
        rows.append(("scaling identity",
                     scaling_check(small, 0.5, dt=cfg.dt), 1e-5 * relax))
    return rows


def cmd_verify(cfg: RunConfig) -> int:
    rows = _verify_battery(cfg)
    failures = 0
    width = max(len(r[0]) for r in rows)
    for name, measured, tol in rows:
        ok = measured <= tol
        failures += 0 if ok else 1
        print(f"{name:<{width}}  {measured:12.3e}  <= {tol:8.1e}  "
              f"{'pass' if ok else 'FAIL'}")
    if failures:
        print(f"{failures} invariant check(s) failed")
        return EXIT_FAIL
    print("all invariant checks passed")
    return EXIT_OK


def cmd_illposedness(cfg: RunConfig) -> int:
    # both experiments run, and both plots render, before either writes,
    # so a run that fails in the second leaves no output of the first
    out = Path(cfg.out)
    comp = sol = None
    if cfg.experiment in ("composition", "both"):
        comp = composition_experiment(R=cfg.R, k_max=cfg.k_max, s=cfg.s,
                                      grid=cfg.grid())
    if cfg.experiment in ("solution-map", "both"):
        sol = solution_map_experiment(R=cfg.R, k_max=cfg.k_max, s=cfg.s,
                                      grid=cfg.grid(), dt=cfg.dt, T=cfg.T)
    named = ((comp, "composition"), (sol, f"solution_map_R{cfg.R}"))
    _series_outputs([(ser, stem) for ser, stem in named if ser is not None],
                    out, cfg.hash())
    if comp is not None:
        print(f"composition: input-gap slope {comp.input_gap_slope():+.4f}, "
              f"min output gap {comp.output_gap.min():.4e}")
    if sol is not None:
        if sol.metadata.get("band_truncated"):
            print("warning: series truncated at the resolution watermark")
        print(f"solution map R={cfg.R}: min output gap "
              f"{sol.output_gap.min():.4e}")
    return EXIT_OK


def cmd_snapshot_dump(path: str) -> int:
    obj = load_snapshot(path)
    grid = obj.grid
    kind = type(obj).__name__
    print(f"{path}: {kind} on dim={grid.dim} n={grid.n} L={grid.length:g}")
    target = getattr(obj, "displacement", obj)
    print(f"  sup |.| = {np.max(np.abs(target.data)):.6e}")
    print(f"  H^0 norm = {sobolev_norm(target, 0.0):.6e}")
    print(f"  H^2 norm = {sobolev_norm(target, 2.0):.6e}")
    if kind == "VectorField":
        print(f"  H^0 divergence = {sobolev_norm(divergence(target), 0.0):.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eulerlab",
        description="Pseudo-spectral laboratory for the pressure-free Euler "
                    "equation: simulations, conservation checks, and "
                    "non-uniform-continuity experiments.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value config file (INI)")
        sp.add_argument("--out", help="output directory (default: out)")
        sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
        sp.add_argument("--n", type=int, dest="dim",
                        help="space dimension, 2 or 3 (default 2)")
        sp.add_argument("--N", type=int, dest="n",
                        help="grid points per axis, power of two (default 64)")
        sp.add_argument("--L", type=float, dest="length",
                        help="box length (default 2*pi)")
        sp.add_argument("--s", type=float, help="Sobolev index (default 2.5)")
        sp.add_argument("--dt", type=float, help="time step (default 1e-3)")
        sp.add_argument("--T", type=float, help="final time (default 1)")
        sp.add_argument("--R", type=float, help="separation radius (default 0.1)")
        sp.add_argument("--kmax", type=int, dest="k_max",
                        help="number of separation rows (default 8)")

    sim = sub.add_parser("simulate", help="run a time integration")
    common(sim)
    sim.add_argument("--dynamics", choices=("eulerian", "geodesic"))
    sim.add_argument("--initial", choices=("random", "taylor-green"))
    sim.add_argument("--amplitude", type=float)

    ver = sub.add_parser("verify", help="run the invariant battery")
    common(ver)

    ill = sub.add_parser("illposedness", help="run separation experiments")
    common(ill)
    ill.add_argument("--experiment",
                     choices=("composition", "solution-map", "both"))

    dump = sub.add_parser("snapshot-dump", help="inspect a snapshot file")
    dump.add_argument("path")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "snapshot-dump":
            return cmd_snapshot_dump(args.path)
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config") and v is not None}
        cfg = load_config(args.config, overrides)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_illposedness(cfg)
    except (BlowUpError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # bad config, parameter, file or --out
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
