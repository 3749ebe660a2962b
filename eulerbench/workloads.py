"""The three benchmark workloads and the correctness checks on their outputs.

All are 2D on a box of length 2*pi.  A workload is run in chunks: one
solver or experiment call per chunk.  A unit is one RK4 step (euler),
one geodesic RK4 step (geodesic) or one series row (composition); unit
boundaries are the calls named by ``boundary``.  ``chunk`` returns the
number of units whose output failed its check: all of the chunk's units
for euler and geodesic, the failing rows for composition.

Inputs come only from the seed; the program sees the generated fields.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from eulerlab import eulerian, illposedness, lagrangian, snapshots
from eulerlab.bform import BAssembly
from eulerlab.eulerian import StepperConfig
from eulerlab.fields import random_div_free
from eulerlab.lagrangian import GeodesicConfig, det_jacobian
from eulerlab.spectral import Grid

BOX = 2.0 * math.pi

# Tolerances, with the values measured at the benchmark's first commit
# (2 cores, numpy backend) in brackets.
EULER_ENERGY_DRIFT = 1e-10   # relative, per 50-step chunk [<= 2e-16]
GEO_SPEED_DRIFT = 1e-7       # relative L2 speed drift per 25-step chunk [<= 4e-10]
GEO_DET_DEFECT = 1e-4        # max |det d(phi) - 1| after a chunk [<= 4e-7]
# criterion 13's gates, unchanged
COMP_SLOPE = 0.05            # |input-gap slope + 1| [0 to round-off]
COMP_SUM = 0.02              # |output_gap_sum - R| / R on trusted rows [<= 0.012]
COMP_FLOOR = 0.5             # output_gap / output_gap[0] [>= 0.97]


def euler_ok(traj, saved, loaded) -> bool:
    """Energy conserved, drift budget kept, finite, snapshot bit-identical."""
    e = traj.energies
    return bool(
        not traj.drift_budget_exceeded
        and abs(e[-1] - e[0]) <= EULER_ENERGY_DRIFT * e[0]
        and np.all(np.isfinite(saved.data))
        and loaded.grid == saved.grid
        and np.array_equal(loaded.data, saved.data)
    )


def geodesic_ok(traj) -> bool:
    """L2 speed conserved and the final map volume preserving."""
    sp = traj.speeds
    det = det_jacobian(traj.final.phi).data
    return bool(
        abs(sp[-1] - sp[0]) <= GEO_SPEED_DRIFT * sp[0]
        and np.max(np.abs(det - 1.0)) <= GEO_DET_DEFECT
    )


def composition_rows_ok(series, R: float) -> np.ndarray:
    """Criterion 13's gates, per row: the series slope, the output floor,
    and the translation gap on trusted rows."""
    slope_ok = abs(series.input_gap_slope() + 1.0) <= COMP_SLOPE
    gap = series.output_gap
    sums = series.extras["output_gap_sum"]
    trusted = series.extras["trusted"] > 0
    ok = (np.isfinite(gap) & np.isfinite(sums)
          & (gap >= COMP_FLOOR * gap[0])
          & (~trusted | (np.abs(sums - R) <= COMP_SUM * R)))
    return ok & slope_ok


class Euler:
    """``solve`` in 50-step chunks; each chunk's final velocity goes
    through a snapshot round trip and seeds the next chunk."""

    boundary = ("eulerlab.eulerian", "step")
    ncomp = 2

    def __init__(self, n: int, steps: int, work_dir: Path):
        self.n, self.steps = n, steps
        self.cfg = StepperConfig(dt=1e-3, s_monitor=2.5)
        self.path = work_dir / "euler-final.egl"

    def prepare(self, seed: int) -> None:
        self.grid = Grid(dim=2, n=self.n, length=BOX)
        rng = np.random.default_rng(seed)
        self.u0 = random_div_free(self.grid, rng, s=3.0, norm_value=0.5)
        # solve builds its own assembly; this one puts its cost in set-up
        BAssembly(self.grid)

    def reset(self) -> None:
        self.u = self.u0

    def chunk(self) -> int:
        """Run one chunk; return the number of failed units."""
        traj = eulerian.solve(self.u, self.steps * self.cfg.dt, self.cfg)
        final = traj.final.u
        snapshots.save_snapshot(self.path, final)
        loaded = snapshots.load_snapshot(self.path)
        ok = euler_ok(traj, final, loaded)
        self.u = loaded
        return 0 if ok else self.steps


class Geodesic:
    """``geodesic_solve`` from the identity in 25-step chunks; chunks cycle
    through a pool of initial velocities drawn in set-up."""

    boundary = ("eulerlab.lagrangian", "_geodesic_step")
    ncomp = 2
    pool = 8

    def __init__(self, n: int, steps: int):
        self.n, self.steps = n, steps
        self.cfg = GeodesicConfig(dt=1e-2)

    def prepare(self, seed: int) -> None:
        self.grid = Grid(dim=2, n=self.n, length=BOX)
        rng = np.random.default_rng(seed)
        self.u0s = [random_div_free(self.grid, rng, s=3.0, norm_value=0.5)
                    for _ in range(self.pool)]
        # geodesic_solve builds its own assembly; this one puts its cost in set-up
        BAssembly(self.grid)

    def reset(self) -> None:
        self.next = 0

    def chunk(self) -> int:
        u0 = self.u0s[self.next % self.pool]
        self.next += 1
        traj = lagrangian.geodesic_solve(u0, self.steps * self.cfg.dt, self.cfg)
        return 0 if geodesic_ok(traj) else self.steps


class Composition:
    """``composition_experiment`` with its default quintic order; one
    chunk is one series of ``steps`` rows."""

    boundary = ("eulerlab.illposedness", "invert")
    ncomp = 1

    def __init__(self, n: int, steps: int):
        self.n, self.steps = n, steps

    def prepare(self, seed: int) -> None:
        self.grid = Grid(dim=2, n=self.n, length=BOX)
        rng = np.random.default_rng(seed)
        self.R = float(rng.choice([0.05, 0.1, 0.2]))

    def reset(self) -> None:
        pass

    def chunk(self) -> int:
        series = illposedness.composition_experiment(
            R=self.R, k_max=self.steps, grid=self.grid)
        return int(np.sum(~composition_rows_ok(series, self.R)))


# name -> factory(work_dir, tiny); tiny grids serve the smoke checks
WORKLOADS = {
    "euler-n128": lambda d, tiny: Euler(16 if tiny else 128, 4 if tiny else 50, d),
    "geodesic-n64": lambda d, tiny: Geodesic(16 if tiny else 64, 4 if tiny else 25),
    "composition-n512": lambda d, tiny: Composition(128 if tiny else 512, 2 if tiny else 4),
}

# chunks run by a traced run: fixed work, so its counts repeat exactly
TRACED_CHUNKS = {"euler-n128": 2, "geodesic-n64": 4, "composition-n512": 1}
