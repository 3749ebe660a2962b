"""Self-checks of the benchmark, run by ``run.py --smoke``.

1. A deliberately perturbed output of each workload is counted as failed.
2. On tiny grids, every workload emits every metric of BENCHMARK.json
   with its unit, and every count metric repeats exactly across two
   traced runs with the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tracing
import workloads
from eulerlab import illposedness, lagrangian, snapshots
from eulerlab.spectral import VectorField

TIME_UNITS = ("s", "ns/point")


def _perturbed(work, owner, attr, perturb) -> int:
    """Failed units of one chunk whose ``owner.attr`` output is perturbed."""
    patches = tracing.Patches()

    def make(fn):
        return lambda *a, **k: perturb(fn(*a, **k))

    patches.site(owner, attr, make)
    try:
        work.reset()
        return work.chunk()
    finally:
        patches.restore()


def _nudge_sample(u):
    data = u.data.copy()
    data[0, 0, 0] = np.nextafter(data[0, 0, 0], np.inf)
    return VectorField(u.grid, data)


def _slow_last_speed(traj):
    traj.speeds[-1] *= 1.0 + 1e-3
    return traj


def _drop_last_gap(series):
    series.output_gap[-1] = 0.1 * series.output_gap[0]
    return series


def self_test(errors: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        cases = [
            ("euler-n128", snapshots, "load_snapshot", _nudge_sample, "all"),
            ("geodesic-n64", lagrangian, "geodesic_solve", _slow_last_speed, "all"),
            ("composition-n512", illposedness, "composition_experiment",
             _drop_last_gap, 1),
        ]
        for name, owner, attr, perturb, expect in cases:
            work = workloads.WORKLOADS[name](Path(tmp), True)
            work.prepare(5)
            work.reset()
            clean = work.chunk()
            bad = _perturbed(work, owner, attr, perturb)
            want = work.steps if expect == "all" else expect
            status = "ok" if (clean, bad) == (0, want) else "FAIL"
            print(f"self-test {name}: clean chunk failed {clean}, perturbed "
                  f"{attr} failed {bad} of {work.steps} (want 0, {want}) {status}")
            if status != "ok":
                errors.append(f"self-test {name}")


def _child(script: Path, name: str, trace: int) -> dict:
    cmd = [sys.executable, str(script), "--workload", name, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(script: Path, spec: dict) -> int:
    errors: list[str] = []
    self_test(errors)
    for name in workloads.WORKLOADS:
        runs = [_child(script, name, 0), _child(script, name, 1),
                _child(script, name, 1)]
        for res, kind in zip(runs, ("end_to_end", "per_layer", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{name} {kind}: names or units differ")
            if not res["correct"] or res["failed"] != 0:
                errors.append(f"{name} {kind}: {res['failed']} units failed")
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] not in TIME_UNITS and m["name"] != "trace.overhead_frac"]
        diff = [k for k in counts
                if runs[1]["metrics"][k]["value"] != runs[2]["metrics"][k]["value"]]
        if diff:
            errors.append(f"{name}: counts differ between traced runs: {diff}")
        print(f"smoke {name}: {len(runs[0]['metrics'])} end-to-end and "
              f"{len(runs[1]['metrics'])} per-layer metrics, {len(counts)} counts "
              f"repeat: {'no' if diff else 'yes'}")
    for e in errors:
        print(f"smoke FAIL: {e}")
    print("smoke", "FAILED" if errors else "passed")
    return 1 if errors else 0
