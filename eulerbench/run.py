"""eulerlab benchmark: one workload in one process, printing one JSON result.

    python3 eulerbench/run.py --workload euler-n128 --seed 1 --seconds 30 --trace 0
    python3 eulerbench/run.py --workload euler-n128 --seed 1 --trace 1
    python3 eulerbench/run.py --workload all --seed 1
    python3 eulerbench/run.py --smoke

``--trace 0`` runs chunks until ``--seconds`` have passed and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of chunks twice,
untraced and then traced, reports the per-layer metrics and writes the
spans to ``eulerbench/out/``.  ``--workload all`` runs every workload
untraced, each in its own process, and prints their end-to-end figures.
``--smoke`` checks the benchmark itself on tiny grids.  Metric names and
units come from ``BENCHMARK.json``; the last line of standard output is the
result object.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Thread caps for the BLAS/OpenMP pools, set before numpy is imported, so
# every run is the plain single-threaded case whatever the caller's
# environment holds.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_REPEATS = 5

# The import part of set-up, as timed by this script up to its import of
# eulerlab.  Fresh interpreters repeat it, since a process imports only once.
IMPORT_PROBE = f"""
import time
t0 = time.perf_counter()
import argparse, functools, importlib, json, os, platform, resource
import statistics, subprocess, sys, traceback, uuid, pathlib
sys.path.insert(0, {str(SRC)!r})
import eulerlab
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny grids and chunks (used by --smoke)")
    ap.add_argument("--smoke", action="store_true",
                    help="check the benchmark itself on tiny grids")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    return args


def import_eulerlab():
    """Import eulerlab from this checkout's src/, never from elsewhere."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import eulerlab
    except ImportError as exc:
        raise SystemExit(f"cannot import eulerlab from {SRC}: {exc}")
    if SRC.resolve() not in Path(eulerlab.__file__).resolve().parents:
        raise SystemExit(f"eulerlab imported from {eulerlab.__file__}, not {SRC}")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def install_clock(patches, boundary, marks):
    """One clock read at each unit boundary; no other instrumentation."""
    owner = importlib.import_module(boundary[0])

    def make(fn):
        @functools.wraps(fn)
        def boundary_call(*args, **kwargs):
            marks.append(time.perf_counter())
            return fn(*args, **kwargs)
        return boundary_call

    patches.site(owner, boundary[1], make)


def measure(work, marks, deadline=None, chunks=None):
    """Run chunks until ``deadline`` (or ``chunks`` of them).

    Returns wall seconds, units attempted, units failed, units completed
    (in chunks that did not raise) and per-unit latencies, each from one
    boundary read to the next, the last ending when its call returns.
    """
    attempted = failed = completed = done = 0
    latencies = []
    t0 = time.perf_counter()
    while True:
        marks.clear()
        try:
            bad = work.chunk()
            raised = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bad, raised = work.steps, True
        end = time.perf_counter()
        attempted += work.steps
        failed += bad
        done += 1
        if not raised:
            completed += work.steps
            if marks:
                if len(marks) != work.steps:
                    raise SystemExit(
                        f"unit boundary {'.'.join(work.boundary)} was called "
                        f"{len(marks)} times in a chunk of {work.steps} units")
                reads = marks + [end]
                latencies += [b - a for a, b in zip(reads, reads[1:])]
        if (chunks is not None and done >= chunks) or (
                deadline is not None and end >= deadline):
            return end - t0, attempted, failed, completed, latencies


def cache_bytes(name):
    # glibc sysconf keys _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
    try:
        return os.sysconf({"L2": 191, "L3": 194}[name]) or None
    except (ValueError, OSError):
        return None


def environment(args, work):
    import numpy as np
    import scipy

    try:
        backend = importlib.import_module("eulerlab._kernels").BACKEND
    except (ImportError, AttributeError):
        backend = None
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "kernels_backend": backend,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "l2_bytes": cache_bytes("L2"),
        "l3_bytes": cache_bytes("L3"),
        "n": work.n,
        "field_array_bytes_computed": work.ncomp * work.n ** 2 * 8,
    }


def result_line(kind, values, attempted, failed):
    """Result object restricted to, and checked against, BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    if set(units) != set(values):
        raise SystemExit(f"metric names differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(units) ^ set(values))}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


def run(args) -> int:
    import_eulerlab()
    imports = [time.perf_counter() - T_START]

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](OUT, args.tiny)

    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                               capture_output=True, text=True, timeout=120)
        imports.append(float(probe.stdout))
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.prepare(args.seed)
        prep.append(time.perf_counter() - t0)
    import_s = statistics.median(imports)
    setup_s = import_s + statistics.median(prep)

    patches = tracing.Patches()
    marks = []
    install_clock(patches, work.boundary, marks)
    work.reset()
    env = environment(args, work)
    print("# env " + json.dumps(env))

    if args.trace == 0:
        wall, attempted, failed, completed, lat = measure(
            work, marks, deadline=time.perf_counter() + args.seconds)
        if not lat:
            raise SystemExit("no unit completed")
        values = {
            "setup_s": setup_s,
            "units_per_s": completed / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"# setup_s            {setup_s:.4f} s  (median of {SETUP_REPEATS} "
              f"imports {import_s:.4f} s + median of {SETUP_REPEATS} set-ups)")
        print(f"# units_per_s        {values['units_per_s']:.4f} units/s  "
              f"({completed} units in {wall:.2f} s)")
        print(f"# unit_s.p50         {statistics.median(lat):.6f} s  (n = {len(lat)})")
        if len(lat) >= 100:
            p90 = statistics.quantiles(lat, n=10)[-1]
            print(f"# unit_s.p90         {p90:.6f} s  (n = {len(lat)})")
        else:
            print(f"# unit_s.p90         undefined: {len(lat)} units < 100")
        print(f"# peak_rss_mb        {values['peak_rss_mb']:.1f} MB")
        print(f"# failed_frac        {failed / attempted:.4f} 1  "
              f"({failed} of {attempted} units)")
        print(result_line("end_to_end", values, attempted, failed))
        return 0

    chunks = workloads.TRACED_CHUNKS[args.workload]
    ref_wall, attempted, failed, _, _ = measure(work, marks, chunks=chunks)
    patches.restore()
    tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:12]}")
    tracer.install(patches)
    work.reset()
    wall, att2, fail2, _, _ = measure(work, [], chunks=chunks)
    patches.restore()
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = wall / ref_wall - 1.0
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 {"env": env, "untraced_wall_s": ref_wall, "traced_wall_s": wall,
                  "metrics": values})
    line = result_line("per_layer", values, attempted + att2, failed + fail2)
    for m in spec()["per_layer"]:
        print(f"# {m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
    print(line)
    return 0


def run_all(args) -> int:
    """Each workload untraced in its own process; relay its figures."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("# env"):
                print(f"{name:18s} {line[2:]}")
        correct = proc.returncode == 0 and json.loads(lines[-1])["correct"]
        if not correct:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_eulerlab()
        return run_all(args)
    if args.smoke:
        import_eulerlab()
        import smoke

        return smoke.main(Path(__file__), spec())
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
