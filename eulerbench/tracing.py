"""Span tracing of eulerlab layers from outside the package.

Wrappers are installed where a name is looked up, not only where it is
defined: eulerlab modules bind names with ``from .fields import advect``,
so a function is replaced in every eulerlab module that holds it.
Methods are replaced on their class.  Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

ROW = "illposedness.row"
EXPERIMENT = "illposedness.composition_experiment"

# (defining module, attribute, span name)
FUNCTION_HOOKS = [
    ("eulerlab.spectral", "sobolev_norm", "spectral.sobolev_norm"),
    ("eulerlab.fields", "jacobian", "fields.jacobian"),
    ("eulerlab.fields", "advect", "fields.advect"),
    ("eulerlab.fields", "gradient", "fields.gradient"),
    ("eulerlab.fields", "divergence", "fields.divergence"),
    ("eulerlab.eulerian", "rhs", "eulerian.rhs"),
    ("eulerlab.eulerian", "step", "eulerian.step"),
    ("eulerlab.eulerian", "solve", "eulerian.solve"),
    ("eulerlab.lagrangian", "invert", "lagrangian.invert"),
    ("eulerlab.lagrangian", "compose", "lagrangian.compose"),
    ("eulerlab.lagrangian", "_geodesic_step", "lagrangian.geodesic_step"),
    ("eulerlab.lagrangian", "geodesic_solve", "lagrangian.geodesic_solve"),
    ("eulerlab.illposedness", "composition_experiment", EXPERIMENT),
    ("eulerlab.snapshots", "save_snapshot", "snapshots.save"),
    ("eulerlab.snapshots", "load_snapshot", "snapshots.load"),
]

# (defining module, class, method, span name)
METHOD_HOOKS = [
    ("eulerlab.spectral", "Grid", "fft", "spectral.fft"),
    ("eulerlab.spectral", "Grid", "ifft", "spectral.ifft"),
    ("eulerlab.bform", "BAssembly", "b1", "bform.b1"),
    ("eulerlab.bform", "BAssembly", "b2", "bform.b2"),
    ("eulerlab.interp", "Interpolant", "__init__", "interp.prefilter"),
    ("eulerlab.interp", "Interpolant", "at", "interp.at"),
]

# spans reported as inclusive seconds plus a call count
TIMED = [
    "spectral.fft", "spectral.ifft", "spectral.sobolev_norm",
    "fields.jacobian", "fields.advect", "fields.gradient", "fields.divergence",
    "bform.b1", "bform.b2", "eulerian.rhs", "eulerian.step",
    "interp.prefilter", "interp.at",
    "lagrangian.invert", "lagrangian.compose", "lagrangian.geodesic_step",
    ROW, "snapshots.save", "snapshots.load",
]


def eulerlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "eulerlab" or name.startswith("eulerlab."))]


class Patches:
    """Replaced attributes, restored in reverse order by ``restore``."""

    def __init__(self):
        self._undo = []

    def site(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(current value)``."""
        old = getattr(owner, attr)
        setattr(owner, attr, make(old))
        self._undo.append((owner, attr, old))

    def everywhere(self, orig, make):
        """Replace ``orig`` in every eulerlab module that binds it."""
        new = make(orig)
        for mod in eulerlab_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, orig))

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# -- counts taken at span boundaries ----------------------------------------

def _planes(args, kwargs, out):
    grid, values = args[0], args[1]
    return {"planes": np.size(values) // grid.size}


def _points(args, kwargs, out):
    points = np.asarray(args[1])
    return {"points": points.size // points.shape[0],
            "comp_axes": np.ndim(out) - (points.ndim - 1)}


def _identity_map(args, kwargs, out):
    phi = args[1] if len(args) > 1 else kwargs["phi"]
    return {"identity": int(not np.any(phi.displacement.data))}


def _trajectory_bytes(args, kwargs, out):
    total = 0
    for st in out.states:
        total += st.u.data.nbytes
        hat = getattr(st.u, "_hat", None)
        total += 0 if hat is None else hat.nbytes
    return {"bytes": total}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


COUNTERS = {
    "spectral.fft": _planes,
    "spectral.ifft": _planes,
    "interp.at": _points,
    "lagrangian.compose": _identity_map,
    "eulerian.solve": _trajectory_bytes,
    "snapshots.save": _file_bytes,
}


class Tracer:
    """In-memory span recorder: name, start, end, parent span, counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[dict | None] = []
        self._stack: list[int] = []
        self._row: int | None = None
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.counts.append(None)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]} closed out of order")

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                if name == EXPERIMENT:
                    self.end_row()
                self.close(i)
            if counter is not None:
                self.counts[i] = counter(args, kwargs, out)
            return out

        return traced

    def wrap_row_start(self, fn):
        """Row boundary: each invert call of the composition experiment
        closes the previous row span and opens the next one."""

        @functools.wraps(fn)
        def row_start(*args, **kwargs):
            self.end_row()
            self._row = self.open(ROW)
            return fn(*args, **kwargs)

        return row_start

    def end_row(self) -> None:
        if self._row is not None:
            self.close(self._row)
            self._row = None

    def install(self, patches: Patches) -> None:
        for modname, attr, name in FUNCTION_HOOKS:
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            patches.everywhere(orig, lambda f, n=name: self.wrap(f, n))
        for modname, cls_name, attr, name in METHOD_HOOKS:
            cls = getattr(importlib.import_module(modname), cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(f"{modname}.{cls_name}.{attr}")
                continue
            patches.site(cls, attr, lambda f, n=name: self.wrap(f, n))
        # Rows of the composition experiment are delimited by its own
        # invert calls; the row span encloses the traced invert span and
        # the last row ends with the experiment.
        ill = importlib.import_module("eulerlab.illposedness")
        patches.site(ill, "invert", self.wrap_row_start)

    # -- aggregation ---------------------------------------------------------

    def _ancestor(self, i: int, name: str) -> int:
        p = self.parents[i]
        while p >= 0 and self.names[p] != name:
            p = self.parents[p]
        return p

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, summed counts."""
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        for i, name in enumerate(self.names):
            rec = out[name]
            dur = self.ends[i] - self.starts[i]
            rec["calls"] += 1
            rec["incl_s"] += dur
            rec["self_s"] += dur - child[i]
            for key, val in (self.counts[i] or {}).items():
                rec[key] = rec.get(key, 0) + val
        return dict(out)

    def layer_metrics(self) -> dict:
        """The per-layer metrics, by name, as plain numbers."""
        s = self.summary()

        def get(name, key):
            return s.get(name, {}).get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for span in TIMED:
            m[f"{span}.s"] = get(span, "incl_s")
            m[f"{span}.calls"] = get(span, "calls")
        m["spectral.fft.planes"] = get("spectral.fft", "planes")
        m["spectral.ifft.planes"] = get("spectral.ifft", "planes")

        # FFT planes done inside rhs calls, invert iterations, and inverts
        # in which Newton fired
        fwd = inv = iters = 0
        newton = set()
        for i, name in enumerate(self.names):
            c = self.counts[i] or {}
            if name in ("spectral.fft", "spectral.ifft"):
                if self._ancestor(i, "eulerian.rhs") >= 0:
                    if name == "spectral.fft":
                        fwd += c.get("planes", 0)
                    else:
                        inv += c.get("planes", 0)
            elif name == "fields.jacobian":
                j = self._ancestor(i, "lagrangian.invert")
                if j >= 0:
                    newton.add(j)
            elif name == "interp.at":
                # a residual evaluation interpolates the displacement
                # (one component axis); Newton also interpolates its
                # Jacobian (two component axes)
                p = self.parents[i]
                if (p >= 0 and self.names[p] == "lagrangian.invert"
                        and c.get("comp_axes") == 1):
                    iters += 1
        rhs_calls = get("eulerian.rhs", "calls")
        m["eulerian.rhs.planes_per_call"] = ratio(fwd + inv, rhs_calls)
        m["eulerian.rhs.fft_planes_per_call"] = ratio(fwd, rhs_calls)
        m["eulerian.rhs.ifft_planes_per_call"] = ratio(inv, rhs_calls)

        # monitors: self time of solve outside its step calls
        monitors = 0.0
        step_time = defaultdict(float)
        for i, name in enumerate(self.names):
            if name == "eulerian.step" and self.parents[i] >= 0:
                step_time[self.parents[i]] += self.ends[i] - self.starts[i]
        for i, name in enumerate(self.names):
            if name == "eulerian.solve":
                monitors += self.ends[i] - self.starts[i] - step_time[i]
        m["eulerian.monitors.s"] = monitors
        m["eulerian.monitors.calls"] = get("eulerian.solve", "calls")
        m["eulerian.trajectory.bytes"] = max(
            [c["bytes"] for n, c in zip(self.names, self.counts)
             if n == "eulerian.solve" and c] or [0])

        at_s, points = get("interp.at", "incl_s"), get("interp.at", "points")
        m["interp.at.points"] = points
        m["interp.at.ns_per_point"] = ratio(at_s, points) * 1e9
        m["interp.at_per_prefilter"] = ratio(get("interp.at", "calls"),
                                             get("interp.prefilter", "calls"))

        inverts = get("lagrangian.invert", "calls")
        m["lagrangian.invert.iters_per_call"] = ratio(iters, inverts)
        m["lagrangian.invert.newton_frac"] = ratio(len(newton), inverts)
        m["illposedness.identity_compose_frac"] = ratio(
            get("lagrangian.compose", "identity"), get("lagrangian.compose", "calls"))
        m["snapshots.save.bytes"] = get("snapshots.save", "bytes")
        return m

    def write(self, path, extra: dict) -> None:
        names = sorted(set(self.names))
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            **extra,
            "missing_hooks": self.missing,
            "summary": self.summary(),
            "span_names": names,
            "span_fields": ["name", "start_s", "end_s", "parent", "counts"],
            "spans": [[index[n], s, e, p, c] for n, s, e, p, c in
                      zip(self.names, self.starts, self.ends, self.parents,
                          self.counts)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
