"""Package imports: importing eulerlab, or running an Eulerian solve, loads
no optional scipy submodule (scipy.fft alone costs more than the rest of
the import), and the package re-exports exactly each submodule's
``__all__``."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import eulerlab


def scipy_submodules_loaded(statements):
    """The optional scipy submodules in sys.modules after a fresh
    interpreter imports eulerlab and runs ``statements``."""
    src = str(Path(eulerlab.__file__).resolve().parents[1])
    mods = ("scipy.ndimage", "scipy.special", "scipy.fft")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eulerlab; "
            f"{statements}; "
            f"print(' '.join(m for m in {mods!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_import_loads_no_scipy_submodules():
    assert scipy_submodules_loaded("pass") == ""


def test_eulerian_solve_loads_no_scipy_submodules():
    """The Eulerian path runs on numpy alone.  This is what keeps the
    euler-n128 benchmark's peak_rss_mb near 57 MB: importing scipy.fft
    pulls in scipy.special and adds about 25 MB of resident memory."""
    run = ("from eulerlab import Grid, StepperConfig, solve, taylor_green; "
           "solve(taylor_green(Grid(dim=2, n=16)), 0.02, "
           "StepperConfig(dt=0.01))")
    assert scipy_submodules_loaded(run) == ""


def test_package_reexports_each_module_all():
    # eulerlab/__init__.py imports exactly each submodule's public names,
    # so a name dropped from one list but not the other shows up here
    init = Path(eulerlab.__file__)
    checked = 0
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"eulerlab.{node.module}")
            imported = {alias.name for alias in node.names}
            assert imported == set(module.__all__), node.module
            checked += 1
    assert checked >= 8
