"""Package imports: importing eulerlab, or running an Eulerian solve, loads
no optional scipy submodule (scipy.fft alone costs more than the rest of
the import), and the package re-exports exactly each submodule's
``__all__``."""

import ast
import importlib
import inspect
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
    euler-n128 benchmark's peak_rss_mb near 45 MB: importing scipy.fft
    pulls in scipy.special and adds about 25 MB of resident memory."""
    run = ("from eulerlab import Grid, StepperConfig, solve, taylor_green; "
           "solve(taylor_green(Grid(dim=2, n=16)), 0.02, "
           "StepperConfig(dt=0.01))")
    assert scipy_submodules_loaded(run) == ""


def _library_modules():
    """Every submodule but the command line, which the package does not
    re-export."""
    init = Path(eulerlab.__file__)
    return sorted(p.stem for p in init.parent.glob("*.py")
                  if not p.stem.startswith("_") and p.stem != "cli")


def test_package_reexports_each_module_all():
    # eulerlab/__init__.py star-imports each library module, so the package
    # binds exactly those modules and their __all__ names, as the same objects
    init = Path(eulerlab.__file__)
    stars = [node.module for node in ast.parse(init.read_text()).body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and [alias.name for alias in node.names] == ["*"]]
    assert sorted(stars) == _library_modules()
    expected = {}
    for name in stars:
        module = importlib.import_module(f"eulerlab.{name}")
        expected[name] = module
        expected.update((n, getattr(module, n)) for n in module.__all__)
    # importing eulerlab.cli, as other tests do, binds it on the package too
    public = {n: v for n, v in vars(eulerlab).items()
              if not n.startswith("__") and n != "cli"}
    assert public.keys() == expected.keys()
    assert all(public[n] is expected[n] for n in expected)


def test_each_module_all_lists_its_public_definitions():
    # a public function or class left out of its module's __all__ would
    # silently drop out of the package namespace
    for name in _library_modules():
        module = importlib.import_module(f"eulerlab.{name}")
        defined = {n for n, v in vars(module).items()
                   if not n.startswith("_")
                   and (inspect.isfunction(v) or inspect.isclass(v))
                   and v.__module__ == module.__name__}
        assert defined <= set(module.__all__), (name, defined - set(module.__all__))
