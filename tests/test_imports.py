"""Package imports: importing eulerlab loads no optional scipy submodule
(scipy.fft alone costs more than the rest of the import), and the package
re-exports exactly each submodule's ``__all__``."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import eulerlab


def test_import_loads_no_scipy_submodules():
    src = str(Path(eulerlab.__file__).resolve().parents[1])
    mods = ("scipy.ndimage", "scipy.special", "scipy.fft")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import eulerlab; "
            f"print(' '.join(m for m in {mods!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == ""


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
