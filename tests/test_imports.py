"""Importing the package loads no optional scipy submodule (scipy.fft alone
costs more than the rest of the import)."""

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
