from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import hfda

SRC = Path(hfda.__file__).resolve().parent.parent


def test_hfda_loads_no_scipy():
    """numpy is the only runtime dependency: importing the CLI and every
    submodule loads no scipy module.  It runs in a fresh interpreter because
    the test process itself imports scipy."""
    code = (
        "import importlib, pkgutil, sys\n"
        "import hfda, hfda.cli\n"
        "for mod in pkgutil.iter_modules(hfda.__path__):\n"
        "    importlib.import_module('hfda.' + mod.name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"
