from __future__ import annotations

import ast
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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_flagged():
    source = "from os import path, sep\nimport json\nx: sep = json.dumps(1)\n"
    assert _unused_imports(source) == ["path (line 1)"]


def test_library_modules_use_every_name_they_import():
    """Every name a module imports is read somewhere in it; ``__init__``
    re-exports and is exempt."""
    package = Path(hfda.__file__).resolve().parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
