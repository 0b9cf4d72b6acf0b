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


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants of ``sources``
    (module name -> source) that no top-level statement but their own reads."""
    defined, used = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {stmt.lineno}"
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            used |= refs - names
    return [f"{name} ({where})" for name, where in defined.items() if name not in used]


def test_unreferenced_private_names_are_flagged():
    sources = {
        "a": "_LIMIT = 3\n_dead = 0\ndef _loop(n):\n    return _loop(n - 1)\n",
        "b": "from a import _LIMIT\nclass _Used: pass\nx = [_Used(), _LIMIT]\n",
    }
    assert _unreferenced_private_names(sources) == ["_dead (a line 2)", "_loop (a line 3)"]


def test_library_references_every_private_name_it_defines():
    """Every module-level private function, class or constant in the
    package is read somewhere in it, so a helper left behind by a move
    shows up here."""
    package = Path(hfda.__file__).resolve().parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """``Class.field`` for every annotated field of every ``@dataclass`` in
    ``sources`` (module name -> source) that no ``obj.field`` load anywhere
    in them reads."""
    fields, read = [], set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                getattr(target, "id", getattr(target, "attr", None)) == "dataclass"
                for target in (getattr(dec, "func", dec) for dec in node.decorator_list)
            ):
                fields += [
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_unread_fields_are_flagged():
    sources = {
        "a": (
            "@dataclass(frozen=True)\nclass Config:\n    seed: int = 1\n    knob: bool = False\n"
            "    dead: int = 0\nclass Plain:\n    note: str = ''\n"
            "@dataclasses.dataclass\nclass Row:\n    label: str\n    spare: int\n"
        ),
        "b": "def run(config, row):\n    config.dead = 2\n    return config.seed, row.label\n",
    }
    assert _unread_fields(sources) == ["Config.knob", "Config.dead", "Row.spare"]


def test_every_dataclass_field_is_read():
    """Every ``@dataclass`` field of the package, config settings included,
    is read as an attribute somewhere in it, so a field (or a config key)
    whose value nothing uses shows up here."""
    package = Path(hfda.__file__).resolve().parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unread_fields(sources) == []


SOLVERS = {"run_gd", "run_gauss_newton", "run_sgd", "run_ksgd"}


def _solver_callers(source: str) -> set[str]:
    """Top-level functions of ``source`` that call a solver, by its name or
    as a module attribute."""
    return {
        stmt.name
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.FunctionDef)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in SOLVERS
    }


def test_solver_callers_are_found():
    source = (
        "def a():\n    return run_gd(p)\n"
        "def b():\n    def c():\n        optimize.run_ksgd(p)\n"
        "def d():\n    return run_gd, run_other(p)\n"
    )
    assert _solver_callers(source) == {"a", "b"}


def test_harness_runs_solvers_through_run_solver_alone():
    """One solver factory: every harness fit (reference, study, race and
    solve) reaches a solver through ``run_solver``."""
    source = (Path(hfda.__file__).resolve().parent / "harness.py").read_text()
    assert _solver_callers(source) == {"run_solver"}


def _file_writers(source: str) -> set[str]:
    """Top-level functions of ``source`` that call ``.write_text``,
    ``.write_bytes`` or ``open`` with a mode (reads take the default)."""

    def writes(call: ast.Call) -> bool:
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name == "open":
            return len(call.args) > 1 or any(k.arg == "mode" for k in call.keywords)
        return name in ("write_text", "write_bytes")

    return {
        stmt.name
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.FunctionDef)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and writes(node)
    }


def test_file_writers_are_found():
    source = (
        "def a(p):\n    open(p, 'w').write('x')\n"
        "def b(p):\n    p.write_bytes(b'')\n"
        "def c(p):\n    return open(p), p.read_text()\n"
        "def d(p, m):\n    open(p, mode=m)\n"
    )
    assert _file_writers(source) == {"a", "b", "d"}


def test_output_files_are_written_by_write_lines_alone():
    """One writer: every output file goes through ``harness.write_lines``.
    The other writers are the reference cache and the kernel's C source,
    which goes to a temporary build directory."""
    package = Path(hfda.__file__).resolve().parent
    writers = {
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name in _file_writers(path.read_text())
    }
    assert writers == {"harness.write_lines", "harness._fit_reference", "kernel._compile"}
