"""Package hygiene: no module imports a name it never uses, every
function is used somewhere, every private name is used by the package
itself, every callable of the compiled kernel is read by the package,
every exported name resolves, and a run imports no NumPy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridswarm

SRC = Path(gridswarm.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's imports that nothing in it references.

    A name listed in the module's ``__all__`` counts as referenced;
    ``from __future__`` imports bind nothing and are skipped.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def unreferenced_functions(defining: list[Path], using: list[Path]) -> list[str]:
    """Functions, methods and properties defined in ``defining`` whose name
    appears in no name or attribute reference in ``using``.

    A definition binds its name without referencing it, so any reference
    found is somewhere else.  Dunder methods are called by the language
    and are exempt.
    """
    referenced: set[str] = set()
    for path in using:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    found = []
    for path in defining:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in referenced:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_function_is_referenced():
    assert unreferenced_functions(MODULES, MODULES + TESTS) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names_unread(paths: list[Path]) -> list[str]:
    """Private names that ``paths`` bind at module level or define as a
    function or method, and that no name or attribute load in ``paths``
    reads: code kept only for the tests."""
    read: set[str] = set()
    bound = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.append((path, node.lineno, node.name))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [getattr(stmt, "target", None)]
            bound += [(path, stmt.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(stmt, ast.ClassDef):
                bound.append((path, stmt.lineno, stmt.name))
    return sorted(
        f"{path.name}:{line} {name}"
        for path, line, name in bound
        if _is_private(name) and name not in read
    )


def test_private_names_are_used_in_src():
    assert private_names_unread(MODULES) == []


def kernel_names_unread(paths: list[Path]) -> list[str]:
    """Callables the compiled kernel exports that no module in ``paths``
    reads as ``kernel.<name>``: C code kept only for the tests."""
    from gridswarm._build import kernel

    read = {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "kernel"
    }
    exported = {
        name for name in dir(kernel)
        if not name.startswith("_") and callable(getattr(kernel, name))
    }
    return sorted(exported - read)


def test_kernel_exports_are_used_in_src():
    assert kernel_names_unread(MODULES) == []


def test_exports_resolve():
    missing = [name for name in gridswarm.__all__ if not hasattr(gridswarm, name)]
    assert missing == []


def test_a_cli_run_imports_no_numpy(tmp_path):
    """NumPy is a test dependency only: importing the CLI and running
    ``square:5`` through it leaves it unimported."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("region = square:5\nseed = 3\n")
    script = (
        "import sys, gridswarm.cli\n"
        f"assert gridswarm.cli.main(['run', '--config', {str(cfg)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
