"""Package hygiene: no module imports a name it never uses, every
function is used somewhere, and every exported name resolves."""
import ast
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


def test_exports_resolve():
    missing = [name for name in gridswarm.__all__ if not hasattr(gridswarm, name)]
    assert missing == []
