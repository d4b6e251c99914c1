"""Every ``varjet`` module uses each name it imports.

Each ``src/varjet/*.py`` except ``__init__.py``, which imports to re-export,
is parsed with ``ast``.  A name bound by an import, at module level or inside
a function, must be read somewhere in the scope that imports it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "varjet"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imports(node: ast.AST, scope: ast.AST):
    """Each import statement under ``node`` with the scope it binds names in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        yield from _imports(child, child if isinstance(child, SCOPES) else scope)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    unused = []
    for statement, scope in _imports(tree, tree):
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in statement.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(bound)
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_function_level_imports_are_scanned():
    source = "import os\n\ndef f():\n    from math import pi, tau\n    return pi + os.sep\n\ndef g(tau):\n    return tau\n"
    assert unused_imports(source) == ["tau"]
