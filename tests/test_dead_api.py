"""Every public function, class and method of ``varjet`` has a caller.

Each ``src/varjet/*.py`` is parsed with ``ast``.  A public module-level
function or class, or a public method of a module-level class, must be in
``varjet.__all__`` or be read, as a name, an attribute or a ``from`` import,
in some ``src/varjet/*.py`` other than ``__init__.py``, in ``bench/*.py`` or
in ``scripts/*.py``.  Tests are not callers: API that only tests read is dead.

A read names an attribute, not its class, so a method name that several
classes define counts as read on all of them once any one is read.  Every
such name is listed in ``SHARED`` with the classes that define it, after a
check that each of them is read on its own class; a new shared name, or a
new class behind a listed one, fails until it is checked and listed.
"""

import ast
from pathlib import Path

import varjet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varjet"
CALLERS = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
CALLERS += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# Public names kept without a caller in the program, each with its reason.
EXEMPT = {
    "jet_coordinate_count": "closed-form reference that tests check enumerate_jet_coordinates against",
    "fiberwise_coordinate_count": "closed-form reference that tests check enumerate_fiberwise_coordinates against",
}

# Public method names defined by two or more classes, each read on every class listed.
SHARED = {
    "label": {"_Atom", "FiberwiseCoord"},
    "is_zero": {"Expr", "Form"},
    "zero": {"MultiIndex", "Form"},
    "scale": {"Form", "Lagrangian"},
    "degree": {"Morphism", "Lagrangian"},
}


def public_definitions(source: str):
    """``(qualified name, name)`` of each public module-level function and
    class, and of each public method of a module-level class."""
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def names_read(source: str) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_api() -> list[str]:
    read = set().union(*(names_read(p.read_text()) for p in CALLERS))
    return [
        qualified
        for module in sorted(SRC.glob("*.py"))
        for qualified, name in public_definitions(module.read_text())
        if name not in read and name not in varjet.__all__ and name not in EXEMPT
    ]


def method_owners(sources) -> dict[str, set[str]]:
    """``{method name: the classes that define it}`` over ``sources``."""
    owners: dict[str, set[str]] = {}
    for source in sources:
        for qualified, name in public_definitions(source):
            if "." in qualified:
                owners.setdefault(name, set()).add(qualified.split(".")[0])
    return owners


def test_no_dead_api():
    assert dead_api() == []


def test_shared_method_names_are_listed():
    owners = method_owners(module.read_text() for module in sorted(SRC.glob("*.py")))
    assert {name: classes for name, classes in owners.items() if len(classes) > 1} == SHARED


def test_the_scan_sees_methods_functions_and_reads():
    source = (
        "class A:\n    def used(self):\n        pass\n    def unused(self):\n        pass\n"
        "    def _private(self):\n        pass\n\ndef f():\n    return A().used\n"
    )
    assert list(public_definitions(source)) == [("A", "A"), ("A.used", "used"), ("A.unused", "unused"), ("f", "f")]
    assert {"A", "used"} <= names_read(source) and "unused" not in names_read(source)
    assert {"x", "y"} <= names_read("from m import x, y\n")
    assert "z" not in names_read("z = 1\nobj.z = 2\n")
    shared = source + "class B:\n    def used(self):\n        pass\n"
    assert method_owners([shared]) == {"used": {"A", "B"}, "unused": {"A"}}
