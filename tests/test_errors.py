"""The error-class rule: outside ``errors.py`` a module defines an exception
subclass only if some ``except`` clause in the package catches it by that
class; every other error is raised as one of ``errors.py``'s classes, which
the CLI maps to exit codes."""

import ast
import importlib
from pathlib import Path

import conssent

PACKAGE = Path(conssent.__file__).resolve().parent


def _caught_names(handler: ast.ExceptHandler) -> set:
    """Class names an ``except`` clause catches, bare or module-qualified."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(handler.type)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_exception_class_outside_errors_is_caught_by_name():
    defined, caught = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _caught_names(node)
        classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        if path.name == "errors.py" or not classes:
            continue
        module = importlib.import_module(f"conssent.{path.stem}")
        defined |= {name: path.name for name in classes
                    if issubclass(getattr(module, name), BaseException)}
    assert "NonFiniteGradient" in defined  # the scan sees the classes it polices
    assert sorted(f"{file}: {name}" for name, file in defined.items() if name not in caught) == []
