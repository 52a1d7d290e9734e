"""Every exception class of ``hypiso.errors`` is raised by the library, or
is the base of one that is: a class nothing raises is a dead helper, and
a documented outcome no input can reach."""

import ast
import inspect
from pathlib import Path

import hypiso
from hypiso import errors

SOURCE = Path(hypiso.__file__).resolve().parent


def built_names() -> set:
    """Names the library calls or raises bare, outside ``errors`` itself.
    An exception may be built in one place and raised in another (a list
    of per-document outcomes, a helper that returns the refusal to raise),
    so an instance built counts as one raised."""
    names = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            target = node.func if isinstance(node, ast.Call) else (
                node.exc if isinstance(node, ast.Raise) else None)
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    ]
    raised = [cls for cls in classes if cls.__name__ in built_names()]
    dead = [
        cls.__name__ for cls in classes
        if not any(issubclass(r, cls) for r in raised)
    ]
    assert dead == []
