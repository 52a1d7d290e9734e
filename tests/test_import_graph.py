"""The package's imports form a line, not a knot.

Each ``src/hypiso/*.py`` is parsed with ``ast``.  The imports between
package modules made at module level form a graph with no cycle, and a
package module is imported inside a function only by ``cli.py``, whose
commands import what they use so that its start-up stays short.
"""

import ast
from pathlib import Path

import pytest

import hypiso

SOURCE = Path(hypiso.__file__).resolve().parent
MODULES = {path.stem for path in SOURCE.glob("*.py")}


def package_imports(source: str, modules=MODULES) -> list:
    """(target, in_function, line) of each import of a package module."""
    out = []

    def visit(node, in_function):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or module.startswith("hypiso")):
            module = module.removeprefix("hypiso").lstrip(".")
            names = [module.split(".")[0]] if module else [a.name for a in node.names]
            out.extend((name, in_function, node.lineno) for name in names if name in modules)
        elif isinstance(node, ast.Import):
            out.extend((a.name.split(".")[1], in_function, node.lineno) for a in node.names
                       if a.name.startswith("hypiso.") and a.name.split(".")[1] in modules)
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), False)
    return out


def find_cycle(graph: dict) -> list:
    """One cycle of ``graph`` (module -> set of modules) as a path that
    starts and ends at the same module, or [] when there is none."""
    state = {}

    def walk(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = walk(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return []

    for start in sorted(graph):
        if start not in state:
            found = walk(start, [start])
            if found:
                return found
    return []


def read_package():
    return {path.stem: package_imports(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}


def test_module_level_imports_have_no_cycle():
    graph = {name: {t for t, in_function, _ in found if not in_function}
             for name, found in read_package().items()}
    assert find_cycle(graph) == []


def test_only_the_cli_imports_inside_a_function():
    late = [f"{name}.py:{line} imports {target}"
            for name, found in read_package().items() if name != "cli"
            for target, in_function, line in found if in_function]
    assert late == []


@pytest.mark.parametrize("source,want", [
    ("from . import frames, lapack\n", [("frames", False, 1), ("lapack", False, 1)]),
    ("from .reality import _reverser\n", [("reality", False, 1)]),
    ("from hypiso.spectral import x\n", [("spectral", False, 1)]),
    ("import hypiso.classify\n", [("classify", False, 1)]),
    ("def f():\n    from .reality import g\n", [("reality", True, 2)]),
    ("class C:\n    def m(self):\n        from . import frames\n", [("frames", True, 3)]),
    ("import numpy as np\nfrom numpy import linalg\n", []),
])
def test_the_guard_sees_each_form(source, want):
    assert package_imports(source, {"frames", "lapack", "reality", "spectral", "classify"}) == want


def test_the_guard_finds_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []
