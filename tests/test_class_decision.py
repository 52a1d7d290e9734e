"""The class of a Lorentz element is decided, and refused, in one place:
``classify._fixed_point_class``.  Every route that reports a class, a
stretch or anything read from them agrees with it.  No decider's failure
is caught broadly and carried to a later answer: the one broad handler
keeps a read error of the CLI's document loop."""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import hypiso
from conftest import lorentz
from hypiso.classify import FixedPointClass, classify, fixed_point_class, stretch_factor
from hypiso.errors import HypisoError, NotHyperbolic
from test_conditioning import (
    TIMELIKE_KERNEL_AXIS,
    TIMELIKE_KERNEL_AXIS_PARTNER,
    UNPAIRED_STRETCH,
    WIDE_KERNEL_SPHERE,
)
from test_conjugacy import elements

SOURCE = Path(hypiso.__file__).resolve().parent

# the flags of the stored spectral pass that decide the class
CLASS_FLAGS = {"band", "square_band", "unpaired", "rmax"}


# the one function of each module that may touch the class flags: the
# decision, and the pass that writes them and picks the rows given rays
EXEMPT = {"classify.py": (None, "_fixed_point_class"), "spectral.py": ("_LorentzSpectrum", "stack")}


def _exempt_nodes(tree: ast.Module, owner, name) -> set:
    """ids of the nodes of the function ``name``, a method of the class
    ``owner`` or a module-level function when ``owner`` is None."""
    scope = tree.body
    if owner is not None:
        scope = next(n.body for n in scope if isinstance(n, ast.ClassDef) and n.name == owner)
    func = next(n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name)
    return {id(n) for n in ast.walk(func)}


def flag_reads() -> list:
    """``file:line attr`` of each read of a class flag outside
    ``classify._fixed_point_class`` and ``spectral._LorentzSpectrum.stack``,
    which writes them."""
    out = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _exempt_nodes(tree, *EXEMPT[path.name]) if path.name in EXEMPT else set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in CLASS_FLAGS
                    and id(node) not in allowed):
                out.append(f"{path.name}:{node.lineno} {node.attr}")
    return out


def test_class_flags_are_read_only_by_the_class_decision():
    assert flag_reads() == []


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """A bare ``except``, or one that names Exception or BaseException."""
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"))
               for t in names)


def broad_handlers() -> list:
    """``file:line`` of each broad exception handler in ``src/hypiso``
    outside the read loop of ``cli._per_document``, the one place that
    keeps an error (a document it cannot read) to raise later.  A
    decider's failure is raised where it happens, not carried in a slot."""
    out = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "cli.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_per_document":
                    allowed = {id(h) for t in ast.walk(node) if isinstance(t, ast.Try)
                               and any(isinstance(b, ast.For) for b in t.body)
                               for h in t.handlers}
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and _is_broad(node) and id(node) not in allowed:
                out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_broad_exception_handler_outside_the_read_loop():
    assert broad_handlers() == []


@settings(max_examples=300, derandomize=True, deadline=None)
@given(elements())
# the draws are benign; these frozen elements meet each refusal: of the
# class (time-like kernel axis, unpaired stretch) and after it (kernel width)
@example(lorentz(TIMELIKE_KERNEL_AXIS))
@example(lorentz(TIMELIKE_KERNEL_AXIS_PARTNER))
@example(lorentz(UNPAIRED_STRETCH))
@example(lorentz(WIDE_KERNEL_SPHERE))
def test_every_route_reads_the_one_class(t):
    try:
        cls = fixed_point_class(t)
    except HypisoError as exc:
        # a refusal of the class is the refusal of every route that reads it
        for route in (classify, stretch_factor):
            with pytest.raises(type(exc)) as info:
                route(t)
            assert str(info.value) == str(exc)
        return
    if cls is FixedPointClass.HYPERBOLIC:
        stretch = stretch_factor(t)
    else:
        stretch = None
        with pytest.raises(NotHyperbolic):
            stretch_factor(t)
    try:
        report = classify(t)
    except HypisoError:
        return  # refused after the class, on the fixed data
    assert report.fixed_class is cls
    assert report.stretch == stretch
