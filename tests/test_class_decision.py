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


def flag_reads() -> list:
    """``file:line attr`` of each read of a class flag outside
    ``classify._fixed_point_class``; ``spectral``, which writes them, is
    exempt."""
    out = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "classify.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "_fixed_point_class":
                    allowed = {id(n) for n in ast.walk(node)}
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
