"""The SoC's per-cycle modules read no enum member inside a function body.

On Python 3.11 ``EnumType`` defines ``__getattr__``, which sends every
class-attribute read down the slow generic path: ``Perm.TRUNK`` costs
about 100 ns against a few ns for a module constant, ``Perm(2)`` about
0.5 µs, and an enum-keyed dict lookup calls the Python-level
``Enum.__hash__``.  The modules below run once per stepped engine cycle
(the SoC) or once per memory access (the timing model), so they bind the
members they use to module constants at import (``_TRUNK = Perm.TRUNK``)
and keep enum-keyed tables as member attributes (``MemOp.is_cbo``,
``Cap.perm``) or tuples indexed by value.  This test parses each module
and fails on a ``<Enum subclass>.<member>`` read, a ``<Enum
subclass>(...)`` call or a ``<Enum subclass>[...]`` lookup inside a
function body.  Module-level code and class bodies (dataclass defaults)
run once at import and may name members freely.
"""

from __future__ import annotations

import ast
import enum
import importlib
import inspect
from types import ModuleType
from typing import Dict, List, Tuple

import pytest

#: per-cycle (SoC) and per-access (timing model) modules
HOT_MODULES = (
    "repro.uarch.cpu",
    "repro.uarch.l1",
    "repro.uarch.l2",
    "repro.uarch.mshr",
    "repro.uarch.probe_unit",
    "repro.uarch.wbu",
    "repro.uarch.requests",
    "repro.uarch.arrays",
    "repro.uarch.soc",
    "repro.core.flush_unit",
    "repro.core.fshr",
    "repro.core.flush_queue",
    "repro.tilelink.permissions",
    "repro.tilelink.messages",
    "repro.tilelink.channel",
    "repro.coherence.directory",
    "repro.timing.system",
    "repro.sim.engine",
    "repro.mem.dram",
)

_MISSING = object()


def _resolve(node: ast.expr, namespace: Dict[str, object]) -> object:
    """The object a ``Name`` or dotted ``Attribute`` chain names at import."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id, _MISSING)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, namespace)
        if isinstance(owner, (ModuleType, type)):
            return getattr(owner, node.attr, _MISSING)
    return _MISSING


def _is_enum_class(obj: object) -> bool:
    return isinstance(obj, type) and issubclass(obj, enum.Enum)


class _EnumReads(ast.NodeVisitor):
    """Collects ``(function, line, text)`` for enum lookups in function bodies."""

    def __init__(self, namespace: Dict[str, object]) -> None:
        self.namespace = namespace
        self.scope: List[str] = []
        self.found: List[Tuple[str, int, str]] = []

    def _enter(self, name: str, node: ast.AST, body: List[ast.AST]) -> None:
        nested = bool(self.scope)
        self.scope.append(name)
        if nested:
            # defaults and decorators of a nested def run on every call
            self.generic_visit(node)
        else:
            for child in body:
                self.visit(child)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node.name, node, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter("<lambda>", node, [node.body])

    def _note(self, node: ast.expr, text: str) -> None:
        self.found.append((self.scope[-1], node.lineno, text))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.scope:
            owner = _resolve(node.value, self.namespace)
            if _is_enum_class(owner) and node.attr in owner.__members__:
                self._note(node, f"{ast.unparse(node.value)}.{node.attr}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.scope and _is_enum_class(_resolve(node.func, self.namespace)):
            self._note(node, f"{ast.unparse(node.func)}(...)")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.scope and _is_enum_class(_resolve(node.value, self.namespace)):
            self._note(node, f"{ast.unparse(node.value)}[...]")
        self.generic_visit(node)


def enum_reads(source: str, namespace: Dict[str, object]) -> List[Tuple[str, int, str]]:
    """Every enum member read, call or lookup inside a function body of *source*."""
    finder = _EnumReads(namespace)
    finder.visit(ast.parse(source))
    return finder.found


@pytest.mark.parametrize("name", HOT_MODULES)
def test_no_enum_lookup_in_function_bodies(name):
    module = importlib.import_module(name)
    found = enum_reads(inspect.getsource(module), vars(module))
    assert not found, "\n".join(
        f"{name}:{line} in {function}(): {text} (bind it to a module constant)"
        for function, line, text in found
    )


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


def test_finder_flags_reads_calls_and_lookups_but_not_import_time_code():
    source = "\n".join(
        [
            "_RED = _Color.RED",  # module level: once, at import
            "class Box:",
            "    color: _Color = _Color.BLUE",  # class body: once, at import
            "    def paint(self, value, default=_Color.RED):",  # default: once
            "        if self.color is _Color.RED:",  # flagged
            "            return _Color(value)",  # flagged
            "        pick = lambda: _Color['BLUE']",  # flagged
            "        def inner(c=_Color.BLUE):",  # flagged: runs per call
            "            return c is _RED and self.color.value",
            "        return _Color.__members__, inner",  # not a member
        ]
    )
    found = enum_reads(source, {"_Color": _Color, "_RED": _Color.RED})
    assert found == [
        ("paint", 5, "_Color.RED"),
        ("paint", 6, "_Color(...)"),
        ("<lambda>", 7, "_Color[...]"),
        ("inner", 8, "_Color.BLUE"),
    ]
