"""Every module-level import of the package is used in its module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scideals"
MODULES = sorted(SRC.glob("*.py"))


def _module_imports(body):
    """(name bound, line) of each import among the module-level
    statements, including those under a module-level ``if`` or ``try``
    (such as ``if TYPE_CHECKING:``); ``__future__`` imports bind
    nothing."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                yield from _module_imports(block)


def unused_imports(source: str) -> list[str]:
    """The module-level imports that no name in the module reads."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}"
            for name, line in _module_imports(tree.body)
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from x import Y\n"
        "def f(a: Y) -> int:\n"
        "    return sys.maxsize\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: Sequence"]
    assert SRC / "poset.py" in MODULES  # the glob found the package


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_import_is_unused(path):
    assert unused_imports(path.read_text()) == []
