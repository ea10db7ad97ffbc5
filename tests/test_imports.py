"""Every name a library module imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "echolab"


def _names_in(node):
    """Names read in an expression; a string constant is parsed as an
    expression first, so quoted annotations and `__all__` entries count."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                out |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return out


def unused_imports(source):
    """(line, name) of each imported name that the module never references."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in(node.returns)
        elif isinstance(node, ast.arg) and node.annotation:
            used |= _names_in(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= _names_in(node.value)
    return [(line, name) for line, name in imported if name not in used]


def test_checker_finds_unused_and_accepts_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, replace\n"
        "from typing import Optional\n"
        "import numpy as np\n"
        "def f(x: 'Optional[int]') -> np.ndarray:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(3, "dataclass"), (3, "replace")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
