"""Every name a library or test module imports is referenced in that
module, and every module-level definition, method and class field is
reachable from the CLI entry point except the ones listed as waiting to
be wired into an experiment or as read from outside the library."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "echolab"


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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source):
    """Top-level package of every absolute import in a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def formats_artifacts(source):
    """Whether a module imports json or defines or names `csv_text`."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return "json" in imported_modules(source) or "csv_text" in names


def test_format_checker_sees_json_and_the_csv_writer():
    assert formats_artifacts("import json\n")
    assert formats_artifacts("from json import dumps\n")
    assert formats_artifacts("def csv_text(header, columns):\n    return ''\n")
    assert formats_artifacts("from .cli import csv_text\n")
    assert formats_artifacts("from . import cli\ntext = cli.csv_text([], [])\n")
    assert not formats_artifacts("import numpy as np\ndef to_rows(x):\n    return np.asarray(x)\n")


def test_only_cli_formats_artifacts():
    # The artifacts' file formats are chosen where they are written: the
    # library types stay numeric and `cli` alone formats and serialises them.
    formatters = {p.stem for p in SRC.glob("*.py") if formats_artifacts(p.read_text())}
    assert formatters == {"cli"}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Module-level functions, classes and constants by name, dunders aside,
    and each method, property or annotated field of a class as
    `Class.member`."""
    out = {}
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            out[node.name] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    out[f"{node.name}.{item.name}"] = item
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    out[f"{node.name}.{item.target.id}"] = item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    out[target.id] = node
    return out


def _relative_imports(tree):
    """Local name -> (module, imported name) for each `from .x import y`."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return out


def _own_nodes(node):
    """The nodes of a definition; a class's own nodes leave out its methods."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    parts += [item for item in node.body if not isinstance(item, FUNCTIONS)]
    return [node, *(sub for part in parts for sub in ast.walk(part))]


def unreachable(sources, root):
    """`module.name` of each module-level definition, and `module.Class.member`
    of each method or field, that no chain of references from `root`, a
    (module, name) pair, reaches.

    `sources` maps module names to source text. A definition references
    every name read anywhere in its node (body, defaults, decorators,
    bases, annotations); a name bound by a relative import resolves to
    the module that defines it. A class's methods are not part of its
    node: a method, property or field of a reached class is reached once
    its name is read as an attribute (`x.name`) anywhere in reached code,
    and its dunders are reached with the class.
    """
    trees = {m: ast.parse(text) for m, text in sources.items()}
    defs = {m: _definitions(tree) for m, tree in trees.items()}
    imports = {m: _relative_imports(tree) for m, tree in trees.items()}

    def resolve(module, name):
        while name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
        return module, name

    seen, attributes = set(), set()
    stack = [root]
    while stack:
        while stack:
            module, name = stack.pop()
            if (module, name) in seen:
                continue
            seen.add((module, name))
            for node in _own_nodes(defs[module][name]):
                if isinstance(node, ast.Name):
                    target = resolve(module, node.id)
                    if target is not None:
                        stack.append(target)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
        for module, names in defs.items():
            for name in names:
                cls, _, member = name.partition(".")
                if member and (module, cls) in seen and (module, name) not in seen and (
                    _is_dunder(member) or member in attributes
                ):
                    stack.append((module, name))
    return {f"{m}.{n}" for m, names in defs.items() for n in names if (m, n) not in seen}


# Definitions no experiment reaches yet, each waiting for the experiment
# named in its reason; empty while every definition serves one. Wiring
# one in means removing it here.
PENDING_WIRE_IN = {}

# Definitions and members no experiment reads, read from outside the library.
READ_OUTSIDE = {
    "topology.Filtration.simplices": "read by `benchmarks/layers.py` size hooks",
    "topology.PersistenceDiagram.pairs": "read by `benchmarks/layers.py` size hooks",
    "topology.PersistencePair": "built only by `PersistenceDiagram.pairs`",
    "stochastic.ValueEstimate.horizon": "read by `benchmarks/layers.py` size hooks",
    "stochastic.ValueEstimate.n_rollouts": "read by `benchmarks/layers.py` size hooks",
}


def covered(names, listed):
    """The names with each member of a listed class folded into the
    class's entry, which covers them all."""
    return {
        name if name in listed or name.rpartition(".")[0] not in listed
        else name.rpartition(".")[0]
        for name in names
    }


def test_reachability_finds_dead_and_imported_definitions():
    sources = {
        "__init__": "VERSION = 1\n",
        "cli": "from . import VERSION\nfrom .a import f\ndef main():\n    return f() + VERSION\n",
        "a": (
            "from .b import helper as h\n"
            "LIMIT = 3\n"
            "def f():\n    return h(LIMIT)\n"
            "def dead():\n    return f()\n"
        ),
        "b": (
            "class Base(Exception):\n    pass\n"
            "class Err(Base):\n    pass\n"
            "def helper(x: 'int') -> int:\n    return x\n"
            "def unused():\n    raise Err\n"
        ),
    }
    assert unreachable(sources, ("cli", "main")) == {"a.dead", "b.Base", "b.Err", "b.unused"}


def test_reachability_follows_methods_through_attribute_reads():
    sources = {
        "cli": (
            "from .a import Box, make\n"
            "def main():\n    return make().total + Box.build().size()\n"
        ),
        "a": (
            "from .b import helper\n"
            "class Box:\n"
            "    def __init__(self):\n        self.items = []\n"
            "    @classmethod\n    def build(cls):\n        return cls()\n"
            "    def size(self):\n        return len(self.items)\n"
            "    @property\n    def total(self):\n        return 0\n"
            "    def dead(self):\n        return helper()\n"
            "class Ghost:\n"
            "    def __repr__(self):\n        return ''\n"
            "    def size(self):\n        return 1\n"
            "def make():\n    return Box()\n"
        ),
        "b": "def helper():\n    return 1\n",
    }
    # `Box.dead` is never read, so neither is `helper`, which only it calls;
    # `Ghost` is never reached, so none of its methods is, whatever they are named.
    assert unreachable(sources, ("cli", "main")) == {
        "a.Box.dead", "b.helper", "a.Ghost", "a.Ghost.__repr__", "a.Ghost.size",
    }


def test_every_definition_serves_an_experiment():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    listed = set(PENDING_WIRE_IN) | set(READ_OUTSIDE)
    assert covered(unreachable(sources, ("cli", "main")), listed) == listed


def test_new_dead_definition_fails_the_guard():
    # An unreferenced function appended to a real module, and a method and
    # a field no code reads, show up as unreachable beside the listed definitions.
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    sources["topology"] += "\n\ndef orphan():\n    return 0\n"
    sources["dynsys"] = sources["dynsys"].replace(
        "    def __len__(self) -> int:",
        "    def unread_view(self):\n        return self.samples\n\n    def __len__(self) -> int:",
    )
    sources["dynsys"] = sources["dynsys"].replace(
        "    step: float\n    samples: np.ndarray\n",
        "    step: float\n    samples: np.ndarray\n    unread_field: int = 0\n",
    )
    listed = set(PENDING_WIRE_IN) | set(READ_OUTSIDE)
    expected = listed | {
        "topology.orphan", "dynsys.TimeSeries.unread_view", "dynsys.TimeSeries.unread_field"
    }
    assert covered(unreachable(sources, ("cli", "main")), listed) == expected
