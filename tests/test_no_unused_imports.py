"""Every import under ``src/repro`` and ``tests`` is used.

An unused import is dead weight that a reader has to rule out, and an
unused module import is paid for at start-up by every process that loads
the module (process replicas included).  This test walks every module
under ``src/repro`` and ``tests`` with the stdlib ``ast`` and fails on a
name that an ``import`` binds but the module never references.  A name
counts as used when the module reads it (also inside a string
annotation), lists it in ``__all__``, or imports it in an
``__init__.py`` (a package re-export).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the trees walked; modules are named relative to the repo root.
TREES = (ROOT / "src" / "repro", ROOT / "tests")

#: module (path from the repo root) -> names it may import unused, and why.
ALLOWED = {}


def _imported(tree):
    """name -> line of every binding an ``import`` statement makes."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotation_names(node):
    """Names read inside the string annotations under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                e.value
                for e in getattr(node.value, "elts", ())
                if isinstance(e, ast.Constant)
            )
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        for annotation in annotations:
            used.update(_annotation_names(annotation))
    return used


def unused_imports(source: str, filename: str = "<snippet>", package_init=False):
    """(line, name) of every import ``source`` binds but never uses."""
    if package_init:
        return []
    tree = ast.parse(source, filename)
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def test_no_module_imports_a_name_it_does_not_use():
    offenders = []
    paths = sorted(path for tree in TREES for path in tree.rglob("*.py"))
    for path in paths:
        module = path.relative_to(ROOT).as_posix()
        allowed = ALLOWED.get(module, {})
        offenders += [
            f"{module}:{line}: {name}"
            for line, name in unused_imports(
                path.read_text(), str(path), path.name == "__init__.py"
            )
            if name not in allowed
        ]
    assert not offenders, "unused imports:\n" + "\n".join(offenders)


def test_checker_flags_synthetic_offenders():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "import numpy as np",
            "import xml.dom",
            "from typing import Dict, List, Optional",
            "from .clock import MONOTONIC",
            "def f(x: 'Optional[int]') -> List[int]:",
            "    return [len(os.sep)]",
        ]
    )
    assert unused_imports(source) == [
        (3, "np"),
        (4, "xml"),
        (5, "Dict"),
        (6, "MONOTONIC"),
    ]


def test_all_and_package_reexports_count_as_use():
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from .a import b\n", package_init=True) == []
