"""Every top-level function and class of the package has a caller.

A name counts as used when the package or the benchmark harness names it
outside its own definition: as a name, an attribute, an import, or a word
of a string constant (the tracer patches targets given as strings).
Docstrings and comments do not count, and neither do the tests: helpers
that only tests need belong in ``tests/``.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "swinvos"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body \
                and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            yield node.body[0].value


def _names(tree):
    """Counter of every identifier the tree refers to, docstrings aside."""
    skip = {id(c) for c in _docstrings(tree)}
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            found.update(re.findall(r"\w+", node.value))
    return found


def test_every_top_level_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    everywhere = sum((_names(tree) for tree in trees.values()), collections.Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if everywhere[node.name] - _names(node)[node.name] == 0:
                    unused.append(f"{path.stem}.{node.name}")
    assert unused == []
