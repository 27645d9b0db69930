"""Every top-level function and class of the package has a caller,
every defaulted parameter or dataclass field is set by one, and every
default parameter value is relied on by one.

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


def _defaulted(node, skip_first):
    """(name, positional index or None) of each defaulted parameter of a def."""
    args = node.args
    first = len(args.args) - len(args.defaults)
    for i, arg in enumerate(args.args[first:], start=first):
        yield arg.arg, i - skip_first
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _definitions(tree):
    """(called name, def node, leading self/cls count) of the module's
    functions, methods and constructors; dunder methods other than
    ``__init__`` are skipped."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield node.name, item, 1
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item, 1


def _calls(trees):
    """Called name -> list of (positional argument count, keyword names)."""
    found = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                found[name].append((len(node.args), {k.arg for k in node.keywords}))
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default no call overrides is a constant; tests do not count as callers
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    calls = _calls(trees.values())
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, skip in _definitions(trees[path]):
            for param, index in _defaulted(node, skip):
                if not any(param in keywords or (index is not None and n > index)
                           for n, keywords in calls[name]):
                    unset.append(f"{path.stem}.{name}({param})")
    assert unset == []


def _defaulted_fields(tree):
    """(class, field) of each dataclass field that a caller may leave out:
    one with a default or a default factory; ``init=False`` fields are not
    set by callers."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign) and item.value is not None):
                    continue
                if isinstance(item.value, ast.Call) and ast.unparse(item.value.func) == "field":
                    keywords = {k.arg: ast.unparse(k.value) for k in item.value.keywords}
                    if keywords.get("init") == "False" \
                            or not {"default", "default_factory"} & set(keywords):
                        continue
                yield node.name, item.target.id


def test_every_defaulted_dataclass_field_is_set_by_a_caller():
    # a field no call sets, by keyword in a call of its class or of
    # dataclasses.replace, is a knob with one value: a constant
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    calls = _calls(trees.values())
    unset = [f"{path.stem}.{cls}.{name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for cls, name in _defaulted_fields(trees[path])
             if not any(name in keywords for _, keywords in calls[cls] + calls["replace"])]
    assert unset == []


def _module_names(tree):
    """Names that ``import x`` binds in a file: a bare name there is the
    module, not a package function of the same name."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}


def _values(trees):
    """Names referred to other than as the callee of a call (a function
    passed or stored as a value), module names aside."""
    found = set()
    for tree in trees:
        modules = _module_names(tree)
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if id(node) in callees:
                continue
            if isinstance(node, ast.Name) and node.id not in modules:
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_default_is_relied_on_by_a_product_caller():
    # a default that every package and benchmark caller overrides serves
    # only the tests: a second path that nothing in the product takes
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}
    calls = _calls(trees.values())
    values = _values(trees.values())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node, skip in _definitions(trees[path]):
            if name in values:
                continue
            for param, index in _defaulted(node, skip):
                if not any(param not in keywords and (index is None or n <= index)
                           for n, keywords in calls[name]):
                    unused.append(f"{path.stem}.{name}({param})")
    assert unused == []
