"""Source checks that stand in for a linter: every name a package, script
or test module imports is used somewhere in that module, every name a
package module defines at top level, and every method of its classes, is
used somewhere in the repository's code, no package module draws
through Generator.choice with weights, and no cached result is writable."""

import ast
import importlib
import inspect
import pathlib
from collections import Counter

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "stab_lab"
SOURCES = sorted(PACKAGE.glob("*.py"))
IMPORTERS = SOURCES + sorted(
    p for d in ("scripts", "tests") for p in (ROOT / d).glob("*.py")
)
CODE_DIRS = ("src", "scripts", "tests", "perfbench")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {n})" for name, n in imported.items() if name not in used]


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom typing import Optional\nos.getcwd()\n")
    assert _unused_imports(tree) == ["Optional (line 2)"]


def _references(node: ast.AST) -> Counter:
    """Names read, attributes taken and string constants, counted; strings
    cover lookups by name such as getattr and the benchmark's span table."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _dead_names(module: ast.Module, corpus: list[ast.Module]) -> list[str]:
    """Top-level functions, classes and constants of module, and the methods
    of its classes, that nothing in corpus refers to outside their own
    definition; dunders are exempt."""
    total = sum((_references(tree) for tree in corpus), Counter())
    methods = [
        stmt
        for cls in module.body
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    dead = []
    for stmt in module.body + methods:
        own = _references(stmt)
        for name in _defined(stmt):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and total[name] == own[name]:
                dead.append(f"{name} (line {stmt.lineno})")
    return dead


@pytest.fixture(scope="module")
def code_trees():
    paths = (p for d in CODE_DIRS for p in sorted((ROOT / d).rglob("*.py")))
    return {p: ast.parse(p.read_text()) for p in paths}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_names(path, code_trees):
    assert _dead_names(code_trees[path], list(code_trees.values())) == []


def test_dead_name_is_reported():
    module = ast.parse(
        "LIMIT = 3\n__all__ = []\ndef used():\n    return LIMIT\n"
        "def dead(k):\n    return dead(k - 1) if k else 0\n"
        "class Box:\n    def __init__(self):\n        self.open()\n"
        "    def open(self):\n        pass\n"
        "    def shut(self):\n        return self.shut()\n"
    )
    caller = ast.parse("used()\nBox()\n")
    assert _dead_names(module, [module, caller]) == ["dead (line 5)", "shut (line 12)"]


def _weighted_choices(tree: ast.Module) -> list[int]:
    """Lines of every .choice(...) call given a p= keyword."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice"
        and any(kw.arg == "p" for kw in node.keywords)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_weighted_choice(path):
    # Weighted draws go through tester._draw and sample_zeta's row-wise cdf,
    # which equal choice bit for bit and are tested against it.
    assert _weighted_choices(ast.parse(path.read_text())) == []


def test_weighted_choice_is_reported():
    tree = ast.parse("rng.choice(4, size=2)\nrng.choice(4, p=w)\n")
    assert _weighted_choices(tree) == [2]


def test_benchmark_span_targets_are_package_functions():
    # perfbench/spans.py wraps each target by name, so a rename would break
    # only the traced benchmark
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (targets,) = [
        ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and [getattr(t, "id", None) for t in stmt.targets] == ["TARGETS"]
    ]
    assert targets
    for modname, fname in targets:
        package, module = modname.split(".")
        assert package == "stab_lab"
        body = ast.parse((PACKAGE / f"{module}.py").read_text()).body
        functions = {stmt.name for stmt in body if isinstance(stmt, ast.FunctionDef)}
        assert fname in functions, f"{modname}.{fname}"


def _cached_by_n() -> list:
    """Every package function with a cache that takes only n."""
    found = []
    for path in SOURCES:
        if path.stem != "__init__":
            module = importlib.import_module(f"stab_lab.{path.stem}")
            found += [
                fn for fn in vars(module).values()
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
                and list(inspect.signature(fn).parameters) == ["n"]
            ]
    return found


def _writable(value) -> list:
    """The writable arrays, lists and dicts in value and its nested tuples."""
    if isinstance(value, tuple):
        return [w for item in value for w in _writable(item)]
    if isinstance(value, np.ndarray):
        return [value] if value.flags.writeable else []
    return [value] if isinstance(value, (list, dict)) else []


@pytest.mark.parametrize("fn", _cached_by_n(), ids=lambda f: f.__qualname__)
def test_cached_results_are_read_only(fn):
    # every caller shares a cached result, so one that writes to it would
    # change every later caller's answer
    for n in (1, 2):
        assert _writable(fn(n)) == [], f"{fn.__qualname__}({n})"


def test_cached_results_cover_the_shared_tables():
    names = {fn.__qualname__ for fn in _cached_by_n()}
    assert {"_gate_codes", "stabilizer_unit_matrix", "_span_table", "_xor_index"} <= names


def test_writable_cached_result_is_reported():
    frozen = np.zeros(1)
    frozen.setflags(write=False)
    found = _writable((np.zeros(2), (frozen, {1: 2}), [], "text"))
    assert [type(v) for v in found] == [np.ndarray, dict, list]
