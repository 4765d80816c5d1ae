"""Source checks that stand in for a linter: every name a module imports is
used somewhere in that module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "stab_lab"
SOURCES = sorted(PACKAGE.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import os\nfrom typing import Optional\nos.getcwd()\n")
    assert _unused_imports(tree) == ["Optional (line 2)"]
