"""Every module-level import of the package is used."""

import ast
from pathlib import Path

import pytest

import spans  # perfbench/spans.py, on the path through conftest

SRC = Path(__file__).resolve().parents[1] / "src" / "ridom"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # the benchmark's tracer replaces these names in the module, so they stay
    traced = {attr for module, attr, _, _ in spans.PATCHES if module == f"ridom.{path.stem}"}
    unused = sorted(name for name in imported if name not in used | traced)
    assert not unused, [f"{path.name}:{imported[name]} {name}" for name in unused]
