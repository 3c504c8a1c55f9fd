"""Every module-level import of the package is used, and so is every
module-level name it defines."""

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


def test_no_unread_module_level_name():
    # a function, class or assigned name that no module of the package reads
    # and ridom/__init__.py does not export is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{name}:{line} {d}" for d, line in defined
                       if not d.startswith("__") and d not in read | exported]
    assert not unread, unread
