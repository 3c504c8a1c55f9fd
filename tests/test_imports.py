"""Every module-level import of the package is used, and so is every
module-level name it defines; every source file parses at the oldest
Python the project supports."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import spans  # perfbench/spans.py, on the path through conftest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ridom"


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


def test_console_script_resolves_to_a_callable():
    # CI installs the script but never runs it; a renamed entry point shows here
    section = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)",
                        (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert section, "[project.scripts] not found in pyproject.toml"
    entries = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', section.group(1), re.M)
    assert entries
    for name, module, attr in entries:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_sources_parse_at_the_oldest_supported_python():
    # syntax only: a newer stdlib API used under the floor passes unseen
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert floor, "requires-python not found in pyproject.toml"
    version = (3, int(floor.group(1)))
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
