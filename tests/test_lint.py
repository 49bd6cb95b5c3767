"""Static checks on the package source: no unused import, no orphaned private helper.

Both read `src/meyerlab` with `ast` only.  A name counts as used when it is
read anywhere as a bare name or as an attribute (`module._helper`).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "meyerlab"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _names_read(nodes) -> set:
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _imported(tree):
    """(bound name, line) of every import but `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    tree = TREES[name]
    used = _names_read([tree]) | _exported(tree)
    unused = [f"{name}:{line} {bound}" for bound, line in _imported(tree) if bound not in used]
    assert unused == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_module_member_is_referenced(name):
    orphans = []
    for node in TREES[name].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        # every other statement of this module, and every other module
        rest = [stmt for stmt in TREES[name].body if stmt is not node]
        rest += [tree for other, tree in TREES.items() if other != name]
        if node.name not in _names_read(rest):
            orphans.append(f"{name}:{node.lineno} {node.name}")
    assert orphans == []
