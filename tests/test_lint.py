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


def _defs():
    """(module, def, positional offset of a call) for every function and method.

    A method called as `obj.method(...)` or `Class(...)` receives self first, so
    the call's first positional argument fills its second parameter."""
    for name, tree in TREES.items():
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.add(item)
                        static = any(
                            isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list
                        )
                        yield name, item, 0 if static else 1, node.name
            elif isinstance(node, ast.FunctionDef) and node not in methods:
                yield name, node, 0, None


def _calls_by_name() -> dict:
    """Callee name (bare or attribute) -> every src call of that name."""
    out = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.setdefault(callee, []).append(node)
    return out


def _passes(call: ast.Call, index: int, param: str) -> bool:
    """Whether `call` can fill the parameter at positional `index` named `param`."""
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and index < len(call.args)


def test_every_defaulted_parameter_of_a_called_function_is_passed_somewhere():
    """A default that no call overrides is a constant: it belongs in the body."""
    calls = _calls_by_name()
    never = []
    for module, node, offset, cls in _defs():
        callee = cls if node.name == "__init__" else node.name
        sites = calls.get(callee, [])
        if not sites:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = [
            (i - offset, a.arg) for i, a in enumerate(positional)
            if i >= len(positional) - len(args.defaults)
        ]
        defaulted += [
            (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        for index, param in defaulted:
            if not any(_passes(call, index, param) for call in sites):
                never.append(f"{module}:{node.lineno} {node.name}({param}=...)")
    assert never == []
