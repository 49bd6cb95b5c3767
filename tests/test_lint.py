"""Static checks on the package source: no unused import, no orphaned private
helper, no default that no call overrides, and no name that only tests reach.

All read `src/meyerlab` with `ast` only (the reach check also reads the span
list of `bench/bootstrap.py`).  A name counts as used when it is
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


# ---------------------------------------------------------------------------
# Reach: every src name is used by a command or a replay.
# ---------------------------------------------------------------------------

MODULES = {Path(name).stem: tree for name, tree in TREES.items()}
BOOTSTRAP = Path(__file__).resolve().parents[1] / "bench" / "bootstrap.py"
# what a command or a replay enters through: the CLI's entry and command
# table, the replay tables, and the version the package states
ENTRY_NAMES = {"run", "COMMANDS", "REPLAYERS", "REBUILDERS", "__version__"}


def _traced_names() -> set:
    """Every name in the benchmark tracer's `SPANS`: it resolves each one by
    `getattr`, so a traced name is reached even when no command calls it."""
    tree = ast.parse(BOOTSTRAP.read_text(), str(BOOTSTRAP))
    spans = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]
    )
    return {part for entry in spans.elts for part in entry.elts[1].value.split(".")}


def _definitions():
    """(module, qualified name, name, the nodes that run once the name is
    reached) for every module-level def, class and assignment, and every
    method but the dunders, which Python calls by itself and which run with
    their class."""
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield module, node.name, node.name, [node]
            elif isinstance(node, ast.ClassDef):
                methods = [
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
                rest = [item for item in node.body if item not in methods]
                yield module, node.name, node.name, node.bases + node.decorator_list + rest
                for item in methods:
                    yield module, f"{node.name}.{item.name}", item.name, [item]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield module, target.id, target.id, [node]


def _names_used(nodes) -> set:
    """`_names_read`, less the bare names that each node binds itself (its
    parameters and assignment targets): those read a local, not a module name."""
    out = set()
    for top in nodes:
        names = [node for node in ast.walk(top) if isinstance(node, ast.Name)]
        bound = {node.arg for node in ast.walk(top) if isinstance(node, ast.arg)}
        bound |= {node.id for node in names if isinstance(node.ctx, ast.Store)}
        out |= {node.id for node in names if node.id not in bound}
        out |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
    return out


def _unreached() -> list:
    """Every definition that no command or replay reaches, as `module.name`.

    The walk starts from the entry names, the traced names and every other
    module-level statement (imports, the lazy-module loop), and matches by
    name only: a def is reached when its name is read anywhere already
    reached, as an attribute or as a bare name that is not a local there.
    That over-approximates reach, so what it reports is never reached."""
    statements = [
        node for tree in MODULES.values() for node in tree.body
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign))
    ]
    reached = ENTRY_NAMES | _traced_names() | _names_used(statements)
    pending = list(_definitions())
    while True:
        now = [d for d in pending if d[2] in reached]
        if not now:
            break
        pending = [d for d in pending if d[2] not in reached]
        for _, _, _, nodes in now:
            reached |= _names_used(nodes)
    return sorted(f"{module}.{qualified}" for module, qualified, _, _ in pending)


def test_every_src_name_is_reached_by_a_command_or_a_replay():
    assert _unreached() == []
