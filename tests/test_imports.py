"""Every name a package module imports is used in that module, and every
module-level private name is referred to somewhere.

A deletion can leave an import, or a private helper, behind with nothing
reading it; no linter runs on this tree, so the standard library's `ast`
does the check.  A name inside a quoted annotation does not count as a use:
the modules import `from __future__ import annotations` and write their
annotations unquoted.
"""

import ast
import os

import pytest

import galkappa

PACKAGE_DIR = os.path.dirname(galkappa.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _unused_imports(source):
    """{bound name: line} of every import, outside `from __future__`, never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    unused = _unused_imports(_read(os.path.join(PACKAGE_DIR, module)))
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from typing import Dict, List\n"
              "def f(x: Dict[str, int]) -> None:\n    return osp.join('List')\n")
    assert _unused_imports(source) == {"os": 2, "List": 4}


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """{name: line} of each module-level private function, class or constant."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names if _is_private(name))
    return found


def _references(tree):
    """Every name the tree reads: a loaded name, an attribute, an imported name, or
    a string naming it (as `setattr(module, "_name", ...)` or "module._name" do).
    A definition's references to its own name, as in a recursive helper, do not count.
    """
    found = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value.rsplit(".", 1)[-1])
        names.discard(getattr(top, "name", None))
        found |= names
    return found


def _unreferenced_private_names(sources, modules):
    """{(module, name): line} of each private definition in `modules` that no source reads."""
    referenced = set()
    for source in sources:
        referenced |= _references(ast.parse(source))
    return {(module, name): line
            for module, source in modules.items()
            for name, line in _private_definitions(ast.parse(source)).items()
            if name not in referenced}


def test_every_private_name_is_referred_to():
    modules = {m: _read(os.path.join(PACKAGE_DIR, m)) for m in MODULES}
    tests = [_read(os.path.join(TESTS_DIR, t)) for t in sorted(os.listdir(TESTS_DIR))
             if t.endswith(".py")]
    unreferenced = _unreferenced_private_names(list(modules.values()) + tests, modules)
    assert not unreferenced, f"private names nothing refers to: {unreferenced}"


def test_the_check_sees_an_unreferenced_private_name():
    source = ("_USED = 1\n_SPARE, _PAIR = 2, 3\nclass _Kept: pass\n"
              "def _loop(n):\n    return _loop(n - 1) if n else _USED\n"
              "def public():\n    return _PAIR, _Kept, getattr(public, '_named')\n"
              "def _named(): pass\n")
    assert _unreferenced_private_names([source], {"m.py": source}) == {
        ("m.py", "_SPARE"): 2, ("m.py", "_loop"): 4}
