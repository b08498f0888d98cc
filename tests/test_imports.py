"""Every name a package module imports is used in that module.

A deletion can leave an import behind with nothing reading it; no linter
runs on this tree, so the standard library's `ast` does the check.  A name
inside a quoted annotation does not count as a use: the modules import
`from __future__ import annotations` and write their annotations unquoted.
"""

import ast
import os

import pytest

import galkappa

PACKAGE_DIR = os.path.dirname(galkappa.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))


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
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        unused = _unused_imports(fh.read())
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from typing import Dict, List\n"
              "def f(x: Dict[str, int]) -> None:\n    return osp.join('List')\n")
    assert _unused_imports(source) == {"os": 2, "List": 4}
