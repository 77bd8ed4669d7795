"""Every name a library module imports is used in that module.

No linter runs on this repository, so this is the unused-import check
(pyflakes F401) on its own: an import a refactor leaves behind fails here.
A line marked `# noqa: F401` is exempt (census._closed_pairs is imported for
the bench's counting hook), and so is the package's __init__, whose imports
are its exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quivermoduli"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(text):
    """(line, name) for each imported name that no expression reads."""
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_imports_are_found():
    text = (
        "import os\n"
        "import os.path as osp\n"
        "from math import gcd, lcm\n"
        "from json import dumps  # noqa: F401\n"
        "def f():\n"
        "    from sys import argv\n"
        "    return gcd(2, 4) + len(osp.sep)\n"
    )
    assert unused_imports(text) == [(1, "os"), (3, "lcm"), (6, "argv")]
