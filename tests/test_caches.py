"""Caches are scoped to a job, not to the process.

A module-level dict, list, set, defaultdict or Counter, or a functools.cache
or lru_cache decorator, is state that outlives the job that filled it, so
both fail here.  Per-object memos (rep.certificates, field.subspaces) and
functools.cached_property, which lives on its instance, are not affected.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quivermoduli"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "Counter"}
CACHE_DECORATORS = {"cache", "lru_cache"}


def _name(node):
    """The last name of a (possibly dotted, possibly called) expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_mutable(value):
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    return isinstance(value, mutable) or (
        isinstance(value, ast.Call) and _name(value) in MUTABLE_CALLS
    )


def _module_statements(body):
    """The module's own statements, into if/try/with blocks but not into
    functions or classes."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_statements(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _module_statements(handler.body)


def process_wide_caches(text):
    """(line, what) for each module-level mutable binding and each cache
    decorator anywhere in the module."""
    tree = ast.parse(text)
    found = []
    for stmt in _module_statements(tree.body):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            if _is_mutable(stmt.value):
                found.append((stmt.lineno, "mutable module-level binding"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                if _name(dec) in CACHE_DECORATORS:
                    found.append((dec.lineno, f"@{_name(dec)}"))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_process_wide_cache(module):
    assert process_wide_caches((SRC / module).read_text()) == []


def test_process_wide_caches_are_found():
    text = (
        "import functools\n"
        "from collections import Counter, defaultdict\n"
        "TABLE = {}\n"
        "SEEN: set = set()\n"
        "HITS = Counter()\n"
        "if True:\n"
        "    BY_KEY = defaultdict(list)\n"
        "NAMES = ('a', 'b')\n"
        "LIMIT = 10\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    local = []\n"
        "    return local\n"
        "class C:\n"
        "    @functools.cached_property\n"
        "    def g(self):\n"
        "        return [1]\n"
        "    @staticmethod\n"
        "    @functools.cache\n"
        "    def h():\n"
        "        return 1\n"
        "SQUARES = [i * i for i in range(3)]\n"
    )
    assert process_wide_caches(text) == [
        (3, "mutable module-level binding"),
        (4, "mutable module-level binding"),
        (5, "mutable module-level binding"),
        (7, "mutable module-level binding"),
        (22, "mutable module-level binding"),
        (10, "@lru_cache"),
        (19, "@cache"),
    ]
