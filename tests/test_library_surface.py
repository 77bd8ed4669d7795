"""The library keeps only what it runs.

Every function, method and class under src/quivermoduli is exported by the
package, read by a library module, or read by the benchmark harness or a
tool (as a name, an attribute or, since bench/tracing.py names the methods
it wraps, a string).  A helper that only tests call lives in
tests/helpers.py or in the test that uses it.  serialize's *_to_json
writers are exempt: they write the file schema whose reader the CLI runs.

Each budget refusal is errors.check_budget: no other function builds a
BudgetExceededError.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quivermoduli"
HARNESS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def definitions(text):
    """(line, name) of each def and class, nested ones too; dunders skipped."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def reads(text, strings=False):
    """Names read as a Name or an Attribute, and string constants if asked."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def exports(text):
    """Names the package's __init__ imports."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unread(library, harness, init):
    """(module, line, name) of each library definition no check passes.
    library maps module names to their text; harness is a list of texts."""
    used = exports(init)
    for text in library.values():
        used |= reads(text)
    for text in harness:
        used |= reads(text, strings=True)
    return [
        (module, line, name)
        for module, text in sorted(library.items())
        for line, name in definitions(text)
        if name not in used and not (module == "serialize" and name.endswith("_to_json"))
    ]


def test_every_library_definition_has_a_caller_outside_the_tests():
    library = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    harness = [p.read_text() for p in HARNESS]
    assert unread(library, harness, (SRC / "__init__.py").read_text()) == []


def test_unread_definitions_are_found():
    library = {
        "a": (
            "class Kept:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "    def used(self):\n"
            "        return helper()\n"
            "    def unused(self):\n"
            "        pass\n"
            "def helper():\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
            "def stored():\n"
            "    pass\n"
        ),
        "b": "from .a import Kept\nKept().used()\nobj.stored = 1\n",
        "serialize": "def rep_to_json(rep):\n    pass\ndef orphan():\n    pass\n",
    }
    harness = ["wrap(Kept, ('traced',))\n"]
    init = "from .a import exported\n"
    assert unread(library, harness, init) == [
        ("a", 6, "unused"),
        ("a", 14, "stored"),
        ("serialize", 3, "orphan"),
    ]


def budget_refusals(text):
    """(line, innermost enclosing function or None) of each call that builds
    a BudgetExceededError."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "BudgetExceededError":
                found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(text), None)
    return found


def test_check_budget_is_the_one_budget_refusal():
    refusals = [
        (p.stem, func)
        for p in sorted(SRC.glob("*.py"))
        for _, func in budget_refusals(p.read_text())
    ]
    assert refusals == [("errors", "check_budget")]


def test_budget_refusals_are_found():
    text = (
        "from . import errors\n"
        "def check_budget(n):\n"
        "    raise BudgetExceededError('x', estimate=n)\n"
        "def outer():\n"
        "    def inner():\n"
        "        raise errors.BudgetExceededError('y')\n"
        "    except_budget = BudgetExceededError\n"
        "LATE = BudgetExceededError('z')\n"
    )
    assert budget_refusals(text) == [(3, "check_budget"), (6, "inner"), (8, None)]
