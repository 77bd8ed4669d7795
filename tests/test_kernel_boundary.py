"""Only ffields knows how F_q codes are multiplied.

The tables of a small F_{p^n} are read by its own row kernels (row_times,
divide_row, row_sub), which Mat and the stability engine call through the
ring, so no other module names the table attributes and linalg imports
nothing from ffields.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quivermoduli"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "ffields.py")
TABLE_NAMES = {"_tables", "_add_t", "_mul_t", "_neg_t", "_inv_t", "_frob_t"}


def table_names(text):
    """(line, name) for each attribute or name in TABLE_NAMES."""
    found = []
    for node in ast.walk(ast.parse(text)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in TABLE_NAMES:
            found.append((node.lineno, name))
    return found


def ffields_imports(text):
    """Line numbers of imports from ffields, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] == "ffields" for n in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_only_ffields_reads_the_tables(module):
    assert table_names((SRC / module).read_text()) == []


def test_linalg_imports_nothing_from_ffields():
    assert ffields_imports((SRC / "linalg.py").read_text()) == []


def test_table_reads_and_ffields_imports_are_found():
    text = (
        "from .ffields import PrimeField\n"
        "from . import ffields\n"
        "import quivermoduli.ffields\n"
        "def f(ring):\n"
        "    add = ring._add_t\n"
        "    return ring._tables, _mul_t\n"
    )
    assert table_names(text) == [(5, "_add_t"), (6, "_tables"), (6, "_mul_t")]
    assert ffields_imports(text) == [1, 2, 3]
    assert ffields_imports("from .rings import Ring\nimport operator\n") == []
