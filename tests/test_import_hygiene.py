"""Every name a ``treespec`` module imports is used in that module, so a
leftover import of a retired type or helper fails here instead of lingering."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "treespec"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` (at any depth) that
    no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as ``np.linalg.norm`` starts at a Name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = ("import os\nimport scipy.sparse as sp\nfrom a import b, c as d\n"
              "def f():\n    from e import g\n    return b, d, sp.eye\n")
    assert unused_imports(source) == ["g", "os"]
    assert "fem_2d.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def functions_reading(source: str, name: str) -> list:
    """The innermost enclosing function of each place ``source`` reads
    ``name`` as a bare name or an attribute, ``<module>`` outside any."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name.rpartition(".")[2] == name):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_the_function_that_reads_a_name():
    source = ("from a import f\nimport a.f\n"
              "def g():\n    def h():\n        return a.f(1)\n    return f\n")
    assert functions_reading(source, "f") == ["<module>", "<module>", "h", "g"]


def test_eigensolver_factors_in_one_function():
    # one factorization helper: every shift-invert solve and inertia count
    # reads the same kind of factor
    assert functions_reading((SRC / "eigensolver.py").read_text(), "splu") == ["_ldl"]
