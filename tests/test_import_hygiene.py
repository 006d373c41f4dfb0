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


# scipy takes about 0.25 s of start-up, most of it in scipy._lib; a function
# that needs it imports it on entry
SCIPY_ALIASES = {"scipy", "sp", "spla"}


def eager_scipy(source: str) -> list:
    """(line, what) of each scipy import that runs when ``source`` is
    imported, and of each annotation evaluated at definition time, that of a
    function signature or of a module or class body, that names scipy or
    one of its SCIPY_ALIASES.  A string annotation is not evaluated."""
    found = []

    def names_scipy(annotation) -> bool:
        return annotation is not None and any(
            isinstance(n, ast.Name) and n.id in SCIPY_ALIASES for n in ast.walk(annotation))

    def visit(node, in_function):
        if not in_function:
            if isinstance(node, ast.Import):
                found.extend((node.lineno, f"import {a.name}") for a in node.names
                             if a.name.split(".")[0] == "scipy")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found.append((node.lineno, f"from {node.module} import"))
            elif isinstance(node, ast.AnnAssign) and names_scipy(node.annotation):
                found.append((node.lineno, "annotation"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            signature = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                *args.kwonlyargs, args.vararg, args.kwarg)
                         if a is not None] + [node.returns]
            found.extend((node.lineno, "annotation") for ann in signature if names_scipy(ann))
            in_function = True
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


def test_checker_flags_scipy_loaded_at_import():
    source = ("import numpy as np\nimport scipy.sparse as sp\n"
              "if True:\n    from scipy.linalg import eigh\n"
              "class A:\n    K: sp.csr_matrix\n    L: 'sp.csr_matrix'\n"
              "    def f(self, x: sp.csr_matrix, *, y: 'spla.LinearOperator') -> int:\n"
              "        import scipy.sparse.linalg as spla\n"
              "        z: spla.LinearOperator = spla.aslinearoperator(x)\n"
              "        return z\n"
              "def g() -> scipy.sparse.csr_matrix:\n    import scipy.sparse\n")
    assert eager_scipy(source) == [(2, "import scipy.sparse"), (4, "from scipy.linalg import"),
                                   (6, "annotation"), (8, "annotation"), (12, "annotation")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_scipy_on_first_use(module):
    assert eager_scipy((SRC / module).read_text()) == []
