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
# numpy takes about 85 ms; the modules that validating a config runs import
# it in the functions that build arrays
NUMPY_ALIASES = {"numpy", "np"}
CONFIG_PATH = ("__init__.py", "cli.py", "config.py", "tree_model.py")


def eager_imports(source: str, package: str, aliases: set) -> list:
    """(line, what) of each import of ``package`` that runs when ``source``
    is imported, and of each annotation evaluated at definition time, that
    of a function signature or of a module or class body, that names one of
    its ``aliases``.  A string annotation is not evaluated."""
    found = []

    def names_package(annotation) -> bool:
        return annotation is not None and any(
            isinstance(n, ast.Name) and n.id in aliases for n in ast.walk(annotation))

    def visit(node, in_function):
        if not in_function:
            if isinstance(node, ast.Import):
                found.extend((node.lineno, f"import {a.name}") for a in node.names
                             if a.name.split(".")[0] == package)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
                found.append((node.lineno, f"from {node.module} import"))
            elif isinstance(node, ast.AnnAssign) and names_package(node.annotation):
                found.append((node.lineno, "annotation"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            signature = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                *args.kwonlyargs, args.vararg, args.kwarg)
                         if a is not None] + [node.returns]
            found.extend((node.lineno, "annotation") for ann in signature if names_package(ann))
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
    assert eager_imports(source, "scipy", SCIPY_ALIASES) == [
        (2, "import scipy.sparse"), (4, "from scipy.linalg import"),
        (6, "annotation"), (8, "annotation"), (12, "annotation")]
    assert eager_imports(source, "numpy", NUMPY_ALIASES) == [(1, "import numpy")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_scipy_on_first_use(module):
    assert eager_imports((SRC / module).read_text(), "scipy", SCIPY_ALIASES) == []


@pytest.mark.parametrize("module", CONFIG_PATH)
def test_config_path_imports_numpy_on_first_use(module):
    assert eager_imports((SRC / module).read_text(), "numpy", NUMPY_ALIASES) == []


# standard-library modules that validating a config never calls: argparse,
# json and hashlib take about 11 ms of start-up, and dataclasses, which
# imports inspect, 12 ms; the config records are named tuples instead
UNUSED_STDLIB = {"argparse": {"argparse"}, "json": {"json"}, "hashlib": {"hashlib"},
                 "dataclasses": {"dataclasses", "dataclass", "field", "fields"}}


@pytest.mark.parametrize("package", sorted(UNUSED_STDLIB))
@pytest.mark.parametrize("module", CONFIG_PATH)
def test_config_path_imports_unused_stdlib_on_first_use(module, package):
    assert eager_imports((SRC / module).read_text(), package, UNUSED_STDLIB[package]) == []


# the modules that validating a config runs import no solver module when they
# are imported; tests/test_cli.py probes the loaded set in a fresh interpreter
SOLVER_MODULES = {"convergence", "eigensolver", "fem_2d", "operator_1d"}


def eager_package_imports(source: str) -> list:
    """(line, module) of each ``treespec`` submodule that ``source`` imports
    outside any function, relative or absolute, by ``import`` or ``from``."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, parts[1]) for parts in
                         (a.name.split(".") for a in node.names)
                         if parts[0] == "treespec" and len(parts) > 1)
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level:
                package, module = "treespec", node.module or ""
            if package == "treespec":
                names = [module.partition(".")[0]] if module else [a.name for a in node.names]
                found.extend((node.lineno, name) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_checker_flags_a_solver_module_imported_at_load():
    source = ("import numpy\nimport treespec.fem_2d\nfrom . import config, eigensolver\n"
              "from .convergence import C_GRID\nfrom treespec.operator_1d import f\n"
              "from treespec import fem_2d\nfrom numpy.linalg import norm\n"
              "if True:\n    from .tree_model import Tree\n"
              "class A:\n    from .mesh2d import Mesh2D\n"
              "def f():\n    from .fem_2d import GeometrySpec2D\n")
    assert eager_package_imports(source) == [
        (2, "fem_2d"), (3, "config"), (3, "eigensolver"), (4, "convergence"),
        (5, "operator_1d"), (6, "fem_2d"), (9, "tree_model"), (11, "mesh2d")]


@pytest.mark.parametrize("module", CONFIG_PATH)
def test_config_path_imports_no_solver_module_at_load(module):
    eager = eager_package_imports((SRC / module).read_text())
    assert [(line, name) for line, name in eager if name in SOLVER_MODULES] == []
