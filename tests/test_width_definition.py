"""The section width eps * delta**j * |Omega| has one definition,
``VertexZones``: a power of the width ratio delta taken anywhere else in
``src`` fails here, unless the scope is pinned below with the reason it needs
its own power."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "treespec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# the names a width ratio goes by: ``delta``, any ``.delta`` attribute, and
# ``d``, the short name of the fem_2d formulas
DELTA_NAMES = {"delta", "d"}

# scope -> why it takes a power of delta itself
ALLOWED = {
    "operator_1d.VertexZones._scale":
        "the one per-generation width scale eps * delta**j",
    "tree_model.Tree.rho_star": "the weight delta**((N-1) j) |Omega|, not a width",
    "tree_model.TreeSpec.validate":
        "the weight floor: rho_star(J) in the same float arithmetic, checked on the "
        "standard library before a Tree, which imports numpy, exists",
    "connector.SkeletonStar.regular": "the child weight delta**(N-1) of one vertex star",
}


def _is_delta(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id in DELTA_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr == "delta"))


def delta_power_scopes(source: str, module: str) -> list:
    """Qualified scope of every ``delta ** x``, ``pow(delta, x)`` or
    ``np.power(delta, x)`` in ``source``, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if _is_delta(node.left):
                found.append(scope)
        elif isinstance(node, ast.Call) and node.args and _is_delta(node.args[0]):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in ("pow", "power"):
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_checker_finds_every_form_of_a_delta_power():
    source = ("import numpy as np\nX = 0.6 ** 2\n"
              "def f(tree, d):\n    return tree.spec.delta ** 2, d ** 3\n"
              "class C:\n    def m(self, delta):\n"
              "        return np.power(delta, 2) + pow(delta, 2) + delta * 2\n")
    assert delta_power_scopes(source, "a") == ["a.f", "a.f", "a.C.m", "a.C.m"]


def test_delta_powers_only_in_pinned_scopes():
    found = {scope for p in MODULES for scope in delta_power_scopes(p.read_text(), p.stem)}
    assert found - set(ALLOWED) == set()


@pytest.mark.parametrize("scope", sorted(ALLOWED))
def test_pinned_scope_takes_a_delta_power(scope):
    # an entry whose power is gone must leave the list
    module = scope.partition(".")[0]
    assert scope in delta_power_scopes((SRC / f"{module}.py").read_text(), module)
