import sys

import numpy as np
import pytest

from treespec.tree_model import (
    ResourceBudgetError,
    TreeModelError,
    TreeSpec,
    build_tree,
)


def edge_count(tree):
    """Edges of the truncated tree: the counting function summed over the
    shells, each shell holding the edges of one generation."""
    return sum(tree.counting_function(t) for t in tree.t_shell[:-1])


def test_binary_tree_edge_count_and_radius():
    tree = build_tree(TreeSpec(k=2, l0=0.5, r=0.5, J=2))
    assert edge_count(tree) == 7
    assert tree.radius == pytest.approx(0.875)


def test_path_graph_degenerate_case():
    tree = build_tree(TreeSpec(k=1, l0=1.0, r=0.5, J=3))
    assert edge_count(tree) == 4
    assert tree.radius == pytest.approx(1.875)


def test_ternary_tree_edge_count():
    tree = build_tree(TreeSpec(k=3, l0=1.0, r=0.4, J=2))
    assert edge_count(tree) == 13


@pytest.mark.parametrize("bad", [
    TreeSpec(r=1.2),
    TreeSpec(r=0.0),
    TreeSpec(delta=1.0),
    TreeSpec(delta=-0.1),
    TreeSpec(k=0),
    TreeSpec(N=1),
    TreeSpec(J=-1),
])
def test_invalid_spec_rejected(bad):
    with pytest.raises(TreeModelError):
        build_tree(bad)


def test_node_budget_enforced():
    with pytest.raises(ResourceBudgetError):
        build_tree(TreeSpec(k=2, J=30))


def test_node_budget_is_inclusive():
    # k**J equal to the budget passes, one generation more does not
    TreeSpec(k=10, J=6).validate()
    with pytest.raises(ResourceBudgetError, match=r"k\*\*J = 10\*\*7 exceeds node budget"):
        TreeSpec(k=10, J=7).validate()
    # on a path (k = 1) the budget caps the J + 1 edges; J = 999_999 passes
    # it and fails on its shells, which coincide from t_54 on at r = 0.5
    TreeSpec(k=1, J=53).validate()
    with pytest.raises(TreeModelError, match=r"^tree.J = 999999: the shells"):
        TreeSpec(k=1, J=999_999).validate()
    with pytest.raises(ResourceBudgetError, match=r"^tree.J = 1000000: .* node budget"):
        TreeSpec(k=1, J=1_000_000).validate()


@pytest.mark.parametrize("r, deepest", [(0.5, 53), (0.9, 324)])
def test_deep_tree_rejected_where_its_shells_coincide(r, deepest):
    # at r = 0.5, t_j = 2 (1 - 2**-j) and 1 - 2**-54 rounds to 1, so
    # t_54 = t_55 = 2; the deepest tree left has strictly increasing shells
    tree = build_tree(TreeSpec(k=1, r=r, J=deepest))
    assert np.all(np.diff(tree.t_shell) > 0)
    with pytest.raises(TreeModelError, match=f"^tree.J = {deepest + 1}: the shells "
                                             f"t_{deepest + 1} and t_{deepest + 2} coincide"):
        TreeSpec(k=1, r=r, J=deepest + 1).validate()


def test_weight_floor_is_the_smallest_normal_float():
    # rho_star(J) = 0.5**1022 is the smallest normal float; one generation
    # more is subnormal, which stalls the 1-D solves
    tree = build_tree(TreeSpec(k=1, r=0.999, delta=0.5, J=1022))
    assert tree.rho_star(1022) == sys.float_info.min
    with pytest.raises(TreeModelError, match=r"^tree.delta = 0.5, tree.N = 2, tree.J = 1023: "):
        TreeSpec(k=1, r=0.999, delta=0.5, J=1023).validate()


def test_counting_function_values():
    tree = build_tree(TreeSpec(k=2, l0=0.5, r=0.5, J=2))
    assert tree.counting_function(0.25) == 1
    assert tree.counting_function(0.6) == 2
    assert tree.counting_function(0.8) == 4
    # right-continuous at shell boundaries: deeper generation wins
    assert tree.counting_function(0.5) == 2
    assert tree.counting_function(0.75) == 4
    with pytest.raises(TreeModelError):
        tree.counting_function(0.875)
    with pytest.raises(TreeModelError):
        tree.counting_function(-0.1)
    # elementwise over an array, which still may not leave [0, R)
    assert tree.counting_function(np.array([0.0, 0.25, 0.5, 0.6, 0.75, 0.8])).tolist() \
        == [1, 1, 2, 2, 4, 4]
    with pytest.raises(TreeModelError):
        tree.counting_function(np.array([0.25, 0.875]))


def test_counting_function_nondecreasing():
    for k in (1, 2, 3):
        tree = build_tree(TreeSpec(k=k, l0=1.0, r=0.6, J=3))
        ts = np.linspace(0.0, tree.radius * (1 - 1e-12), 500)
        gs = [tree.counting_function(t) for t in ts]
        assert all(a <= b for a, b in zip(gs, gs[1:]))


def test_rho_star_formula():
    tree = build_tree(TreeSpec(k=2, N=2, delta=0.6, omega=1.0, J=2))
    assert tree.rho_star(0) == pytest.approx(1.0)
    assert tree.rho_star(2) == pytest.approx(0.36)
    tree3 = build_tree(TreeSpec(k=2, N=3, delta=0.5, omega=2.0, J=2))
    assert tree3.rho_star(1) == pytest.approx(0.5)


def test_rho_star_strictly_decreasing():
    tree = build_tree(TreeSpec(k=2, N=2, delta=0.8, J=4))
    vals = [tree.rho_star(j) for j in range(5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tail_radius():
    tree = build_tree(TreeSpec(k=2, l0=0.5, r=0.5, J=2))
    assert tree.tail_radius(0, truncated=False) == pytest.approx(0.5)
    assert tree.tail_radius(1, truncated=False) == pytest.approx(0.25)
    assert tree.tail_radius(1, truncated=True) == pytest.approx(0.125)
    assert tree.tail_radius(2, truncated=True) == pytest.approx(0.0)


def test_length_diverges_radius_bounded():
    # k=2, l0=0.5, r=0.5: length partial sums grow unboundedly, radius <= 1
    lengths, radii = [], []
    for J in range(1, 12):
        tree = build_tree(TreeSpec(k=2, l0=0.5, r=0.5, J=J))
        lengths.append(float(np.sum(tree.k ** np.arange(J + 1) * tree.edge_lengths)))
        radii.append(tree.radius)
    assert all(a < b for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] > 5.0
    assert all(r <= 1.0 for r in radii)
    tree = build_tree(TreeSpec(k=2, l0=0.5, r=0.5, J=1))
    # the radius of the infinite tree: the root edge and its untruncated tail
    assert tree.edge_lengths[0] + tree.tail_radius(0, truncated=False) == pytest.approx(1.0)
