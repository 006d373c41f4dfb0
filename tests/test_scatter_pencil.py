"""The scatter kernel against the assembly path it replaced.

``scatter_pencil`` converts K + iM once and drops the fixed dofs from the
converted arrays.  The reference below is the previous path, kept whole: two
real COO to CSR conversions per level, ``.tocoo()`` between the levels, then
row and column deletion by slicing.  The two must agree bit for bit, so a
change in the order in which duplicates are summed fails here."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from treespec.fem_2d import GeometrySpec2D, assemble_2d, build_geometry_2d
from treespec.mesh2d import _triangle_block
from treespec.operator_1d import (
    GAUSS2,
    assemble_1d,
    build_mesh_1d,
    element_form,
    rho_star_profile,
)
from treespec.tree_model import TreeSpec, build_tree


def _reference_entries(blocks):
    """(rows, cols, k values, m values) of the blocks, copy by copy."""
    rows, cols, kv, mv = [], [], [], []
    for gids, lrows, lcols, k_vals, m_vals in blocks:
        shape = (len(gids), len(lrows))
        rows.append(gids[:, lrows].ravel())
        cols.append(gids[:, lcols].ravel())
        kv.append(np.broadcast_to(k_vals, shape).ravel())
        mv.append(np.broadcast_to(m_vals, shape).ravel())
    return tuple(np.concatenate(x) for x in (rows, cols, kv, mv))


def _reference_scatter(n, blocks):
    """Two real conversions over all n dofs."""
    rows, cols, kv, mv = _reference_entries(blocks)
    return tuple(sp.coo_matrix((v, (rows, cols)), shape=(n, n)).tocsr() for v in (kv, mv))


def _reference_eliminate(K, M, fixed):
    """Row and column deletion: a slice for a contiguous free range, a fancy
    index otherwise."""
    mask = np.ones(K.shape[0], dtype=bool)
    mask[np.asarray(fixed, dtype=int)] = False
    free = np.nonzero(mask)[0]
    if free[-1] - free[0] + 1 == len(free):
        keep = (slice(free[0], free[-1] + 1),) * 2
    else:
        keep = np.ix_(free, free)
    return K.tocsr()[keep].tocsr(), M.tocsr()[keep].tocsr(), free


def _reference_2d(tm, W, only_kind=None):
    blocks = []
    for comp in tm.components:
        if only_kind is not None and comp.kind != only_kind:
            continue
        potential = None if W is None else W(comp.theta[comp.mesh.triangles].mean(axis=1))
        Kl, Ml = _reference_scatter(comp.mesh.n_nodes,
                                    [_triangle_block(comp.mesh, potential)])
        Kl, Ml = Kl.tocoo(), Ml.tocoo()
        blocks.append((comp.gids, Kl.row, Kl.col, Kl.data, Ml.data))
    return _reference_eliminate(*_reference_scatter(tm.n_nodes, blocks), tm.root_nodes)


def _reference_element_block(dofs, t0, local, rs, W, weight):
    """The P1 element entries of one generation at unit weight, then times
    ``weight``, laid out as (gids, rows, cols, k values, m values): each
    copy's entries run through the (0, 0), (0, 1), (1, 0), (1, 1) positions
    in turn, elements innermost."""
    a, b = local[:-1], local[1:]
    hs = b - a
    mids = t0 + 0.5 * (a + b)
    rb = rs(mids)
    k_loc = (rs(mids) / hs)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    if W is not None:
        for gpt in GAUSS2:
            wv = np.asarray(W(t0 + a + gpt * hs), dtype=float)
            phi = np.array([1.0 - gpt, gpt])
            k_loc += (wv * rb * hs * 0.5)[:, None, None] * np.outer(phi, phi)
    m_loc = (rb * hs / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
    e = np.arange(len(hs))
    return (dofs, np.concatenate([e, e, e + 1, e + 1]), np.concatenate([e, e + 1, e, e + 1]),
            k_loc.reshape(-1, 4).T.ravel() * weight, m_loc.reshape(-1, 4).T.ravel() * weight)


def _reference_1d(tree, mesh, rs, W, vertex_gen=None):
    """assemble_1d, or with vertex_gen the radial component on one chain."""
    if vertex_gen is None:
        n, blocks = mesh.n_dofs, [
            _reference_element_block(dofs, tree.t_shell[j], mesh.gen_local[j], rs, W, 1.0)
            for j, dofs in enumerate(mesh.gen_dofs)]
    else:
        blocks, dof = [], 0
        for j in range(vertex_gen, tree.J + 1):
            local = mesh.gen_local[j]
            blocks.append(_reference_element_block(
                dof + np.arange(len(local))[None, :], tree.t_shell[j], local, rs, W,
                float(tree.k ** (j - vertex_gen))))
            dof += len(local) - 1
        n = dof + 1
    return _reference_eliminate(*_reference_scatter(n, blocks), [0])


def _assert_bitwise(got, want):
    """(K, M, free) against the reference triple: same dtypes, same bits."""
    K, M, free = got
    K_ref, M_ref, free_ref = want
    for A, B in ((K, K_ref), (M, M_ref)):
        assert sp.isspmatrix_csr(A) and A.shape == B.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), name
    assert free.dtype == free_ref.dtype and np.array_equal(free, free_ref)


def _cosine(t):
    return np.cos(2.0 * t)


def _strong_cosine_1d(t):
    """A potential whose Gauss terms are as large as the conductances: the
    two terms of an element then round differently in the two orders."""
    return 1e4 * np.cos(2.0 * t)


@pytest.mark.parametrize("spec", [TreeSpec(), TreeSpec(k=1, J=3), TreeSpec(k=3, J=3)],
                         ids=["default", "k1", "k3"])
@pytest.mark.parametrize("W", [None, _cosine, _strong_cosine_1d],
                         ids=["free", "cosine", "strong-cosine"])
def test_assemble_1d_bitwise_equals_reference(spec, W):
    # at this pitch the vertex sums of the default tree depend on their order
    tree = build_tree(spec)
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=0.013, breakpoints=rs.breakpoints)
    system = assemble_1d(tree, mesh, rs, rs, W)
    _assert_bitwise((system.K, system.M, system.free), _reference_1d(tree, mesh, rs, W))


def test_strong_potential_is_sensitive_to_the_gauss_order():
    # adding the second Gauss term before the first changes some bits of the
    # element stiffness, so the strong-cosine cases above see that order
    tree = build_tree(TreeSpec())
    rs = rho_star_profile(tree)
    form = element_form(build_mesh_1d(tree, h=0.013, breakpoints=rs.breakpoints),
                        rs, rs, _strong_cosine_1d)
    changed = 0
    for k_e, terms in zip(form.conductance, form.gauss):
        parts = [term[:, None, None] * np.outer([1.0 - gpt, gpt], [1.0 - gpt, gpt])
                 for gpt, term in zip(GAUSS2, terms)]
        k_loc = k_e[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        forward = k_loc + parts[0] + parts[1]
        backward = k_loc + parts[1] + parts[0]
        assert np.allclose(forward, backward, rtol=1e-12, atol=1e-12 * np.abs(k_loc).max())
        changed += int((forward != backward).sum())
    assert changed > 0


@pytest.mark.parametrize("vertex_gen", [0, 1, 2])
def test_radial_component_k3_bitwise_equals_reference(vertex_gen):
    tree = build_tree(TreeSpec(k=3, J=3))
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=0.03, breakpoints=rs.breakpoints)
    system = element_form(mesh, rs, rs, _cosine).component(vertex_gen)
    _assert_bitwise((system.K, system.M, system.free),
                    _reference_1d(tree, mesh, rs, _cosine, vertex_gen))


GEOMETRIES = {
    "J2": (TreeSpec(J=2), GeometrySpec2D(eps=0.2, c=0.3, h=0.03, n_cross=3)),
    "J3-n6": (TreeSpec(J=3), GeometrySpec2D(eps=0.1, c=0.3, h=0.01, n_cross=6)),
    "k1-J3": (TreeSpec(k=1, J=3), GeometrySpec2D(eps=0.1, c=0.3, h=0.03, n_cross=3)),
}


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def tm(request):
    spec, spec2d = GEOMETRIES[request.param]
    return build_geometry_2d(build_tree(spec), spec2d)


@pytest.mark.parametrize("W", [None, _cosine], ids=["free", "cosine"])
def test_assemble_2d_bitwise_equals_reference(tm, W):
    system = assemble_2d(tm, W)
    _assert_bitwise((system.K, system.M, system.free), _reference_2d(tm, W))


def test_connector_triangle_mass_bitwise_equals_reference(tm):
    # the connector components alone, over the free dofs of the whole geometry
    _, M_ref, free = _reference_2d(tm, None, only_kind="connector")
    M = assemble_2d(dataclasses.replace(tm, components=[
        c for c in tm.components if c.kind == "connector"]), None).M
    _assert_bitwise((M, M, free), (M_ref, M_ref, assemble_2d(tm, None).free))


def test_cases_are_sensitive_to_the_summation_order(tm):
    # summing the element entries in reverse order changes some bits of the
    # stiffness, so the bitwise tests above see a reordering
    changed = 0
    for comp in tm.components:
        rows, cols, vals, _ = _reference_entries([_triangle_block(comp.mesh, None)])
        shape = (comp.mesh.n_nodes,) * 2
        forward = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        backward = sp.coo_matrix((vals[::-1], (rows[::-1], cols[::-1])), shape=shape).tocsr()
        assert np.array_equal(forward.indices, backward.indices)
        assert np.allclose(forward.data, backward.data, rtol=1e-12, atol=0.0)
        changed += int((forward.data != backward.data).sum())
    assert changed > 0


def test_one_conversion_per_component_plus_one(tm, monkeypatch):
    converted = []
    tocsr = sp.coo_matrix.tocsr

    def counting(self, *args, **kwargs):
        converted.append(self.dtype)
        return tocsr(self, *args, **kwargs)

    monkeypatch.setattr(sp.coo_matrix, "tocsr", counting)
    assemble_2d(tm, _cosine)
    # one conversion for the local pairs of all components, one for the
    # global pencil; K and M are converted together, as the complex K + iM
    assert len(converted) == 2 <= len(tm.components) + 1
    assert set(converted) == {np.dtype(complex)}

    converted.clear()
    tree = tm.tree
    rs = rho_star_profile(tree)
    assemble_1d(tree, build_mesh_1d(tree, h=0.05, breakpoints=rs.breakpoints), rs, rs, None)
    assert converted == [np.dtype(complex)]
