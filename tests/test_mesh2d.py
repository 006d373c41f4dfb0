import numpy as np
import pytest
import scipy.sparse as sp

from treespec.eigensolver import smallest_eigenpairs
from treespec.mesh2d import (
    Mesh2D,
    MeshError,
    _orient_ccw,
    _triangle_block,
    mesh_polygon,
    mesh_quality,
    mesh_rectangle,
    point_in_polygon,
    polygon_area,
    scatter_pencil,
    section_average_weights,
    stiffness_and_mass,
)

from oracles import mesh_area, one_triangle_edges

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_polygon_area_shoelace():
    assert polygon_area(UNIT_SQUARE) == pytest.approx(1.0)
    tri = np.array([[0, 0], [2, 0], [0, 1]])
    assert polygon_area(tri) == pytest.approx(1.0)


def test_point_in_polygon():
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2]])
    assert point_in_polygon(pts, UNIT_SQUARE).tolist() == [True, False, False]


def test_rectangle_mesh_structure():
    mesh = mesh_rectangle(0.5, 2.0, n_cross=4, n_axial=10)
    assert mesh.n_nodes == 5 * 11
    assert mesh_area(mesh) == pytest.approx(1.0)
    assert mesh.sections == {}
    assert np.array_equal(mesh.axial_index[:, 0], np.arange(0, 55, 11))
    assert np.allclose(mesh.nodes[mesh.axial_index[:, 0]], np.column_stack(
        [np.linspace(0.0, 0.5, 5), np.zeros(5)]))
    angle, max_edge = mesh_quality(mesh)
    assert angle > 20.0


def test_unit_square_mesh_quality_audit():
    mesh = mesh_polygon(UNIT_SQUARE, h=0.1, sections={}, section_intervals=None)
    angle, max_edge = mesh_quality(mesh)
    assert 150 <= len(mesh.triangles) <= 400
    assert angle >= 20.0
    assert max_edge <= 0.25
    assert mesh_area(mesh) == pytest.approx(1.0, rel=1e-9)


def test_refining_h_halves_max_edge():
    m1 = mesh_polygon(UNIT_SQUARE, h=0.2, sections={}, section_intervals=None)
    m2 = mesh_polygon(UNIT_SQUARE, h=0.1, sections={}, section_intervals=None)
    _, e1 = mesh_quality(m1)
    _, e2 = mesh_quality(m2)
    assert e2 <= 0.65 * e1


def test_boundary_edges_cover_perimeter():
    mesh = mesh_polygon(UNIT_SQUARE, h=0.15, sections={}, section_intervals=None)
    pts = mesh.nodes[np.array(sorted(one_triangle_edges(mesh.triangles)))]
    total = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1).sum()
    assert total == pytest.approx(4.0, rel=1e-9)


def test_sections_resolved_on_boundary():
    sections = {"S0": (0, 0.0, 1.0), "S1": (2, 0.25, 0.75)}
    mesh = mesh_polygon(UNIT_SQUARE, h=0.1, sections=sections, section_intervals=4)
    for label, path in mesh.sections.items():
        assert len(path) == 5  # 4 intervals
    w = section_average_weights(mesh, mesh.sections["S1"])
    assert w.sum() == pytest.approx(1.0)
    # average of the linear field x along S1 (y=1 edge runs from (1,1) to (0,1),
    # sub-range 0.25..0.75 covers x in [0.25, 0.75])
    avg = w @ mesh.nodes[:, 0]
    assert avg == pytest.approx(0.5, abs=1e-12)


def test_unit_square_neumann_spectrum():
    mesh = mesh_polygon(UNIT_SQUARE, h=0.05, sections={}, section_intervals=None)
    K, M = stiffness_and_mass(mesh)
    spec = smallest_eigenpairs(K, M, 3)
    assert spec.values[0] == pytest.approx(0.0, abs=1e-8)
    assert spec.values[1] == pytest.approx(np.pi ** 2, rel=0.01)
    assert spec.values[2] == pytest.approx(np.pi ** 2, rel=0.01)


def test_constant_potential_shifts_spectrum():
    mesh = mesh_polygon(UNIT_SQUARE, h=0.1, sections={}, section_intervals=None)
    K0, M = stiffness_and_mass(mesh)
    K3, _ = stiffness_and_mass(mesh, np.full(len(mesh.triangles), 3.0))
    s0 = smallest_eigenpairs(K0, M, 3)
    s3 = smallest_eigenpairs(K3, M, 3)
    assert np.allclose(s3.values, s0.values + 3.0, atol=1e-9)


def test_thin_rectangle_dirichlet_limit():
    # [0,1] x [0,eps] with Dirichlet on the short side at y=0 tends to the
    # 1-D Dirichlet-Neumann interval spectrum as eps -> 0
    for eps, tol in ((0.1, 0.02), (0.05, 0.01)):
        mesh = mesh_rectangle(eps, 1.0, n_cross=3,
                              n_axial=int(np.ceil(1.0 / min(0.02, 2.5 * eps / 3))))
        dn = mesh.axial_index[:, 0]
        Kf, Mf, _ = scatter_pencil(mesh.n_nodes, [_triangle_block(mesh, None)], dn)
        spec = smallest_eigenpairs(Kf, Mf, 1)
        assert spec.values[0] == pytest.approx((np.pi / 2) ** 2, rel=tol)


def test_degenerate_rectangle_rejected():
    with pytest.raises(MeshError):
        mesh_rectangle(0.0, 1.0, 2, 2)


def _loop_mesh_rectangle(width, length, n_cross, n_axial):
    """The per-cell loop mesher, kept as the reference."""
    xs = np.linspace(0.0, width, n_cross + 1)
    ys = np.linspace(0.0, length, n_axial + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    idx = np.arange(nodes.shape[0]).reshape(n_cross + 1, n_axial + 1)
    tris = []
    for i in range(n_cross):
        for j in range(n_axial):
            a, b, c, d = idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1]
            tris.append([a, b, c])
            tris.append([a, c, d])
    tris = _orient_ccw(nodes, np.array(tris, dtype=int))
    mesh = Mesh2D(nodes, tris, {})
    mesh.axial_index = idx
    mesh.axial_positions = ys
    return mesh


def _assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n_cross", [2, 3, 8])
def test_rectangle_mesh_matches_loop_reference(n_cross):
    for n_axial in (2, 7):
        args = (0.3, 1.7, n_cross, n_axial)
        mesh, ref = mesh_rectangle(*args), _loop_mesh_rectangle(*args)
        for name in ("nodes", "triangles", "axial_index", "axial_positions"):
            _assert_same_array(getattr(mesh, name), getattr(ref, name))
        assert mesh.sections == ref.sections == {}


def test_scatter_of_no_blocks_is_the_zero_pencil():
    for fixed, free_want in (((), [0, 1, 2, 3, 4]), ([3, 0], [1, 2, 4])):
        K, M, free = scatter_pencil(5, [], fixed)
        assert np.array_equal(free, free_want)
        for A in (K, M):
            assert sp.isspmatrix_csr(A)
            assert A.shape == (len(free_want),) * 2 and A.nnz == 0
