import numpy as np
import pytest

from treespec.connector import (
    ConnectorError,
    SkeletonStar,
    affine_partition,
    analyze_connector,
    canonical_connector,
    connector_form_matrices,
    connector_minimized_forms,
    harmonic_partition_2d,
    mesh_connector,
    restricted_eigenvalues,
    skeleton_form_matrices,
    skeleton_minimized_forms,
    two_sided_constant,
)
from treespec.mesh2d import mesh_polygon, stiffness_and_mass


def unit_star(k=2):
    return SkeletonStar(np.ones(k + 1), np.ones(k + 1))


def skeleton_minimizer(star, f, gamma):
    """Minimizer of the star energy with endpoint values f; returns the center
    value and the minimized energy."""
    L, a = star.arm_lengths, star.arm_weights
    f = np.asarray(f, float)
    if gamma == 0:
        w = a / L
        hv = float(w @ f / w.sum())
        return hv, float(w @ (f - hv) ** 2)
    c, s = a * np.cosh(L) / np.sinh(L), a / np.sinh(L)
    return float(s @ f / c.sum()), float(c @ f ** 2 - (s @ f) ** 2 / c.sum())


# -- projection off the ones direction ---------------------------------------

def test_project_off_ones_constant_vector():
    f = np.array([1.0, 1.0, 1.0])
    assert np.allclose(f - f.mean(), 0.0)


def test_project_off_ones_unit_vector():
    f = np.array([1.0, 0.0, 0.0])
    out = f - f.mean()
    assert np.allclose(out, [2 / 3, -1 / 3, -1 / 3])


def test_project_off_ones_orthogonality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = rng.standard_normal(rng.integers(2, 8))
        assert abs((f - f.mean()).sum()) < 1e-12


# -- 1-D partition and forms --------------------------------------------------

def test_partition_center_value_and_endpoints():
    own, foreign = affine_partition(2, 0.0)
    assert own == pytest.approx(1 / 3) and foreign == pytest.approx(1 / 3)
    own, foreign = affine_partition(2, 1.0)
    assert own == pytest.approx(1.0)
    assert foreign == pytest.approx(0.0)


def test_partition_k1_two_arm_interpolation():
    assert affine_partition(1, 0.0)[0] == pytest.approx(0.5)
    assert affine_partition(1, 1.0)[0] == pytest.approx(1.0)
    assert affine_partition(1, 1.0)[1] == pytest.approx(0.0)
    assert affine_partition(1, 0.5)[1] == pytest.approx(0.25)


def test_partition_sums_to_one_pointwise():
    # on every arm: the arm's own function plus the k foreign ones
    for k in (1, 2, 3):
        arm_lengths = np.linspace(0.7, 1.3, k + 1)
        for L in arm_lengths:
            own, foreign = affine_partition(k, np.linspace(0, L, 100) / L)
            assert np.abs(own + k * foreign - 1.0).max() < 1e-14


def test_partition_nonnegative():
    own, foreign = affine_partition(4, np.linspace(0, 1, 20))
    assert min(own.min(), foreign.min()) >= 0.0


def test_skeleton_forms_k2_reference_values():
    # closed-form oracle for unit arms and unit weights:
    # own slope 2/3, foreign slope -1/3 on each of three arms
    Abar, Bbar = skeleton_form_matrices(unit_star(2))
    assert np.allclose(np.diag(Abar), 2 / 3)
    assert np.allclose(Abar - np.diag(np.diag(Abar)),
                       -1 / 3 * (np.ones((3, 3)) - np.eye(3)))
    # B diag: int (1/3 + 2s/3)^2 + 2 int (1/3 - s/3)^2 = 13/27 + 2/27 = 5/9
    assert np.allclose(np.diag(Bbar), 5 / 9)


def test_skeleton_A_annihilates_ones():
    for k in (1, 2, 4):
        star = SkeletonStar(np.linspace(0.5, 1.5, k + 1), np.linspace(1.0, 3.0, k + 1))
        Abar, _ = skeleton_form_matrices(star)
        assert np.abs(Abar @ np.ones(k + 1)).max() < 1e-13


def test_skeleton_Bbar_positive_definite():
    star = SkeletonStar([0.4, 0.7, 1.1], [1.0, 0.36, 0.36])
    _, Bbar = skeleton_form_matrices(star)
    assert np.linalg.eigvalsh(Bbar).min() > 0


def test_skeleton_minimizer_matches_form_matrix():
    rng = np.random.default_rng(2)
    star = SkeletonStar([0.5, 0.8, 1.2], [1.0, 0.6, 0.6])
    E0, E1 = skeleton_minimized_forms(star)
    for _ in range(20):
        f = rng.standard_normal(3)
        _, en0 = skeleton_minimizer(star, f, 0)
        _, en1 = skeleton_minimizer(star, f, 1)
        assert en0 == pytest.approx(f @ E0 @ f, rel=1e-12, abs=1e-12)
        assert en1 == pytest.approx(f @ E1 @ f, rel=1e-12, abs=1e-12)


def test_skeleton_gamma0_energy_scales_inverse_delta():
    star = SkeletonStar([0.5, 0.8, 1.2], [1.0, 0.6, 0.6])
    E0_1, _ = skeleton_minimized_forms(star)
    E0_half, _ = skeleton_minimized_forms(SkeletonStar(star.arm_lengths * 0.5, star.arm_weights))
    assert np.abs(E0_half - 2.0 * E0_1).max() < 1e-12


def test_skeleton_kirchhoff_at_minimizer():
    rng = np.random.default_rng(9)
    star = SkeletonStar([0.5, 0.8, 1.2], [1.0, 0.6, 0.6])
    for _ in range(10):
        f = rng.standard_normal(3)
        hv, _ = skeleton_minimizer(star, f, gamma=0)
        slopes = (f - hv) / star.arm_lengths
        assert abs(np.dot(star.arm_weights, slopes)) < 1e-10


def test_gamma1_energy_dominates_gamma0():
    rng = np.random.default_rng(12)
    star = SkeletonStar([0.5, 0.8, 1.2], [1.0, 0.6, 0.6])
    for _ in range(20):
        f = rng.standard_normal(3)
        _, e0 = skeleton_minimizer(star, f, 0)
        _, e1 = skeleton_minimizer(star, f, 1)
        assert e1 >= e0 - 1e-12


# -- 2-D connector geometry, partition, forms ---------------------------------

def test_canonical_connector_section_lengths():
    dom = canonical_connector(0.6, 0.3, k=2, omega=1.0)
    assert dom.section_lengths[0] == pytest.approx(1.0)
    assert dom.section_lengths[1] == pytest.approx(0.6)
    assert dom.section_lengths[2] == pytest.approx(0.6)


def test_canonical_connector_rejects_bad_params():
    with pytest.raises(ConnectorError):
        canonical_connector(1.2, 0.3, k=2, omega=1.0)
    with pytest.raises(ConnectorError):
        canonical_connector(0.6, 5.0, k=2, omega=1.0)
    with pytest.raises(ConnectorError):
        canonical_connector(0.6, 0.3, k=4, omega=1.0)


def test_rectangle_connector_superposition():
    # two opposite sections on a plain rectangle: phi_0 + phi_1 = 1 exactly
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.8], [0.0, 0.8]])
    sections = {"S0": (0, 0.0, 1.0), "S1": (2, 0.0, 1.0)}
    mesh = mesh_polygon(verts, 0.08, sections=sections, section_intervals=8)
    Phi = harmonic_partition_2d(mesh, stiffness_and_mass(mesh)[0])
    assert np.abs(Phi.sum(axis=1) - 1.0).max() < 1e-10


def test_harmonic_partition_pentagon():
    dom = canonical_connector(0.6, 0.3, k=2, omega=1.0)
    mesh = mesh_connector(dom, h=0.08, section_intervals=6)
    Phi = harmonic_partition_2d(mesh, stiffness_and_mass(mesh)[0])
    assert np.abs(Phi.sum(axis=1) - 1.0).max() < 1e-10
    assert Phi.min() >= -1e-6 and Phi.max() <= 1.0 + 1e-6
    # reflection symmetry: phi_1 mirrored in x equals phi_2
    mirrored = mesh.nodes.copy()
    mirrored[:, 0] *= -1.0
    # match mirrored nodes to original by nearest neighbor
    from scipy.spatial import cKDTree
    tree = cKDTree(mesh.nodes)
    d, idx = tree.query(mirrored)
    ok = d < 1e-9
    assert ok.mean() > 0.95  # boundary nodes mirror exactly; interior mostly
    assert np.abs(Phi[ok, 1] - Phi[idx[ok], 2]).max() < 1e-8


def test_connector_form_matrix_invariants():
    dom = canonical_connector(0.6, 0.3, k=2, omega=1.0)
    mesh = mesh_connector(dom, h=0.06, section_intervals=8)
    K, M = stiffness_and_mass(mesh)
    Phi = harmonic_partition_2d(mesh, K)
    A, B = connector_form_matrices(K, M, Phi)
    assert np.abs(A @ np.ones(3)).max() <= 1e-8 * np.abs(A).max()
    assert np.all(B > 0)
    assert np.linalg.eigvalsh(B).min() > 0
    # B stays uniformly positive definite under refinement
    mesh2 = mesh_connector(dom, h=0.03, section_intervals=16)
    K2, M2 = stiffness_and_mass(mesh2)
    Phi2 = harmonic_partition_2d(mesh2, K2)
    _, B2 = connector_form_matrices(K2, M2, Phi2)
    lo1 = np.linalg.eigvalsh(B).min()
    lo2 = np.linalg.eigvalsh(B2).min()
    assert lo2 > 0.5 * lo1


def dense_saddle_minimum(mesh, K, M, F, gamma):
    """min of g (K + gamma M) g over fields with section averages F, from a
    dense Lagrange-multiplier solve."""
    from treespec.mesh2d import section_average_weights
    Kg = (K + gamma * M).toarray()
    C = np.array([section_average_weights(mesh, mesh.sections[f"S{j}"])
                  for j in range(len(F))])
    saddle = np.block([[Kg, C.T], [C, np.zeros((len(F), len(F)))]])
    g = np.linalg.solve(saddle, np.concatenate([np.zeros(mesh.n_nodes), F]))[:mesh.n_nodes]
    return float(g @ Kg @ g)


def pentagon_forms():
    dom = canonical_connector(0.6, 0.3, k=2, omega=1.0)
    mesh = mesh_connector(dom, h=0.08, section_intervals=6)
    K, M = stiffness_and_mass(mesh)
    return mesh, K, M, connector_minimized_forms(mesh, K, M)


def test_minimized_form_E0_annihilates_constants():
    # constant section averages are met by a constant field of zero energy
    _, _, _, (E0, _) = pentagon_forms()
    assert np.abs(E0 @ np.ones(3)).max() < 1e-9 * np.abs(E0).max()


def test_minimized_forms_equal_dense_saddle_minimum():
    mesh, K, M, forms = pentagon_forms()
    rng = np.random.default_rng(4)
    for gamma, E in enumerate(forms):
        for _ in range(4):
            F = rng.standard_normal(3)
            assert F @ E @ F == pytest.approx(dense_saddle_minimum(mesh, K, M, F, gamma),
                                              rel=1e-9, abs=1e-11)


def test_minimized_form_E1_dominates_E0():
    _, _, _, (E0, E1) = pentagon_forms()
    assert np.linalg.eigvalsh(E1 - E0).min() >= -1e-12


def test_minimized_forms_reject_a_singular_saddle_system():
    mesh, K, M, _ = pentagon_forms()
    with pytest.raises(ConnectorError, match="singular saddle system"):
        connector_minimized_forms(mesh, 0 * K, 0 * M)


def test_connector_gamma0_energy_scale_invariant_2d():
    # N = 2: the Dirichlet energy of the constrained minimizer is invariant
    # under isotropic scaling of the connector
    dom = canonical_connector(0.6, 0.3, k=2, omega=1.0)
    mesh_s = mesh_polygon(dom.vertices * 0.5, 0.04, sections=dom.sections,
                          section_intervals=6)
    _, _, _, (E0, _) = pentagon_forms()
    E0_s, _ = connector_minimized_forms(mesh_s, *stiffness_and_mass(mesh_s))
    rng = np.random.default_rng(3)
    for _ in range(3):
        F = rng.standard_normal(3)
        assert F @ E0_s @ F == pytest.approx(F @ E0 @ F, rel=0.05)


# -- equivalence constants ----------------------------------------------------

def test_alpha_Abar_unit_star_is_one():
    # 3x3 eigendecomposition oracle: Abar = I - J/3 has double eigenvalue 1
    # off the ones direction
    Abar, _ = skeleton_form_matrices(unit_star(2))
    eigs = restricted_eigenvalues(Abar)
    assert np.allclose(eigs, 1.0)
    assert two_sided_constant(eigs, "Abar") == pytest.approx(1.0)


def test_two_sided_constant_diagonal_matrix():
    eigs = np.array([0.25, 1.0, 3.0])
    assert two_sided_constant(eigs, "B") == pytest.approx(4.0)


def test_two_sided_constant_rejects_semidefinite():
    with pytest.raises(ConnectorError):
        two_sided_constant(np.array([0.0, 1.0]), "bad")


def test_sandwich_inequalities_hold_for_random_vectors():
    _, _, forms, consts = analyze_connector(0.6, 0.3, k=2, omega=1.0, N=2,
                                            h=0.06, section_intervals=10)
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        f = rng.standard_normal(3)
        fp = f - f.mean()
        q = float(fp @ fp)
        for Mtx, alpha, off_ones in (
            (forms.Abar, consts.alpha_Abar, True),
            (forms.A, consts.alpha_A, True),
            (forms.Bbar, consts.alpha_Bbar, False),
            (forms.B, consts.alpha_B, False),
        ):
            val = float(f @ Mtx @ f)
            ref = q if off_ones else float(f @ f)
            assert val <= alpha * ref + 1e-10
            assert val >= ref / alpha - 1e-10


def test_constants_all_positive_and_factors_ordered():
    _, _, _, consts = analyze_connector(0.6, 0.3, k=2, omega=1.0, N=2,
                                        h=0.08, section_intervals=6)
    d = consts.as_dict()
    assert all(v > 0 for v in d.values())
    assert consts.rho_P_factor <= 1.0 <= consts.rho_Q_factor


def test_analyze_connector_assembles_the_pencil_once(monkeypatch):
    import treespec.mesh2d as mesh2d
    calls = []
    assemble = mesh2d.stiffness_and_mass
    monkeypatch.setattr(mesh2d, "stiffness_and_mass",
                        lambda mesh: calls.append(mesh) or assemble(mesh))
    analyze_connector(0.6, 0.3, k=2, omega=1.0, N=2,
                      h=0.08, section_intervals=6)
    assert len(calls) == 1


def test_analyze_connector_makes_three_sparse_factorizations(monkeypatch):
    # one for the harmonic partition and one saddle system per gamma
    import scipy.sparse.linalg as spla
    calls = []
    for name in ("splu", "spsolve"):
        solver = getattr(spla, name)
        monkeypatch.setattr(spla, name, lambda A, *args, _solver=solver, _name=name, **kw:
                            calls.append(_name) or _solver(A, *args, **kw))
    analyze_connector(0.6, 0.3, k=2, omega=1.0, N=2,
                      h=0.08, section_intervals=6)
    assert calls == ["splu"] * 3
