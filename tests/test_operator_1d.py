import numpy as np
import pytest
import scipy.sparse as sp

from treespec.connector import EquivalenceConstants
from treespec.eigensolver import smallest_eigenpairs
from treespec.fem_2d import GeometrySpec2D, build_geometry_2d, matched_mesh_1d
from treespec.operator_1d import (
    GAUSS2,
    Operator1DError,
    PotentialProfile,
    VertexZones,
    assemble_1d,
    average_potential_1d,
    build_mesh_1d,
    build_rho_P,
    build_rho_Q,
    component_multiplicity,
    discreteness_condition_check,
    hardy_inequality_check,
    kirchhoff_residuals,
    radial_decomposition_spectrum,
    rho_star_profile,
    spectrum_1d,
    tail_bound_check,
    zone_modified_profile,
)
from treespec.tree_model import EdgeId, TreeSpec, build_tree


def single_edge_tree(l0=1.0):
    return build_tree(TreeSpec(k=1, l0=l0, r=0.5, delta=0.6, J=0))


def unit_constants(q=1.0, p=1.0):
    """Synthetic constants with prescribed rho_Q / rho_P factors."""
    return EquivalenceConstants(
        alpha_Abar=1.0, alpha_A=q, alpha_Bbar=1.0, alpha_B=q,
        beta_Abar=1.0, beta_Bbar=1.0, beta_A=p, beta_B=p,
    )


# -- weight profiles ----------------------------------------------------------

def test_rho_star_profile_values():
    tree = build_tree(TreeSpec(k=2, N=2, delta=0.6, l0=0.5, r=0.5, J=2))
    prof = rho_star_profile(tree)
    assert prof(0.2) == pytest.approx(1.0)
    assert prof(0.6) == pytest.approx(0.6)
    assert prof(0.8) == pytest.approx(0.36)


def test_factor_one_zone_profile_is_identity():
    tree = build_tree(TreeSpec(k=2, J=2))
    rs = rho_star_profile(tree)
    prof = build_rho_Q(tree, unit_constants(q=1.0), eps=0.1)
    t = np.linspace(0, tree.radius * 0.999, 500)
    assert np.allclose(prof(t), rs(t))


def test_zone_factor_applied_inside_zone_only():
    tree = build_tree(TreeSpec(k=2, N=2, delta=0.6, l0=1.0, r=0.5, J=2))
    zones = VertexZones(eps=0.1)
    prof = zone_modified_profile(tree, rho_star_profile(tree), 2.5, zones)
    t_v = tree.t_shell[2]  # generation-1 vertex, zone scale eps * delta
    reach = 0.1 * 0.6
    # parent side of the zone lies in the generation-1 edge where rho* = delta
    assert prof(t_v - 0.5 * reach) == pytest.approx(2.5 * 0.6)
    assert prof(t_v + 0.5 * reach) == pytest.approx(2.5 * 0.36)
    assert prof(t_v - 2.0 * reach) == pytest.approx(0.6)


def test_zone_measure_proportional_to_eps():
    tree = build_tree(TreeSpec(k=2, J=2))
    rs = rho_star_profile(tree)

    def modified_measure(eps):
        prof = zone_modified_profile(tree, rs, 2.0, VertexZones(eps))
        mids = 0.5 * (prof.breakpoints[:-1] + prof.breakpoints[1:])
        widths = np.diff(prof.breakpoints)
        per_point = np.array([tree.counting_function(min(t, tree.radius * (1 - 1e-15)))
                              for t in mids], dtype=float)
        changed = ~np.isclose(prof(mids), rs(mids))
        return float((widths * per_point)[changed].sum())

    m1, m2 = modified_measure(0.05), modified_measure(0.1)
    assert m2 == pytest.approx(2.0 * m1, rel=1e-9)


def test_rho_P_below_rho_star_below_rho_Q():
    tree = build_tree(TreeSpec(k=2, J=2))
    consts = unit_constants(q=3.0, p=0.25)
    rq = build_rho_Q(tree, consts, eps=0.15)
    rp = build_rho_P(tree, consts, eps=0.15)
    rs = rho_star_profile(tree)
    t = np.linspace(0, tree.radius * 0.999, 800)
    assert np.all(rp(t) <= rs(t) + 1e-15)
    assert np.all(rs(t) <= rq(t) + 1e-15)


def test_zone_overlap_rejected():
    tree = build_tree(TreeSpec(k=2, l0=1.0, r=0.5, delta=0.9, J=2))
    with pytest.raises(Operator1DError):
        build_rho_Q(tree, unit_constants(2.0), eps=0.9)


def test_eps_out_of_range_rejected():
    tree = build_tree(TreeSpec(k=2, J=1))
    with pytest.raises(Operator1DError):
        build_rho_Q(tree, unit_constants(), eps=1.5)


# -- assembly and golden spectra ----------------------------------------------

def test_single_edge_mixed_bc_spectrum():
    tree = single_edge_tree()
    mesh = build_mesh_1d(tree, h=1 / 256)
    rs = rho_star_profile(tree)
    spec = spectrum_1d(tree, mesh, rs, rs, m=2)
    assert spec.values[0] == pytest.approx((np.pi / 2) ** 2, rel=1e-3)
    assert spec.values[1] == pytest.approx((3 * np.pi / 2) ** 2, rel=1e-3)


def test_constant_potential_exact_shift():
    tree = single_edge_tree()
    mesh = build_mesh_1d(tree, h=1 / 64)
    rs = rho_star_profile(tree)
    base = spectrum_1d(tree, mesh, rs, rs, m=3)
    shifted = spectrum_1d(tree, mesh, rs, rs,
                          W=PotentialProfile("constant", (2.5,)), m=3)
    assert np.allclose(shifted.values, base.values + 2.5, atol=1e-10)


def test_K_symmetric_M_spd():
    tree = build_tree(TreeSpec(k=2, J=2))
    mesh = build_mesh_1d(tree, h=0.05)
    rs = rho_star_profile(tree)
    sys_ = assemble_1d(tree, mesh, rs, rs, PotentialProfile("cosine", (1.0, 2.0)))
    asym = (sys_.K - sys_.K.T)
    assert np.abs(asym.toarray()).max() == 0.0
    # Cholesky-type factorization succeeds on M
    from scipy.linalg import cholesky
    cholesky(sys_.M.toarray())


def test_expand_takes_column_blocks():
    tree = build_tree(TreeSpec(k=2, J=2))
    rs = rho_star_profile(tree)
    sys_ = assemble_1d(tree, build_mesh_1d(tree, h=0.05), rs, rs)
    block = np.random.default_rng(3).standard_normal((len(sys_.free), 5))
    full = sys_.expand(block)
    assert full.shape == (sys_.n_full, 5)
    for j in range(5):
        assert np.array_equal(full[:, j], sys_.expand(block[:, j]))
    dirichlet = np.setdiff1d(np.arange(sys_.n_full), sys_.free)
    assert len(dirichlet) > 0 and not full[dirichlet].any()


@pytest.mark.parametrize("params", [(2.0,), (1.0, 2.0, 3.0), (True, 1.0), ("1", 2.0)])
def test_cosine_potential_takes_amp_and_freq(params):
    # the rule of ExperimentConfig.w_limit: no default fills a missing frequency
    with pytest.raises(Operator1DError, match="amp, freq"):
        PotentialProfile("cosine", params)
    t = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(PotentialProfile("cosine", (0.5, 2.0))(t), 0.5 * np.cos(2.0 * t))


def test_rayleigh_monotonicity_in_potential():
    tree = build_tree(TreeSpec(k=2, J=1))
    mesh = build_mesh_1d(tree, h=0.05)
    rs = rho_star_profile(tree)
    rq = build_rho_Q(tree, unit_constants(2.0), eps=0.1)
    w0 = PotentialProfile("cosine", (1.0, 1.0))
    w1 = PotentialProfile("sampled", nodes=np.array([0.0, tree.radius]),
                          samples=np.array([0.0, 0.0]))
    # W and W + 1: every eigenvalue may only move up
    s0 = spectrum_1d(tree, mesh, rq, rs, W=w0, m=8)
    Wplus = PotentialProfile("sampled",
                             nodes=np.linspace(0, tree.radius, 200),
                             samples=w0(np.linspace(0, tree.radius, 200)) + 1.0)
    s1 = spectrum_1d(tree, mesh, rq, rs, W=Wplus, m=8)
    assert np.all(s1.values >= s0.values - 1e-10)


def test_weight_equivalence_envelope():
    tree = build_tree(TreeSpec(k=2, delta=0.6, J=2))
    mesh = build_mesh_1d(tree, h=0.02,
                         breakpoints=rho_star_profile(tree).breakpoints)
    rs = rho_star_profile(tree)
    zones = VertexZones(0.1)
    r1 = zone_modified_profile(tree, rs, 2.0, zones)
    r2 = zone_modified_profile(tree, rs, 0.5, zones)
    c = max(r1.equiv_constant, r2.equiv_constant)
    W = PotentialProfile("cosine", (1.0, 1.0))
    C_W = 1.0
    mesh_z = build_mesh_1d(tree, h=0.02, breakpoints=r1.breakpoints)
    limit = spectrum_1d(tree, mesh_z, rs, rs, W=W, m=10)
    pert = spectrum_1d(tree, mesh_z, r1, r2, W=W, m=10)
    lo = (limit.values - 2 * C_W) / c ** 2
    hi = c ** 2 * (limit.values + 2 * C_W)
    assert np.all(pert.values >= lo - 1e-9)
    assert np.all(pert.values <= hi + 1e-9)


def test_kirchhoff_residual_first_order_in_h():
    tree = build_tree(TreeSpec(k=2, delta=0.6, J=1))
    rs = rho_star_profile(tree)

    def residual(h):
        mesh = build_mesh_1d(tree, h=h)
        sys_ = assemble_1d(tree, mesh, rs, rs)
        spec = smallest_eigenpairs(sys_.K, sys_.M, 1)
        u = sys_.expand(spec.vectors[:, 0])
        return kirchhoff_residuals(tree, mesh, rs, u).max()

    r1, r2 = residual(0.02), residual(0.01)
    assert r2 < r1
    assert 1.3 <= r1 / r2 <= 3.0


# -- radial decomposition -----------------------------------------------------

def test_multiplicity_constant():
    assert component_multiplicity(2, 0) == 1
    assert component_multiplicity(2, 1) == 1
    assert component_multiplicity(2, 2) == 2
    assert component_multiplicity(2, 3) == 4
    assert component_multiplicity(3, 2) == 6
    assert component_multiplicity(1, 1) == 0


def test_decomposition_equals_direct_for_path_graph():
    tree = build_tree(TreeSpec(k=1, l0=1.0, r=0.5, J=3))
    mesh = build_mesh_1d(tree, h=0.02)
    rs = rho_star_profile(tree)
    direct = spectrum_1d(tree, mesh, rs, rs, m=8)
    dec = radial_decomposition_spectrum(tree, mesh, rs, rs, None, 8)
    assert np.allclose(dec.expanded_values(8), direct.values, rtol=1e-12)


@pytest.mark.parametrize("k,J,delta", [(2, 1, 0.6), (2, 2, 0.6), (3, 2, 0.8)])
def test_decomposition_matches_direct_spectrum(k, J, delta):
    tree = build_tree(TreeSpec(k=k, l0=1.0, r=0.5, delta=delta, J=J))
    mesh = build_mesh_1d(tree, h=0.02)
    rs = rho_star_profile(tree)
    W = PotentialProfile("cosine", (1.0, 1.0))
    sys_ = assemble_1d(tree, mesh, rs, rs, W)
    m = 12
    direct = smallest_eigenpairs(sys_.K, sys_.M, m, with_vectors=False)
    dec = radial_decomposition_spectrum(tree, mesh, rs, rs, W, m)
    vals = dec.expanded_values(m)
    assert np.allclose(vals, direct.values[:len(vals)], rtol=1e-8)


def test_deepest_component_is_plain_interval_operator():
    # the generation-J component lives on the last shell alone: constant
    # weight, Dirichlet/Neumann interval with closed-form spectrum
    tree = build_tree(TreeSpec(k=2, l0=1.0, r=0.5, delta=0.6, J=2))
    from treespec.operator_1d import radial_component_operator
    mesh = build_mesh_1d(tree, h=0.002)
    rs = rho_star_profile(tree)
    sys_J = radial_component_operator(tree, mesh, rs, rs, None, 2)
    spec = smallest_eigenpairs(sys_J.K, sys_J.M, 2, with_vectors=False)
    L = tree.edge_length(2)
    exact = [((2 * m - 1) * np.pi / (2 * L)) ** 2 for m in (1, 2)]
    assert np.allclose(spec.values, exact, rtol=1e-3)


def test_component_weight_jump_factor():
    # the relative counting weight of a component multiplies by k across shells
    tree = build_tree(TreeSpec(k=2, N=2, delta=0.6, l0=1.0, r=0.5, J=2))
    from treespec.operator_1d import radial_component_operator
    mesh = build_mesh_1d(tree, h=0.05)
    rs = rho_star_profile(tree)
    sys_j = radial_component_operator(tree, mesh, rs, rs, None, 1)
    # mass of the linear field u = t - t_1 (vanishing at the Dirichlet end)
    # with weight g_rel * rho*; P1 mass is exact for piecewise-linear fields
    pos = [tree.t_shell[1]]
    for j in (1, 2):
        pos.extend(tree.t_shell[j] + mesh.gen_local[j][1:])
    pos = np.array(pos)
    u_free = pos[1:] - tree.t_shell[1]
    total = u_free @ (sys_j.M @ u_free)
    # closed form: sum_j g_rel_j rho*_j int (t - t_1)^2 dt over shell j
    expected = (1 * 0.6) * (0.5 ** 3 / 3) + (2 * 0.36) * ((0.75 ** 3 - 0.5 ** 3) / 3)
    assert total == pytest.approx(expected, rel=1e-12)


# -- discreteness classifier --------------------------------------------------

@pytest.mark.parametrize("delta,holds,boundary", [
    (0.6, True, False),
    (0.4, False, False),
    (0.5, True, True),
])
def test_discreteness_classifier(delta, holds, boundary):
    tree = build_tree(TreeSpec(k=2, N=2, delta=delta, J=3))
    report = discreteness_condition_check(tree, rho_star_profile(tree))
    assert report.holds == holds
    assert report.boundary == boundary
    assert report.per_generation_factor == pytest.approx(2 * delta, rel=1e-12)
    if holds:
        assert report.best_C == pytest.approx(1.0)


# -- potential averaging ------------------------------------------------------

def test_average_constant_potential():
    tree = build_tree(TreeSpec(k=2, delta=0.6, J=2))
    prof = average_potential_1d(lambda t, s: 3.0 * np.ones_like(s), tree,
                                eps=0.1, zones=VertexZones(0.1))
    t = np.linspace(0, tree.radius * 0.99, 300)
    assert np.allclose(prof(t), 3.0)


def test_average_theta_potential_exact_on_edges():
    tree = build_tree(TreeSpec(k=2, delta=0.6, l0=1.0, r=0.5, J=1))
    zones = VertexZones(0.1)
    prof = average_potential_1d(lambda t, s: t * np.ones_like(s), tree,
                                eps=0.1, zones=zones)
    # stations outside the single vertex zone at t_1 = 1.0, reach 0.1
    for t in (0.3, 0.7, 1.2, 1.4):
        assert prof(t) == pytest.approx(t, abs=1e-9)


def test_average_s_dependent_potential():
    tree = build_tree(TreeSpec(k=2, delta=0.6, l0=1.0, r=0.5, J=1))
    eps = 0.1
    prof = average_potential_1d(lambda t, s: s, tree, eps=eps,
                                zones=VertexZones(eps))
    # on the generation-0 edge the tube width is eps, average of s is eps/2
    assert prof(0.4) == pytest.approx(eps / 2, rel=1e-9)
    # generation 1: width eps * delta
    assert prof(1.3) == pytest.approx(eps * 0.6 / 2, rel=1e-9)


def test_average_vertex_zone_convex_combination():
    tree = build_tree(TreeSpec(k=2, delta=0.6, l0=1.0, r=0.5, J=1))
    zones = VertexZones(0.2)
    prof = average_potential_1d(lambda t, s: t * np.ones_like(s), tree,
                                eps=0.2, zones=zones)
    t_v = tree.t_shell[1]
    par, chi = zones.reaches(tree, 0)
    b = [t_v - par, t_v + chi]
    zone_t = np.linspace(b[0], b[1], 50)
    vals = prof(zone_t)
    assert np.all(vals >= min(b) - 1e-9)
    assert np.all(vals <= max(b) + 1e-9)


# -- tail bound and Hardy -----------------------------------------------------

def test_tail_bound_zero_field():
    tree = build_tree(TreeSpec(k=2, J=2))
    mesh = build_mesh_1d(tree, h=0.1)
    rs = rho_star_profile(tree)
    u = np.zeros(mesh.n_dofs)
    assert tail_bound_check(tree, mesh, rs, rs, u, 1) == 0.0


def test_tail_bound_field_supported_inside():
    tree = build_tree(TreeSpec(k=2, J=2, l0=1.0, r=0.5))
    mesh = build_mesh_1d(tree, h=0.05)
    rs = rho_star_profile(tree)
    u = np.zeros(mesh.n_dofs)
    # nonzero only on generation-0 interior nodes
    e0 = next(iter(tree.edges()))
    u[mesh.edge_dofs[e0][1:-1]] = 1.0
    assert tail_bound_check(tree, mesh, rs, rs, u, 1) == 0.0


def test_tail_bound_random_fields_bounded():
    tree = build_tree(TreeSpec(k=2, delta=0.6, l0=1.0, r=0.5, J=2))
    mesh = build_mesh_1d(tree, h=0.05)
    rs = rho_star_profile(tree)
    tips = [mesh.edge_dofs[e][-1] for e in tree.edges() if e.j == tree.J]
    rng = np.random.default_rng(42)
    for j in (0, 1):
        bound = tree.tail_radius(j, truncated=True) ** 2  # c = 1, C = 1
        for _ in range(1000):
            u = rng.standard_normal(mesh.n_dofs)
            u[0] = 0.0
            u[tips] = 0.0
            assert tail_bound_check(tree, mesh, rs, rs, u, j) <= bound


def test_hardy_zero_field():
    tree = single_edge_tree()
    nodes = np.linspace(0, 1, 101)
    assert hardy_inequality_check(tree, rho_star_profile(tree), nodes,
                                  np.zeros(101)) == 0.0


def hardy_hat_oracle():
    # independent quadrature of the closed-form hat on [0, 0.9] peaking at 0.5
    t = np.linspace(0, 1, 2_000_001)[:-1]
    u = np.where(t <= 0.5, 2 * t, np.clip((0.9 - t) / 0.4, 0.0, None))
    p = 1.0 / (1.0 * (1.0 - t))
    num = np.trapezoid(p * u ** 2, t)
    den = 2.0 ** 2 * 0.5 + 2.5 ** 2 * 0.4  # int u'^2 exactly: 2 + 2.5
    return num / den


def test_hardy_hat_regression_value():
    tree = single_edge_tree()
    nodes = np.unique(np.concatenate([np.linspace(0, 1, 4001), [0.5, 0.9]]))
    u = np.where(nodes <= 0.5, 2 * nodes, np.clip((0.9 - nodes) / 0.4, 0.0, None))
    ratio = hardy_inequality_check(tree, rho_star_profile(tree), nodes, u)
    assert ratio == pytest.approx(hardy_hat_oracle(), rel=1e-4)
    assert ratio < 1.0  # bounded by c^2 / C = 1 for this profile


def test_hardy_scale_invariance():
    tree = single_edge_tree()
    nodes = np.linspace(0, 1, 1001)
    u = np.where(nodes <= 0.5, nodes, np.clip(0.9 - nodes, 0.0, None) / 0.4)
    r1 = hardy_inequality_check(tree, rho_star_profile(tree), nodes, u)
    r2 = hardy_inequality_check(tree, rho_star_profile(tree), nodes, 2 * u)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_hardy_warns_when_supported_near_radius():
    tree = single_edge_tree()
    nodes = np.linspace(0, 1, 101)
    u = nodes.copy()  # does not vanish near R
    with pytest.warns(UserWarning):
        hardy_inequality_check(tree, rho_star_profile(tree), nodes, u)


# -- per-edge reference loops ---------------------------------------------------
# The mesh, assembly and checks work on one dof array per generation; these
# loops walk the edges one by one, as a plain transcription of the formulas.

def edge_dofs_loop(tree, gen_local):
    """Per-edge dof numbering: each edge takes fresh dofs for its nodes after
    the first, which it shares with its parent's last node (or the root)."""
    edge_dofs, dof_t, counter = {}, [0.0], 1
    for e in tree.edges():
        local = gen_local[e.j]
        dofs = np.empty(len(local), dtype=int)
        dofs[0] = 0 if e.j == 0 else edge_dofs[e.parent(tree.k)][-1]
        for i in range(1, len(local)):
            dofs[i] = counter
            dof_t.append(tree.t_shell[e.j] + local[i])
            counter += 1
        edge_dofs[e] = dofs
    return edge_dofs, np.array(dof_t)


def assemble_1d_loop(tree, mesh, rho_a, rho_b, W=None):
    """Per-edge assembly, root eliminated: element matrices recomputed on
    every edge."""
    rows, cols, kv, mv = [], [], [], []
    for e, dofs in mesh.edge_dofs.items():
        local = mesh.gen_local[e.j]
        t0 = tree.t_shell[e.j]
        a, b = local[:-1], local[1:]
        hs = b - a
        mids = t0 + 0.5 * (a + b)
        ra, rb = rho_a(mids), rho_b(mids)
        k_loc = (ra / hs)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        m_loc = (rb * hs / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
        if W is not None:
            for gpt in GAUSS2:
                wv = np.asarray(W(t0 + a + gpt * hs), dtype=float)
                phi = np.array([1.0 - gpt, gpt])
                k_loc += (wv * rb * hs * 0.5)[:, None, None] * np.outer(phi, phi)
        pair = np.stack([dofs[:-1], dofs[1:]], axis=1)
        for i in range(2):
            for jj in range(2):
                rows.append(pair[:, i])
                cols.append(pair[:, jj])
                kv.append(k_loc[:, i, jj])
                mv.append(m_loc[:, i, jj])
    n = mesh.n_dofs
    idx = (np.concatenate(rows), np.concatenate(cols))
    K = sp.coo_matrix((np.concatenate(kv), idx), shape=(n, n)).tocsr()
    M = sp.coo_matrix((np.concatenate(mv), idx), shape=(n, n)).tocsr()
    return K[1:, 1:].tocsr(), M[1:, 1:].tocsr()


def kirchhoff_residuals_loop(tree, mesh, rho_a, u):
    res = []
    for e in tree.interior_vertices():
        local = mesh.gen_local[e.j]
        dofs = mesh.edge_dofs[e]
        h_in = local[-1] - local[-2]
        mid_in = tree.t_shell[e.j] + local[-1] - 0.5 * h_in
        total = float(rho_a(mid_in)) * (u[dofs[-2]] - u[dofs[-1]]) / h_in
        for pos in range(tree.k):
            child = e.child(tree.k, pos)
            clocal = mesh.gen_local[child.j]
            h_out = clocal[1] - clocal[0]
            mid_out = tree.t_shell[child.j] + 0.5 * h_out
            total += (float(rho_a(mid_out))
                      * (u[mesh.edge_dofs[child][1]] - u[dofs[-1]]) / h_out)
        res.append(abs(total))
    return np.array(res)


def tail_bound_loop(tree, mesh, rho_a, rho_b, u, j):
    mass = energy = 0.0
    for e, dofs in mesh.edge_dofs.items():
        local = mesh.gen_local[e.j]
        hs = np.diff(local)
        mids = tree.t_shell[e.j] + local[:-1] + 0.5 * hs
        u0, u1 = u[dofs[:-1]], u[dofs[1:]]
        if e.j > j:
            mass += float(np.sum(rho_b(mids) * hs / 3.0 * (u0 ** 2 + u0 * u1 + u1 ** 2)))
        energy += float(np.sum(rho_a(mids) * (u1 - u0) ** 2 / hs))
    return 0.0 if energy == 0.0 else mass / energy


def hardy_loop(tree, rho, nodes, u, n_quad=4):
    R = tree.radius
    gauss, gw = np.polynomial.legendre.leggauss(n_quad)
    num = den = 0.0
    for a, b, ua, ub in zip(nodes[:-1], nodes[1:], u[:-1], u[1:]):
        h = b - a
        x = a + 0.5 * h * (gauss + 1.0)
        uu = ua + (ub - ua) * (x - a) / h
        g = np.array([tree.counting_function(min(t, R * (1 - 1e-15))) for t in x],
                     dtype=float)
        num += 0.5 * h * float(np.dot(gw, rho(x) * g / (R * (R - x)) * uu ** 2))
        den += float(rho(a + h / 2)
                     * tree.counting_function(min(a + h / 2, R * (1 - 1e-15)))
                     * (ub - ua) ** 2 / h)
    return 0.0 if den == 0.0 else num / den


def assert_same_csr(A, B):
    A, B = A.tocsr(), B.tocsr()
    A.sort_indices()
    B.sort_indices()
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


LOOP_TREES = [TreeSpec(k=1, J=3), TreeSpec(k=2, delta=0.6, J=3),
              TreeSpec(k=3, delta=0.4, J=2)]


@pytest.mark.parametrize("spec", LOOP_TREES, ids=lambda s: f"k{s.k}")
@pytest.mark.parametrize("profile", ["rho_star", "rho_Q"])
@pytest.mark.parametrize("cosine", [False, True], ids=["W0", "Wcos"])
@pytest.mark.parametrize("dirichlet_root", [True])   # the root is always eliminated
def test_assembly_equals_per_edge_loop(spec, profile, cosine, dirichlet_root):
    tree = build_tree(spec)
    rs = rho_star_profile(tree)
    rho_a = rs if profile == "rho_star" else build_rho_Q(tree, unit_constants(2.5), 0.1)
    mesh = build_mesh_1d(tree, h=0.04, breakpoints=rho_a.breakpoints)
    edge_dofs, dof_t = edge_dofs_loop(tree, mesh.gen_local)
    assert list(mesh.edge_dofs) == list(edge_dofs)
    assert all(np.array_equal(mesh.edge_dofs[e], d) for e, d in edge_dofs.items())
    assert mesh.n_dofs == len(dof_t)
    assert np.array_equal(mesh.dof_t, dof_t)
    W = PotentialProfile("cosine", (1.0, 2.0)) if cosine else None
    system = assemble_1d(tree, mesh, rho_a, rs, W)
    assert np.array_equal(system.free, np.arange(int(dirichlet_root), mesh.n_dofs))
    K, M = assemble_1d_loop(tree, mesh, rho_a, rs, W)
    assert_same_csr(system.K, K)
    assert_same_csr(system.M, M)


def test_assembly_equals_per_edge_loop_on_matched_mesh():
    tree = build_tree(TreeSpec(k=2, J=2))
    tmesh = build_geometry_2d(tree, GeometrySpec2D(eps=0.1, h=0.03, n_cross=3))
    mesh = matched_mesh_1d(tmesh).mesh
    edge_dofs, _ = edge_dofs_loop(tree, mesh.gen_local)
    assert all(np.array_equal(mesh.edge_dofs[e], d) for e, d in edge_dofs.items())
    rs = rho_star_profile(tree)
    W = PotentialProfile("cosine", (1.0, 1.0))
    system = assemble_1d(tree, mesh, rs, rs, W)
    K, M = assemble_1d_loop(tree, mesh, rs, rs, W)
    assert_same_csr(system.K, K)
    assert_same_csr(system.M, M)


def test_edge_dofs_view_is_read_only():
    tree = build_tree(TreeSpec(k=2, J=2))
    mesh = build_mesh_1d(tree, h=0.1)
    assert len(mesh.edge_dofs) == tree.edge_count()
    assert EdgeId(3, 0) not in mesh.edge_dofs
    with pytest.raises(ValueError):
        mesh.edge_dofs[EdgeId(1, 1)][0] = 7


@pytest.mark.parametrize("spec", LOOP_TREES, ids=lambda s: f"k{s.k}")
def test_checks_equal_per_edge_loops(spec):
    tree = build_tree(spec)
    rs = rho_star_profile(tree)
    rq = build_rho_Q(tree, unit_constants(2.5), 0.1)
    mesh = build_mesh_1d(tree, h=0.04, breakpoints=rq.breakpoints)
    rng = np.random.default_rng(5)
    nodes = np.linspace(0.0, tree.radius, 301)
    for _ in range(5):
        u = rng.standard_normal(mesh.n_dofs)
        assert np.allclose(kirchhoff_residuals(tree, mesh, rq, u),
                           kirchhoff_residuals_loop(tree, mesh, rq, u),
                           rtol=1e-13, atol=0.0)
        for j in range(tree.J + 1):
            assert tail_bound_check(tree, mesh, rq, rs, u, j) == pytest.approx(
                tail_bound_loop(tree, mesh, rq, rs, u, j), rel=1e-13, abs=0.0)
        f = rng.standard_normal(301)
        f[-30:] = 0.0
        for rho in (rs, rq):
            assert hardy_inequality_check(tree, rho, nodes, f) == pytest.approx(
                hardy_loop(tree, rho, nodes, f), rel=1e-13)


# -- scale ----------------------------------------------------------------------

def assert_decomposition_equals_direct(spec, h, m=8):
    tree = build_tree(spec)
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=h, breakpoints=rs.breakpoints)
    system = assemble_1d(tree, mesh, rs, rs)
    direct = smallest_eigenpairs(system.K, system.M, m, with_vectors=False)
    dec = radial_decomposition_spectrum(tree, mesh, rs, rs, None, m)
    vals = dec.expanded_values(m)
    assert len(vals) == m
    assert np.allclose(vals, direct.values, rtol=1e-8, atol=0.0)
    return vals


def test_decomposition_equals_direct_at_J14():
    # eigenvalues of the deep components reach 1e7, where an absolute residual
    # gate sits below roundoff
    assert_decomposition_equals_direct(TreeSpec(k=2, J=14), 0.01)


def test_decomposition_equals_direct_through_a_multiple_eigenvalue():
    # the 8 smallest hold three of the four copies of 8.565; a shift-invert
    # solve with m + 5 Ritz vectors finds two of them and returns 9.896 as
    # the 8th value unless the inertia count sends it back for the rest
    vals = assert_decomposition_equals_direct(
        TreeSpec(k=2, J=12, r=0.6, delta=0.5), 0.005)
    assert np.count_nonzero(np.isclose(vals, 8.565, rtol=1e-4)) == 3


def test_mesh_and_assembly_at_node_budget_edge():
    spec = TreeSpec(k=2, J=17)
    tree = build_tree(spec)
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=0.01, breakpoints=rs.breakpoints)
    n_local = [len(local) for local in mesh.gen_local]
    assert mesh.n_dofs == 1 + sum(2 ** j * (n - 1) for j, n in enumerate(n_local))
    assert mesh.n_dofs == len(mesh.dof_t) == 262_789
    assert np.all(mesh.gen_dofs[0][:, 0] == 0)
    for j in range(1, spec.J + 1):
        parents = mesh.gen_dofs[j - 1][np.arange(2 ** j) // 2, -1]
        assert np.array_equal(mesh.gen_dofs[j][:, 0], parents)
    system = assemble_1d(tree, mesh, rs, rs)
    assert system.n_full == mesh.n_dofs
    assert (system.K != system.K.T).nnz == 0
