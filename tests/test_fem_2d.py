import dataclasses
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from treespec import fem_2d
from treespec.connector import affine_partition, canonical_connector
from treespec.eigensolver import smallest_eigenpairs
from treespec.fem_2d import (
    Geometry2DError,
    GeometrySpec2D,
    assemble_2d,
    build_geometry_2d,
    matched_mesh_1d,
    p_eps_project,
    q_eps_lift,
)
from treespec.mesh2d import (
    _triangle_block,
    mesh_quality,
    mesh_rectangle,
    polygon_area,
    scatter_pencil,
    stiffness_and_mass,
)
from treespec.tree_model import EdgeId, TreeSpec, build_tree

from oracles import mesh_area

BINARY = TreeSpec(k=2, l0=1.0, r=0.5, delta=0.6, N=2, J=2)


def edges(tree):
    """Every edge id of the tree, generation-major."""
    return [EdgeId(j, i) for j in range(tree.J + 1) for i in range(tree.k ** j)]


@pytest.fixture(scope="module")
def tmesh():
    return build_geometry_2d(build_tree(BINARY), GeometrySpec2D(eps=0.2, c=0.3, h=0.05, n_cross=3))


def canonical_connector_mesh(tm):
    """(canonical connector, its mesh, its harmonic partition) of the key the
    geometry was built on."""
    return fem_2d._canonical_connector_mesh(tm.tree.spec.delta, tm.spec2d.c, tm.tree.k,
                                            tm.spec2d.n_cross)


def connectors_only(tm):
    """The geometry with its connector components alone."""
    return dataclasses.replace(tm, components=[c for c in tm.components
                                               if c.kind == "connector"])


# -- geometry -----------------------------------------------------------------

def test_single_rectangle_when_J_zero():
    tree = build_tree(TreeSpec(k=2, l0=1.0, r=0.5, delta=0.6, J=0))
    tm = build_geometry_2d(tree, GeometrySpec2D(eps=0.1, c=0.3, h=0.05, n_cross=3))
    assert len(tm.components) == 1
    total_area = sum(len(c.gids) * mesh_area(c.mesh) for c in tm.components)
    assert total_area == pytest.approx(0.1 * 1.0, rel=1e-12)


def test_shared_connector_arrays_are_read_only(tmesh):
    canonical, conn_mesh, phi = canonical_connector_mesh(tmesh)
    assert tmesh.conn_phi is phi
    for array in (tmesh.conn_phi, conn_mesh.nodes, canonical.vertices,
                  conn_mesh.sections["S0"]):
        with pytest.raises(ValueError):
            array[0] = 0.0


def _assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [BINARY, TreeSpec(k=1, l0=1.0, r=0.5,
                                                   delta=0.6, N=2, J=3)])
def test_warm_geometry_equals_cold(spec):
    tree = build_tree(spec)
    geometry = GeometrySpec2D(eps=0.2, c=0.3, h=0.05, n_cross=3)
    fem_2d._canonical_connector_mesh.cache_clear()
    cold = build_geometry_2d(tree, geometry)
    build_geometry_2d(tree, GeometrySpec2D(eps=0.1, c=0.3, h=0.04, n_cross=3))
    warm = build_geometry_2d(tree, geometry)
    assert fem_2d._canonical_connector_mesh.cache_info().misses == 1
    assert warm.n_nodes == cold.n_nodes
    assert len(warm.components) == len(cold.components)
    for a, b in zip(warm.components, cold.components):
        assert (a.kind, a.j) == (b.kind, b.j)
        for name in ("gids", "theta"):
            _assert_same_array(getattr(a, name), getattr(b, name))
        _assert_same_array(a.mesh.nodes, b.mesh.nodes)
    _assert_same_array(warm.root_nodes, cold.root_nodes)
    _assert_same_array(warm.conn_phi, cold.conn_phi)
    sys_warm, sys_cold = assemble_2d(warm, None), assemble_2d(cold, None)
    for A, B in ((sys_warm.K, sys_cold.K), (sys_warm.M, sys_cold.M)):
        for name in ("data", "indices", "indptr"):
            _assert_same_array(getattr(A, name), getattr(B, name))


def closed_form_component_areas(tree, spec2d):
    """Shoelace-based oracle for the total area of the inflated tree."""
    d, om, eps = tree.spec.delta, tree.spec.omega, spec2d.eps
    canonical = canonical_connector(d, c=spec2d.c, k=tree.k, omega=1.0)
    pent_area = polygon_area(canonical.vertices)
    total = 0.0
    for j in range(tree.J + 1):
        start = canonical.arm_lengths[1] * eps * d ** (j - 1) * om if j >= 1 else 0.0
        end = tree.edge_lengths[j]
        if j < tree.J:
            end -= canonical.arm_lengths[0] * eps * d ** j * om
        total += tree.k ** j * (eps * d ** j * om) * (end - start)
    for j in range(tree.J):
        total += tree.k ** j * pent_area * (eps * d ** j * om) ** 2
    return total


def test_area_matches_shoelace_oracle():
    for J in (1, 2):
        tree = build_tree(TreeSpec(k=2, l0=1.0, r=0.5, delta=0.6, J=J))
        spec = GeometrySpec2D(eps=0.2, c=0.3, h=0.05, n_cross=3)
        tm = build_geometry_2d(tree, spec)
        total_area = sum(len(c.gids) * mesh_area(c.mesh) for c in tm.components)
        assert total_area == pytest.approx(closed_form_component_areas(tree, spec), rel=1e-10)


def test_area_increments_grow_when_rd_large():
    # r d > 1/2 makes the generation contributions grow without bound
    spec = GeometrySpec2D(eps=0.1, c=0.3, h=0.05, n_cross=3)
    areas = []
    for J in range(1, 5):
        tree = build_tree(TreeSpec(k=2, l0=1.0, r=0.9, delta=0.6, J=J))
        areas.append(closed_form_component_areas(tree, spec))
    increments = np.diff(areas)
    assert np.all(np.diff(increments) > 0)


def test_component_mesh_quality(tmesh):
    for comp in tmesh.components:
        angle, _ = mesh_quality(comp.mesh)
        assert angle >= 20.0


def test_geometry_validation_errors():
    tree = build_tree(BINARY)
    with pytest.raises(Geometry2DError):
        build_geometry_2d(tree, GeometrySpec2D(eps=1.5, c=0.3, h=0.05, n_cross=3))
    with pytest.raises(Geometry2DError):
        build_geometry_2d(build_tree(TreeSpec(k=3, J=1)),
                          GeometrySpec2D(eps=0.1, c=0.3, h=0.05, n_cross=3))
    # cuts consuming an edge: huge eps against short deep edges
    with pytest.raises(Geometry2DError):
        build_geometry_2d(build_tree(TreeSpec(k=2, l0=0.2, r=0.3, delta=0.9, J=2)),
                          GeometrySpec2D(eps=0.9, c=0.3, h=0.05, n_cross=3))


def test_interfaces_identified_once(tmesh):
    # every global dof appears in at most one edge and one connector copy;
    # total node count is consistent with the shared-interface bookkeeping
    counts = np.bincount(np.concatenate([c.gids.ravel() for c in tmesh.components]))
    assert counts.max() <= 2
    assert np.count_nonzero(counts) == tmesh.n_nodes


# -- assembly -----------------------------------------------------------------

def test_k1_J0_matches_interval_spectrum():
    tree = build_tree(TreeSpec(k=1, l0=1.0, r=0.5, delta=0.6, J=0))
    tm = build_geometry_2d(tree, GeometrySpec2D(eps=0.05, c=0.3, h=0.02, n_cross=3))
    sysd = assemble_2d(tm, None)
    spec = smallest_eigenpairs(sysd.K, sysd.M, 2, with_vectors=False)
    assert spec.values[0] == pytest.approx((np.pi / 2) ** 2, rel=0.01)
    assert spec.values[1] == pytest.approx((3 * np.pi / 2) ** 2, rel=0.02)


def test_constant_potential_shift(tmesh):
    base = assemble_2d(tmesh, None)
    shifted = assemble_2d(tmesh, lambda t: 2.0 * np.ones_like(t))
    s0 = smallest_eigenpairs(base.K, base.M, 3, with_vectors=False)
    s2 = smallest_eigenpairs(shifted.K, shifted.M, 3, with_vectors=False)
    assert np.allclose(s2.values, s0.values + 2.0, atol=1e-8)


def test_fem_second_order_convergence():
    # single tube, Dirichlet at the bottom: lambda_1 error is O(h^2)
    exact = (np.pi / 2) ** 2

    def lam(n_axial):
        mesh = mesh_rectangle(0.1, 1.0, 3, n_axial)
        dn = mesh.axial_index[:, 0]
        Kf, Mf, _ = scatter_pencil(mesh.n_nodes, [_triangle_block(mesh, None)], dn)
        return smallest_eigenpairs(Kf, Mf, 1, with_vectors=False).values[0]

    e1 = abs(lam(25) - exact)
    e2 = abs(lam(50) - exact)
    assert 3.5 <= e1 / e2 <= 4.5


# -- P and Q maps -------------------------------------------------------------

def _loop_layout(tmesh, mesh):
    """Reference dof layout of the matched mesh, read edge by edge:
    (station dof -> node row, vertex -> zone dofs, parent dofs, child dofs)."""
    tree = tmesh.tree
    station_dof_rows, zone_dofs, p_parent_dof, p_child_dofs = {}, {}, {}, {}
    for e in edges(tree):
        rows = tmesh.stations[e.j][1][e.index]
        dofs = mesh.gen_dofs[e.j][e.index]
        lo = 2 if e.j >= 1 else 0
        hi = len(dofs) - 2 if e.j < tree.J else len(dofs)
        for dof, row in zip(dofs[lo:hi], rows):
            station_dof_rows[int(dof)] = row
    for e in tree.interior_vertices():
        dofs = mesh.gen_dofs[e.j][e.index]
        p_parent_dof[e] = int(dofs[-3])
        kids = [mesh.gen_dofs[e.j + 1][e.index * tree.k + pos]
                for pos in range(tree.k)]
        p_child_dofs[e] = [int(cd[2]) for cd in kids]
        zone_dofs[e] = {"parent_mid": int(dofs[-2]), "vertex": int(dofs[-1]),
                        "child_mids": [int(cd[1]) for cd in kids]}
    return station_dof_rows, zone_dofs, p_parent_dof, p_child_dofs


def _p_eps_loop(tmesh, mesh, u_global):
    """Reference averaging map, one station and one vertex at a time."""
    tree = tmesh.tree
    station_dof_rows, zone_dofs, p_parent_dof, p_child_dofs = _loop_layout(tmesh, mesh)
    w = tmesh.cross_average_weights()
    vals = np.zeros(mesh.n_dofs)
    for dof, row in station_dof_rows.items():
        vals[dof] = float(w @ u_global[row])
    cv = 1.0 / (tree.k + 1)
    own, foreign = affine_partition(tree.k, 0.5)
    connectors = {EdgeId(c.j, i): gids for c in tmesh.components
                  if c.kind == "connector" for i, gids in enumerate(c.gids)}
    sections = canonical_connector_mesh(tmesh)[1].sections
    for e, zinfo in zone_dofs.items():
        u_par = float(w @ u_global[connectors[e][sections["S0"]]])
        u_kids = [float(w @ u_global[connectors[e][sections[f"S{pos + 1}"]]])
                  for pos in range(tree.k)]
        vals[p_parent_dof[e]] = u_par
        for pos in range(tree.k):
            vals[p_child_dofs[e][pos]] = u_kids[pos]
        vals[zinfo["vertex"]] = cv * (u_par + sum(u_kids))
        vals[zinfo["parent_mid"]] = u_par * own + sum(u_kids) * foreign
        for pos in range(tree.k):
            others = u_par + sum(u_kids) - u_kids[pos]
            vals[zinfo["child_mids"][pos]] = u_kids[pos] * own + others * foreign
    return vals


def _q_eps_loop(tmesh, mesh, f_dofs):
    """Reference lifting map: station rows first, then every connector."""
    station_dof_rows, _, p_parent_dof, p_child_dofs = _loop_layout(tmesh, mesh)
    u = np.zeros(tmesh.n_nodes)
    for dof, row in station_dof_rows.items():
        u[row] = f_dofs[dof]
    for comp in tmesh.components:
        if comp.kind == "connector":
            for i, gids in enumerate(comp.gids):
                e = EdgeId(comp.j, i)
                sections = [p_parent_dof[e], *p_child_dofs[e]]
                u[gids] = tmesh.conn_phi @ f_dofs[sections]
    return u


# the two maps-rayleigh benchmark geometries, a k = 1 tree and a lone tube
OPERATOR_CASES = {
    "J3-h0.01-n6": (TreeSpec(J=3), GeometrySpec2D(eps=0.1, c=0.3, h=0.01, n_cross=6)),
    "J4-h0.005-n8": (TreeSpec(J=4), GeometrySpec2D(eps=0.1, c=0.3, h=0.005, n_cross=8)),
    "k1-J3": (TreeSpec(k=1, J=3), GeometrySpec2D(eps=0.1, c=0.3, h=0.02, n_cross=3)),
    "k1-J0": (TreeSpec(k=1, J=0), GeometrySpec2D(eps=0.1, c=0.3, h=0.02, n_cross=3)),
}


@pytest.fixture(scope="module", params=sorted(OPERATOR_CASES))
def matched_case(request):
    spec, spec2d = OPERATOR_CASES[request.param]
    tm = build_geometry_2d(build_tree(spec), spec2d)
    return tm, matched_mesh_1d(tm)


def test_p_and_q_operators_equal_the_loops(matched_case):
    tm, matched = matched_case
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rng.standard_normal(tm.n_nodes)
        f = rng.standard_normal(matched.mesh.n_dofs)
        assert np.abs(p_eps_project(tm, matched, u)
                      - _p_eps_loop(tm, matched.mesh, u)).max() <= 1e-14
        assert np.abs(q_eps_lift(tm, matched, f)
                      - _q_eps_loop(tm, matched.mesh, f)).max() <= 1e-14


def _per_edge_layout(tm):
    """Reference node numbering, one edge and then one vertex at a time: every
    copy takes fresh global numbers for its own nodes, and a connector takes
    its section nodes from the end rows of the adjacent tubes.  Returns
    (edge -> (gids, theta), vertex -> (gids, theta), edge -> (station theta,
    station rows), root_nodes, n_nodes)."""
    tree, k, spec2d = tm.tree, tm.tree.k, tm.spec2d
    rect = {c.j: c.mesh for c in tm.components if c.kind == "edge"}
    canonical, conn, _ = canonical_connector_mesh(tm)
    counter = 0

    def fresh(n):
        nonlocal counter
        out = np.arange(counter, counter + n)
        counter += n
        return out

    _, chi = tm.zones.reaches(tree)
    by_edge, vertices, stations = {}, {}, {}
    for e in edges(tree):
        mesh = rect[e.j]
        start = chi[e.j - 1] if e.j >= 1 else 0.0
        gids = fresh(mesh.n_nodes)
        by_edge[e] = (gids, tree.t_shell[e.j] + start + mesh.nodes[:, 1])
        stations[e] = (tree.t_shell[e.j] + start + mesh.axial_positions,
                       gids[mesh.axial_index.T])
    for e in tree.interior_vertices():
        scale = spec2d.eps * tree.spec.delta ** e.j * tree.spec.omega
        local = conn.nodes * scale
        gids = np.full(conn.n_nodes, -1, dtype=int)
        gids[conn.sections["S0"]] = stations[e][1][-1]
        for pos in range(k):
            gids[conn.sections[f"S{pos + 1}"]] = stations[
                EdgeId(e.j + 1, e.index * k + pos)][1][0]
        interior = gids < 0
        gids[interior] = fresh(int(interior.sum()))
        vertices[e] = (gids, tree.t_shell[e.j + 1]
                       + (local[:, 1] - canonical.center[1] * scale))
    return by_edge, vertices, stations, stations[EdgeId(0, 0)][1][0].copy(), counter


def test_blocks_equal_the_per_edge_layout(matched_case):
    tm, _ = matched_case
    tree = tm.tree
    by_edge, vertices, stations, root_nodes, n_nodes = _per_edge_layout(tm)
    assert tm.n_nodes == n_nodes
    _assert_same_array(tm.root_nodes, root_nodes)
    assert [(c.kind, c.j) for c in tm.components] == (
        [("edge", j) for j in range(tree.J + 1)]
        + [("connector", j) for j in range(tree.J)])
    for comp in tm.components:
        reference = by_edge if comp.kind == "edge" else vertices
        assert comp.gids.shape == (tree.k ** comp.j, comp.mesh.n_nodes)
        for i, gids in enumerate(comp.gids):
            want_gids, want_theta = reference[EdgeId(comp.j, i)]
            _assert_same_array(gids, want_gids)
            _assert_same_array(comp.theta, want_theta)
    assert len(tm.stations) == tree.J + 1
    for j, (theta, rows) in enumerate(tm.stations):
        assert len(rows) == tree.k ** j
        for i, row in enumerate(rows):
            want_theta, want_rows = stations[EdgeId(j, i)]
            _assert_same_array(theta, want_theta)
            _assert_same_array(row, want_rows)


def test_p_after_q_is_the_identity_on_stations_and_a_projection(matched_case):
    # Q reads the station dofs only and P rebuilds them exactly; the zone
    # rows of P Q interpolate the section dofs, so P Q is idempotent
    tm, matched = matched_case
    PQ = (matched.P @ matched.Q).toarray()
    eye = np.eye(matched.mesh.n_dofs)
    assert np.abs(PQ - eye)[matched.station_dofs].max() <= 1e-13
    assert np.abs(PQ @ PQ - PQ).max() <= 1e-13


def test_matched_mesh_keeps_the_benchmark_round_trip_contract():
    # perfbench/workloads.py reads these mappings to pick the dofs its P/Q
    # round trips check; an empty or reordered mapping would pass silently
    tm = build_geometry_2d(build_tree(TreeSpec(J=2)),
                           GeometrySpec2D(eps=0.2, c=0.3, h=0.05, n_cross=3))
    matched = matched_mesh_1d(tm)
    station_dof_rows, _, p_parent_dof, p_child_dofs = _loop_layout(tm, matched.mesh)
    stations = np.fromiter(matched.station_dof_rows, dtype=int)
    assert stations.tolist() == list(station_dof_rows)
    for dof, row in matched.station_dof_rows.items():
        assert np.array_equal(row, station_dof_rows[dof])
    assert matched.p_parent_dof == p_parent_dof
    assert matched.p_child_dofs == p_child_dofs
    sections = np.concatenate([
        np.fromiter(matched.p_parent_dof.values(), dtype=int),
        np.ravel(list(matched.p_child_dofs.values())).astype(int)])
    assert len(sections) == 3 * len(p_parent_dof) and np.isin(sections, stations).all()

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads._round_trips({"tree": TreeSpec(J=2), "h_2d": 0.05}, seed=1)


def test_p_eps_preserves_constants(tmesh):
    matched = matched_mesh_1d(tmesh)
    u = np.ones(tmesh.n_nodes)
    pu = p_eps_project(tmesh, matched, u)
    assert np.allclose(pu, 1.0, atol=1e-12)


def test_p_eps_linear_in_theta_on_edges(tmesh):
    matched = matched_mesh_1d(tmesh)
    theta = np.zeros(tmesh.n_nodes)
    # assign edge charts last: stations must carry the exact axial coordinate
    # (the connector theta map is only approximate on shared section nodes)
    for comp in sorted(tmesh.components, key=lambda c: c.kind == "edge"):
        theta[comp.gids] = comp.theta
    pu = p_eps_project(tmesh, matched, theta)
    for dof in matched.station_dof_rows:
        assert pu[dof] == pytest.approx(matched.mesh.dof_t[dof], abs=1e-10)


def test_p_eps_commutes_with_scaling(tmesh):
    matched = matched_mesh_1d(tmesh)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(tmesh.n_nodes)
    p1 = p_eps_project(tmesh, matched, 3.0 * u)
    p2 = 3.0 * p_eps_project(tmesh, matched, u)
    assert np.allclose(p1, p2, atol=1e-12)


def test_q_eps_lifts_constants(tmesh):
    matched = matched_mesh_1d(tmesh)
    f = np.ones(matched.mesh.n_dofs)
    u = q_eps_lift(tmesh, matched, f)
    assert np.allclose(u, 1.0, atol=1e-10)


def test_q_then_p_is_identity_at_stations(tmesh):
    matched = matched_mesh_1d(tmesh)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(matched.mesh.n_dofs)
    back = p_eps_project(tmesh, matched, q_eps_lift(tmesh, matched, f))
    stations = np.array(sorted(matched.station_dof_rows))
    assert np.allclose(back[stations], f[stations], atol=1e-12)


def test_q_energy_bound_random_fields(tmesh):
    # Dirichlet energy of the lift is bounded by eps * weighted 1-D energy
    from treespec.connector import analyze_connector
    from treespec.operator_1d import assemble_1d, rho_star_profile, zone_modified_profile

    tree = tmesh.tree
    eps = tmesh.spec2d.eps
    matched = matched_mesh_1d(tmesh)
    _, _, _, consts = analyze_connector(0.6, 0.3, k=2, omega=1.0, N=2,
                                        h=0.06, section_intervals=10)
    rq = zone_modified_profile(tree, rho_star_profile(tree), consts.rho_Q_factor, tmesh.zones)
    sysQ = assemble_1d(tree, matched.mesh, rq, rho_star_profile(tree), None)
    sys2 = assemble_2d(tmesh, None)
    rng = np.random.default_rng(21)
    for _ in range(100):
        f = rng.standard_normal(matched.mesh.n_dofs)
        f[0] = 0.0
        u = q_eps_lift(tmesh, matched, f)[sys2.free]    # zero on the root
        lhs = u @ (sys2.K @ u)
        rhs = eps * (f[sysQ.free] @ (sysQ.K @ f[sysQ.free]))
        assert lhs <= rhs * (1 + 1e-9)


def test_p_energy_bound_random_fields(tmesh):
    from treespec.connector import analyze_connector
    from treespec.operator_1d import assemble_1d, rho_star_profile, zone_modified_profile

    tree = tmesh.tree
    eps = tmesh.spec2d.eps
    matched = matched_mesh_1d(tmesh)
    _, _, _, consts = analyze_connector(0.6, 0.3, k=2, omega=1.0, N=2,
                                        h=0.06, section_intervals=10)
    rp = zone_modified_profile(tree, rho_star_profile(tree), consts.rho_P_factor, tmesh.zones)
    sysP = assemble_1d(tree, matched.mesh, rp, rho_star_profile(tree), None)
    sys2 = assemble_2d(tmesh, None)
    rng = np.random.default_rng(22)
    for _ in range(100):
        v = rng.standard_normal(tmesh.n_nodes)
        v[tmesh.root_nodes] = 0.0
        pv = p_eps_project(tmesh, matched, v)
        lhs = eps * (pv[sysP.free] @ (sysP.K @ pv[sysP.free]))
        rhs = v[sys2.free] @ (sys2.K @ v[sys2.free])
        assert lhs <= rhs * (1 + 1e-9)


# -- diagnostics --------------------------------------------------------------

def connector_tail(tm, u_global):
    """(integral over connectors of u^2) / (eps * Dirichlet energy) from one
    assembly, for a field u that vanishes on the root section."""
    sysd = assemble_2d(tm, None)
    u = u_global[sysd.free]
    m_conn = assemble_2d(connectors_only(tm), None).M
    num = float(u @ (m_conn @ u))
    den = float(u @ (sysd.K @ u))
    if den == 0.0:
        return 0.0
    return num / (tm.spec2d.eps * den)


def test_connector_tail_zero_and_disjoint_fields(tmesh):
    assert connector_tail(tmesh, np.zeros(tmesh.n_nodes)) == 0.0
    # field supported on the generation-0 tube away from its connector end
    u = np.zeros(tmesh.n_nodes)
    comp = tmesh.components[0]
    inside = comp.mesh.nodes[:, 1] < 0.5
    u[comp.gids[0][inside]] = comp.mesh.nodes[inside, 1]
    assert connector_tail(tmesh, u) == 0.0


def test_connector_tail_bounded_over_eps():
    tree = build_tree(BINARY)
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        tm = build_geometry_2d(tree, GeometrySpec2D(eps=eps, c=0.3, h=0.04, n_cross=3))
        sysd = assemble_2d(tm, None)
        spec = smallest_eigenpairs(sysd.K, sysd.M, 1)
        u = np.zeros(tm.n_nodes)
        u[sysd.free] = spec.vectors[:, 0]
        ratios.append(connector_tail(tm, u))
    assert max(ratios) <= 5.0 * min(r for r in ratios if r > 0)
    assert max(ratios) < 10.0


# -- the straightened-tree map of the pentagon example ------------------------

JACOBIAN_J_MAX = 60       # generations of the analytic Jacobian sup
JACOBIAN_GRID = 64        # samples per generation of the sampled Jacobian sup


@dataclasses.dataclass
class JacobianReport:
    radius: float
    p: float
    d_le_p: bool
    sup_derivative: float
    bound: float
    within_bound: bool
    jacobian_positive: bool
    monotonicity_constant: float
    grid_sup: float


def jacobian_assumption_check(r, d, c):
    """Straightened-tree diffeomorphism audit for the pentagon example.

    The generation-j quadrangle maps to a (2^-j) x (p^j) reference box via
    x1 = (2d)^j s, x2 = (r^j theta + c d^j theta - c 2^j d^j s theta) / p^j;
    the derivative bound |dx2/dtheta| <= 1 + c is guaranteed when d <= p.
    """
    radius = 1.0 / (1.0 - r) + c / (1.0 - d)
    p = (radius - 1.0) / radius
    if d > p:
        warnings.warn(f"d = {d} exceeds p = {p:.4f}; the sufficient condition "
                      "for the derivative bound is violated", stacklevel=2)

    js = np.arange(JACOBIAN_J_MAX + 1)
    # dx2/dtheta is affine in s, extremal at s = 0 and s = 2^-j
    at_s0 = (r ** js + c * d ** js) / p ** js
    at_s1 = (r / p) ** js
    sup = float(max(at_s0.max(), at_s1.max()))

    grid_sup = 0.0
    positive = True
    for j in range(13):       # sampled on generations 0..12
        s = np.linspace(0.0, 2.0 ** (-j), JACOBIAN_GRID)
        der = (r ** j + c * d ** j - c * 2 ** j * d ** j * s) / p ** j
        grid_sup = max(grid_sup, float(der.max()))
        positive = positive and bool((der > 0).all())

    return JacobianReport(
        radius=radius, p=p, d_le_p=bool(d <= p),
        sup_derivative=sup, bound=1.0 + c,
        within_bound=bool(sup <= 1.0 + c + 1e-12),
        jacobian_positive=positive,
        monotonicity_constant=1.0,   # J is independent of theta
        grid_sup=grid_sup,
    )


def test_jacobian_check_within_bound():
    rep = jacobian_assumption_check(r=0.5, d=0.6, c=0.3)
    assert rep.d_le_p
    assert rep.within_bound
    assert rep.sup_derivative <= rep.bound + 1e-12
    assert rep.jacobian_positive
    assert rep.monotonicity_constant == 1.0


def test_jacobian_check_c_zero_monomial_bound():
    rep = jacobian_assumption_check(r=0.5, d=0.5, c=0.01)
    # with tiny c the derivative is essentially (r/p)^j <= 1
    assert rep.sup_derivative <= 1.0 + 2 * 0.01


def test_jacobian_grid_matches_analytic_sup():
    rep = jacobian_assumption_check(r=0.5, d=0.6, c=0.3)
    assert rep.grid_sup <= rep.sup_derivative + 1e-12
    assert rep.grid_sup == pytest.approx(rep.sup_derivative, abs=1e-12)


def test_jacobian_warns_when_d_exceeds_p():
    with pytest.warns(UserWarning):
        jacobian_assumption_check(r=0.3, d=0.9, c=0.1)


# -- assembly against a per-component reference loop ---------------------------

def _per_component_assembly(tmesh, W=None, only_kind=None):
    """Reference: one local assembly per copy of every component, scattered
    copy by copy in component order."""
    import scipy.sparse as sp

    n = tmesh.n_nodes
    rows, cols, kv, mv = [], [], [], []
    for comp in tmesh.components:
        if only_kind is not None and comp.kind != only_kind:
            continue
        potential = None if W is None else W(comp.theta[comp.mesh.triangles].mean(axis=1))
        for gids in comp.gids:
            Kl, Ml = stiffness_and_mass(comp.mesh, potential)
            Kl, Ml = Kl.tocoo(), Ml.tocoo()
            rows.append(gids[Kl.row])
            cols.append(gids[Kl.col])
            kv.append(Kl.data)
            mv.append(Ml.data)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return tuple(sp.coo_matrix((np.concatenate(v), (rows, cols)), shape=(n, n)).tocsr()
                 for v in (kv, mv))


@pytest.mark.parametrize("spec, eps, h, n_cross", [
    (TreeSpec(J=2), 0.2, 0.03, 3),
    (TreeSpec(J=2), 0.05, 0.03, 3),
    (TreeSpec(J=3), 0.1, 0.01, 6),
    (TreeSpec(J=4), 0.1, 0.005, 8),
    (TreeSpec(k=1, J=3), 0.1, 0.03, 3),
], ids=["J2-e0.2", "J2-e0.05", "J3-h0.01-n6", "J4-h0.005-n8", "k1-J3"])
def test_grouped_assembly_equals_per_component_loop(spec, eps, h, n_cross):
    tm = build_geometry_2d(build_tree(spec), GeometrySpec2D(
        eps=eps, c=0.3, h=h, n_cross=n_cross))

    for W in (None, np.cos):
        for only_kind in (None, "connector"):
            got = assemble_2d(tm if only_kind is None else connectors_only(tm), W)
            free = np.ix_(got.free, got.free)
            want = [A[free] for A in _per_component_assembly(tm, W=W, only_kind=only_kind)]
            for A, B in zip((got.K, got.M), want):
                assert np.array_equal(A.indptr, B.indptr)
                assert np.array_equal(A.indices, B.indices)
                assert np.array_equal(A.data, B.data)
