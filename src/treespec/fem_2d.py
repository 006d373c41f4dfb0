"""2-D inflated tree: geometry, meshing, Laplace/Schrodinger assembly, P/Q maps.

The inflated tree is built chart-wise: every edge is an axis-aligned rectangle
of width eps * d**gen, every branching vertex a scaled copy of the canonical
pentagon connector, and components are glued along their sections by index
identification (both sides subdivide a section into the same number of uniform
intervals).  Planar self-intersection of the charts is irrelevant: the
assembled operator lives on the abstract manifold.

The 1-D mesh matched to a geometry has its edge nodes exactly at the rectangle
axial stations and its vertex zones exactly on the connector skeletons, which
makes the averaging map P_eps and the lifting map Q_eps nodal-exact
(P is a cross-row trapezoid at stations, Q a constant extension plus harmonic
interpolation on connectors).
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .connector import (
    ConnectorDomain2D,
    affine_partition,
    canonical_connector,
    harmonic_partition_2d,
    mesh_connector,
)
from .mesh2d import (
    Mesh2D,
    eliminate_dirichlet,
    mesh_rectangle,
    polygon_area,
    scatter_pencil,
    stiffness_and_mass,
)
from .operator_1d import AssembledSystem, Mesh1D, VertexZones, build_mesh_1d
from .tree_model import EdgeId, Tree

ASPECT_CAP = 2.5          # axial over cross spacing in the tube meshes
MIN_FEATURE = 1e-6


class Geometry2DError(ValueError):
    """Inconsistent inflated-tree geometry request."""


@dataclass(frozen=True)
class GeometrySpec2D:
    """Parameters of the inflated binary tree (k = 2, N = 2 only)."""

    eps: float
    c: float = 0.3
    h: float = 0.05
    n_cross: int = 3

    def validate(self, tree: Tree) -> None:
        if tree.spec.k not in (1, 2) or tree.spec.N != 2:
            raise Geometry2DError("2-D geometry supports k in {1, 2} and N = 2")
        if not 0 < self.eps < 1:
            raise Geometry2DError(f"eps must be in (0, 1), got {self.eps}")
        if self.n_cross < 2:
            raise Geometry2DError("need at least 2 cross intervals")
        if self.eps * tree.spec.delta ** tree.J * tree.spec.omega < MIN_FEATURE:
            raise Geometry2DError("deepest tube width below minimum feature size; "
                                  "reduce J or increase eps")


@dataclass
class Component2D:
    kind: str                 # "edge" or "connector"
    key: EdgeId               # the edge, or the edge closed by the vertex
    mesh: Mesh2D
    gids: np.ndarray          # local node index -> global dof
    theta: np.ndarray         # radial coordinate per local node


@dataclass
class TreeMesh2D:
    """Glued chart-wise mesh of the inflated tree with P/Q bookkeeping."""

    tree: Tree
    spec2d: GeometrySpec2D
    components: list
    n_nodes: int
    root_nodes: np.ndarray
    canonical: ConnectorDomain2D
    conn_phi: np.ndarray                  # canonical harmonic partition
    conn_mesh_canonical: Mesh2D
    edge_stations: dict                   # EdgeId -> (theta array, rows [n_st, n_cross+1])
    cut_parent: np.ndarray                # per generation, axial length cut at edge end
    cut_child: np.ndarray                 # per generation j: cut at start of gen j+1 edges

    def zones(self) -> VertexZones:
        om = self.tree.spec.omega
        return VertexZones(self.spec2d.eps,
                           parent_arm=float(self.canonical.arm_lengths[0]) * om,
                           child_arm=float(self.canonical.arm_lengths[1]) * om)

    def cross_average_weights(self) -> np.ndarray:
        n = self.spec2d.n_cross
        w = np.ones(n + 1)
        w[0] = w[-1] = 0.5
        return w / n

    def total_area(self) -> float:
        return float(sum(c.mesh.area() for c in self.components))

    def connector_triangle_mass(self) -> sp.csr_matrix:
        """Global mass matrix restricted to the connector components."""
        return _scatter_assembly(self, only_kind="connector")[1]


def build_geometry_2d(tree: Tree, spec2d: GeometrySpec2D) -> TreeMesh2D:
    """Mesh the inflated tree and set up all interface identifications."""
    spec2d.validate(tree)
    eps, c, h, n_cross = spec2d.eps, spec2d.c, spec2d.h, spec2d.n_cross
    d = tree.spec.delta
    om = tree.spec.omega
    k = tree.k

    canonical = canonical_connector(d, c=c, k=k, omega=1.0)
    conn_mesh = mesh_connector(canonical, h=max(0.08, 0.5 / n_cross),
                               section_intervals=n_cross)
    phi = harmonic_partition_2d(canonical, conn_mesh)

    scale = np.array([eps * d ** j * om for j in range(tree.J + 1)])
    cut_parent = canonical.arm_lengths[0] * scale       # at end of gen-j edges
    cut_child = canonical.arm_lengths[1] * scale        # at start of gen-(j+1) edges

    # axial extents of the edge rectangles
    starts = np.zeros(tree.J + 1)
    ends = np.array([tree.edge_length(j) for j in range(tree.J + 1)])
    for j in range(tree.J + 1):
        if j >= 1:
            starts[j] = cut_child[j - 1]
        if j < tree.J:
            ends[j] -= cut_parent[j]
        if ends[j] - starts[j] <= max(h * 0.1, MIN_FEATURE):
            raise Geometry2DError(
                f"connector cuts consume the generation-{j} edge "
                f"(remaining {ends[j] - starts[j]:.3g}); reduce eps or c")

    # one local rectangle mesh per generation, shared by all its edges
    rect_meshes = []
    for j in range(tree.J + 1):
        w = eps * d ** j * om
        axial_len = ends[j] - starts[j]
        spacing = min(h, ASPECT_CAP * w / n_cross)
        n_axial = max(2, int(np.ceil(axial_len / spacing)))
        rect_meshes.append(
            mesh_rectangle(w, axial_len, n_cross, n_axial,
                           dirichlet_bottom=(j == 0)))

    components = []
    counter = 0
    edge_stations = {}

    def fresh(n):
        nonlocal counter
        out = np.arange(counter, counter + n)
        counter += n
        return out

    for e in tree.edges():
        mesh = rect_meshes[e.j]
        gids = fresh(mesh.n_nodes)
        theta = tree.t_shell[e.j] + starts[e.j] + mesh.nodes[:, 1]
        comp = Component2D("edge", e, mesh, gids, theta)
        components.append(comp)
        rows = gids[mesh.axial_index.T]     # (n_axial+1, n_cross+1)
        edge_stations[e] = (
            tree.t_shell[e.j] + starts[e.j] + mesh.axial_positions, rows)

    for e in tree.interior_vertices():
        j = e.j
        local = conn_mesh.nodes * scale[j]
        mesh = Mesh2D(local, conn_mesh.triangles, conn_mesh.boundary_edges,
                      conn_mesh.boundary_tags, conn_mesh.sections)
        gids = np.full(conn_mesh.n_nodes, -1, dtype=int)
        # identify sections with the adjacent tube end rows
        gids[conn_mesh.sections["S0"]] = edge_stations[e][1][-1]
        for pos in range(k):
            gids[conn_mesh.sections[f"S{pos + 1}"]] = \
                edge_stations[e.child(k, pos)][1][0]
        interior = gids < 0
        gids[interior] = fresh(int(interior.sum()))
        theta = tree.t_shell[j + 1] + (local[:, 1] - canonical.center[1] * scale[j])
        components.append(Component2D("connector", e, mesh, gids, theta))

    root_nodes = edge_stations[EdgeId(0, 0)][1][0].copy()
    return TreeMesh2D(tree=tree, spec2d=spec2d, components=components,
                      n_nodes=counter, root_nodes=root_nodes,
                      canonical=canonical, conn_phi=phi,
                      conn_mesh_canonical=conn_mesh,
                      edge_stations=edge_stations,
                      cut_parent=cut_parent, cut_child=cut_child)


def _scatter_assembly(tmesh: TreeMesh2D, W=None, only_kind: str | None = None):
    """Assemble global (K, M) by scattering local matrices.

    The components of one kind and generation share their local mesh and
    radial coordinates, so the local pair is assembled once per group and
    scattered to every copy, in component order.
    """
    groups = {}
    for comp in tmesh.components:
        if only_kind is None or comp.kind == only_kind:
            groups.setdefault((comp.kind, comp.key.j), []).append(comp)
    blocks = []
    for comps in groups.values():
        comp = comps[0]
        if W is None:
            potential = None
        else:
            # the assembler samples the potential at triangle centroids; the
            # radial coordinate there is the nodal theta averaged per triangle
            def potential(x, y, comp=comp):
                tri_theta = comp.theta[comp.mesh.triangles].mean(axis=1)
                return np.asarray(W(tri_theta, x))

        Kl, Ml = stiffness_and_mass(comp.mesh, potential=potential)
        Kl, Ml = Kl.tocoo(), Ml.tocoo()
        blocks.append((np.stack([c.gids for c in comps]), Kl.row, Kl.col,
                       Kl.data, Ml.data))
    return scatter_pencil(tmesh.n_nodes, blocks)


def assemble_2d(tmesh: TreeMesh2D, W=None) -> AssembledSystem:
    """Global stiffness/mass pencil with the root section eliminated.

    W, when given, is a callable W(theta, s) evaluated per triangle (radial
    potentials depend on theta only; s is the local cross coordinate).
    """
    K, M, free = eliminate_dirichlet(*_scatter_assembly(tmesh, W=W),
                                     tmesh.root_nodes)
    return AssembledSystem(K=K, M=M, free=free, n_full=tmesh.n_nodes)


# ---------------------------------------------------------------------------
# Matched 1-D mesh, P and Q maps
# ---------------------------------------------------------------------------

@dataclass
class Matched1D:
    """1-D mesh tied to a 2-D geometry: stations plus vertex-zone nodes, with
    the averaging map P (1-D dofs x 2-D nodes) and the lifting map Q (2-D
    nodes x 1-D dofs), each assembled on first use.  ``section_dofs`` holds,
    per vertex of ``tree.interior_vertices()``, the station dof at its parent
    section and at each child section; ``zone_dofs`` the vertex dof, the
    parent-arm midpoint and each child-arm midpoint."""

    mesh: Mesh1D
    tmesh: TreeMesh2D = field(repr=False)
    station_dofs: np.ndarray    # (n_st,) 1-D dof of each axial station
    station_rows: np.ndarray    # (n_st, n_cross+1) its global 2-D node row
    section_dofs: np.ndarray    # (n_vertices, k+1)
    zone_dofs: np.ndarray       # (n_vertices, k+2)

    @property
    def station_dof_rows(self) -> dict:
        """1-D station dof -> global 2-D node row."""
        return dict(zip(self.station_dofs.tolist(), self.station_rows))

    @property
    def p_parent_dof(self) -> dict:
        """Vertex EdgeId -> dof at the parent section."""
        return dict(zip(self.mesh.tree.interior_vertices(),
                        self.section_dofs[:, 0].tolist()))

    @property
    def p_child_dofs(self) -> dict:
        """Vertex EdgeId -> [dof at each child section]."""
        return dict(zip(self.mesh.tree.interior_vertices(),
                        self.section_dofs[:, 1:].tolist()))

    def _station_pairs(self):
        """(1-D dof, 2-D node) of every station node, row by row."""
        n_loc = self.station_rows.shape[1]
        return np.repeat(self.station_dofs, n_loc), self.station_rows.ravel()

    @cached_property
    def P(self) -> sp.csr_matrix:
        """Averaging map: the trapezoid average of each station row, and the
        affine-partition interpolation of the k+1 section averages at the
        vertex center and at the arm midpoints."""
        tmesh, k, n_dofs = self.tmesh, self.mesh.tree.k, self.mesh.n_dofs
        st_dof, st_node = self._station_pairs()
        P_st = sp.csr_matrix(
            (np.tile(tmesh.cross_average_weights(), len(self.station_dofs)),
             (st_dof, st_node)), shape=(n_dofs, tmesh.n_nodes))
        own, foreign = affine_partition(k, 0.5)
        coef = np.vstack([np.full(k + 1, 1.0 / (k + 1)),
                          foreign + (own - foreign) * np.eye(k + 1)])
        interp = sp.csr_matrix(
            (np.tile(coef.ravel(), len(self.section_dofs)),
             (np.repeat(self.zone_dofs, k + 1),
              np.repeat(self.section_dofs, k + 2, axis=0).ravel())),
            shape=(n_dofs, n_dofs))
        return (P_st + interp @ P_st).tocsr()

    @cached_property
    def Q(self) -> sp.csr_matrix:
        """Lifting map: station rows extend constantly; connector nodes, the
        shared section nodes included, take the harmonic interpolation of
        the section values."""
        tmesh, k = self.tmesh, self.mesh.tree.k
        st_dof, st_node = self._station_pairs()
        phi, n_v = tmesh.conn_phi, len(self.section_dofs)
        conn_gids = np.array([c.gids for c in tmesh.components
                              if c.kind == "connector"],
                             dtype=int).reshape(n_v, len(phi))
        in_connector = np.zeros(tmesh.n_nodes, dtype=bool)
        in_connector[conn_gids] = True
        keep = ~in_connector[st_node]
        return sp.csr_matrix(
            (np.concatenate([np.ones(keep.sum()), np.tile(phi.ravel(), n_v)]),
             (np.concatenate([st_node[keep], np.repeat(conn_gids, k + 1)]),
              np.concatenate([st_dof[keep], np.repeat(
                  self.section_dofs, len(phi), axis=0).ravel()]))),
            shape=(tmesh.n_nodes, self.mesh.n_dofs))


def matched_mesh_1d(tmesh: TreeMesh2D) -> Matched1D:
    """Build the Mesh1D whose nodes are the 2-D axial stations plus, per
    vertex, one midpoint node on every skeleton arm and the vertex itself;
    P_eps and Q_eps are assembled on it when first read."""
    tree = tmesh.tree
    k, J = tree.k, tree.J
    gen_local = []
    for j in range(J + 1):
        thetas, _ = tmesh.edge_stations[EdgeId(j, 0)]
        local = list(thetas - tree.t_shell[j])
        if j >= 1:
            a = local[0]
            local = [0.0, 0.5 * a] + local
        if j < J:
            L = tree.edge_length(j)
            b = local[-1]
            local = local + [0.5 * (b + L), L]
        gen_local.append(np.array(local))
    mesh = build_mesh_1d(tree, h=np.inf, gen_local=gen_local)
    gd = mesh.gen_dofs

    def per_vertex(own_cols, child_col):
        """Per vertex: the closed edge's dofs at own_cols, then each child's
        dof at child_col."""
        return np.concatenate([np.empty((0, len(own_cols) + k), dtype=int)] + [
            np.hstack([gd[j][:, own_cols], gd[j + 1][:, child_col].reshape(-1, k)])
            for j in range(J)])

    # a closed edge ends in (parent section, parent-arm mid, vertex); a
    # child edge starts with (vertex, arm mid, section)
    return Matched1D(
        mesh=mesh, tmesh=tmesh,
        station_dofs=np.concatenate([
            d[:, (2 if j >= 1 else 0):(-2 if j < J else None)].ravel()
            for j, d in enumerate(gd)]),
        station_rows=np.concatenate(
            [rows for _, rows in tmesh.edge_stations.values()]),
        section_dofs=per_vertex([-3], 2),
        zone_dofs=per_vertex([-1, -2], 1))


def p_eps_project(tmesh: TreeMesh2D, matched: Matched1D,
                  u_global: np.ndarray) -> np.ndarray:
    """Cross-section averaging map: 2-D nodal field to 1-D dof values.

    Station dofs take the transverse trapezoid average of their node row;
    vertex-zone dofs take the affine-partition interpolation of the k+1
    section averages.
    """
    return matched.P @ u_global


def q_eps_lift(tmesh: TreeMesh2D, matched: Matched1D,
               f_dofs: np.ndarray) -> np.ndarray:
    """Constant cross-section extension of a 1-D function, harmonically
    interpolated across the connectors."""
    return matched.Q @ f_dofs


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def connector_tail_check(tmesh: TreeMesh2D, u_global: np.ndarray) -> float:
    """(integral over connectors of u^2) / (eps * Dirichlet energy)."""
    K, _ = _scatter_assembly(tmesh)
    Mv = tmesh.connector_triangle_mass()
    num = float(u_global @ (Mv @ u_global))
    den = float(u_global @ (K @ u_global))
    if den == 0.0:
        return 0.0
    return num / (tmesh.spec2d.eps * den)


@dataclass
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


def jacobian_assumption_check(r: float, d: float, c: float,
                              j_max: int = 60, grid: int = 64) -> JacobianReport:
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

    js = np.arange(j_max + 1)
    # dx2/dtheta is affine in s, extremal at s = 0 and s = 2^-j
    at_s0 = (r ** js + c * d ** js) / p ** js
    at_s1 = (r / p) ** js
    sup = float(max(at_s0.max(), at_s1.max()))

    grid_sup = 0.0
    positive = True
    for j in range(min(j_max, 12) + 1):
        s = np.linspace(0.0, 2.0 ** (-j), grid)
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


def closed_form_component_areas(tree: Tree, spec2d: GeometrySpec2D) -> float:
    """Shoelace-based oracle for the total area of the inflated tree."""
    d, om, eps = tree.spec.delta, tree.spec.omega, spec2d.eps
    canonical = canonical_connector(d, c=spec2d.c, k=tree.k, omega=1.0)
    pent_area = polygon_area(canonical.vertices)
    total = 0.0
    for j in range(tree.J + 1):
        start = canonical.arm_lengths[1] * eps * d ** (j - 1) * om if j >= 1 else 0.0
        end = tree.edge_length(j)
        if j < tree.J:
            end -= canonical.arm_lengths[0] * eps * d ** j * om
        total += tree.k ** j * (eps * d ** j * om) * (end - start)
    for j in range(tree.J):
        total += tree.k ** j * pent_area * (eps * d ** j * om) ** 2
    return total
