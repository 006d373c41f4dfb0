"""2-D inflated tree: geometry, meshing, Laplace/Schrodinger assembly, P/Q maps.

The inflated tree is built chart-wise: every edge is an axis-aligned rectangle
of width eps * d**gen, every branching vertex a scaled copy of the canonical
connector (a pentagon for k = 2, a trapezoid for k = 1), and components are
glued along their sections by index identification (both sides subdivide a
section into the same number of uniform intervals).  Planar self-intersection
of the charts is irrelevant: the assembled operator lives on the abstract
manifold.

The 1-D mesh matched to a geometry has its edge nodes exactly at the rectangle
axial stations and its vertex zones exactly on the connector skeletons, which
makes the averaging map P_eps and the lifting map Q_eps nodal-exact
(P is a cross-row trapezoid at stations, Q a constant extension plus harmonic
interpolation on connectors).
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .connector import (
    affine_partition,
    canonical_connector,
    harmonic_partition_2d,
    mesh_connector,
    read_only,
)
from .mesh2d import (
    Mesh2D,
    MeshError,
    mesh_rectangle,
    scatter_pencil,
    stiffness_and_mass,
)
from .operator_1d import AssembledSystem, Mesh1D, VertexZones
from .tree_model import Tree

ASPECT_CAP = 2.5          # axial over cross spacing in the tube meshes
MIN_FEATURE = 1e-6
_CANONICAL_CACHE_SIZE = 8  # canonical connector keys kept per process


class Geometry2DError(ValueError):
    """Inconsistent inflated-tree geometry request."""


@dataclass(frozen=True)
class GeometrySpec2D:
    """Parameters of the inflated tree (k in {1, 2}, N = 2)."""

    eps: float
    c: float
    h: float
    n_cross: int

    def zones(self, tree: Tree) -> VertexZones:
        """The connector skeletons: canonical arm lengths times |Omega|."""
        arms = canonical_connector(tree.spec.delta, self.c, tree.k,
                                   omega=1.0).arm_lengths * tree.spec.omega
        return VertexZones(self.eps, parent_arm=float(arms[0]), child_arm=float(arms[1]))

    def validate(self, tree: Tree) -> VertexZones:
        """Check that this geometry can be built on ``tree`` and return its
        zones; every rule of the 2-D geometry is here.  The arithmetic rules
        come first; the last one meshes the canonical connector, which the
        build then reuses from its cache."""
        if tree.spec.k not in (1, 2) or tree.spec.N != 2:
            raise Geometry2DError("2-D geometry supports k in {1, 2} and N = 2")
        if not 0 < self.eps < 1:
            raise Geometry2DError(f"eps must be in (0, 1), got {self.eps}")
        if self.n_cross < 2:
            raise Geometry2DError("need at least 2 cross intervals")
        zones = self.zones(tree)
        if zones.widths(tree)[-1] < MIN_FEATURE:
            raise Geometry2DError("deepest tube width below minimum feature size; "
                                  "reduce J or increase eps")
        start, end = zones.cuts(tree)     # the edge rectangles run in between
        short = end - start <= max(self.h * 0.1, MIN_FEATURE)
        if short.any():
            j = int(short.argmax())
            raise Geometry2DError(
                f"connector cuts consume the generation-{j} edge "
                f"(remaining {end[j] - start[j]:.3g}); reduce eps or c")
        try:
            _canonical_connector_mesh(tree.spec.delta, self.c, tree.k, self.n_cross)
        except MeshError as err:
            raise Geometry2DError(
                f"the connector at tree.delta = {tree.spec.delta}, geometry.c = {self.c}, "
                f"geometry.n_cross = {self.n_cross} has no mesh with every angle at least "
                f"20 deg; change one of these keys") from err
        return zones


@dataclass
class Component2D:
    """The k**j congruent copies of one kind and generation, sharing a local
    mesh and its radial coordinates; copy i is edge (j, i), or the vertex
    closing it."""

    kind: str                 # "edge" or "connector"
    j: int                    # generation of the edges, or of the edges closed
    mesh: Mesh2D
    gids: np.ndarray          # (k**j, n_loc) global dof of each copy's local nodes
    theta: np.ndarray         # (n_loc,) radial coordinate per local node


@dataclass
class TreeMesh2D:
    """Glued chart-wise mesh of the inflated tree with P/Q bookkeeping.

    ``components`` holds the edge blocks of generations 0..J, then the
    connector blocks of generations 0..J-1.  ``stations[j]`` is the pair
    (theta (n_st,), rows (k**j, n_st, n_cross+1)): the radial coordinate of
    each axial station of the generation-j tubes, and its global node row on
    every copy.  ``root_nodes``, the root section, is the one Dirichlet set:
    ``assemble_2d`` eliminates it, and the rest of the boundary is Neumann.
    """

    tree: Tree
    spec2d: GeometrySpec2D
    components: list
    n_nodes: int
    root_nodes: np.ndarray
    conn_phi: np.ndarray                  # canonical harmonic partition
    stations: list
    zones: VertexZones                    # the connector skeletons on the 1-D tree

    def cross_average_weights(self) -> np.ndarray:
        n = self.spec2d.n_cross
        w = np.ones(n + 1)
        w[0] = w[-1] = 0.5
        return w / n


@lru_cache(maxsize=_CANONICAL_CACHE_SIZE)
def _canonical_connector_mesh(delta: float, c: float, k: int, n_cross: int):
    """(canonical connector, its mesh, its harmonic partition), computed once
    per key and shared read-only by every geometry built on that key."""
    canonical = canonical_connector(delta, c=c, k=k, omega=1.0)
    conn_mesh = mesh_connector(canonical, h=max(0.08, 0.5 / n_cross),
                               section_intervals=n_cross)
    K = stiffness_and_mass(conn_mesh)[0]
    return read_only(canonical, conn_mesh,
                     harmonic_partition_2d(conn_mesh, K))


def build_geometry_2d(tree: Tree, spec2d: GeometrySpec2D) -> TreeMesh2D:
    """Mesh the inflated tree and set up all interface identifications.

    ``conn_phi`` and the triangles and sections of the connector meshes are
    the canonical connector mesh's arrays, shared read-only with every other
    geometry of the same (delta, c, k, n_cross)."""
    zones = spec2d.validate(tree)
    h, n_cross, k = spec2d.h, spec2d.n_cross, tree.k

    canonical, conn_mesh, phi = _canonical_connector_mesh(
        tree.spec.delta, spec2d.c, k, n_cross)
    widths = zones.widths(tree)
    starts, ends = zones.cuts(tree)

    # one local rectangle mesh per generation, shared by all its edges
    rect_meshes = []
    for j, w in enumerate(widths):
        axial_len = ends[j] - starts[j]
        spacing = min(h, ASPECT_CAP * w / n_cross)
        n_axial = max(2, int(np.ceil(axial_len / spacing)))
        rect_meshes.append(mesh_rectangle(w, axial_len, n_cross, n_axial))

    # all edges, generation-major, then all vertices: every copy numbers its
    # own nodes consecutively, so a block of copies takes one arange
    counter = 0

    def fresh(copies, n):
        nonlocal counter
        out = np.arange(counter, counter + copies * n).reshape(copies, n)
        counter += copies * n
        return out

    components, stations = [], []
    for j, mesh in enumerate(rect_meshes):
        gids = fresh(k ** j, mesh.n_nodes)
        t0 = tree.t_shell[j] + starts[j]
        components.append(Component2D("edge", j, mesh, gids, t0 + mesh.nodes[:, 1]))
        stations.append((t0 + mesh.axial_positions, gids[:, mesh.axial_index.T]))

    for j in range(tree.J):
        local = conn_mesh.nodes * widths[j]
        mesh = Mesh2D(local, conn_mesh.triangles, conn_mesh.sections)
        gids = np.full((k ** j, conn_mesh.n_nodes), -1, dtype=int)
        # identify sections with the adjacent tube end rows
        gids[:, conn_mesh.sections["S0"]] = stations[j][1][:, -1]
        child_rows = stations[j + 1][1][:, 0].reshape(k ** j, k, -1)
        for pos in range(k):
            gids[:, conn_mesh.sections[f"S{pos + 1}"]] = child_rows[:, pos]
        interior = gids[0] < 0
        gids[:, interior] = fresh(k ** j, int(interior.sum()))
        theta = tree.t_shell[j + 1] + (local[:, 1] - canonical.center[1] * widths[j])
        components.append(Component2D("connector", j, mesh, gids, theta))

    root_nodes = stations[0][1][0, 0].copy()
    return TreeMesh2D(tree=tree, spec2d=spec2d, components=components,
                      n_nodes=counter, root_nodes=root_nodes, conn_phi=phi,
                      stations=stations, zones=zones)


def assemble_2d(tmesh: TreeMesh2D, W) -> AssembledSystem:
    """Global stiffness/mass pencil with the root section eliminated.

    W, when not None, is the radial potential W(theta), evaluated once per
    triangle at the theta of its centroid, the mean of its nodal thetas.

    The copies of a component share their local mesh and radial coordinates,
    so the local pair is assembled once per component and scattered to every
    copy, in component order.  The local pairs of all components come out of
    one ``stiffness_and_mass`` call on the disjoint union of their meshes:
    each row of the union holds the entries of one component only, so it
    sums them as the component's own assembly would.
    """
    comps = tmesh.components
    starts = np.cumsum([0] + [c.mesh.n_nodes for c in comps])
    union = Mesh2D(np.concatenate([c.mesh.nodes for c in comps]),
                   np.concatenate([c.mesh.triangles + a for c, a in zip(comps, starts)]), {})
    potential = None if W is None else W(np.concatenate(
        [c.theta[c.mesh.triangles].mean(axis=1) for c in comps]))
    Kl, Ml = stiffness_and_mass(union, potential)
    blocks = []
    for comp, a, b in zip(comps, starts[:-1], starts[1:]):
        # the component's rows a..b-1; K and M share one pattern
        ptr = Kl.indptr[a:b + 1]
        rows = np.repeat(np.arange(b - a), np.diff(ptr))
        entries = slice(ptr[0], ptr[-1])
        blocks.append((comp.gids, rows, Kl.indices[entries] - a,
                       Kl.data[entries], Ml.data[entries]))
    K, M, free = scatter_pencil(tmesh.n_nodes, blocks, tmesh.root_nodes)
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
    def P(self) -> "scipy.sparse.csr_matrix":
        """Averaging map: the trapezoid average of each station row, and the
        affine-partition interpolation of the k+1 section averages at the
        vertex center and at the arm midpoints."""
        import scipy.sparse as sp

        tmesh, k, n_dofs = self.tmesh, self.mesh.tree.k, self.mesh.n_dofs
        st_dof, st_node = self._station_pairs()
        P_st = sp.csr_matrix(
            (np.tile(tmesh.cross_average_weights(), len(self.station_dofs)),
             (st_dof, st_node)), shape=(n_dofs, tmesh.n_nodes))
        own, foreign = affine_partition(k, 0.5)
        coef = np.vstack([np.full(k + 1, affine_partition(k, 0.0)[0]),
                          foreign + (own - foreign) * np.eye(k + 1)])
        interp = sp.csr_matrix(
            (np.tile(coef.ravel(), len(self.section_dofs)),
             (np.repeat(self.zone_dofs, k + 1),
              np.repeat(self.section_dofs, k + 2, axis=0).ravel())),
            shape=(n_dofs, n_dofs))
        return (P_st + interp @ P_st).tocsr()

    @cached_property
    def Q(self) -> "scipy.sparse.csr_matrix":
        """Lifting map: station rows extend constantly; connector nodes, the
        shared section nodes included, take the harmonic interpolation of
        the section values."""
        import scipy.sparse as sp

        tmesh, k = self.tmesh, self.mesh.tree.k
        st_dof, st_node = self._station_pairs()
        phi, n_v = tmesh.conn_phi, len(self.section_dofs)
        conn_gids = np.concatenate([np.empty((0, len(phi)), dtype=int)] + [
            c.gids for c in tmesh.components if c.kind == "connector"])
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
        thetas, _ = tmesh.stations[j]
        local = list(thetas - tree.t_shell[j])
        if j >= 1:
            a = local[0]
            local = [0.0, 0.5 * a] + local
        if j < J:
            L = tree.edge_lengths[j]
            b = local[-1]
            local = local + [0.5 * (b + L), L]
        gen_local.append(np.array(local))
    mesh = Mesh1D.from_layouts(tree, gen_local)
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
            [rows.reshape(-1, rows.shape[-1]) for _, rows in tmesh.stations]),
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

