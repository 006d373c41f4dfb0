"""Triangulation and P1 finite-element primitives for planar polygons.

Two mesh generators are provided: a tensor-product mesher for axis-aligned
rectangles (used for the inflated edges, where the cross subdivision must
match the connector sections node for node) and a Delaunay mesher for convex
polygons (used for the vertex connectors).  Both return the same
:class:`Mesh2D` structure: nodes, triangles and named section polylines
resolved as mesh edges.  A mesh has no boundary tags: the one Dirichlet set
is ``TreeMesh2D.root_nodes``, which ``assemble_2d`` eliminates.
"""

from dataclasses import dataclass

import numpy as np

SMOOTH_SWEEPS = 4   # Laplacian smoothing passes of the polygon mesher


class MeshError(RuntimeError):
    """Mesh generation failed (degenerate geometry or unresolved feature)."""


@dataclass
class Mesh2D:
    """Conforming triangulation with named section polylines.

    sections maps a label to an ordered array of node indices whose polyline
    lies on the mesh (consecutive nodes are mesh edges).  The boundary (the
    edges in one triangle only) is untagged: ``TreeMesh2D.root_nodes`` is
    the one Dirichlet set.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    sections: dict

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a simple polygon given as an (n, 2) vertex loop."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def point_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Ray-casting point-in-polygon test, vectorized over points."""
    pts = np.atleast_2d(points)
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    inside = np.zeros(len(pts), dtype=bool)
    x, y = pts[:, 0], pts[:, 1]
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xi, np.inf))
    return inside


def _subdivide(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n + 1)[:, None]
    return a[None, :] * (1 - t) + b[None, :] * t


def _signed_area2(p: np.ndarray) -> np.ndarray:
    """Twice the signed areas of triangles given as (n, 3, 2) vertex arrays."""
    return ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def _orient_ccw(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    flip = _signed_area2(nodes[tris]) < 0
    tris = tris.copy()
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def mesh_rectangle(width: float, length: float, n_cross: int, n_axial: int) -> Mesh2D:
    """Structured mesh of [0, width] x [0, length], with no sections.

    The axial direction is y; ``axial_index`` is the (cross, axial) grid of
    node indices and ``axial_positions`` the y of each axial station.
    Cross subdivision is uniform with exactly n_cross intervals so that
    interfaces match connector sections node for node.
    """
    if width <= 0 or length <= 0:
        raise MeshError("rectangle with nonpositive width or length")
    xs = np.linspace(0.0, width, n_cross + 1)
    ys = np.linspace(0.0, length, n_axial + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    idx = np.arange(nodes.shape[0]).reshape(n_cross + 1, n_axial + 1)

    # two triangles per cell, cells in (cross, axial) order
    a, b = idx[:-1, :-1], idx[1:, :-1]
    c, d = idx[1:, 1:], idx[:-1, 1:]
    tris = np.stack([np.stack([a, b, c], axis=-1),
                     np.stack([a, c, d], axis=-1)], axis=2).reshape(-1, 3)
    mesh = Mesh2D(nodes, _orient_ccw(nodes, tris), {})
    mesh.axial_index = idx  # (cross, axial) grid view for station averaging
    mesh.axial_positions = ys
    return mesh


def mesh_polygon(vertices: np.ndarray, h: float, sections: dict,
                 section_intervals: int | None) -> Mesh2D:
    """Delaunay mesh of a convex polygon with sections resolved on the boundary.

    sections maps a label to (edge_index, t0, t1): the sub-segment of boundary
    edge edge_index between relative arclengths t0 and t1.  Each section is
    subdivided into exactly section_intervals uniform pieces (None without
    sections); the remaining boundary is subdivided at pitch h.  The
    interior pitch is retried around h until the 20-degree quality gate passes.
    """
    best = None
    for factor in (1.0, 0.85, 1.2, 0.7, 1.45, 0.55):
        mesh = _mesh_polygon_once(vertices, h * factor, sections,
                                  section_intervals)
        angle = mesh_quality(mesh)[0]
        if angle >= 20.0:
            return mesh
        if best is None or angle > best[0]:
            best = (angle, factor)
    raise MeshError(
        f"mesh quality below tolerance (best min angle {best[0]:.1f} deg < 20 "
        f"at pitch factor {best[1]}); increase h or simplify the polygon")


def _mesh_polygon_once(vertices, h, sections, section_intervals) -> Mesh2D:
    from scipy.spatial import Delaunay

    v = np.asarray(vertices, dtype=float)
    n_poly = len(v)
    if polygon_area(v) <= 0:
        raise MeshError("degenerate polygon")

    # breakpoints per polygon edge: relative positions of section endpoints
    cuts = {i: {0.0, 1.0} for i in range(n_poly)}
    for label, (ei, t0, t1) in sections.items():
        if not (0.0 <= t0 < t1 <= 1.0):
            raise MeshError(f"section {label} has bad range ({t0}, {t1})")
        cuts[ei].update((t0, t1))

    boundary_nodes: list[np.ndarray] = []
    node_key: dict[tuple, int] = {}

    def add_node(p: np.ndarray) -> int:
        key = (round(p[0], 12), round(p[1], 12))
        if key not in node_key:
            node_key[key] = len(boundary_nodes)
            boundary_nodes.append(p)
        return node_key[key]

    edge_chains: dict[int, list[tuple[float, int]]] = {}
    for ei in range(n_poly):
        a, b = v[ei], v[(ei + 1) % n_poly]
        ts = sorted(cuts[ei])
        chain = []
        section_ranges = [(t0, t1) for (e2, t0, t1) in sections.values() if e2 == ei]
        for t0, t1 in zip(ts[:-1], ts[1:]):
            p0 = a + t0 * (b - a)
            p1 = a + t1 * (b - a)
            if any(abs(t0 - s0) < 1e-12 and abs(t1 - s1) < 1e-12
                   for s0, s1 in section_ranges):
                pieces = section_intervals
            else:
                pieces = max(1, int(np.ceil(np.linalg.norm(p1 - p0) / h)))
            pts = _subdivide(p0, p1, pieces)
            for q in pts:
                i_node = add_node(q)
                t_here = np.linalg.norm(q - a) / np.linalg.norm(b - a)
                chain.append((t_here, i_node))
        edge_chains[ei] = sorted(set(chain))

    bnodes = np.array(boundary_nodes)
    n_bnd = len(bnodes)

    # interior lattice with clearance from the boundary
    xmin, ymin = v.min(axis=0)
    xmax, ymax = v.max(axis=0)
    gx = np.arange(xmin + 0.5 * h, xmax, h)
    gy = np.arange(ymin + 0.5 * h * np.sqrt(3) / 2, ymax, h * np.sqrt(3) / 2)
    pts = []
    for row, y in enumerate(gy):
        offset = 0.5 * h if row % 2 else 0.0
        for x in gx:
            pts.append((x + offset, y))
    pts = np.array(pts) if pts else np.zeros((0, 2))
    if len(pts):
        inside = point_in_polygon(pts, v)
        pts = pts[inside]
        if len(pts):
            d2 = ((pts[:, None, :] - bnodes[None, :, :]) ** 2).sum(axis=2)
            pts = pts[np.sqrt(d2.min(axis=1)) > 0.55 * h]

    nodes = np.vstack([bnodes, pts]) if len(pts) else bnodes

    def triangulate(points: np.ndarray) -> np.ndarray:
        tri = Delaunay(points)
        simplices = tri.simplices
        cent = points[simplices].mean(axis=1)
        keep = point_in_polygon(cent, v)
        simplices = simplices[keep]
        areas = 0.5 * np.abs(_signed_area2(points[simplices]))
        return simplices[areas > 1e-14 * polygon_area(v)]

    tris = triangulate(nodes)
    for _ in range(SMOOTH_SWEEPS):
        nodes = _smooth_interior(nodes, tris, n_bnd)
        tris = triangulate(nodes)
    tris = _orient_ccw(nodes, tris)

    section_paths = {}
    for label, (ei, t0, t1) in sections.items():
        chain = edge_chains[ei]
        path = [i for (t, i) in chain if t0 - 1e-9 <= t <= t1 + 1e-9]
        section_paths[label] = np.array(path, dtype=int)
    return Mesh2D(nodes, tris, section_paths)


def _smooth_interior(nodes: np.ndarray, tris: np.ndarray, n_fixed: int) -> np.ndarray:
    n = len(nodes)
    acc = np.zeros_like(nodes)
    cnt = np.zeros(n)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        np.add.at(acc, tris[:, a], nodes[tris[:, b]])
        np.add.at(cnt, tris[:, a], 1.0)
        np.add.at(acc, tris[:, b], nodes[tris[:, a]])
        np.add.at(cnt, tris[:, b], 1.0)
    out = nodes.copy()
    free = np.arange(n) >= n_fixed
    mask = free & (cnt > 0)
    out[mask] = acc[mask] / cnt[mask, None]
    return out


def mesh_quality(mesh: Mesh2D) -> tuple[float, float]:
    """Return (minimum angle in degrees, maximum edge length)."""
    p = mesh.nodes[mesh.triangles]
    min_angle = 180.0
    e = [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]]
    lengths = [np.linalg.norm(x, axis=1) for x in e]
    max_edge = float(max(l.max() for l in lengths))
    for i in range(3):
        u = -e[(i + 2) % 3]
        w = e[i]
        cosang = (u * w).sum(axis=1) / (lengths[(i + 2) % 3] * lengths[i])
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        min_angle = min(min_angle, float(ang.min()))
    return min_angle, max_edge


def stiffness_and_mass(mesh: Mesh2D, potential=None):
    """Assemble P1 stiffness (plus potential term) and consistent mass.

    potential, when given, holds one value of W per triangle, constant on
    it; the term integral(W u v) is added to the stiffness matrix.
    Returns (K, M) as CSR matrices over all nodes (no boundary elimination),
    sharing one sparsity pattern.
    """
    return scatter_pencil(mesh.n_nodes, [_triangle_block(mesh, potential)], ())[:2]


def _triangle_block(mesh: Mesh2D, potential):
    """Scatter block of the P1 element matrices: one copy per triangle,
    entries (i, j) row-major, values per triangle."""
    nodes, tris = mesh.nodes, mesh.triangles
    p = nodes[tris]
    x, y = p[..., 0], p[..., 1]
    bmat = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cmat = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = bmat[:, 0] * cmat[:, 1] - bmat[:, 1] * cmat[:, 0]
    area = 0.5 * area2
    if np.any(area <= 0):
        raise MeshError("negatively oriented or degenerate triangle in assembly")

    Kloc = (bmat[:, :, None] * bmat[:, None, :] + cmat[:, :, None] * cmat[:, None, :])
    Kloc = Kloc / (4.0 * area)[:, None, None]
    mass_pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Mloc = area[:, None, None] * mass_pattern[None, :, :]
    if potential is not None:
        Kloc = Kloc + (np.asarray(potential, float) * area)[:, None, None] * mass_pattern

    local = np.arange(3)
    return (tris, np.repeat(local, 3), np.tile(local, 3),
            Kloc.reshape(len(tris), 9), Mloc.reshape(len(tris), 9))


def scatter_pencil(n: int, blocks, fixed) -> tuple:
    """Sum local matrix entries into the CSR pair (K, M) over the dofs not in
    ``fixed``; return (K, M, free), ``free`` listing the kept dofs in order.

    Each block is ``(gids, rows, cols, k_vals, m_vals)``: ``gids`` is a
    ``(copies, n_loc)`` array mapping local to global indices, ``rows`` and
    ``cols`` are local indices of the entries, and the values are either
    shared by all copies (shape ``(n_entries,)``) or given per copy (shape
    ``(copies, n_entries)``).  Entries are laid out copy by copy in block
    order, which fixes the order in which duplicates are summed.  No blocks
    give the all-zero pencil.

    K and M come out of one COO to CSR conversion of K + iM over all n dofs,
    so they share one pattern, and scipy sums the real and the imaginary
    parts of duplicates in the order it would sum each real matrix alone.
    The fixed rows and columns are dropped from the converted arrays, not
    from the entries before the conversion: scipy's sort of a row is not
    stable, so the order in which it sums duplicates depends on the other
    columns of the row.
    """
    import scipy.sparse as sp

    keep = np.ones(n, dtype=bool)
    keep[np.asarray(fixed, dtype=int)] = False
    free = np.flatnonzero(keep)
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    vals = [np.zeros(0, dtype=complex)]
    for gids, lrows, lcols, k_vals, m_vals in blocks:
        rows.append(gids[:, lrows].ravel())
        cols.append(gids[:, lcols].ravel())
        v = np.empty((len(gids), len(lrows)), dtype=complex)
        v.real, v.imag = k_vals, m_vals
        vals.append(v.ravel())
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    indptr, indices, data = A.indptr, A.indices, A.data
    if len(free) < n:
        on = np.repeat(keep, np.diff(indptr)) & keep[indices]
        before = np.concatenate([[0], np.cumsum(on)])   # kept entries ahead of each
        indptr = np.append(before[indptr[free]], before[-1]).astype(indptr.dtype)
        indices = (np.cumsum(keep) - 1)[indices[on]].astype(indices.dtype)
        data = data[on]
    shape = (len(free), len(free))
    K = sp.csr_matrix((data.real.copy(), indices, indptr), shape=shape)
    M = sp.csr_matrix((data.imag.copy(), indices.copy(), indptr.copy()), shape=shape)
    return K, M, free


def section_average_weights(mesh: Mesh2D, path: np.ndarray) -> np.ndarray:
    """Nodal weight vector w with w . u = average of a P1 field u along path.

    Exact for P1 fields (trapezoid rule on mesh edges).
    """
    pts = mesh.nodes[path]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    w = np.zeros(mesh.n_nodes)
    np.add.at(w, path[:-1], 0.5 * seg)
    np.add.at(w, path[1:], 0.5 * seg)
    total = seg.sum()
    if total <= 0:
        raise MeshError("zero-length section polyline")
    return w / total
