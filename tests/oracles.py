"""Reference computations that more than one test file checks the library
against.  They are kept out of ``src`` because no subcommand runs them."""

import numpy as np

from treespec.operator_1d import _require_mesh_tree


def mesh_area(mesh) -> float:
    """Total area of a triangulation, summed over its triangles."""
    p = mesh.nodes[mesh.triangles]
    twice = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    return float((0.5 * np.abs(twice)).sum())


def one_triangle_edges(triangles) -> set:
    """The boundary of a triangulation: the edges, as (smaller, larger) node
    pairs, that lie in exactly one triangle, counted triangle by triangle."""
    count = {}
    for tri in np.asarray(triangles).tolist():
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edge = (min(a, b), max(a, b))
            count[edge] = count.get(edge, 0) + 1
    return {edge for edge, n in count.items() if n == 1}


def kirchhoff_residuals(tree, mesh, rho_alpha, u_full) -> np.ndarray:
    """|sum_e rho_a * du/ds outward| at every branching vertex, generation-major."""
    _require_mesh_tree(tree, mesh)
    k = tree.k
    res = []
    for j in range(tree.J):
        local, clocal = mesh.gen_local[j], mesh.gen_local[j + 1]
        dofs = mesh.gen_dofs[j]
        cdofs = mesh.gen_dofs[j + 1].reshape(len(dofs), k, -1)
        h_in = local[-1] - local[-2]
        a_in = float(rho_alpha(tree.t_shell[j] + local[-1] - 0.5 * h_in))
        h_out = clocal[1] - clocal[0]
        a_out = float(rho_alpha(tree.t_shell[j + 1] + 0.5 * h_out))
        u_v = u_full[dofs[:, -1]]
        total = a_in * (u_full[dofs[:, -2]] - u_v) / h_in
        for pos in range(k):
            total += a_out * (u_full[cdofs[:, pos, 1]] - u_v) / h_out
        res.append(np.abs(total))
    return np.concatenate(res) if res else np.zeros(0)
