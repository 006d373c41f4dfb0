"""Width-weighted operators -(rho_a u')'/rho_b + W on the metric tree.

P1 discretization with one degree of freedom per tree vertex (continuity built
in, the weighted Kirchhoff condition arising naturally), Dirichlet at the root
and natural conditions at the truncated tips.  Weights are radial piecewise
constants; meshes place nodes on every weight breakpoint so stiffness entries
are exact, and one element form per generation feeds the whole-tree pencil,
the radial components and the tail integrals.  The radial decomposition
splits the spectrum into weighted interval operators on [t_v, R), one per
vertex generation plus the root component.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connector import affine_partition
from .eigensolver import RITZ_TOL, Spectrum, merge_spectra, smallest_eigenpairs
from .mesh2d import scatter_pencil
from .tree_model import Tree

GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
HARDY_QUAD = 4      # Gauss-Legendre points per element of the Hardy numerator
_HARDY_NODES, _HARDY_WEIGHTS = np.polynomial.legendre.leggauss(HARDY_QUAD)
AVERAGE_AXIAL_POINTS = 400   # uniform axial samples of an averaged potential
# A component whose smallest value exceeds the m-th merged value v_m by more
# than this times max(1, |v_m|) ends the radial decomposition: a converged
# Ritz value is within about RITZ_TOL of its eigenvalue, relative.
_INTERLACING_MARGIN = 1000 * RITZ_TOL


class Operator1DError(ValueError):
    """Invalid weight profile, mesh, or decomposition request."""


# ---------------------------------------------------------------------------
# Radial weight profiles
# ---------------------------------------------------------------------------

@dataclass
class WeightProfile:
    """Radial piecewise-constant weight: values[i] on [breakpoints[i], breakpoints[i+1])."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, float)
        self.values = np.asarray(self.values, float)
        if len(self.values) != len(self.breakpoints) - 1:
            raise Operator1DError("profile needs one value per interval")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise Operator1DError("profile breakpoints must be strictly increasing")
        if np.any(self.values <= 0):
            raise Operator1DError("weight profile must be positive")

    def __call__(self, t):
        idx = np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1,
                      0, len(self.values) - 1)
        return self.values[idx]


def rho_star_profile(tree: Tree) -> WeightProfile:
    """The canonical weight delta**((N-1) gen) |Omega|, constant per shell."""
    values = np.array([tree.rho_star(j) for j in range(tree.J + 1)])
    return WeightProfile(tree.t_shell.copy(), values)


@dataclass(frozen=True)
class VertexZones:
    """Per-generation width and zone table of the inflated tree.

    Generation j has the section width eps * delta**j * |Omega|, and the
    vertex closing a generation-j edge a zone of radius eps * delta**j times
    the arm length on each incident arm (1 on the bare skeleton).
    """

    eps: float
    parent_arm: float = 1.0
    child_arm: float = 1.0

    def _scale(self, tree: Tree) -> np.ndarray:
        """eps * delta**j for j <= J, by Python ** per generation: numpy's
        integer power is 1 ulp off at 0.6**4."""
        return self.eps * np.array([tree.spec.delta ** j for j in range(tree.J + 1)])

    def widths(self, tree: Tree) -> np.ndarray:
        """Section width eps * delta**j * |Omega| of every generation j <= J."""
        return self._scale(tree) * tree.spec.omega

    def reaches(self, tree: Tree) -> tuple[np.ndarray, np.ndarray]:
        """(parent, child) arm reach of the zone of every vertex generation j < J."""
        scale = self._scale(tree)[:-1]
        return scale * self.parent_arm, scale * self.child_arm

    def bounds(self, tree: Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, t_v, hi): the zone of vertex generation j spans [lo[j], hi[j]]
        around the vertex at distance t_v[j] from the root."""
        par, chi = self.reaches(tree)
        t_v = tree.t_shell[1:-1]
        return t_v - par, t_v, t_v + chi

    def cuts(self, tree: Tree) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) in edge-local distance of the part of every
        generation-j edge, j <= J, outside the zones at its two ends."""
        par, chi = self.reaches(tree)
        return np.concatenate([[0.0], chi]), tree.edge_lengths - np.append(par, 0.0)


def zone_breakpoints(tree: Tree, zones: VertexZones) -> np.ndarray:
    """All zone boundaries, validated against overlap within the edges."""
    if not zones.eps > 0:
        raise Operator1DError(f"zone width eps must be positive, got {zones.eps}")
    par, chi = zones.reaches(tree)
    L = tree.edge_lengths
    chi_prev = np.concatenate([[0.0], chi[:-1]])
    # per vertex generation, in the order checked: the parent reach, the
    # zones of both ends of the closed edge, the child reach
    bad = np.column_stack([par >= L[:-1], chi_prev + par >= L[:-1], chi >= L[1:]])
    if bad.any():
        j, which = np.argwhere(bad)[0]
        problem = (f"vertex zone (parent reach {par[j]:.4g}) overlaps generation {j} edge",
                   f"vertex zones collide inside generation {j} edges",
                   f"vertex zone (child reach {chi[j]:.4g}) overlaps generation {j + 1} edge")
        raise Operator1DError(f"{problem[which]}; reduce eps")
    lo, _, hi = zones.bounds(tree)
    return np.sort(np.concatenate([lo, hi]))


def zone_modified_profile(tree: Tree, base: WeightProfile, factor: float,
                          zones: VertexZones) -> WeightProfile:
    """Base profile multiplied by ``factor`` inside every vertex zone."""
    pts = np.unique(np.concatenate([
        base.breakpoints, zone_breakpoints(tree, zones)]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    vals = base(mids).astype(float)
    lo, _, hi = zones.bounds(tree)
    vals[((mids[:, None] > lo) & (mids[:, None] < hi)).any(axis=1)] *= factor
    return WeightProfile(pts, vals)


# ---------------------------------------------------------------------------
# Radial potentials
# ---------------------------------------------------------------------------

def average_potential_1d(W, tree: Tree, zones: VertexZones):
    """Cross-section average of the radial potential W(theta) over the
    inflated tree, as the radial potential t -> W(t), linear between grid
    samples.

    On the edge skeletons, where a section lies at one theta, the value is W
    itself; on the vertex skeletons it is the affine-partition interpolation
    of W at the ends of the incident arms, which keeps the result inside
    [min, max] of those values.
    """
    lo, t_v, hi = zones.bounds(tree)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, tree.radius, AVERAGE_AXIAL_POINTS),
        zone_breakpoints(tree, zones), tree.t_shell]))
    vals = np.array(W(grid), dtype=float)
    b_par, b_chi = W(lo), W(hi)
    par, chi = zones.reaches(tree)
    k = tree.k
    for j in range(tree.J):
        # on the parent arm the own psi rises toward p_parent (sig -> 1) and
        # each child psi falls linearly to 0 there
        on = (grid >= lo[j]) & (grid <= t_v[j])
        own, foreign = affine_partition(k, (t_v[j] - grid[on]) / par[j])
        vals[on] = b_par[j] * own + b_chi[j] * k * foreign
        # on a child arm the k-1 foreign children match
        on = (grid > t_v[j]) & (grid <= hi[j])
        own, foreign = affine_partition(k, (grid[on] - t_v[j]) / chi[j])
        vals[on] = b_chi[j] * own + b_chi[j] * (k - 1) * foreign + b_par[j] * foreign
    return lambda t: np.interp(t, grid, vals)


# ---------------------------------------------------------------------------
# 1-D tree meshes
# ---------------------------------------------------------------------------

@dataclass
class Mesh1D:
    """Conforming P1 mesh on the truncated tree.

    Local node layouts are shared within a generation (required by the exact
    radial-decomposition identity).  ``gen_dofs[j]`` is the read-only
    ``(k**j, len(gen_local[j]))`` array of global dofs, row i for edge (j, i):
    its first column is the parent's last dof (dof 0, the root, for j = 0),
    so vertex dofs are shared among the incident edges.
    """

    tree: Tree
    gen_local: list            # local node positions per generation
    gen_dofs: list             # (k**j, n_j) global dof array per generation
    n_dofs: int
    dof_t: np.ndarray          # distance from root per dof

    @classmethod
    def from_layouts(cls, tree: Tree, gen_local: list) -> "Mesh1D":
        """Number the dofs of the given per-generation local node layouts.

        Edges are numbered generation-major and each owns the dofs of its
        local nodes after the first, consecutively: edge (j, i) owns
        offset_j + i (n_j - 1) + [0, n_j - 1).
        """
        k = tree.k
        gen_dofs = []
        dof_t = [np.zeros(1)]
        offset = 1
        for j, local in enumerate(gen_local):
            n_edges, n_own = k ** j, len(local) - 1
            dofs = np.empty((n_edges, n_own + 1), dtype=int)
            dofs[:, 0] = 0 if j == 0 else gen_dofs[-1][np.arange(n_edges) // k, -1]
            dofs[:, 1:] = (offset + np.arange(n_edges * n_own)).reshape(n_edges, n_own)
            dofs.flags.writeable = False
            gen_dofs.append(dofs)
            dof_t.append(np.tile(tree.t_shell[j] + local[1:], n_edges))
            offset += n_edges * n_own
        return cls(tree=tree, gen_local=gen_local, gen_dofs=gen_dofs,
                   n_dofs=offset, dof_t=np.concatenate(dof_t))


def build_mesh_1d(tree: Tree, h: float, breakpoints) -> Mesh1D:
    """Mesh with pitch <= h whose nodes include all radial breakpoints."""
    bps = np.asarray(breakpoints)
    gen_local = []
    for j in range(tree.J + 1):
        t0, t1 = tree.t_shell[j], tree.t_shell[j + 1]
        local = {0.0, t1 - t0}
        for b in bps:
            if t0 + 1e-12 < b < t1 - 1e-12:
                local.add(b - t0)
        pts = sorted(local)
        refined = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            n = max(1, int(np.ceil((b - a) / h)))
            refined.extend(np.linspace(a, b, n + 1)[1:])
        gen_local.append(np.array(refined))
    return Mesh1D.from_layouts(tree, gen_local)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledSystem:
    """Sparse pencil (K, M) with the Dirichlet dofs eliminated."""

    K: "scipy.sparse.csr_matrix"
    M: "scipy.sparse.csr_matrix"
    free: np.ndarray           # retained dof indices of the full numbering
    n_full: int

    def expand(self, u_free: np.ndarray) -> np.ndarray:
        """The field on the full numbering, zero on the Dirichlet dofs; a
        (n_free, b) column block expands column by column."""
        full = np.zeros((self.n_full,) + u_free.shape[1:])
        full[self.free] = u_free
        return full


@dataclass(frozen=True)
class ElementForm:
    """P1 element data per generation: the conductances k_e = rho_a(mid)/h, the
    masses m_e = rho_b(mid) h/6 and, with a potential W, the two Gauss terms
    W(x_g) rho_b(mid) h/2.  The element stiffness is k_e [[1, -1], [-1, 1]]
    plus each Gauss term times phi phi^T, the element mass m_e [[2, 1], [1, 2]];
    the whole-tree pencil and every radial component scatter these entries."""

    mesh: Mesh1D
    conductance: tuple         # (n_j - 1,) per generation
    mass: tuple                # (n_j - 1,) per generation
    gauss: tuple | None        # (2, n_j - 1) per generation; None without W

    @cached_property
    def _entries(self) -> list:
        """(rows, cols, k_vals, m_vals) of one copy of each generation: the
        (0, 0), (0, 1), (1, 0), (1, 1) entries in turn, elements innermost, so
        duplicates are summed in the order of a per-edge loop."""
        out = []
        for j, (k_e, m_e) in enumerate(zip(self.conductance, self.mass)):
            k_loc = k_e[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
            for gpt, term in zip(GAUSS2, self.gauss[j] if self.gauss else ()):
                phi = np.array([1.0 - gpt, gpt])
                k_loc += term[:, None, None] * np.outer(phi, phi)
            m_loc = m_e[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
            e = np.arange(len(k_e))
            out.append((np.concatenate([e, e, e + 1, e + 1]), np.concatenate([e, e + 1, e, e + 1]),
                        k_loc.reshape(-1, 4).T.ravel(), m_loc.reshape(-1, 4).T.ravel()))
        return out

    def pencil(self) -> AssembledSystem:
        """The whole tree, every copy of generation j on its row of ``gen_dofs[j]``."""
        return _dirichlet_pencil(self.mesh.n_dofs, [
            (dofs, *entries) for dofs, entries in zip(self.mesh.gen_dofs, self._entries)])

    def component(self, vertex_gen: int) -> AssembledSystem:
        """The generation-j component: one chain of the generations i >= j on
        [t_j, R), Dirichlet at t_j, with the element entries of generation i
        times k**(i - j), the relative counting function of one subtree."""
        tree = self.mesh.tree
        if not 0 <= vertex_gen <= tree.J:
            raise Operator1DError(f"vertex generation {vertex_gen} outside [0, {tree.J}]")
        blocks, dof = [], 0
        for i in range(vertex_gen, tree.J + 1):
            rows, cols, k_vals, m_vals = self._entries[i]
            n_elem, g_rel = len(self.mass[i]), float(tree.k ** (i - vertex_gen))
            blocks.append((dof + np.arange(n_elem + 1)[None, :], rows, cols,
                           k_vals * g_rel, m_vals * g_rel))
            dof += n_elem
        return _dirichlet_pencil(dof + 1, blocks)


def _dirichlet_pencil(n: int, blocks) -> AssembledSystem:
    """The pencil of the blocks over n dofs, Dirichlet at dof 0."""
    K, M, free = scatter_pencil(n, blocks, [0])
    return AssembledSystem(K=K, M=M, free=free, n_full=n)


def element_form(mesh: Mesh1D, rho_alpha, rho_beta, W) -> ElementForm:
    """Element data over ``mesh``, each profile evaluated once per generation
    and W once per Gauss point; mesh nodes on all breakpoints make it exact."""
    conductance, mass, gauss = [], [], []
    for t0, local in zip(mesh.tree.t_shell, mesh.gen_local):
        a, b = local[:-1], local[1:]
        hs = b - a
        mids = t0 + 0.5 * (a + b)
        rb = rho_beta(mids)
        conductance.append(rho_alpha(mids) / hs)
        mass.append(rb * hs / 6.0)
        if W is not None:
            gauss.append(np.array([np.asarray(W(t0 + a + gpt * hs), dtype=float) * rb * hs * 0.5
                                   for gpt in GAUSS2]))
    return ElementForm(mesh=mesh, conductance=tuple(conductance), mass=tuple(mass),
                       gauss=None if W is None else tuple(gauss))


def _require_mesh_tree(tree: Tree, mesh: Mesh1D) -> None:
    """Reject a ``tree`` argument other than the tree the mesh was built on."""
    if tree.spec != mesh.tree.spec:
        raise Operator1DError(f"tree {tree.spec} is not the tree of the mesh, "
                              f"{mesh.tree.spec}")


def assemble_1d(tree: Tree, mesh: Mesh1D, rho_alpha: WeightProfile,
                rho_beta: WeightProfile, W) -> AssembledSystem:
    """The width-weighted pencil over the mesh of ``tree``, the root (dof 0)
    eliminated: K holds integral(rho_a u' v') plus, when the radial potential
    W(t) is not None, integral(W rho_b u v); M is the consistent rho_b mass."""
    _require_mesh_tree(tree, mesh)
    return element_form(mesh, rho_alpha, rho_beta, W).pencil()


# ---------------------------------------------------------------------------
# Radial decomposition
# ---------------------------------------------------------------------------

def component_multiplicity(k: int, j: int) -> int:
    """Multiplicity of the generation-j vertex component: k**(j-1) (k-1)."""
    if j == 0:
        return 1
    return k ** (j - 1) * (k - 1)


def radial_decomposition_spectrum(tree: Tree, mesh: Mesh1D, rho_alpha, rho_beta,
                                  W, m: int) -> Spectrum:
    """Merged m smallest values of the root component and the vertex
    components.

    Requires radially symmetric weights and potential (shared per-generation
    mesh layouts make the split of the discrete operator exact).  The element
    form is built once, and every component is scattered from it.  A
    component of multiplicity c is asked for ceil(m / c) pairs, as many as
    can enter the merge.  The components are solved in order of generation,
    and the deeper ones are skipped once the merge holds m values and the
    smallest value of the last component solved exceeds the m-th by more
    than the solver's error: the pencil of component j + 1 is 1/k times the
    trailing principal sub-pencil of component j past t_(j+1), so by Cauchy
    interlacing no deeper value lies below that smallest value, and the
    merge is the one of all components.
    """
    _require_mesh_tree(tree, mesh)
    form = element_form(mesh, rho_alpha, rho_beta, W)
    k, parts = mesh.tree.k, []
    for j in range(mesh.tree.J + 1):
        mult = component_multiplicity(k, j)
        if mult == 0:
            continue
        c = form.component(j)
        spec = smallest_eigenpairs(c.K, c.M, min(c.K.shape[0], -(-m // mult)),
                                   with_vectors=False)
        parts.append((spec, mult))
        merged = merge_spectra(parts, m=m)
        v_m = merged.values[-1]
        if (merged.multiplicities.sum() >= m
                and spec.values[0] > v_m + _INTERLACING_MARGIN * max(1.0, abs(v_m))):
            break
    return merged


# ---------------------------------------------------------------------------
# Discreteness and tail checks
# ---------------------------------------------------------------------------

@dataclass
class DiscretenessReport:
    holds: bool
    best_C: float
    per_generation_factor: float
    boundary: bool


def discreteness_condition_check(tree: Tree, rho: WeightProfile) -> DiscretenessReport:
    """Check C g(s) rho(s) < g(t) rho(t) for s <= t on the truncated tree.

    best_C is the computed infimum of g rho(t) / g rho(s) over s <= t; the
    verdict extrapolates over generations: the condition holds for the
    infinite tree iff the per-generation factor of g rho stays >= 1 (the
    boundary case factor == 1 counts as holding, with any C < 1 strict).
    A tree without a branching vertex (J = 0) has no factor and is rejected.
    """
    if tree.J < 1:
        raise Operator1DError(f"tree.J = {tree.J}: the per-generation factor needs "
                              "a branching vertex, tree.J >= 1")
    pts = np.unique(np.concatenate([rho.breakpoints, tree.t_shell]))
    pts = pts[(pts >= 0) & (pts <= tree.radius)]
    mids = 0.5 * (pts[:-1] + pts[1:])
    g = tree.counting_function(np.minimum(mids, tree.radius * (1 - 1e-15)))
    v = g * rho(mids)
    running_max = np.maximum.accumulate(v)
    best_C = float((v / running_max).min())

    # per-generation factor of g*rho on edge interiors (zones excluded by
    # taking the shell midpoints of the base intervals)
    shell_mids = 0.5 * (tree.t_shell[:-1] + tree.t_shell[1:])
    gv = tree.k ** np.arange(tree.J + 1) * rho(shell_mids)
    q = float((gv[1:] / gv[:-1]).min())
    boundary = abs(q - 1.0) <= 1e-9
    holds = q >= 1.0 - 1e-9
    return DiscretenessReport(holds=holds, best_C=best_C,
                              per_generation_factor=q, boundary=boundary)


def tail_bound_check(tree: Tree, mesh: Mesh1D, rho_alpha, rho_beta,
                     u_full: np.ndarray, j: int) -> float:
    """L2 mass beyond generation j over the total weighted energy.

    Contract: ratio <= c^2 R(j)^2 / C for fields in the form domain (vanishing
    at the root and decaying at the tree ends).
    """
    _require_mesh_tree(tree, mesh)
    form = element_form(mesh, rho_alpha, rho_beta, None)
    mass_deep = energy = 0.0
    for i, (k_e, m_e, dofs) in enumerate(zip(form.conductance, form.mass, mesh.gen_dofs)):
        u = u_full[dofs]
        u0, u1 = u[:, :-1], u[:, 1:]
        if i > j:
            mass_deep += float(np.sum(2.0 * m_e * (u0 ** 2 + u0 * u1 + u1 ** 2)))
        energy += float(np.sum(k_e * (u1 - u0) ** 2))
    return mass_deep / energy if energy else 0.0


def hardy_inequality_check(tree: Tree, rho: WeightProfile,
                           nodes: np.ndarray, u: np.ndarray) -> float:
    """Radial Hardy quotient: int p |u|^2 over int rho g |u'|^2 on [0, R).

    p(t) = rho(t) g(t) / (R (R - t)); u is piecewise linear on ``nodes`` and
    must vanish near R for the numerator to stay finite.
    """
    R = tree.radius
    near_end = np.asarray(nodes) > 0.95 * R
    if near_end.any() and np.abs(np.asarray(u)[near_end]).max() > 1e-9:
        warnings.warn("field does not vanish near the tree radius; "
                      "Hardy integral may blow up", stacklevel=2)
    nodes = np.asarray(nodes, dtype=float)
    u = np.asarray(u, dtype=float)

    def g(t):
        return tree.counting_function(np.minimum(t, R * (1 - 1e-15)))

    a, ua, du = nodes[:-1, None], u[:-1, None], np.diff(u)[:, None]
    h = np.diff(nodes)[:, None]
    if np.any(h <= 0):
        raise Operator1DError("nodes must be strictly increasing")
    x = a + 0.5 * h * (_HARDY_NODES + 1.0)
    uu = ua + du * (x - a) / h
    p = rho(x) * g(x) / (R * (R - x))
    num = float(np.sum(0.5 * h[:, 0] * ((p * uu ** 2) @ _HARDY_WEIGHTS)))
    mid = a + h / 2
    den = float(np.sum(rho(mid) * g(mid) * du ** 2 / h))
    if den == 0.0:
        return 0.0
    return num / den
