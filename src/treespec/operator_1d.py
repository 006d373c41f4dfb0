"""Width-weighted operators -(rho_a u')'/rho_b + W on the metric tree.

P1 discretization with one degree of freedom per tree vertex (continuity built
in, the weighted Kirchhoff condition arising naturally), Dirichlet at the root
and natural conditions at the truncated tips.  Weights are radial piecewise
constants; meshes place nodes on every weight breakpoint so stiffness entries
are exact.  The radial decomposition splits the spectrum into weighted interval
operators on [t_v, R), one per vertex generation plus the root component.
"""

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .connector import affine_partition
from .eigensolver import Spectrum, merge_spectra, smallest_eigenpairs
from .mesh2d import eliminate_dirichlet, scatter_pencil
from .tree_model import EdgeId, Tree

GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


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
    equiv_constant: float = 1.0   # two-sided constant against the base profile

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
    """Zone geometry on the 1-D skeleton around each branching vertex.

    The vertex closing a generation-j edge carries a zone of radius
    eps * delta**j times the canonical arm length on each incident arm.
    """

    eps: float
    parent_arm: float = 1.0
    child_arm: float = 1.0

    def reaches(self, tree: Tree, j: int) -> tuple[float, float]:
        scale = self.eps * tree.spec.delta ** j
        return scale * self.parent_arm, scale * self.child_arm


def zone_breakpoints(tree: Tree, zones: VertexZones) -> np.ndarray:
    """All zone boundaries, validated against overlap within the edges."""
    pts = []
    for j in range(tree.J):
        par, chi = zones.reaches(tree, j)
        t_v = tree.t_shell[j + 1]
        if par >= tree.edge_length(j):
            raise Operator1DError(
                f"vertex zone (parent reach {par:.4g}) overlaps generation {j} edge; "
                "reduce eps")
        if j >= 1:
            _, chi_prev = zones.reaches(tree, j - 1)
            if chi_prev + par >= tree.edge_length(j):
                raise Operator1DError(
                    f"vertex zones collide inside generation {j} edges; reduce eps")
        if chi >= tree.edge_length(j + 1):
            raise Operator1DError(
                f"vertex zone (child reach {chi:.4g}) overlaps generation {j + 1} edge; "
                "reduce eps")
        pts.extend([t_v - par, t_v + chi])
    return np.array(sorted(pts))


def zone_modified_profile(tree: Tree, base: WeightProfile, factor: float,
                          zones: VertexZones) -> WeightProfile:
    """Base profile multiplied by ``factor`` inside every vertex zone."""
    pts = np.unique(np.concatenate([
        base.breakpoints, zone_breakpoints(tree, zones)]))
    mids = 0.5 * (pts[:-1] + pts[1:])
    vals = base(mids).astype(float).copy()
    for j in range(tree.J):
        par, chi = zones.reaches(tree, j)
        t_v = tree.t_shell[j + 1]
        inside = (mids > t_v - par) & (mids < t_v + chi)
        vals[inside] *= factor
    c = max(factor, 1.0 / factor) * base.equiv_constant
    return WeightProfile(pts, vals, equiv_constant=c)


def _zone_rho(tree: Tree, factor: float, eps: float,
              zones: VertexZones | None) -> WeightProfile:
    if not 0.0 < eps < 1.0:
        raise Operator1DError(f"eps must be in (0, 1), got {eps}")
    return zone_modified_profile(tree, rho_star_profile(tree), factor,
                                 zones or VertexZones(eps))


def build_rho_Q(tree: Tree, constants, eps: float,
                zones: VertexZones | None = None) -> WeightProfile:
    """rho* boosted by max{alpha_A/beta_Abar, alpha_B/beta_Bbar} on vertex zones."""
    return _zone_rho(tree, constants.rho_Q_factor, eps, zones)


def build_rho_P(tree: Tree, constants, eps: float,
                zones: VertexZones | None = None) -> WeightProfile:
    """rho* damped by min{beta_A/alpha_Abar, beta_B/alpha_Bbar} on vertex zones."""
    return _zone_rho(tree, constants.rho_P_factor, eps, zones)


# ---------------------------------------------------------------------------
# Radial potentials
# ---------------------------------------------------------------------------

@dataclass
class PotentialProfile:
    """Radial potential W(t), either closed form or sampled (linear interp)."""

    kind: str = "constant"          # constant | cosine | sampled
    params: tuple = (0.0,)
    nodes: np.ndarray | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "cosine" and (len(self.params) != 2 or not all(
                isinstance(p, (int, float)) and not isinstance(p, bool)
                for p in self.params)):
            raise Operator1DError(
                f"cosine takes [amp, freq], got {list(self.params)}")

    def __call__(self, t):
        t = np.asarray(t, float)
        if self.kind == "constant":
            return np.full_like(t, self.params[0], dtype=float)
        if self.kind == "cosine":
            amp, freq = self.params
            return amp * np.cos(freq * t)
        if self.kind == "sampled":
            return np.interp(t, self.nodes, self.samples)
        raise Operator1DError(f"unknown potential kind {self.kind!r}")


def average_potential_1d(W2d, tree: Tree, eps: float, zones: VertexZones,
                         n_cross: int = 16, n_axial: int = 400) -> PotentialProfile:
    """Cross-section average of a 2-D potential W(theta, s) over the inflated tree.

    On the edge skeletons the value is the transverse average over the local
    tube width eps * delta**gen * |Omega|; on the vertex skeletons it is the
    affine-partition interpolation of the endpoint averages of the incident
    arms, which keeps the result inside [min, max] of those averages.
    """
    gauss, gw = np.polynomial.legendre.leggauss(n_cross)

    def edge_average(t):
        j = tree.generation_at(min(t, tree.radius * (1 - 1e-12)))
        w = eps * tree.spec.delta ** j * tree.spec.omega
        s = 0.5 * w * (gauss + 1.0)
        vals_s = np.broadcast_to(np.asarray(W2d(t, s), float), s.shape)
        return float(np.dot(gw, vals_s) / 2.0)

    bps = list(zone_breakpoints(tree, zones)) + list(tree.t_shell)
    grid = np.unique(np.concatenate([
        np.linspace(0.0, tree.radius, n_axial), np.array(bps)]))
    vals = np.empty_like(grid)

    zone_of = []
    for j in range(tree.J):
        par, chi = zones.reaches(tree, j)
        zone_of.append((tree.t_shell[j + 1] - par, tree.t_shell[j + 1] + chi,
                        tree.t_shell[j + 1], par, chi, j))

    k = tree.k
    for i, t in enumerate(grid):
        for lo, hi, t_v, par, chi, j in zone_of:
            if lo <= t <= hi:
                b_par = edge_average(lo)
                b_chi = edge_average(hi)
                if t <= t_v:   # on the parent arm
                    sig = (t_v - t) / par if par > 0 else 0.0
                    # own psi rises toward p_parent (sig -> 1), each child psi
                    # falls linearly to 0 there
                    own, foreign = affine_partition(k, sig)
                    vals[i] = b_par * own + b_chi * k * foreign
                else:          # on a child arm; the k-1 foreign children match
                    sig = (t - t_v) / chi if chi > 0 else 0.0
                    own, foreign = affine_partition(k, sig)
                    vals[i] = (b_chi * own + b_chi * (k - 1) * foreign
                               + b_par * foreign)
                break
        else:
            vals[i] = edge_average(t)
    return PotentialProfile("sampled", nodes=grid, samples=vals)


# ---------------------------------------------------------------------------
# 1-D tree meshes
# ---------------------------------------------------------------------------

class EdgeDofs(Mapping):
    """Read-only ``EdgeId -> dof row`` view over the per-generation dof arrays."""

    def __init__(self, gen_dofs: list):
        self._gen_dofs = gen_dofs

    def __getitem__(self, e: EdgeId) -> np.ndarray:
        if not (0 <= e.j < len(self._gen_dofs)
                and 0 <= e.index < len(self._gen_dofs[e.j])):
            raise KeyError(e)
        return self._gen_dofs[e.j][e.index]

    def __iter__(self):
        for j, dofs in enumerate(self._gen_dofs):
            for i in range(len(dofs)):
                yield EdgeId(j, i)

    def __len__(self) -> int:
        return sum(len(dofs) for dofs in self._gen_dofs)


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
    edge_dofs: EdgeDofs = field(init=False, repr=False)

    def __post_init__(self):
        self.edge_dofs = EdgeDofs(self.gen_dofs)


def build_mesh_1d(tree: Tree, h: float,
                  breakpoints: np.ndarray | None = None,
                  gen_local: list | None = None) -> Mesh1D:
    """Mesh with pitch <= h whose nodes include all radial breakpoints.

    ``gen_local`` overrides the per-generation local layouts entirely (used to
    match the axial stations of a 2-D mesh).
    """
    if gen_local is None:
        bps = np.asarray(breakpoints if breakpoints is not None else [])
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

    # Edges are numbered generation-major and each owns the dofs of its local
    # nodes after the first, consecutively: edge (j, i) owns
    # offset_j + i (n_j - 1) + [0, n_j - 1).
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

    return Mesh1D(tree=tree, gen_local=gen_local, gen_dofs=gen_dofs,
                  n_dofs=offset, dof_t=np.concatenate(dof_t))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass
class AssembledSystem:
    """Sparse pencil (K, M) with the Dirichlet dofs eliminated."""

    K: sp.csr_matrix
    M: sp.csr_matrix
    free: np.ndarray           # retained dof indices of the full numbering
    n_full: int

    def expand(self, u_free: np.ndarray) -> np.ndarray:
        """The field on the full numbering, zero on the Dirichlet dofs; a
        (n_free, b) column block expands column by column."""
        full = np.zeros((self.n_full,) + u_free.shape[1:])
        full[self.free] = u_free
        return full


def _element_block(dofs, t0, local, rho_a, rho_b, W, weight=1.0):
    """Scatter block of the element matrices of one generation, shared by the
    copies in the rows of ``dofs``, both weights scaled by ``weight``.

    Each copy's entries run through the (0, 0), (0, 1), (1, 0), (1, 1)
    positions in turn, elements innermost, so duplicates are summed in the
    order of a per-edge loop.
    """
    a, b = local[:-1], local[1:]
    hs = b - a
    mids = t0 + 0.5 * (a + b)
    ra = rho_a(mids) * weight
    rb = rho_b(mids) * weight
    k_loc = (ra / hs)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    m_loc = (rb * hs / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
    if W is not None:
        for gpt in GAUSS2:
            x = t0 + a + gpt * hs
            wv = np.asarray(W(x), dtype=float)
            phi = np.array([1.0 - gpt, gpt])
            k_loc += (wv * rb * hs * 0.5)[:, None, None] * np.outer(phi, phi)
    e = np.arange(len(hs))
    return (dofs, np.concatenate([e, e, e + 1, e + 1]),
            np.concatenate([e, e + 1, e, e + 1]),
            k_loc.reshape(-1, 4).T.ravel(), m_loc.reshape(-1, 4).T.ravel())


def assemble_1d(tree: Tree, mesh: Mesh1D, rho_alpha: WeightProfile,
                rho_beta: WeightProfile,
                W: PotentialProfile | None = None) -> AssembledSystem:
    """Assemble the width-weighted form over the tree mesh, with the root
    (dof 0) eliminated as the Dirichlet dof.

    K holds integral(rho_a u' v') plus the potential term integral(W rho_b u v)
    via 2-point Gauss; M is the consistent rho_b mass.  Mesh nodes sit on all
    weight breakpoints, so the weight factors are exact per element.
    """
    n = mesh.n_dofs
    K, M, free = eliminate_dirichlet(*scatter_pencil(n, [
        _element_block(dofs, tree.t_shell[j], mesh.gen_local[j],
                       rho_alpha, rho_beta, W)
        for j, dofs in enumerate(mesh.gen_dofs)]), [0])
    return AssembledSystem(K=K, M=M, free=free, n_full=n)


def spectrum_1d(tree: Tree, mesh: Mesh1D, rho_alpha, rho_beta,
                W=None, m: int = 6) -> Spectrum:
    system = assemble_1d(tree, mesh, rho_alpha, rho_beta, W)
    return smallest_eigenpairs(system.K, system.M, m)


def kirchhoff_residuals(tree: Tree, mesh: Mesh1D, rho_alpha: WeightProfile,
                        u_full: np.ndarray) -> np.ndarray:
    """|sum_e rho_a * du/ds outward| at every branching vertex, generation-major."""
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


# ---------------------------------------------------------------------------
# Radial decomposition
# ---------------------------------------------------------------------------

def component_multiplicity(k: int, j: int) -> int:
    """Multiplicity of the generation-j vertex component: k**(j-1) (k-1)."""
    if j == 0:
        return 1
    return k ** (j - 1) * (k - 1)


def radial_component_operator(tree: Tree, mesh: Mesh1D, rho_alpha, rho_beta,
                              W, vertex_gen: int) -> AssembledSystem:
    """Weighted interval operator of the generation-j component on [t_j, R).

    Dirichlet at t_j (the root condition when j = 0), natural at R; the weight
    carries the relative counting function of one subtree, equal to 1 on the
    first generation and multiplied by k at each deeper shell.
    """
    if not 0 <= vertex_gen <= tree.J:
        raise Operator1DError(f"vertex generation {vertex_gen} outside [0, {tree.J}]")
    blocks = []
    dof = 0
    for j in range(vertex_gen, tree.J + 1):
        local = mesh.gen_local[j]
        g_rel = float(tree.k ** (j - vertex_gen))
        blocks.append(_element_block(dof + np.arange(len(local))[None, :],
                                     tree.t_shell[j], local, rho_alpha, rho_beta,
                                     W, weight=g_rel))
        dof += len(local) - 1
    n = dof + 1
    K, M, free = eliminate_dirichlet(*scatter_pencil(n, blocks), [0])   # at t_j
    return AssembledSystem(K=K, M=M, free=free, n_full=n)


def radial_decomposition_spectrum(tree: Tree, mesh: Mesh1D, rho_alpha, rho_beta,
                                  W, m: int) -> Spectrum:
    """Merged spectrum of the root component and all vertex components.

    Requires radially symmetric weights and potential (shared per-generation
    mesh layouts make the split of the discrete operator exact).
    """
    parts = []
    for j in range(tree.J + 1):
        mult = component_multiplicity(tree.k, j)
        if mult == 0:
            continue
        system = radial_component_operator(tree, mesh, rho_alpha, rho_beta, W, j)
        want = min(m, system.K.shape[0])
        spec = smallest_eigenpairs(system.K, system.M, want, with_vectors=False)
        parts.append((spec, mult))
    return merge_spectra(parts, m=m)


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
    """
    pts = np.unique(np.concatenate([rho.breakpoints, tree.t_shell]))
    pts = pts[(pts >= 0) & (pts <= tree.radius)]
    mids = 0.5 * (pts[:-1] + pts[1:])
    g = tree.k ** tree.generations_at(np.minimum(mids, tree.radius * (1 - 1e-15)))
    v = g * rho(mids)
    running_max = np.maximum.accumulate(v)
    best_C = float((v / running_max).min())

    # per-generation factor of g*rho on edge interiors (zones excluded by
    # taking the shell midpoints of the base intervals)
    shell_mids = 0.5 * (tree.t_shell[:-1] + tree.t_shell[1:])
    gv = tree.k ** np.arange(tree.J + 1) * rho(shell_mids)
    factors = gv[1:] / gv[:-1] if len(gv) > 1 else np.array([1.0])
    q = float(factors.min())
    boundary = abs(q - 1.0) <= 1e-9
    holds = q >= 1.0 - 1e-9
    return DiscretenessReport(holds=holds, best_C=best_C,
                              per_generation_factor=q, boundary=boundary)


def _edge_field_integrals(tree, mesh, u_full, weight, gen_min=0):
    """(integral u^2 * w, integral u'^2 * w) over edges of generation >= gen_min."""
    mass = 0.0
    energy = 0.0
    for j in range(gen_min, tree.J + 1):
        local = mesh.gen_local[j]
        hs = np.diff(local)
        w = weight(tree.t_shell[j] + local[:-1] + 0.5 * hs)
        u = u_full[mesh.gen_dofs[j]]
        u0, u1 = u[:, :-1], u[:, 1:]
        mass += float(np.sum(w * hs / 3.0 * (u0 ** 2 + u0 * u1 + u1 ** 2)))
        energy += float(np.sum(w * (u1 - u0) ** 2 / hs))
    return mass, energy


def tail_bound_check(tree: Tree, mesh: Mesh1D, rho_alpha, rho_beta,
                     u_full: np.ndarray, j: int) -> float:
    """L2 mass beyond generation j over the total weighted energy.

    Contract: ratio <= c^2 R(j)^2 / C for fields in the form domain (vanishing
    at the root and decaying at the tree ends).
    """
    mass_deep, _ = _edge_field_integrals(tree, mesh, u_full, rho_beta,
                                         gen_min=j + 1)
    _, energy = _edge_field_integrals(tree, mesh, u_full, rho_alpha)
    if energy == 0.0:
        return 0.0
    return mass_deep / energy


def hardy_inequality_check(tree: Tree, rho: WeightProfile,
                           nodes: np.ndarray, u: np.ndarray,
                           n_quad: int = 4) -> float:
    """Radial Hardy quotient: int p |u|^2 over int rho g |u'|^2 on [0, R).

    p(t) = rho(t) g(t) / (R (R - t)); u is piecewise linear on ``nodes`` and
    must vanish near R for the numerator to stay finite.
    """
    R = tree.radius
    near_end = np.asarray(nodes) > 0.95 * R
    if near_end.any() and np.abs(np.asarray(u)[near_end]).max() > 1e-9:
        warnings.warn("field does not vanish near the tree radius; "
                      "Hardy integral may blow up", stacklevel=2)
    gauss, gw = np.polynomial.legendre.leggauss(n_quad)
    nodes = np.asarray(nodes, dtype=float)
    u = np.asarray(u, dtype=float)

    def g(t):
        return tree.k ** tree.generations_at(np.minimum(t, R * (1 - 1e-15)))

    a, ua, du = nodes[:-1, None], u[:-1, None], np.diff(u)[:, None]
    h = np.diff(nodes)[:, None]
    if np.any(h <= 0):
        raise Operator1DError("nodes must be strictly increasing")
    x = a + 0.5 * h * (gauss + 1.0)
    uu = ua + du * (x - a) / h
    p = rho(x) * g(x) / (R * (R - x))
    num = float(np.sum(0.5 * h[:, 0] * ((p * uu ** 2) @ gw)))
    mid = a + h / 2
    den = float(np.sum(rho(mid) * g(mid) * du ** 2 / h))
    if den == 0.0:
        return 0.0
    return num / den
