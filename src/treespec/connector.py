"""Vertex-neighborhood analysis: partitions of unity, form matrices, constants.

A tree vertex joins one parent edge to k child edges.  Its 1-D neighborhood is
a star of k+1 arms (the skeleton); its 2-D counterpart is a Lipschitz polygon
(the connector) whose boundary carries one parent section and k child sections.
This module builds affine partitions of unity on the star and discrete harmonic
ones on the connector, assembles the energy/mass form matrices of both, forms
the minimized energies under prescribed section averages (on the connector
from one factored saddle system per gamma), and extracts the two-sided
equivalence constants that enter the modified weights of the width-weighted
operators.  The connector solves read only the mesh, its sections S0..Sk and
its pencil (K, M).

Arm 0 is always the parent arm.  The functions that mesh or assemble import
``mesh2d`` on entry; ``canonical_connector`` reads the range of its apex
pitch from ``config``, which checks ``geometry.c`` against it at load.
"""

from dataclasses import dataclass, is_dataclass

import numpy as np

from .config import APEX_C_RANGE

KERNEL_TOL = 1e-8   # relative residual at which A-type forms annihilate ones


class ConnectorError(ValueError):
    """Invalid connector geometry or violated form-matrix invariant."""


# ---------------------------------------------------------------------------
# 1-D skeleton star
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkeletonStar:
    """Star of k+1 arms around a vertex; arm 0 is the parent arm.

    Arm weights carry the piecewise-constant weight of the incident edges.
    """

    arm_lengths: np.ndarray
    arm_weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "arm_lengths", np.asarray(self.arm_lengths, float))
        object.__setattr__(self, "arm_weights", np.asarray(self.arm_weights, float))
        if len(self.arm_lengths) != len(self.arm_weights):
            raise ConnectorError("arm length/weight count mismatch")
        if np.any(self.arm_lengths <= 0) or np.any(self.arm_weights <= 0):
            raise ConnectorError("arm lengths and weights must be positive")

    @property
    def k(self) -> int:
        return len(self.arm_lengths) - 1

    @staticmethod
    def regular(k: int, delta: float, N: int, omega: float,
                arm_lengths) -> "SkeletonStar":
        """Star of a regular-tree vertex: parent weight 1, children delta**(N-1),
        times the cross-section measure (the common delta**((N-1) gen) factor of
        the local rho* is divided out)."""
        weights = np.full(k + 1, delta ** (N - 1) * omega)
        weights[0] = omega
        return SkeletonStar(arm_lengths, weights)


def affine_partition(k: int, sig):
    """(own, foreign) values of the affine partition of unity on a star of
    k+1 arms, at relative position sig in [0, 1] from the center along an arm:
    the function of that arm, and each function of the other k arms.  Every
    function is 1/(k+1) at the center, 1 at its own endpoint and 0 at the
    others."""
    cv = 1.0 / (k + 1)
    return cv + (1 - cv) * sig, cv * (1 - sig)


def _affine_product_integral(L, a0, aL, b0, bL):
    """Exact integral over [0, L] of two affine functions given by endpoint values."""
    return L / 6.0 * (2 * a0 * b0 + a0 * bL + aL * b0 + 2 * aL * bL)


def skeleton_form_matrices(star: SkeletonStar):
    """Exact (Abar, Bbar): weighted Dirichlet and mass forms of the affine
    partition functions on the star, summed over the arms.

    On arm a, function l runs affinely from its center value to the end
    value eye[a, l]."""
    cv, _ = affine_partition(star.k, 0.0)
    end = np.eye(star.k + 1)                            # [arm, function]
    L = star.arm_lengths[:, None, None]
    w = star.arm_weights[:, None, None]
    slope = (end - cv) / star.arm_lengths[:, None]
    Abar = w * slope[:, :, None] * slope[:, None, :] * L
    Bbar = w * _affine_product_integral(L, cv, end[:, :, None], cv, end[:, None, :])
    return Abar.sum(axis=0), Bbar.sum(axis=0)


def _arm_coefficients(star: SkeletonStar):
    """Per-arm coefficients (w, c, s) of the minimized star energies: w for
    gamma = 0, the cosh and sinh terms c and s for gamma = 1."""
    L, a = star.arm_lengths, star.arm_weights
    return a / L, a * np.cosh(L) / np.sinh(L), a / np.sinh(L)


def skeleton_minimized_forms(star: SkeletonStar):
    """Energy forms of the gamma=0 and gamma=1 minimizers with prescribed
    endpoint values.

    The gamma=0 minimizer is edgewise affine with the common center value fixed
    by the weighted Kirchhoff condition; the gamma=1 minimizer is edgewise a
    cosh/sinh combination.  Both minimized energies are exact quadratic forms
    in the endpoint vector, returned as (E0bar, E1bar).
    """
    w, c, s = _arm_coefficients(star)
    E0 = np.diag(w) - np.outer(w, w) / w.sum()
    E1 = np.diag(c) - np.outer(s, s) / c.sum()
    return E0, E1


# ---------------------------------------------------------------------------
# 2-D connector
# ---------------------------------------------------------------------------

@dataclass
class ConnectorDomain2D:
    """Planar connector polygon with marked parent/child boundary sections."""

    vertices: np.ndarray
    sections: dict            # label "S0".."Sk" -> (edge index, t0, t1)
    section_lengths: np.ndarray
    center: np.ndarray
    arm_lengths: np.ndarray   # skeleton arm lengths, parent first
    k: int
    delta: float
    c: float

    def skeleton_star(self, N: int) -> SkeletonStar:
        return SkeletonStar.regular(self.k, self.delta, N=N,
                                    omega=float(self.section_lengths[0]),
                                    arm_lengths=self.arm_lengths)


def canonical_connector(delta: float, c: float, k: int,
                        omega: float) -> ConnectorDomain2D:
    """Reference connector at unit scale (parent section width omega).

    For k = 2 this is the pentagon built from a mirrored quadrangle pair: a
    flat base carrying the parent section, two walls of height c*omega, and a
    roof of pitch c whose two slopes carry the child sections (width
    delta*omega each, centered, so the sections stay separated at the apex).
    For k = 1 it degenerates to a trapezoid with the child section on top.
    """
    if not 0.0 < delta < 1.0:
        raise ConnectorError(f"delta must be in (0, 1), got {delta}")
    c_min, c_max = APEX_C_RANGE
    if not c_min <= c <= c_max:
        raise ConnectorError(f"apex parameter c = {c} outside [{c_min}, {c_max}]")
    if k == 2:
        e_x = max(1.25 * delta, 0.5) * omega
        e_y = c * omega
        t = c * e_x
        verts = np.array([
            [-0.5 * omega, 0.0],
            [0.5 * omega, 0.0],
            [e_x, e_y],
            [0.0, e_y + t],
            [-e_x, e_y],
        ])
        roof_len = float(np.hypot(e_x, t))
        child_len = delta * omega
        lo = 0.5 * (1.0 - child_len / roof_len)
        hi = 0.5 * (1.0 + child_len / roof_len)
        sections = {"S0": (0, 0.0, 1.0), "S1": (2, lo, hi), "S2": (3, lo, hi)}
        section_lengths = np.array([omega, child_len, child_len])
        center = np.array([0.0, e_y])
        child_arm = 0.5 * roof_len
        arm_lengths = np.array([e_y, child_arm, child_arm])
    elif k == 1:
        H = max(c, 0.25) * omega
        verts = np.array([
            [-0.5 * omega, 0.0],
            [0.5 * omega, 0.0],
            [0.5 * delta * omega, H],
            [-0.5 * delta * omega, H],
        ])
        sections = {"S0": (0, 0.0, 1.0), "S1": (2, 0.0, 1.0)}
        section_lengths = np.array([omega, delta * omega])
        center = np.array([0.0, 0.5 * H])
        arm_lengths = np.array([0.5 * H, 0.5 * H])
    else:
        raise ConnectorError(f"planar connectors support k in {{1, 2}}, got k={k}")
    return ConnectorDomain2D(verts, sections, section_lengths, center,
                             arm_lengths, k, delta, c)


def mesh_connector(domain: ConnectorDomain2D, h: float,
                   section_intervals: int) -> "Mesh2D":
    """Mesh the connector with every section resolved into the given number of
    uniform intervals (matching the tube cross subdivisions).

    The interior pitch is floored at the child-section spacing; a strong
    boundary/interior mismatch would otherwise produce sliver triangles.
    """
    from .mesh2d import mesh_polygon

    pitch = float(domain.section_lengths.min()) / section_intervals
    h_eff = max(h, pitch)
    return mesh_polygon(domain.vertices, h_eff, sections=domain.sections,
                        section_intervals=section_intervals)


def harmonic_partition_2d(mesh: "Mesh2D", K) -> np.ndarray:
    """Discrete harmonic partition of unity: column e solves the Laplace
    equation with value 1 on S_e, 0 on the other sections, natural elsewhere.

    K is the stiffness matrix of ``mesh``.  Returns the (n_nodes, k+1) matrix
    of nodal values.
    """
    import scipy.sparse.linalg as spla

    section_nodes = [np.asarray(mesh.sections[f"S{j}"]) for j in range(len(mesh.sections))]
    constrained = np.unique(np.concatenate(section_nodes))
    free = np.setdiff1d(np.arange(mesh.n_nodes), constrained)
    K_ff = K[np.ix_(free, free)].tocsc()
    K_fc = K[np.ix_(free, constrained)]
    lu = spla.splu(K_ff)

    Phi = np.zeros((mesh.n_nodes, len(section_nodes)))
    for e, nodes_e in enumerate(section_nodes):
        bc = np.zeros(len(constrained))
        bc[np.isin(constrained, nodes_e)] = 1.0
        Phi[constrained, e] = bc
        Phi[free, e] = lu.solve(-K_fc @ bc)
    return Phi


def connector_form_matrices(K, M, Phi: np.ndarray):
    """(A, B): Dirichlet and mass forms of the partition fields, from the
    connector pencil (K, M)."""
    A = Phi.T @ (K @ Phi)
    B = Phi.T @ (M @ Phi)
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def connector_minimized_forms(mesh: "Mesh2D", K, M):
    """(E0, E1): the quadratic forms F -> min integral(|grad g|^2 + gamma |g|^2)
    over fields g with section averages F, for gamma = 0, 1, on the pencil
    (K, M) of ``mesh``.

    The rows of C average a field over S0..Sk.  For each gamma the saddle
    system [[K + gamma M, C^T], [C, 0]] is factored once and solved for each
    unit F; the minimizer g depends linearly on F, so the minimized energy is
    exactly the form g^T (K + gamma M) g.  Both systems are nonsingular: for
    gamma = 0 a kernel field would be constant with all section averages zero,
    which forces zero.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from .mesh2d import section_average_weights

    C = sp.vstack([sp.csr_matrix(section_average_weights(mesh, mesh.sections[f"S{j}"]))
                   for j in range(len(mesh.sections))])
    m, n = C.shape
    forms = []
    for Kg in (K, K + M):
        try:
            lu = spla.splu(sp.bmat([[Kg, C.T], [C, None]], format="csc"))
        except RuntimeError as err:
            raise ConnectorError(f"singular saddle system: {err}") from err
        g = np.column_stack([lu.solve(np.concatenate([np.zeros(n), F]))[:n]
                             for F in np.eye(m)])
        E = g.T @ (Kg @ g)
        forms.append(0.5 * (E + E.T))
    return tuple(forms)


# ---------------------------------------------------------------------------
# Equivalence constants
# ---------------------------------------------------------------------------

@dataclass
class FormMatrices:
    Abar: np.ndarray
    A: np.ndarray
    Bbar: np.ndarray
    B: np.ndarray
    E0bar: np.ndarray
    E1bar: np.ndarray
    E0: np.ndarray
    E1: np.ndarray


@dataclass
class EquivalenceConstants:
    alpha_Abar: float
    alpha_A: float
    alpha_Bbar: float
    alpha_B: float
    beta_Abar: float
    beta_Bbar: float
    beta_A: float
    beta_B: float

    @property
    def rho_Q_factor(self) -> float:
        return max(self.alpha_A / self.beta_Abar, self.alpha_B / self.beta_Bbar)

    @property
    def rho_P_factor(self) -> float:
        return min(self.beta_A / self.alpha_Abar, self.beta_B / self.alpha_Bbar)

    def as_dict(self) -> dict:
        return {**vars(self), "rho_Q_factor": self.rho_Q_factor,
                "rho_P_factor": self.rho_P_factor}


def _ones_complement_basis(n: int) -> np.ndarray:
    import scipy.linalg

    return scipy.linalg.null_space(np.ones((1, n)))


def restricted_eigenvalues(Mtx: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix restricted to the complement of ones."""
    Q = _ones_complement_basis(Mtx.shape[0])
    return np.linalg.eigvalsh(Q.T @ Mtx @ Q)


def two_sided_constant(eigs: np.ndarray, what: str) -> float:
    """Smallest alpha with (1/alpha)|f|^2 <= f M f <= alpha |f|^2 on the
    relevant subspace, from the extremal eigenvalues."""
    lo, hi = float(eigs.min()), float(eigs.max())
    if lo <= 0:
        raise ConnectorError(f"{what} is not positive definite on its subspace "
                             f"(min eigenvalue {lo:.3e})")
    return max(hi, 1.0 / lo)


def equivalence_constants(forms: FormMatrices) -> EquivalenceConstants:
    """Extract all two-sided constants from the assembled form matrices.

    alpha constants are the extremal-eigenvalue constants of the partition
    forms (A-type matrices restricted off the ones direction); beta constants
    are the smallest eigenvalues of the minimized-energy forms (gamma = 0
    restricted off ones, gamma = 1 on the full space).
    """
    for name in ("Abar", "A"):
        Mtx = getattr(forms, name)
        kernel_residual = np.abs(Mtx @ np.ones(Mtx.shape[0])).max()
        if kernel_residual > KERNEL_TOL * max(1.0, np.abs(Mtx).max()):
            raise ConnectorError(f"{name} does not annihilate the ones vector "
                                 f"(residual {kernel_residual:.3e})")
    return EquivalenceConstants(
        alpha_Abar=two_sided_constant(restricted_eigenvalues(forms.Abar), "Abar"),
        alpha_A=two_sided_constant(restricted_eigenvalues(forms.A), "A"),
        alpha_Bbar=two_sided_constant(np.linalg.eigvalsh(forms.Bbar), "Bbar"),
        alpha_B=two_sided_constant(np.linalg.eigvalsh(forms.B), "B"),
        beta_Abar=float(restricted_eigenvalues(forms.E0bar).min()),
        beta_Bbar=float(np.linalg.eigvalsh(forms.E1bar).min()),
        beta_A=float(restricted_eigenvalues(forms.E0).min()),
        beta_B=float(np.linalg.eigvalsh(forms.E1).min()),
    )


def read_only(*objects) -> tuple:
    """Mark every numpy array the objects hold read-only, through dataclass
    attributes, dict values, tuples and lists; return the objects.

    A memoized connector result is handed to every caller with the same key,
    so a write into one of its arrays must fail instead of reaching the next.
    """
    for obj in objects:
        if isinstance(obj, np.ndarray):
            obj.setflags(write=False)
        elif isinstance(obj, (tuple, list)):
            read_only(*obj)
        elif isinstance(obj, dict):
            read_only(*obj.values())
        elif is_dataclass(obj):
            read_only(*vars(obj).values())
    return objects


def analyze_connector(delta: float, c: float, k: int, omega: float,
                      N: int, h: float, section_intervals: int):
    """Full pipeline: geometry, mesh, partition, forms and constants.

    The connector pencil is assembled once and shared by the partition, the
    form matrices and the minimized forms.
    Returns (domain, mesh, FormMatrices, EquivalenceConstants).
    """
    from .mesh2d import stiffness_and_mass

    domain = canonical_connector(delta, c=c, k=k, omega=omega)
    mesh = mesh_connector(domain, h=h, section_intervals=section_intervals)
    K, M = stiffness_and_mass(mesh)
    Phi = harmonic_partition_2d(mesh, K)
    star = domain.skeleton_star(N=N)
    Abar, Bbar = skeleton_form_matrices(star)
    A, B = connector_form_matrices(K, M, Phi)
    E0bar, E1bar = skeleton_minimized_forms(star)
    E0, E1 = connector_minimized_forms(mesh, K, M)
    forms = FormMatrices(Abar=Abar, A=A, Bbar=Bbar, B=B,
                         E0bar=E0bar, E1bar=E1bar, E0=E0, E1=E1)
    return domain, mesh, forms, equivalence_constants(forms)
