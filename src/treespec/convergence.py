"""Experiment harness: convergence and bound theorems as executable checks.

Each experiment returns a report dataclass with plain-row tables (ready for
CSV) and explicit pass flags.  Inequality checks fit their own constants from
the data (smallest value on a log grid), never assuming a constant from
theory; every 2-D eigenvalue carries a Richardson error bar from two mesh
levels and assertions consume the gap minus the bar.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .connector import analyze_connector
from .eigensolver import smallest_eigenpairs
from .fem_2d import (
    GeometrySpec2D,
    Matched1D,
    TreeMesh2D,
    assemble_2d,
    build_geometry_2d,
    matched_mesh_1d,
    p_eps_project,
    q_eps_lift,
)
from .operator_1d import (
    Operator1DError,
    PotentialProfile,
    assemble_1d,
    average_potential_1d,
    build_mesh_1d,
    build_rho_P,
    build_rho_Q,
    rho_star_profile,
    zone_modified_profile,
)
from .tree_model import Tree, TreeSpec, build_tree

C_GRID = np.logspace(-3.0, 3.0, 64 * 6 + 1)


class ExperimentError(RuntimeError):
    """An experiment could not produce a meaningful result."""


def _pole_denominator(direction: str, x, c: float, eps: float):
    """1 - c eps x for the "Q" bounds, 1 - sqrt(eps) - c eps x for "P";
    elementwise for an array x."""
    head = 1.0 if direction == "Q" else 1.0 - math.sqrt(eps)
    return head - c * eps * x


def _bound_transform(direction: str, x: float, a: float, c: float,
                     eps: float) -> float:
    """(1 + a eps) x over the pole denominator, +inf past the pole."""
    denom = _pole_denominator(direction, x, c, eps)
    if denom <= 0:
        return math.inf
    return (1.0 + a * eps) * x / denom


def phi_Q(x: float, c: float, eps: float) -> float:
    """Upper-bound transform (1 + c eps) x / (1 - c eps x), +inf past the pole."""
    return _bound_transform("Q", x, c, c, eps)


def phi_P(x: float, c: float, eps: float) -> float:
    """Transform (1 + c eps) x / (1 - sqrt(eps) - c eps x), +inf past the pole."""
    return _bound_transform("P", x, c, c, eps)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    tree: TreeSpec = field(default_factory=TreeSpec)
    eps_list: tuple = (0.2, 0.1, 0.05)
    n_list: tuple = (4, 8, 16, 32)
    m: int = 4
    h_1d: float = 0.01
    h_2d: float = 0.03
    n_cross: int = 3
    apex_c: float = 0.3
    zone_factor: float = 1.1
    potential: str = "zero"          # "zero" | "cosine"
    potential_params: tuple = (1.0, 1.0)
    seed: int = 0

    def geometry(self, eps: float, h: float | None = None) -> GeometrySpec2D:
        """Inflated-tree geometry at width eps, at pitch h_2d unless h is given."""
        return GeometrySpec2D(eps=eps, c=self.apex_c,
                              h=self.h_2d if h is None else h,
                              n_cross=self.n_cross)

    def validate(self) -> None:
        self.tree.validate()
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ExperimentError("eps_list must be strictly decreasing")
        if list(self.n_list) != sorted(self.n_list):
            raise ExperimentError("n_list must be increasing")
        self.w_limit()   # rejects a malformed potential

    # potential plumbing: the radial potential is the one definition; the
    # 2-D potential and the bound C_W are read from it
    def w_limit(self) -> PotentialProfile | None:
        """The radial potential W(theta), None for "zero"; rejects an unknown
        kind or cosine parameters other than [amp, freq]."""
        if self.potential == "zero":
            return None
        if self.potential != "cosine":
            raise ExperimentError(
                f"potential.kind: unknown kind {self.potential!r}")
        try:
            return PotentialProfile("cosine", tuple(self.potential_params))
        except Operator1DError as err:
            raise ExperimentError(f"potential.params: {err}") from err

    def w2d(self):
        """W(theta, s) on the inflated tree: the radial potential, constant
        across the section."""
        W = self.w_limit()
        return None if W is None else lambda theta, s: W(theta)

    def c_w(self) -> float:
        W = self.w_limit()
        return 0.0 if W is None else abs(W.params[0])


def reference_connector(cfg: ExperimentConfig):
    """:func:`analyze_connector` on the reference connector of this tree,
    meshed finer than the tube junctions; its constants set the zone weights."""
    return analyze_connector(
        cfg.tree.delta, c=cfg.apex_c, k=min(cfg.tree.k, 2), omega=cfg.tree.omega,
        N=cfg.tree.N, h=0.05, section_intervals=12)


def width_weighted_pair(tree: Tree, cfg: ExperimentConfig, consts,
                        tm: TreeMesh2D, matched: Matched1D):
    """Pencils of A_Q^eps and A_P^eps on the matched 1-D mesh: rho* with the
    zone weights rho_Q / rho_P, and the cross-section average of the 2-D
    potential."""
    eps = tm.spec2d.eps
    zones = tm.zones()
    rs = rho_star_profile(tree)
    W2d = cfg.w2d()
    W1 = None if W2d is None else average_potential_1d(W2d, tree, eps, zones)
    return tuple(assemble_1d(tree, matched.mesh, rho, rs, W1)
                 for rho in (build_rho_Q(tree, consts, eps, zones=zones),
                             build_rho_P(tree, consts, eps, zones=zones)))


def richardson_eigenvalues(tree: Tree, cfg: ExperimentConfig, eps: float):
    """The cfg.m smallest 2-D eigenvalues at two mesh levels.

    Returns (extrapolated values, error bars, fine-level geometry).
    """
    W2d = cfg.w2d()
    values = []
    for h in (cfg.h_2d, 0.5 * cfg.h_2d):
        tm = build_geometry_2d(tree, cfg.geometry(eps, h))
        system = assemble_2d(tm, W=W2d)
        values.append(smallest_eigenpairs(system.K, system.M, cfg.m,
                                          with_vectors=False).values)
    coarse, fine = values
    extrap = fine + (fine - coarse) / 3.0
    bars = np.abs(fine - coarse) / 3.0 + 1e-12
    return extrap, bars, tm


def limit_spectrum_1d(tree: Tree, cfg: ExperimentConfig):
    """The cfg.m smallest eigenvalues of the limit operator (rho* weights,
    limit potential)."""
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=min(cfg.h_1d, 0.01), breakpoints=rs.breakpoints)
    system = assemble_1d(tree, mesh, rs, rs, cfg.w_limit())
    return smallest_eigenpairs(system.K, system.M, cfg.m, with_vectors=False)


# ---------------------------------------------------------------------------
# Weight-sequence convergence (the n -> infinity theorem)
# ---------------------------------------------------------------------------

@dataclass
class WeightConvergenceReport:
    n_list: tuple
    eigenvalues: np.ndarray        # (len(n_list), m) perturbed
    limit: np.ndarray              # (m,)
    gaps: np.ndarray               # (len(n_list), m) absolute
    equiv_constant: float
    envelope_ok: bool
    envelope_failures: list
    gaps_decreasing: bool
    final_relative_gap: float

    def rows(self):
        for i, n in enumerate(self.n_list):
            for mm in range(len(self.limit)):
                yield {"n": n, "m": mm + 1,
                       "lambda_n": self.eigenvalues[i, mm],
                       "lambda_limit": self.limit[mm],
                       "gap": self.gaps[i, mm]}


def weight_convergence_experiment(cfg: ExperimentConfig) -> WeightConvergenceReport:
    """Spectra of A_n with vertex-zone weights of width ~1/n against the limit.

    rho_{1,n} boosts rho* by the zone factor on zones of radius (1/n) delta**gen,
    rho_{2,n} damps it by the reciprocal; both converge to rho* in measure.
    All solves share one mesh refined to every zone breakpoint, so eigenvalue
    differences reflect the weights alone.
    """
    cfg.validate()
    tree = build_tree(cfg.tree)
    rs = rho_star_profile(tree)
    from .operator_1d import VertexZones

    profiles = []
    all_bps = [rs.breakpoints]
    for n in cfg.n_list:
        zones = VertexZones(1.0 / n)
        r1 = zone_modified_profile(tree, rs, cfg.zone_factor, zones)
        r2 = zone_modified_profile(tree, rs, 1.0 / cfg.zone_factor, zones)
        profiles.append((r1, r2))
        all_bps.append(r1.breakpoints)
    mesh = build_mesh_1d(tree, h=cfg.h_1d, breakpoints=np.unique(np.concatenate(all_bps)))

    W = cfg.w_limit()
    C_W = cfg.c_w()
    limit_sys = assemble_1d(tree, mesh, rs, rs, W)
    limit = smallest_eigenpairs(limit_sys.K, limit_sys.M, cfg.m,
                                with_vectors=False).values

    eigenvalues = np.empty((len(cfg.n_list), cfg.m))
    c = max(cfg.zone_factor, 1.0 / cfg.zone_factor)
    failures = []
    for i, (r1, r2) in enumerate(profiles):
        system = assemble_1d(tree, mesh, r1, r2, W)
        vals = smallest_eigenpairs(system.K, system.M, cfg.m,
                                   with_vectors=False).values
        eigenvalues[i] = vals
        lo = (limit - 2 * C_W) / c ** 2
        hi = c ** 2 * (limit + 2 * C_W)
        for mm in range(cfg.m):
            if not (lo[mm] - 1e-9 <= vals[mm] <= hi[mm] + 1e-9):
                failures.append({"n": cfg.n_list[i], "m": mm + 1,
                                 "value": vals[mm], "lo": lo[mm], "hi": hi[mm]})

    gaps = np.abs(eigenvalues - limit[None, :])
    decreasing = bool(np.all(np.diff(gaps, axis=0) < 0))
    final_rel = float((gaps[-1] / limit).max())
    return WeightConvergenceReport(
        n_list=tuple(cfg.n_list), eigenvalues=eigenvalues, limit=limit,
        gaps=gaps, equiv_constant=c, envelope_ok=not failures,
        envelope_failures=failures, gaps_decreasing=decreasing,
        final_relative_gap=final_rel)


# ---------------------------------------------------------------------------
# Sandwich experiment (2-D vs width-weighted 1-D spectra)
# ---------------------------------------------------------------------------

@dataclass
class SandwichRow:
    eps: float
    m: int
    mu: float              # A_Q^eps eigenvalue
    lam: float             # A_P^eps eigenvalue
    nu: float              # 2-D eigenvalue (Richardson extrapolated)
    nu_bar: float          # error bar
    phi_Q_mu: float
    phi_P_nu: float
    ok_upper: bool         # nu - bar <= phi_Q(mu)
    ok_lower: bool         # lam <= phi_P(nu + bar)


@dataclass
class SandwichReport:
    rows: list
    fitted_c: dict                 # eps -> c (or None)
    c_stable_factor: float
    nu1_minus_mu1: list            # per eps, |nu_1^eps - mu_1(limit)|
    gaps_decreasing: bool
    all_pass: bool


def _fit_sandwich_c(eps, mu, lam, nu, bars):
    """Smallest c on the grid with nu - bar <= phi_Q(mu) and
    lam <= phi_P(nu + bar) for every mode, or None."""
    for c in C_GRID:
        if all(nu[m] - bars[m] <= phi_Q(mu[m], c, eps)
               and lam[m] <= phi_P(nu[m] + bars[m], c, eps)
               for m in range(len(mu))):
            return float(c)
    return None


def sandwich_experiment(cfg: ExperimentConfig) -> SandwichReport:
    """Per eps: mu (A_Q), lambda (A_P), nu (2-D), fitted c and the gap to the
    limit spectrum."""
    cfg.validate()
    tree = build_tree(cfg.tree)
    *_, consts = reference_connector(cfg)
    limit_spec = limit_spectrum_1d(tree, cfg)

    rows = []
    fitted = {}
    gaps1 = []
    for eps in cfg.eps_list:
        nu, bars, tm = richardson_eigenvalues(tree, cfg, eps)
        sysQ, sysP = width_weighted_pair(tree, cfg, consts, tm, matched_mesh_1d(tm))
        mu = smallest_eigenpairs(sysQ.K, sysQ.M, cfg.m, with_vectors=False).values
        lam = smallest_eigenpairs(sysP.K, sysP.M, cfg.m, with_vectors=False).values
        c_fit = _fit_sandwich_c(eps, mu, lam, nu, bars)
        fitted[eps] = c_fit
        for m in range(cfg.m):
            if c_fit is None:   # no finite constant: failure row, not a crash
                pq = pp = math.nan
                ok_up = ok_lo = False
            else:
                pq = phi_Q(mu[m], c_fit, eps)
                pp = phi_P(nu[m] + bars[m], c_fit, eps)
                ok_up = bool(nu[m] - bars[m] <= pq)
                ok_lo = bool(lam[m] <= pp)
            rows.append(SandwichRow(
                eps=eps, m=m + 1, mu=mu[m], lam=lam[m], nu=nu[m],
                nu_bar=bars[m], phi_Q_mu=pq, phi_P_nu=pp,
                ok_upper=ok_up, ok_lower=ok_lo))
        gaps1.append(abs(nu[0] - limit_spec.values[0]))

    cs = [c for c in fitted.values() if c]
    stable = float(max(cs) / min(cs)) if cs and len(cs) == len(cfg.eps_list) else math.inf
    decreasing = bool(np.all(np.diff(gaps1) < 0))
    all_pass = all(r.ok_upper and r.ok_lower for r in rows) and all(
        fitted[e] is not None for e in cfg.eps_list)
    return SandwichReport(rows=rows, fitted_c=fitted, c_stable_factor=stable,
                          nu1_minus_mu1=gaps1, gaps_decreasing=decreasing,
                          all_pass=all_pass)


# ---------------------------------------------------------------------------
# Kernel gaps
# ---------------------------------------------------------------------------

@dataclass
class KernelGapReport:
    which: str
    eps_list: tuple
    infima: list
    slope: float
    connector_concentration: list | None = None
    concentration_slope: float | None = None


def q_kernel_dofs(tree: Tree, mesh, zones) -> np.ndarray:
    """1-D dofs strictly inside the vertex zones (the support of ker Q^eps)."""
    sel = []
    for j in range(tree.J):
        par, chi = zones.reaches(tree, j)
        t_v = tree.t_shell[j + 1]
        lo, hi = t_v - par, t_v + chi
        inside = (mesh.dof_t > lo + 1e-12) & (mesh.dof_t < hi - 1e-12)
        sel.append(np.nonzero(inside)[0])
    if not sel or not len(np.concatenate(sel)):
        raise ExperimentError("no interior zone dofs after discretization; "
                              "refine the 1-D mesh")
    return np.unique(np.concatenate(sel))


def kernel_gap_check(cfg: ExperimentConfig, which: str) -> KernelGapReport:
    """Infimum of the Rayleigh quotient over the discretized kernel subspace.

    which = "Q": 1-D functions supported inside the vertex zones, quotient of
    A_Q^eps.  which = "P": 2-D fields whose cross-section averages vanish at
    every station, quotient of the 2-D operator.  For "P" the report also
    carries the connector-concentration quotient
    inf |grad u|^2 / integral_over_connectors |u|^2, whose rate is the 1/eps
    ingredient of the theorem.
    """
    cfg.validate()
    if which not in ("Q", "P"):
        raise ExperimentError("which must be 'Q' or 'P'")
    if len(cfg.eps_list) < 2:
        raise ExperimentError("a rate fit needs at least two eps values")
    tree = build_tree(cfg.tree)
    infima = []
    concentration = [] if which == "P" else None
    if which == "Q":
        *_, consts = reference_connector(cfg)
    for eps in cfg.eps_list:
        tm = build_geometry_2d(tree, cfg.geometry(eps))
        matched = matched_mesh_1d(tm)
        if which == "Q":
            system, _ = width_weighted_pair(tree, cfg, consts, tm, matched)
            # the zone dofs, in the numbering of the root-eliminated pencil
            dofs = np.searchsorted(system.free,
                                   q_kernel_dofs(tree, matched.mesh, tm.zones()))
            Kz = system.K[np.ix_(dofs, dofs)]
            Mz = system.M[np.ix_(dofs, dofs)]
        else:
            system = assemble_2d(tm, W=cfg.w2d())
            Z = p_kernel_basis(tm, matched, system.free)
            Kz = (Z.T @ (system.K @ Z)).tocsr()
            Mz = (Z.T @ (system.M @ Z)).tocsr()
        vals = smallest_eigenpairs(Kz, Mz, 1, with_vectors=False).values
        infima.append(float(vals[0]))
        if which == "P":
            free = system.free
            Mv_f = tm.connector_triangle_mass()[np.ix_(free, free)]
            # the concentration r = inf uKu / uM_conn u; the SPD pencil
            # (K, K + M_conn) has the smallest eigenvalue q = r / (1 + r)
            q = smallest_eigenpairs(system.K, system.K + Mv_f, 1,
                                    with_vectors=False).values[0]
            concentration.append(float(q / (1.0 - q)))
    slope = float(np.polyfit(np.log(cfg.eps_list), np.log(infima), 1)[0])
    conc_slope = None
    if concentration:
        conc_slope = float(np.polyfit(np.log(cfg.eps_list),
                                      np.log(concentration), 1)[0])
    return KernelGapReport(which=which, eps_list=tuple(cfg.eps_list),
                           infima=infima, slope=slope,
                           connector_concentration=concentration,
                           concentration_slope=conc_slope)


def p_kernel_basis(tmesh: TreeMesh2D, matched: Matched1D,
                   free: np.ndarray) -> sp.csr_matrix:
    """Sparse basis of the discrete ker P^eps inside the free (non-Dirichlet)
    2-D dofs: all cross-section station averages vanish.

    Every station row off the Dirichlet root (whose rows are already zero)
    gets the null space of the trapezoid weights as a block of columns;
    every other free node gets a unit column.
    """
    n_free = len(free)
    full_to_free = -np.ones(tmesh.n_nodes, dtype=int)
    full_to_free[free] = np.arange(n_free)
    w = tmesh.cross_average_weights()
    local_null = np.linalg.svd(np.vstack([w]))[2][1:].T   # (n_loc, n_loc - 1)

    rows = matched.station_rows
    fr = full_to_free[rows[~np.isin(rows[:, 0], tmesh.root_nodes)]]
    if np.any(fr < 0):
        raise ExperimentError("station row intersects the Dirichlet set")
    # station s: the local null space, block s of kron(I, local_null),
    # placed on the free indices of its row
    on_rows = sp.csr_matrix((np.ones(fr.size), (fr.ravel(), np.arange(fr.size))),
                            shape=(n_free, fr.size))
    blocks = on_rows @ sp.kron(sp.identity(len(fr)), local_null)
    unit = sp.identity(n_free, format="csc")[:, np.setdiff1d(np.arange(n_free), fr)]
    Z = sp.hstack([blocks, unit]).tocsr()
    if Z.shape[1] == 0:
        raise ExperimentError("empty kernel after discretization")
    return Z


def p_kernel_residual(tmesh: TreeMesh2D, matched: Matched1D,
                      u_global: np.ndarray) -> float:
    """Max station-average magnitude; zero iff u is in the discrete ker P."""
    averages = (matched.P @ u_global)[matched.station_dofs]
    return float(np.abs(averages).max(initial=0.0))


# ---------------------------------------------------------------------------
# Rayleigh-quotient comparison on random functions
# ---------------------------------------------------------------------------

@dataclass
class RayleighBoundReport:
    eps: float
    direction: str        # "Q" or "P"
    fitted_a: float
    fitted_c: float
    violations: int
    samples: int


_BLOCK = 16             # sample columns smoothed and mapped together
_SMOOTHING_PASSES = 20


def _jacobi_sweep(K) -> sp.csr_matrix:
    """One damped Jacobi sweep of the stiffness K as an operator,
    S = I - D^-1 K / 2, with zero diagonal entries of D replaced by one."""
    d = K.diagonal()
    d[d == 0] = 1.0
    return sp.identity(K.shape[0], format="csr") - sp.diags(0.5 / d) @ K


def _rayleigh_quotients(system, X: np.ndarray) -> np.ndarray:
    """Rayleigh quotient of each column of X in the pencil of system."""
    return (np.einsum("ij,ij->j", X, system.K @ X)
            / np.einsum("ij,ij->j", X, system.M @ X))


def _rayleigh_samples(rng, n_samples: int, tm: TreeMesh2D, matched: Matched1D,
                      sysQ, sysP, sys2):
    """(x, y) Rayleigh-quotient pairs of n_samples random smoothed fields per
    direction, as two (n_samples, 2) arrays: (R_1D[f], R_2D[Q f]) on the A_Q
    pencil, then (R_2D[v], R_1D[P v]) on the A_P pencil.

    Fields are drawn, smoothed and mapped in (n, b) column blocks of at most
    _BLOCK samples, every Q block before every P block; a block is drawn as
    ``standard_normal((b, n))``, the same stream as b draws of size n.
    """
    carries = (
        # the lift of a field vanishing at the root vanishes on root_nodes
        (sysQ, sys2,
         lambda F: q_eps_lift(tm, matched, sysQ.expand(F))[sys2.free]),
        (sys2, sysP,
         lambda V: p_eps_project(tm, matched, sys2.expand(V))[sysP.free]),
    )
    out = []
    for source, target, carry in carries:
        S = _jacobi_sweep(source.K)
        samples = np.empty((n_samples, 2))
        for start in range(0, n_samples, _BLOCK):
            X = rng.standard_normal((min(_BLOCK, n_samples - start),
                                     S.shape[0])).T
            for _ in range(_SMOOTHING_PASSES):
                X = S @ X
            rows = samples[start:start + X.shape[1]]
            rows[:, 0] = _rayleigh_quotients(source, X)
            rows[:, 1] = _rayleigh_quotients(target, carry(X))
        out.append(samples)
    return tuple(out)


def _rayleigh_report(direction: str, samples: np.ndarray,
                     eps: float) -> RayleighBoundReport:
    """Smallest grid c, with the smallest a it needs, such that every (x, y)
    sample has y <= (1 + a eps) x / (pole denominator); NaN constants and
    every sample counted as a violation when no grid value fits."""
    x, y = samples[:, 0], samples[:, 1]
    n = len(samples)
    for c in C_GRID:
        denom = _pole_denominator(direction, x, c, eps)
        live = (denom > 0) & (x > 0)     # past the pole the bound is +inf
        need = (y[live] * denom[live] / x[live] - 1.0) / eps
        a_needed = np.fmax.reduce(need, initial=0.0)
        if a_needed <= C_GRID[-1]:
            break
    else:
        return RayleighBoundReport(eps=eps, direction=direction,
                                   fitted_a=math.nan, fitted_c=math.nan,
                                   violations=n, samples=n)
    a, c = float(a_needed), float(c)
    denom = _pole_denominator(direction, x, c, eps)
    bound = np.full(n, math.inf)
    np.divide((1.0 + a * eps) * x, denom, out=bound, where=denom > 0)
    viol = int(np.count_nonzero(y > bound * (1 + 1e-12)))
    return RayleighBoundReport(eps=eps, direction=direction, fitted_a=a,
                               fitted_c=c, violations=viol, samples=n)


def rayleigh_bound_check(cfg: ExperimentConfig, eps: float,
                         n_samples: int = 200) -> list:
    """Fit (a, c) such that the Q- and P-direction Rayleigh bounds hold on
    random functions; returns one report per direction with violation counts.

    The random fields are drawn, smoothed (20 damped Jacobi sweeps, folded
    into one sparse operator per pencil), mapped and evaluated in column
    blocks.  ``violations`` is zero by construction whenever a grid value
    fits, because the fit reads the same samples the count does; it counts
    every sample when none fits.
    """
    cfg.validate()
    tree = build_tree(cfg.tree)
    *_, consts = reference_connector(cfg)
    rng = np.random.default_rng(cfg.seed)
    tm = build_geometry_2d(tree, cfg.geometry(eps))
    matched = matched_mesh_1d(tm)
    sysQ, sysP = width_weighted_pair(tree, cfg, consts, tm, matched)
    sys2 = assemble_2d(tm, W=cfg.w2d())
    samples_Q, samples_P = _rayleigh_samples(rng, n_samples, tm, matched,
                                             sysQ, sysP, sys2)
    return [_rayleigh_report("Q", samples_Q, eps),
            _rayleigh_report("P", samples_P, eps)]


# ---------------------------------------------------------------------------
# Eigenfunction projection convergence
# ---------------------------------------------------------------------------

@dataclass
class ProjectionRow:
    eps: float
    lambda_2d: float
    distance: float
    overlap: float
    holder_constant: float


@dataclass
class ProjectionReport:
    mode: int
    rows: list
    distances_decreasing: bool
    final_distance: float
    tracking_ok: bool


def vertex_holder_constant(tmesh: TreeMesh2D, matched: Matched1D,
                           pu: np.ndarray) -> float:
    """max over vertices and arm pairs of |P u(p_e) - P u(p_e~)| / sqrt(dist)."""
    tree = tmesh.tree
    gen = np.repeat(np.arange(tree.J), tree.k ** np.arange(tree.J))
    arms = np.column_stack([tmesh.cut_parent[gen]]
                           + [tmesh.cut_child[gen]] * tree.k)
    vals = pu[matched.section_dofs]
    a, b = np.triu_indices(tree.k + 1, 1)
    ratio = np.abs(vals[:, a] - vals[:, b]) / np.sqrt(arms[:, a] + arms[:, b])
    return float(ratio.max(initial=0.0))


def eigenfunction_projection_experiment(cfg: ExperimentConfig,
                                        mode: int = 1) -> ProjectionReport:
    """Distance between P^eps u_eps and the limit eigenfunction of
    -(rho* u')'/rho* across the eps list.

    The 2-D eigenfunction is normalized to ||u||_L2 = eps^((N-1)/2); the limit
    mode is solved on each matched 1-D mesh and both are compared in the
    rho*-weighted L2 inner product after sign alignment.  Tracking flags any
    eps whose projected mode overlaps the limit mode by less than 0.5.
    """
    cfg.validate()
    tree = build_tree(cfg.tree)
    W2d = cfg.w2d()
    rows = []
    tracking_ok = True
    for eps in cfg.eps_list:
        tm = build_geometry_2d(tree, cfg.geometry(eps, 0.5 * cfg.h_2d))
        system = assemble_2d(tm, W=W2d)
        spec = smallest_eigenpairs(system.K, system.M, mode)
        u = spec.vectors[:, mode - 1]
        u = u * (math.sqrt(eps) / math.sqrt(float(u @ (system.M @ u))))
        matched = matched_mesh_1d(tm)
        pu = p_eps_project(tm, matched, system.expand(u))

        rs = rho_star_profile(tree)
        sys1 = assemble_1d(tree, matched.mesh, rs, rs, cfg.w_limit())
        lspec = smallest_eigenpairs(sys1.K, sys1.M, mode)
        ustar = lspec.vectors[:, mode - 1]
        M1 = sys1.M
        ustar = ustar / math.sqrt(float(ustar @ (M1 @ ustar)))
        pf = pu[sys1.free]
        inner = float(pf @ (M1 @ ustar))
        if inner < 0:
            ustar = -ustar
            inner = -inner
        norm_pf = math.sqrt(float(pf @ (M1 @ pf)))
        overlap = inner / norm_pf if norm_pf > 0 else 0.0
        if overlap < 0.5:
            tracking_ok = False
        dist = math.sqrt(float((pf - ustar) @ (M1 @ (pf - ustar))))

        uH = u * (math.sqrt(eps) / math.sqrt(float(u @ (system.K @ u))
                                            + float(u @ (system.M @ u))))
        holder = vertex_holder_constant(tm, matched,
                                        p_eps_project(tm, matched, system.expand(uH)))
        rows.append(ProjectionRow(eps=eps, lambda_2d=float(spec.values[mode - 1]),
                                  distance=dist, overlap=overlap,
                                  holder_constant=holder))
    dists = [r.distance for r in rows]
    decreasing = bool(np.all(np.diff(dists) < 0))
    if not decreasing and tracking_ok:
        warnings.warn("projection distances are not monotone although mode "
                      "tracking is consistent (subsequence caveat)", stacklevel=2)
    return ProjectionReport(mode=mode, rows=rows,
                            distances_decreasing=decreasing,
                            final_distance=dists[-1], tracking_ok=tracking_ok)
