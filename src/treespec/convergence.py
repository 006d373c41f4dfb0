"""Experiment harness: convergence and bound theorems as executable checks.

Each experiment returns a report dataclass with explicit pass flags; a
report that is written as a CSV table holds it in ``rows``, one dict per line
keyed by column in file order.  Inequality checks fit their own constants from
the data (smallest value on a log grid), never assuming a constant from
theory; every 2-D eigenvalue carries a Richardson error bar from two mesh
levels and assertions consume the gap minus the bar.
"""

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import FINE_PITCH, ExperimentConfig, ExperimentError
from .connector import analyze_connector, read_only
from .eigensolver import smallest_eigenpairs
from .fem_2d import (
    Matched1D,
    assemble_2d,
    build_geometry_2d,
    matched_mesh_1d,
    p_eps_project,
)
from .operator_1d import (
    VertexZones,
    assemble_1d,
    average_potential_1d,
    build_mesh_1d,
    rho_star_profile,
    zone_modified_profile,
)
from .tree_model import Tree, build_tree

C_GRID = np.logspace(-3.0, 3.0, 64 * 6 + 1)
_REFERENCE_CACHE_SIZE = 4    # reference connector keys kept per process


def _pole_denominator(direction: str, x, c: float, eps: float):
    """1 - c eps x for the "Q" bounds, 1 - sqrt(eps) - c eps x for "P";
    elementwise for an array x."""
    head = 1.0 if direction == "Q" else 1.0 - math.sqrt(eps)
    return head - c * eps * x


def _bound_transform(direction: str, x, a, c, eps: float):
    """(1 + a eps) x over the pole denominator, +inf where the denominator
    is <= 0; elementwise over the broadcast of x, a and c."""
    denom = _pole_denominator(direction, x, c, eps)
    out = np.full(np.shape(denom), math.inf)
    np.divide((1.0 + a * eps) * x, denom, out=out, where=denom > 0)
    return out[()]


def phi_Q(x: float, c: float, eps: float) -> float:
    """Upper-bound transform (1 + c eps) x / (1 - c eps x), +inf past the pole."""
    return _bound_transform("Q", x, c, c, eps)


def phi_P(x: float, c: float, eps: float) -> float:
    """Transform (1 + c eps) x / (1 - sqrt(eps) - c eps x), +inf past the pole."""
    return _bound_transform("P", x, c, c, eps)


def reference_connector(cfg: ExperimentConfig):
    """:func:`analyze_connector` on the reference connector of this tree,
    meshed finer than the tube junctions; its constants set the zone weights.

    The result is computed once per (delta, apex_c, k, omega, N) and shared:
    its arrays are read-only."""
    return _reference_connector(cfg.tree.delta, cfg.apex_c, cfg.tree.k,
                                cfg.tree.omega, cfg.tree.N)


@lru_cache(maxsize=_REFERENCE_CACHE_SIZE)
def _reference_connector(delta, c, k, omega, N):
    return read_only(*analyze_connector(delta, c=c, k=k, omega=omega, N=N,
                                        h=0.05, section_intervals=12))


def width_weighted_pencil(cfg: ExperimentConfig, matched: Matched1D, which: str):
    """Pencil of A_Q^eps (which = "Q") or A_P^eps ("P") on the matched 1-D
    mesh: the stiffness weight is rho* scaled on the vertex zones by the
    reference connector's rho_Q factor (a boost) or rho_P factor (a damping),
    the mass weight rho*, and the potential the cross-section average of the
    radial one."""
    tree, zones = matched.tmesh.tree, matched.tmesh.zones
    *_, consts = reference_connector(cfg)
    factor = {"Q": consts.rho_Q_factor, "P": consts.rho_P_factor}[which]
    rs = rho_star_profile(tree)
    W = cfg.w_limit()
    W1 = None if W is None else average_potential_1d(W, tree, zones)
    return assemble_1d(tree, matched.mesh, zone_modified_profile(tree, rs, factor, zones),
                       rs, W1)


def richardson_eigenvalues(tree: Tree, cfg: ExperimentConfig, eps: float):
    """The cfg.m smallest 2-D eigenvalues at two mesh levels.

    Returns (extrapolated values, error bars, fine-level geometry).
    """
    W = cfg.w_limit()
    values = []
    for h in (cfg.h_2d, FINE_PITCH * cfg.h_2d):
        tm = build_geometry_2d(tree, cfg.geometry(eps, h))
        system = assemble_2d(tm, W)
        values.append(smallest_eigenpairs(system.K, system.M, cfg.m,
                                          with_vectors=False).values)
    coarse, fine = values
    extrap = fine + (fine - coarse) / 3.0
    bars = np.abs(fine - coarse) / 3.0 + 1e-12
    return extrap, bars, tm


def limit_spectrum_1d(tree: Tree, cfg: ExperimentConfig):
    """The cfg.m smallest eigenvalues of the limit operator (rho* weights,
    limit potential) on a mesh of pitch cfg.h_1d."""
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=cfg.h_1d, breakpoints=rs.breakpoints)
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

    @property
    def rows(self) -> list:
        return [{"n": n, "m": mm + 1, "lambda_n": self.eigenvalues[i, mm],
                 "lambda_limit": self.limit[mm], "gap": self.gaps[i, mm]}
                for i, n in enumerate(self.n_list) for mm in range(len(self.limit))]


def weight_convergence_experiment(cfg: ExperimentConfig) -> WeightConvergenceReport:
    """Spectra of A_n with vertex-zone weights of width ~1/n against the limit.

    rho_{1,n} boosts rho* by the zone factor on zones of radius (1/n) delta**gen,
    rho_{2,n} damps it by the reciprocal; both converge to rho* in measure.
    All solves share one mesh refined to every zone breakpoint, so eigenvalue
    differences reflect the weights alone.
    """
    cfg.validate()
    cfg._require_trend("experiment.n_list")
    if cfg.tree.J < 1:
        raise ExperimentError("the weight zones need a branching vertex: "
                              f"tree.J must be >= 1, got {cfg.tree.J}")
    tree = build_tree(cfg.tree)
    rs = rho_star_profile(tree)
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
    final_rel = float((gaps[-1] / np.abs(limit)).max())
    return WeightConvergenceReport(
        n_list=tuple(cfg.n_list), eigenvalues=eigenvalues, limit=limit,
        gaps=gaps, equiv_constant=c, envelope_ok=not failures,
        envelope_failures=failures, gaps_decreasing=decreasing,
        final_relative_gap=final_rel)


# ---------------------------------------------------------------------------
# Sandwich experiment (2-D vs width-weighted 1-D spectra)
# ---------------------------------------------------------------------------

@dataclass
class SandwichReport:
    # per eps and mode: mu (A_Q^eps), lambda (A_P^eps), nu (2-D, Richardson
    # extrapolated) with its error bar, both transforms at the fitted c, and
    # ok_upper (nu - bar <= phi_Q(mu)) and ok_lower (lambda <= phi_P(nu + bar))
    # as 1 or 0
    rows: list
    fitted_c: dict                 # eps -> c (or None)
    c_stable_factor: float
    nu1_minus_mu1: list            # per eps, |nu_1^eps - mu_1(limit)|
    gaps_decreasing: bool
    all_pass: bool


def _fit_sandwich_c(eps, mu, lam, nu, bars):
    """Smallest c on the grid with nu - bar <= phi_Q(mu) and
    lam <= phi_P(nu + bar) for every mode, or None."""
    c = C_GRID[:, None]
    fits = ((nu - bars <= _bound_transform("Q", mu, c, c, eps))
            & (lam <= _bound_transform("P", nu + bars, c, c, eps))).all(axis=1)
    return float(C_GRID[fits.argmax()]) if fits.any() else None


def sandwich_experiment(cfg: ExperimentConfig) -> SandwichReport:
    """Per eps: mu (A_Q), lambda (A_P), nu (2-D), fitted c and the gap to the
    limit spectrum."""
    cfg.validate()
    cfg._require_trend("geometry.eps_list")
    tree = build_tree(cfg.tree)
    limit_spec = limit_spectrum_1d(tree, cfg)

    rows = []
    fitted = {}
    gaps1 = []
    for eps in cfg.eps_list:
        nu, bars, tm = richardson_eigenvalues(tree, cfg, eps)
        matched = matched_mesh_1d(tm)
        sysQ, sysP = (width_weighted_pencil(cfg, matched, w) for w in ("Q", "P"))
        mu = smallest_eigenpairs(sysQ.K, sysQ.M, cfg.m, with_vectors=False).values
        lam = smallest_eigenpairs(sysP.K, sysP.M, cfg.m, with_vectors=False).values
        c_fit = _fit_sandwich_c(eps, mu, lam, nu, bars)
        fitted[eps] = c_fit
        for m in range(cfg.m):
            if c_fit is None:   # no finite constant: failure row, not a crash
                pq = pp = math.nan
                ok_up = ok_lo = 0
            else:
                pq = phi_Q(mu[m], c_fit, eps)
                pp = phi_P(nu[m] + bars[m], c_fit, eps)
                ok_up = int(nu[m] - bars[m] <= pq)
                ok_lo = int(lam[m] <= pp)
            rows.append({"eps": eps, "m": m + 1, "mu": mu[m], "lambda": lam[m],
                         "nu": nu[m], "nu_bar": bars[m], "phi_Q_mu": pq,
                         "phi_P_nu": pp, "ok_upper": ok_up, "ok_lower": ok_lo})
        gaps1.append(abs(nu[0] - limit_spec.values[0]))

    cs = [c for c in fitted.values() if c]
    stable = float(max(cs) / min(cs)) if cs and len(cs) == len(cfg.eps_list) else math.inf
    decreasing = bool(np.all(np.diff(gaps1) < 0))
    all_pass = all(r["ok_upper"] and r["ok_lower"] for r in rows) and all(
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
    connector_concentration: list | None   # None for "Q"
    concentration_slope: float | None


def q_kernel_dofs(mesh, zones) -> np.ndarray:
    """1-D dofs strictly inside the vertex zones (the support of ker Q^eps)."""
    lo, _, hi = zones.bounds(mesh.tree)
    t = mesh.dof_t[:, None]
    dofs = np.nonzero(((t > lo + 1e-12) & (t < hi - 1e-12)).any(axis=1))[0]
    if not len(dofs):
        raise ExperimentError("no interior zone dofs after discretization; "
                              "refine the 1-D mesh")
    return dofs


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
    cfg._require_trend("geometry.eps_list")
    if cfg.tree.J < 1:
        raise ExperimentError("the kernel gap needs a branching vertex: "
                              f"tree.J must be >= 1, got {cfg.tree.J}")
    tree = build_tree(cfg.tree)
    infima = []
    concentration = [] if which == "P" else None
    for eps in cfg.eps_list:
        tm = build_geometry_2d(tree, cfg.geometry(eps))
        matched = matched_mesh_1d(tm)
        if which == "Q":
            system = width_weighted_pencil(cfg, matched, "Q")
            # the zone dofs, in the numbering of the root-eliminated pencil
            dofs = np.searchsorted(system.free, q_kernel_dofs(matched.mesh, tm.zones))
            Kz = system.K[np.ix_(dofs, dofs)]
            Mz = system.M[np.ix_(dofs, dofs)]
        else:
            system = assemble_2d(tm, cfg.w_limit())
            Z = p_kernel_basis(matched, system.free)
            Kz = (Z.T @ (system.K @ Z)).tocsr()
            Mz = (Z.T @ (system.M @ Z)).tocsr()
        vals = smallest_eigenpairs(Kz, Mz, 1, with_vectors=False).values
        infima.append(float(vals[0]))
        if which == "P":
            # the mass of the connector components alone, on the same node
            # numbering and root section, so over the same free dofs
            Mv_f = assemble_2d(replace(tm, components=[
                c for c in tm.components if c.kind == "connector"]), None).M
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


def p_kernel_basis(matched: Matched1D, free: np.ndarray) -> "scipy.sparse.csr_matrix":
    """Sparse basis of the discrete ker P^eps inside the free (non-Dirichlet)
    2-D dofs: all cross-section station averages vanish.

    Every station row off the Dirichlet root (whose rows are already zero)
    gets the null space of the trapezoid weights as a block of columns;
    every other free node gets a unit column.
    """
    import scipy.sparse as sp

    tmesh = matched.tmesh
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


# sample columns smoothed and evaluated together.  On the J4 maps geometry
# (10,110 free 2-D dofs, one BLAS thread) a 400-sample call at widths 24-64
# takes the same time and at 16 about 7% more; its memory peak, two blocks of
# 8 bytes per dof and column, is 6.4 MiB at 32 and 11.4 MiB at 64
_BLOCK = 32
_SMOOTHING_PASSES = 20


def _jacobi_sweep(K) -> "scipy.sparse.csr_matrix":
    """One damped Jacobi sweep of the stiffness K as an operator,
    S = I - D^-1 K / 2, with zero diagonal entries of D replaced by one."""
    import scipy.sparse as sp

    d = K.diagonal()
    d[d == 0] = 1.0
    return sp.identity(K.shape[0], format="csr") - sp.diags(0.5 / d) @ K


def _rayleigh_quotients(K, M, X: np.ndarray) -> np.ndarray:
    """Rayleigh quotient of each column of X in the pencil (K, M)."""
    return (np.einsum("ij,ij->j", X, K @ X)
            / np.einsum("ij,ij->j", X, M @ X))


def _rayleigh_samples(rng, n_samples: int, matched: Matched1D, sysQ, sysP, sys2):
    """(x, y) Rayleigh-quotient pairs of n_samples random smoothed fields per
    direction, as two (n_samples, 2) arrays: (R_1D[f], R_2D[Q f]) on the A_Q
    pencil, then (R_2D[v], R_1D[P v]) on the A_P pencil.

    R_2D[Q f] is the quotient of f in the 2-D pencil pulled back to the free
    1-D dofs, (L^T K_2 L, L^T M_2 L) with L the lift Q restricted to the free
    dofs of both meshes, so the Q direction does no 2-D work: the lift of a
    field vanishing at the root vanishes on the root nodes.  P v is the
    average P restricted the same way.

    Fields are drawn, smoothed and evaluated in (n, b) column blocks of at
    most _BLOCK samples, every Q block before every P block; a block is drawn
    as ``standard_normal((b, n))``, the same stream as b draws of size n.
    """
    lift = matched.Q[sys2.free][:, sysQ.free]
    pulled_back = tuple((lift.T @ A @ lift).tocsr() for A in (sys2.K, sys2.M))
    average = matched.P[sysP.free][:, sys2.free]
    directions = (
        ((sysQ.K, sysQ.M), pulled_back, None),
        ((sys2.K, sys2.M), (sysP.K, sysP.M), average),
    )
    out = []
    for (K, M), target, carry in directions:
        S = _jacobi_sweep(K)
        samples = np.empty((n_samples, 2))
        for start in range(0, n_samples, _BLOCK):
            # at most two blocks live at once: the draw is copied to C order
            # before the first sweep, which would copy it anyway, and each
            # block is freed before the next draw
            X = np.ascontiguousarray(rng.standard_normal(
                (min(_BLOCK, n_samples - start), S.shape[0])).T)
            for _ in range(_SMOOTHING_PASSES):
                X = S @ X
            rows = samples[start:start + X.shape[1]]
            rows[:, 0] = _rayleigh_quotients(K, M, X)
            rows[:, 1] = _rayleigh_quotients(*target, X if carry is None else carry @ X)
            del X
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
    bound = _bound_transform(direction, x, a, c, eps)
    viol = int(np.count_nonzero(y > bound * (1 + 1e-12)))
    return RayleighBoundReport(eps=eps, direction=direction, fitted_a=a,
                               fitted_c=c, violations=viol, samples=n)


def rayleigh_bound_check(cfg: ExperimentConfig, eps: float,
                         n_samples: int) -> list:
    """Fit (a, c) such that the Q- and P-direction Rayleigh bounds hold on
    n_samples >= 1 random functions; returns one report per direction with
    violation counts.

    The random fields are drawn, smoothed (20 damped Jacobi sweeps, one
    sparse operator per pencil) and evaluated in column blocks of _BLOCK =
    32 samples.  The Q-direction 2-D quotients R_2D[Q f] are read off the
    2-D pencil pulled back to the 1-D dofs, so only the P direction works
    on the 2-D mesh.  ``violations`` is zero by construction whenever a grid
    value fits, because the fit reads the same samples the count does; it
    counts every sample when none fits.
    """
    if n_samples < 1:
        raise ExperimentError(f"n_samples: must be >= 1, got {n_samples}")
    cfg.validate()
    tree = build_tree(cfg.tree)
    rng = np.random.default_rng(cfg.seed)
    tm = build_geometry_2d(tree, cfg.geometry(eps))
    matched = matched_mesh_1d(tm)
    sysQ, sysP = (width_weighted_pencil(cfg, matched, w) for w in ("Q", "P"))
    sys2 = assemble_2d(tm, cfg.w_limit())
    samples_Q, samples_P = _rayleigh_samples(rng, n_samples, matched,
                                             sysQ, sysP, sys2)
    return [_rayleigh_report("Q", samples_Q, eps),
            _rayleigh_report("P", samples_P, eps)]


# ---------------------------------------------------------------------------
# Eigenfunction projection convergence
# ---------------------------------------------------------------------------

@dataclass
class ProjectionReport:
    rows: list                     # per eps: lambda_2d, distance, overlap, holder_constant
    distances_decreasing: bool
    final_distance: float
    tracking_ok: bool


def vertex_holder_constant(matched: Matched1D, pu: np.ndarray) -> float:
    """max over vertices and arm pairs of |P u(p_e) - P u(p_e~)| / sqrt(dist)."""
    tree = matched.tmesh.tree
    gen = np.repeat(np.arange(tree.J), tree.k ** np.arange(tree.J))
    par, chi = matched.tmesh.zones.reaches(tree)
    arms = np.column_stack([par[gen]] + [chi[gen]] * tree.k)
    vals = pu[matched.section_dofs]
    a, b = np.triu_indices(tree.k + 1, 1)
    ratio = np.abs(vals[:, a] - vals[:, b]) / np.sqrt(arms[:, a] + arms[:, b])
    return float(ratio.max(initial=0.0))


def eigenfunction_projection_experiment(cfg: ExperimentConfig) -> ProjectionReport:
    """Distance between P^eps u_eps and the first limit eigenfunction of
    -(rho* u')'/rho* across the eps list.

    The 2-D eigenfunction is normalized to ||u||_L2 = eps^((N-1)/2); the limit
    mode is solved on each matched 1-D mesh and both are compared in the
    rho*-weighted L2 inner product after sign alignment.  Tracking flags any
    eps whose projected mode overlaps the limit mode by less than 0.5.  The
    Holder constant reads the mode scaled to H1 norm sqrt(eps), the norm of
    the gradient and mass terms without the potential.
    """
    cfg.validate()
    cfg._require_trend("geometry.eps_list")
    tree = build_tree(cfg.tree)
    rs = rho_star_profile(tree)
    W = cfg.w_limit()
    rows = []
    tracking_ok = True
    for eps in cfg.eps_list:
        tm = build_geometry_2d(tree, cfg.geometry(eps, FINE_PITCH * cfg.h_2d))
        system = assemble_2d(tm, W)
        spec = smallest_eigenpairs(system.K, system.M, 1)
        u = spec.vectors[:, 0]
        u = u * (math.sqrt(eps) / math.sqrt(float(u @ (system.M @ u))))
        matched = matched_mesh_1d(tm)
        pu = p_eps_project(tm, matched, system.expand(u))

        sys1 = assemble_1d(tree, matched.mesh, rs, rs, W)
        lspec = smallest_eigenpairs(sys1.K, sys1.M, 1)
        ustar = lspec.vectors[:, 0]
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

        # the H1 norm: the stiffness without the potential term, which can
        # make u^T K u + u^T M u negative
        K0 = system.K if W is None else assemble_2d(tm, None).K
        uH = u * (math.sqrt(eps) / math.sqrt(float(u @ (K0 @ u))
                                            + float(u @ (system.M @ u))))
        holder = vertex_holder_constant(matched,
                                        p_eps_project(tm, matched, system.expand(uH)))
        rows.append({"eps": eps, "lambda_2d": float(spec.values[0]), "distance": dist,
                     "overlap": overlap, "holder_constant": holder})
    dists = [r["distance"] for r in rows]
    decreasing = bool(np.all(np.diff(dists) < 0))
    if not decreasing and tracking_ok:
        warnings.warn("projection distances are not monotone although mode "
                      "tracking is consistent (subsequence caveat)", stacklevel=2)
    return ProjectionReport(rows=rows,
                            distances_decreasing=decreasing,
                            final_distance=dists[-1], tracking_ok=tracking_ok)
