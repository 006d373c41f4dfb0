"""The benchmark workloads: fixed case lists, seeded inputs and oracles.

Each workload is a closed loop with one client.  ``Workload.ops(seed)`` returns
the operations of one pass in order; the runner calls them one after another,
and each operation either returns, raises ``OracleError`` or raises anything
else.  Case sizes are fixed; the seed drives only the random fields and the
case order.  Calls go through module attributes (``operator_1d.assemble_1d``),
so the tracing wrappers see them.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from treespec import convergence, eigensolver, fem_2d, operator_1d, tree_model
from treespec.convergence import ExperimentConfig
from treespec.tree_model import TreeSpec


class OracleError(AssertionError):
    """An operation returned a result its oracle rejects."""


@dataclass(frozen=True)
class Op:
    id: str
    run: Callable[[], None]


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int], list]
    dominant: str          # layers that take most of a pass
    bypassed: str          # layers the workload does not reach, or barely


# Defects present at the time the benchmark was defined.  Their operations are
# kept and counted as failed; a failure of any other operation, or of one of
# these for another reason, makes the run incorrect.
KNOWN_FAILURES = {
    "tree1d-deep/k2-J14-r0.5-d0.6-h0.01/decompose":
        ("D1", "EigensolverError", "exceeds tolerance"),
    "tree1d-deep/k2-J12-r0.6-d0.5-h0.005/decompose":
        ("D5", "OracleError", "decomposition vs direct"),
}


def _require(ok: bool, detail: str) -> None:
    if not ok:
        raise OracleError(detail)


# ---------------------------------------------------------------------------
# tree1d-deep
# ---------------------------------------------------------------------------

TREE1D_CASES = (
    (TreeSpec(k=2, J=14), 0.01),          # the ROADMAP scaled 1-D tier
    (TreeSpec(k=2, J=13), 0.005),
    (TreeSpec(k=3, J=9), 0.01),
    (TreeSpec(k=2, J=12, r=0.6, delta=0.5), 0.005),
)
TREE1D_M = 8
HARDY_FIELDS = 32                         # seeded fields per case
HARDY_NODES = 301


def _tree_case_id(spec: TreeSpec, h: float) -> str:
    return f"k{spec.k}-J{spec.J}-r{spec.r}-d{spec.delta}-h{h}"


def _decompose(spec: TreeSpec, h: float) -> None:
    """The `treespec decompose` check: decomposition equals direct to 1e-8."""
    tree = tree_model.build_tree(spec)
    rs = operator_1d.rho_star_profile(tree)
    mesh = operator_1d.build_mesh_1d(tree, h=h, breakpoints=rs.breakpoints)
    system = operator_1d.assemble_1d(tree, mesh, rs, rs, None)
    direct = eigensolver.smallest_eigenpairs(system.K, system.M, TREE1D_M,
                                             with_vectors=False)
    dec = operator_1d.radial_decomposition_spectrum(tree, mesh, rs, rs, None,
                                                    TREE1D_M)
    vals = dec.expanded_values(TREE1D_M)
    ref = direct.values[:len(vals)]
    rel = float(np.max(np.abs(vals - ref) / np.abs(ref)))
    _require(len(vals) == TREE1D_M and rel <= 1e-8,
             f"decomposition vs direct: relative gap {rel:.3e} (tol 1e-8), "
             f"direct {np.array2string(ref, precision=4)}")


def _discreteness(spec: TreeSpec) -> None:
    """Closed form: the per-generation factor of g rho* is k delta^(N-1)."""
    tree = tree_model.build_tree(spec)
    rep = operator_1d.discreteness_condition_check(
        tree, operator_1d.rho_star_profile(tree))
    factor = spec.k * spec.delta ** (spec.N - 1)
    _require(abs(rep.per_generation_factor - factor) <= 1e-12 * factor
             and rep.holds == (factor >= 1.0 - 1e-9) and rep.best_C <= 1.0,
             f"discreteness factor {rep.per_generation_factor!r}, expected {factor!r}")


def _hardy(spec: TreeSpec, fields: np.ndarray) -> None:
    """Hardy quotient of rho* stays <= 1 on every seeded field."""
    tree = tree_model.build_tree(spec)
    rs = operator_1d.rho_star_profile(tree)
    nodes = np.linspace(0.0, tree.radius, fields.shape[1])
    worst = max(operator_1d.hardy_inequality_check(tree, rs, nodes, u)
                for u in fields)
    _require(worst <= 1.0, f"Hardy ratio {worst:.4g} > 1")


def _hardy_fields(rng) -> np.ndarray:
    """Random fields vanishing near the radius, every other one smoothed."""
    u = rng.standard_normal((HARDY_FIELDS, HARDY_NODES))
    for _ in range(30):
        u[1::2, 1:-1] = 0.5 * u[1::2, 1:-1] + 0.25 * (u[1::2, :-2] + u[1::2, 2:])
    u[:, -30:] = 0.0
    return u


def tree1d_ops(seed: int) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    for spec, h in TREE1D_CASES:
        prefix = f"tree1d-deep/{_tree_case_id(spec, h)}"
        cases.append([
            Op(f"{prefix}/decompose", partial(_decompose, spec, h)),
            Op(f"{prefix}/discreteness", partial(_discreteness, spec)),
            Op(f"{prefix}/hardy", partial(_hardy, spec, _hardy_fields(rng))),
        ])
    return [op for i in rng.permutation(len(cases)) for op in cases[i]]


# ---------------------------------------------------------------------------
# spectra2d-sandwich
# ---------------------------------------------------------------------------

SCALED_EPS = (0.2, 0.1, 0.05, 0.025)
SANDWICH_CONFIGS = (
    ("default", {}),
    # the ROADMAP scaled tier, zero and cosine potentials
    ("scaled-zero", {"eps_list": SCALED_EPS, "m": 8}),
    ("scaled-cosine", {"eps_list": SCALED_EPS, "m": 8, "potential": "cosine"}),
    # the largest 2-D pencil sits just under n = 2000
    ("J3-h0.02", {"tree": TreeSpec(J=3), "h_2d": 0.02}),
)


def _sandwich(kw: dict) -> None:
    rep = convergence.sandwich_experiment(ExperimentConfig(**kw))
    _require(rep.all_pass and rep.gaps_decreasing,
             f"sandwich all_pass={rep.all_pass} gaps_decreasing={rep.gaps_decreasing}")


def _projection() -> None:
    rep = convergence.eigenfunction_projection_experiment(ExperimentConfig())
    _require(rep.tracking_ok and rep.distances_decreasing,
             f"projection tracking_ok={rep.tracking_ok} "
             f"distances_decreasing={rep.distances_decreasing}")


def _kernel_gap(which: str) -> None:
    rep = convergence.kernel_gap_check(ExperimentConfig(), which)
    # the P-side infimum rate is a strict xfail of the test suite, not a gate
    slope, want = ((rep.slope, -2.0) if which == "Q"
                   else (rep.concentration_slope, -1.0))
    _require(abs(slope - want) <= 0.3,
             f"kernel gap {which}: slope {slope:.3f}, expected {want} +/- 0.3")


def sandwich_ops(seed: int) -> list:
    ops = [Op(f"spectra2d-sandwich/sandwich-{name}", partial(_sandwich, kw))
           for name, kw in SANDWICH_CONFIGS]
    ops.append(Op("spectra2d-sandwich/projection", _projection))
    ops += [Op(f"spectra2d-sandwich/kernel-gap-{w}", partial(_kernel_gap, w))
            for w in ("Q", "P")]
    return [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]


# ---------------------------------------------------------------------------
# maps-rayleigh
# ---------------------------------------------------------------------------

MAPS_EPS = 0.1
RAYLEIGH_SAMPLES = 400
ROUND_TRIPS = 800
MAPS_CONFIGS = (
    ("J3-h0.01-n6-cosine",
     {"tree": TreeSpec(J=3), "h_2d": 0.01, "n_cross": 6, "potential": "cosine"}),
    ("J4-h0.005-n8", {"tree": TreeSpec(J=4), "h_2d": 0.005, "n_cross": 8}),
)


def _rayleigh(kw: dict, seed: int) -> None:
    reports = convergence.rayleigh_bound_check(
        ExperimentConfig(seed=seed, **kw), MAPS_EPS, n_samples=RAYLEIGH_SAMPLES)
    viol = {r.direction: r.violations for r in reports}
    _require(not any(viol.values()), f"Rayleigh bound violations {viol}")


def _round_trips(kw: dict, seed: int) -> None:
    """P_eps(Q_eps f) == f on the station and section dofs."""
    cfg = ExperimentConfig(**kw)
    tree = tree_model.build_tree(cfg.tree)
    tm = fem_2d.build_geometry_2d(tree, fem_2d.GeometrySpec2D(
        eps=MAPS_EPS, c=cfg.apex_c, h=cfg.h_2d, n_cross=cfg.n_cross))
    matched = fem_2d.matched_mesh_1d(tm)
    checked = np.unique(np.concatenate([
        np.fromiter(matched.station_dof_rows, dtype=int),
        np.fromiter(matched.p_parent_dof.values(), dtype=int),
        np.ravel(list(matched.p_child_dofs.values())).astype(int)]))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ROUND_TRIPS):
        f = rng.standard_normal(matched.mesh.n_dofs)
        back = fem_2d.p_eps_project(tm, matched, fem_2d.q_eps_lift(tm, matched, f))
        worst = max(worst, float(np.abs(back[checked] - f[checked]).max()))
    _require(worst <= 1e-12, f"P(Q f) differs from f by {worst:.3e} (tol 1e-12)")


def maps_ops(seed: int) -> list:
    seeds = iter(int(s) for s in np.random.SeedSequence(seed).generate_state(
        2 * len(MAPS_CONFIGS) + 1))
    ops = []
    for name, kw in MAPS_CONFIGS:
        ops.append(Op(f"maps-rayleigh/rayleigh-{name}",
                      partial(_rayleigh, kw, next(seeds))))
        ops.append(Op(f"maps-rayleigh/round-trip-{name}",
                      partial(_round_trips, kw, next(seeds))))
    order = np.random.default_rng(next(seeds)).permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {
    "tree1d-deep": Workload(
        tree1d_ops,
        dominant="1-D mesh building and assembly (per-edge Python loops), the "
                 "scalar counting_function loop of the Hardy check, large-n "
                 "ARPACK direct solves, tiny dense component solves",
        bypassed="all 2-D geometry and assembly, connector analysis, P/Q maps, "
                 "the dense eigensolver path above a few dozen dofs"),
    "spectra2d-sandwich": Workload(
        sandwich_ops,
        dominant="dense eigensolves for n <= 2000, repeated 2-D geometry and "
                 "assembly, connector analysis repeated per experiment",
        bypassed="deep 1-D trees (1-D work is small), the Hardy and "
                 "discreteness checks, the P/Q map loops beyond a few calls"),
    "maps-rayleigh": Workload(
        maps_ops,
        dominant="P_eps/Q_eps maps and the random-field smoothing inside "
                 "rayleigh_bound_check, one 2-D assembly per configuration",
        bypassed="every eigensolve (the bypass workload for eigensolver "
                 "changes), deep 1-D trees"),
}
