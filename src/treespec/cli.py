"""Configuration ingestion, subcommand dispatch, and result serialization.

Configs are JSON with a fixed schema (unknown keys rejected, errors carry the
key path); every output CSV starts with a metadata comment (tool version,
config hash, seed) followed by a header row, the keys of the row dicts it is
written from, floats printed with 17 significant digits.  Exit code is
nonzero whenever an experiment assertion fails.  Loading and checking a
config imports only ``config`` and ``tree_model``, on the standard library
alone: the runners and ``check_feasible`` import the solver modules they
call, and the functions that build arrays import numpy, so a config that
fails its schema or domain checks and ``--help`` load neither numpy nor
scipy, and check-discreteness loads no scipy.  A fresh interpreter imports
the package and this module in about 30 ms (2-CPU Xeon VM, cached ``.pyc``
files).
"""

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .config import FINE_PITCH, ExperimentConfig, ExperimentError
from .tree_model import TreeModelError, TreeSpec, build_tree

# config key path -> (dataclass, field); the key takes the field's type and
# default, and a tuple field is a JSON list
_FIELDS = {
    **{f"tree.{f.name}": (TreeSpec, f.name) for f in fields(TreeSpec)},
    "weights.zone_factor": (ExperimentConfig, "zone_factor"),
    "potential.kind": (ExperimentConfig, "potential"),
    "potential.params": (ExperimentConfig, "potential_params"),
    "geometry.eps_list": (ExperimentConfig, "eps_list"),
    "geometry.c": (ExperimentConfig, "apex_c"),
    "geometry.h": (ExperimentConfig, "h_2d"),
    "geometry.n_cross": (ExperimentConfig, "n_cross"),
    "experiment.m": (ExperimentConfig, "m"),
    "experiment.n_list": (ExperimentConfig, "n_list"),
    "experiment.h_1d": (ExperimentConfig, "h_1d"),
}

# keys read by the CLI itself: path -> (type, default)
_CLI_ONLY = {
    "experiment.rayleigh_samples": (int, 0),
    "output_dir": (str, "."),
    "seed": (int, None),
}

# subcommand -> the coarsest 2-D pitch it meshes at, over geometry.h
_GEOMETRY_PITCH = {"spectrum2d": 1.0, "sandwich": 1.0, "project": FINE_PITCH}


def _field_schema(owner, name):
    """(type, default) of a dataclass field as a config key."""
    f = next(f for f in fields(owner) if f.name == name)
    if f.type is tuple:
        return list, list(f.default)
    return f.type, f.default


def _schema_and_defaults():
    """Nested key types and defaults of the whole config, in table order."""
    schema, defaults = {}, {}
    entries = {**{path: _field_schema(*field) for path, field in _FIELDS.items()},
               **_CLI_ONLY}
    for path, (want, default) in entries.items():
        block, _, key = path.rpartition(".")
        types = schema.setdefault(block, {}) if block else schema
        values = defaults.setdefault(block, {}) if block else defaults
        types[key], values[key] = want, default
    return schema, defaults


_SCHEMA, _DEFAULTS = _schema_and_defaults()


class ConfigError(ValueError):
    """Schema violation; the message names the offending key path."""


def _experiment_config(data: dict) -> ExperimentConfig:
    kw = {TreeSpec: {}, ExperimentConfig: {}}
    for path, (owner, name) in _FIELDS.items():
        block, key = path.split(".")
        value = data[block][key]
        kw[owner][name] = tuple(value) if isinstance(value, list) else value
    seed = data["seed"]
    return ExperimentConfig(tree=TreeSpec(**kw[TreeSpec]),
                            seed=0 if seed is None else seed,
                            **kw[ExperimentConfig])


@dataclass
class RunConfig:
    """A validated config: the filled-in JSON data and the ExperimentConfig
    built from it, once per run."""

    data: dict
    experiment: ExperimentConfig

    def config_hash(self) -> str:
        canon = json.dumps(self.data, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


# schema type -> (accepted JSON types, name in error messages); bools are
# never numbers
_ACCEPTS = {float: ((int, float), "a number"), int: (int, "an integer"),
            str: (str, "a string"), list: (list, "a list")}


def _coerce(value, want, path):
    accepted, what = _ACCEPTS[want]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{path}: expected {what}, got {value!r}")
    # Python's json reads NaN and Infinity; this is false for them and for an
    # integer too large for a float
    if want is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    for i, item in enumerate(value if want is list else ()):   # lists hold numbers
        _coerce(item, float, f"{path}[{i}]")
    return float(value) if want is float else value


def validate_config(raw: dict) -> RunConfig:
    """Fill defaults, reject unknown keys, and range-check the physics."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    data = {}
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict):
            block = dict(default)
            given = raw.get(key, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{key}: expected an object")
            for sub, val in given.items():
                if sub not in _SCHEMA[key]:
                    raise ConfigError(f"{key}.{sub}: unknown key")
                block[sub] = _coerce(val, _SCHEMA[key][sub], f"{key}.{sub}")
            data[key] = block
        else:
            if key in raw and raw[key] is not None:
                data[key] = _coerce(raw[key], _SCHEMA[key], key)
            else:
                data[key] = default
    unknown = set(raw) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")

    experiment = _experiment_config(data)
    try:
        experiment.validate()
    except TreeModelError as err:
        raise ConfigError(f"tree: {err}") from err
    except ExperimentError as err:
        raise ConfigError(str(err)) from err
    seed, samples = data["seed"], data["experiment"]["rayleigh_samples"]
    if seed is not None and seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    if samples < 0:
        raise ConfigError(f"experiment.rayleigh_samples: must be >= 0 (0 skips "
                          f"the check), got {samples}")
    if samples > 0 and seed is None:
        raise ConfigError("seed: required when a randomized check is requested")
    return RunConfig(data, experiment)


def parse_config(path, overrides) -> RunConfig:
    """Load a JSON config file, apply ``--set`` overrides, and validate it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"not valid JSON: {err}") from err
        except UnicodeDecodeError as err:
            raise ConfigError(f"not UTF-8 text: {err}") from err
    return validate_config(apply_overrides(raw, overrides))


def check_feasible(cfg: RunConfig, subcommand: str) -> None:
    """Reject a list too short for the trend ``subcommand`` checks, a tree
    on which it cannot build its geometries: the 2-D ones at its coarsest
    pitch, the 1-D weight zones of width 1/n, which need a branching
    vertex, or the planar connector (k in {1, 2}, N = 2); a tree without a
    branching vertex for check-discreteness; and an experiment.m above the
    free dofs (all but the root) of the smallest pencil it solves m pairs
    of: the whole-tree 1-D mesh at experiment.h_1d, the 2-D mesh at the
    largest eps and geometry.h, and the 1-D mesh matched to the 2-D one at
    that eps and the fine pitch."""
    from .fem_2d import Geometry2DError, build_geometry_2d, matched_mesh_1d
    from .operator_1d import (
        Operator1DError,
        VertexZones,
        build_mesh_1d,
        rho_star_profile,
        zone_breakpoints,
    )
    ecfg = cfg.experiment
    trend = {"sandwich": "geometry.eps_list", "project": "geometry.eps_list",
             "converge-weights": "experiment.n_list"}.get(subcommand)
    if trend is not None:
        try:
            ecfg._require_trend(trend)
        except ExperimentError as err:
            raise ConfigError(str(err)) from err
    tree = build_tree(ecfg.tree)
    where = f"tree.k = {tree.k}, tree.J = {tree.J} with"
    needs_vertex = {"converge-weights": "the weight zones need",
                    "check-discreteness": "the per-generation factor needs"}
    if subcommand in needs_vertex and tree.J < 1:
        raise ConfigError(f"tree.J = {tree.J}: {needs_vertex[subcommand]} a "
                          "branching vertex, tree.J >= 1")
    if subcommand == "connector-constants":
        if tree.k not in (1, 2):
            raise ConfigError(f"tree.k = {tree.k}: the planar connector has 1 or 2 "
                              "child sections")
        if tree.spec.N != 2:
            raise ConfigError(f"tree.N = {tree.spec.N}: the planar connector's child "
                              "sections have width delta * omega, the N = 2 scaling")
    if subcommand == "converge-weights":
        for i, n in enumerate(ecfg.n_list):
            try:
                zone_breakpoints(tree, VertexZones(1.0 / n))
            except Operator1DError as err:
                raise ConfigError(f"{where} experiment.n_list[{i}] = {n}: {err}") from err

    def check_m(free, mesh):
        if ecfg.m > free:
            raise ConfigError(f"experiment.m = {ecfg.m}: above the {free} free dofs of {mesh}")

    if subcommand in ("spectrum1d", "decompose", "sandwich", "converge-weights"):
        check_m(build_mesh_1d(tree, ecfg.h_1d, rho_star_profile(tree).breakpoints).n_dofs - 1,
                f"the 1-D mesh at experiment.h_1d = {ecfg.h_1d}")
    if subcommand in _GEOMETRY_PITCH:
        h = _GEOMETRY_PITCH[subcommand] * ecfg.h_2d
        for i, eps in enumerate(ecfg.eps_list):
            try:
                ecfg.geometry(eps, h).validate(tree)
            except Geometry2DError as err:
                raise ConfigError(f"{where} geometry.eps_list[{i}] = {eps} "
                                  f"at pitch {h:.6g}: {err}") from err
    if subcommand in ("spectrum2d", "sandwich"):
        eps = ecfg.eps_list[0]   # the largest eps: the fewest nodes in both meshes
        tm = build_geometry_2d(tree, ecfg.geometry(eps))
        check_m(tm.n_nodes - len(tm.root_nodes),
                f"the 2-D mesh at geometry.eps_list[0] = {eps}, geometry.h = {ecfg.h_2d}")
        if subcommand == "sandwich":
            fine = FINE_PITCH * ecfg.h_2d
            matched = matched_mesh_1d(build_geometry_2d(tree, ecfg.geometry(eps, fine)))
            check_m(matched.mesh.n_dofs - 1, f"the 1-D mesh matched to the 2-D mesh at "
                    f"geometry.eps_list[0] = {eps}, pitch {fine:.6g}")


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply --set key.path=value pairs onto the raw config dict."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item}: expected key=value")
        key, _, value = item.partition("=")
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not an object")
        try:
            node[parts[-1]] = json.loads(value)
        except json.JSONDecodeError as err:
            raise ConfigError(f"--set {key}: not valid JSON: {err}") from err
    return raw


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: Path, rows: list, cfg: RunConfig) -> None:
    """The metadata comment, then a header of the first row's keys, then
    every row's values in that order; every row has the same keys."""
    seed = cfg.data["seed"]
    lines = [f"# treespec {__version__} config={cfg.config_hash()} seed={seed}",
             ",".join(rows[0])]
    lines.extend(",".join(_fmt(v) for v in row.values()) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _spectrum_rows(spec):
    rows = []
    for i, (lam, mult, res) in enumerate(zip(spec.values, spec.multiplicities,
                                             spec.residuals)):
        rows.append({"index": i + 1, "lambda": float(lam),
                     "multiplicity": int(mult), "residual": float(res)})
    return rows


def run_spectrum1d(cfg: RunConfig, out: Path) -> int:
    from .convergence import limit_spectrum_1d
    ecfg = cfg.experiment
    spec = limit_spectrum_1d(build_tree(ecfg.tree), ecfg)
    write_csv(out / "spectrum1d.csv", _spectrum_rows(spec), cfg)
    print(f"spectrum1d: lambda_1 = {spec.values[0]:.6g} "
          f"({ecfg.m} modes, dofs on h={ecfg.h_1d})")
    return 0


def run_decompose(cfg: RunConfig, out: Path) -> int:
    import numpy as np

    from .convergence import limit_spectrum_1d
    from .operator_1d import build_mesh_1d, radial_decomposition_spectrum, rho_star_profile
    ecfg = cfg.experiment
    tree = build_tree(ecfg.tree)
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=ecfg.h_1d, breakpoints=rs.breakpoints)
    dec = radial_decomposition_spectrum(tree, mesh, rs, rs, ecfg.w_limit(), ecfg.m)
    direct = limit_spectrum_1d(tree, ecfg)
    vals = dec.expanded_values(ecfg.m)
    mults = np.repeat(dec.multiplicities, dec.multiplicities)[:len(vals)]
    rel = np.abs(vals - direct.values[:len(vals)]) / np.abs(direct.values[:len(vals)])
    rows = []
    for i, v in enumerate(vals):
        rows.append({"index": i + 1, "lambda": float(v),
                     "multiplicity": int(mults[i]),
                     "lambda_direct": float(direct.values[i]),
                     "relative_gap": float(rel[i])})
    write_csv(out / "decompose.csv", rows, cfg)
    ok = bool(rel.max() <= 1e-8)
    print(f"decompose: max relative gap to direct spectrum {rel.max():.3e} "
          f"({'ok' if ok else 'FAIL'})")
    return 0 if ok else 1


def run_spectrum2d(cfg: RunConfig, out: Path, dump_mesh: bool) -> int:
    from .eigensolver import smallest_eigenpairs
    from .fem_2d import assemble_2d, build_geometry_2d
    ecfg = cfg.experiment
    tree = build_tree(ecfg.tree)
    rows = []
    first = None
    for i_eps, eps in enumerate(ecfg.eps_list):
        tm = build_geometry_2d(tree, ecfg.geometry(eps))
        system = assemble_2d(tm, ecfg.w_limit())
        spec = smallest_eigenpairs(system.K, system.M, ecfg.m)
        if first is None:
            first = spec.values[0]
        for i, lam in enumerate(spec.values):
            rows.append({"eps": eps, "index": i + 1, "lambda": float(lam),
                         "residual": float(spec.residuals[i])})
        if dump_mesh and i_eps == 0:
            _dump_mesh_and_field(tm, system, spec, out, cfg)
    write_csv(out / "spectrum2d.csv", rows, cfg)
    print(f"spectrum2d: nu_1 = {first:.6g} at eps = {ecfg.eps_list[0]}")
    return 0


def _dump_mesh_and_field(tm, system, spec, out: Path, cfg: RunConfig) -> None:
    """Node/triangle/tag CSV triple plus the first eigenfunction field; a
    copy's tag rows are its one-triangle edges, local edges ascending with the
    smaller local index first, tag 1 where both ends are in ``root_nodes``."""
    import numpy as np

    node_rows, tri_rows, tag_rows = [], [], []
    copies = ((comp, gids) for comp in tm.components for gids in comp.gids)
    for ci, (comp, gids) in enumerate(copies):
        for loc, gid in enumerate(gids):
            node_rows.append({"node": int(gid), "component": ci,
                              "x": float(comp.mesh.nodes[loc, 0]),
                              "y": float(comp.mesh.nodes[loc, 1]),
                              "theta": float(comp.theta[loc])})
        tris = comp.mesh.triangles
        for tri in tris:
            g = gids[tri]
            tri_rows.append({"component": ci, "n0": int(g[0]),
                             "n1": int(g[1]), "n2": int(g[2])})
        edges, count = np.unique(np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1),
                                 axis=0, return_counts=True)
        ends = gids[edges[count == 1]]
        for (a, b), tag in zip(ends, np.isin(ends, tm.root_nodes).all(axis=1)):
            tag_rows.append({"component": ci, "n0": int(a), "n1": int(b), "tag": int(tag)})
    write_csv(out / "mesh_nodes.csv", node_rows, cfg)
    write_csv(out / "mesh_triangles.csv", tri_rows, cfg)
    write_csv(out / "mesh_tags.csv", tag_rows, cfg)
    u = system.expand(spec.vectors[:, 0])
    write_csv(out / "field_mode1.csv",
              [{"node": i, "value": float(v)} for i, v in enumerate(u)], cfg)


def run_sandwich(cfg: RunConfig, out: Path) -> int:
    from .convergence import rayleigh_bound_check, sandwich_experiment
    ecfg = cfg.experiment
    report = sandwich_experiment(ecfg)
    write_csv(out / "sandwich.csv", report.rows, cfg)
    summary = {
        "fitted_c": {str(k): v for k, v in report.fitted_c.items()},
        "c_stable_factor": report.c_stable_factor,
        "nu1_minus_mu1": report.nu1_minus_mu1,
        "gaps_decreasing": report.gaps_decreasing,
        "all_pass": report.all_pass,
    }
    code = 0 if report.all_pass and report.gaps_decreasing else 1
    samples = cfg.data["experiment"]["rayleigh_samples"]
    if samples > 0:
        checks = []
        for eps in ecfg.eps_list:
            for rep in rayleigh_bound_check(ecfg, eps, n_samples=samples):
                checks.append({"eps": rep.eps, "direction": rep.direction,
                               "a": rep.fitted_a, "c": rep.fitted_c,
                               "violations": rep.violations})
                if rep.violations:
                    code = 1
        summary["rayleigh_checks"] = checks
    write_json(out / "sandwich_summary.json", summary)
    print(f"sandwich: fitted c stable within {report.c_stable_factor:.3g}, "
          f"|nu1-mu1| {['%.4g' % g for g in report.nu1_minus_mu1]} "
          f"({'pass' if code == 0 else 'FAIL'})")
    return code


def run_converge_weights(cfg: RunConfig, out: Path) -> int:
    from .convergence import weight_convergence_experiment
    ecfg = cfg.experiment
    report = weight_convergence_experiment(ecfg)
    write_csv(out / "converge_weights.csv", report.rows, cfg)
    ok = report.envelope_ok and report.gaps_decreasing
    write_json(out / "converge_weights_summary.json", {
        "equiv_constant": report.equiv_constant,
        "envelope_ok": report.envelope_ok,
        "envelope_failures": report.envelope_failures,
        "gaps_decreasing": report.gaps_decreasing,
        "final_relative_gap": report.final_relative_gap,
    })
    print(f"converge-weights: final relative gap "
          f"{report.final_relative_gap:.4g} ({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def run_project(cfg: RunConfig, out: Path) -> int:
    from .convergence import eigenfunction_projection_experiment
    ecfg = cfg.experiment
    report = eigenfunction_projection_experiment(ecfg)
    write_csv(out / "project.csv", report.rows, cfg)
    ok = report.distances_decreasing and report.tracking_ok
    write_json(out / "project_summary.json",
               {k: v for k, v in vars(report).items() if k != "rows"})
    print(f"project: final relative distance {report.final_distance:.4g} "
          f"({'pass' if ok else 'FAIL'})")
    return 0 if ok else 1


def run_check_discreteness(cfg: RunConfig, out: Path) -> int:
    from .operator_1d import discreteness_condition_check, rho_star_profile
    tree = build_tree(cfg.experiment.tree)
    report = discreteness_condition_check(tree, rho_star_profile(tree))
    write_json(out / "discreteness.json", vars(report))
    verdict = "holds" if report.holds else "condition fails"
    if report.boundary:
        verdict += " (boundary case)"
    print(f"check-discreteness: {verdict}, per-generation factor "
          f"{report.per_generation_factor:.6g}, best C {report.best_C:.6g}")
    return 0 if report.holds else 1


def run_connector_constants(cfg: RunConfig, out: Path) -> int:
    from .convergence import reference_connector
    domain, mesh, forms, consts = reference_connector(cfg.experiment)
    payload = {
        "constants": consts.as_dict(),
        "matrices": {name: mtx.tolist() for name, mtx in vars(forms).items()},
        "pentagon_vertices": domain.vertices.tolist(),
        "arm_lengths": domain.arm_lengths.tolist(),
        "mesh_nodes": mesh.n_nodes,
    }
    write_json(out / "connector_constants.json", payload)
    print(f"connector-constants: rho_Q factor {consts.rho_Q_factor:.6g}, "
          f"rho_P factor {consts.rho_P_factor:.6g}")
    return 0


_RUNNERS = {
    "spectrum1d": run_spectrum1d,
    "decompose": run_decompose,
    "spectrum2d": run_spectrum2d,
    "sandwich": run_sandwich,
    "converge-weights": run_converge_weights,
    "project": run_project,
    "check-discreteness": run_check_discreteness,
    "connector-constants": run_connector_constants,
}
SUBCOMMANDS = tuple(_RUNNERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="treespec",
        description="Spectra of width-weighted tree operators and of their "
                    "2-D inflated counterparts")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--dump-mesh", action="store_true",
                        help="with spectrum2d: write mesh and field CSVs")
    args = parser.parse_args(argv)
    if args.dump_mesh and args.subcommand != "spectrum2d":
        parser.error(f"--dump-mesh applies to spectrum2d only, not {args.subcommand}")

    try:
        cfg = parse_config(args.config, args.overrides)
        check_feasible(cfg, args.subcommand)
    except (OSError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out = Path(args.out) if args.out else Path(cfg.data["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    try:
        flags = {"dump_mesh": args.dump_mesh} if args.subcommand == "spectrum2d" else {}
        return _RUNNERS[args.subcommand](cfg, out, **flags)
    except Exception as err:  # propagate with module context, nonzero exit
        print(f"{args.subcommand} failed: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
