import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from treespec.cli import (
    _CLI_ONLY,
    _DEFAULTS,
    _FIELDS,
    SUBCOMMANDS,
    ConfigError,
    apply_overrides,
    check_feasible,
    main,
    parse_config,
    validate_config,
)
from treespec.config import ExperimentConfig
from treespec.fem_2d import Geometry2DError, build_geometry_2d
from treespec.tree_model import TreeSpec, build_tree

from oracles import one_triangle_edges


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {"tree": {"k": 2, "l0": 0.5, "r": 0.5, "delta": 0.6, "N": 2, "J": 2}}


def test_minimal_config_fills_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL), ())
    assert cfg.data["tree"]["omega"] == 1.0
    assert cfg.data["geometry"]["eps_list"] == [0.2, 0.1, 0.05]
    assert cfg.data["experiment"]["m"] == 4
    assert cfg.data["weights"]["zone_factor"] == 1.1


def test_bad_delta_rejected_with_key_name(tmp_path):
    with pytest.raises(ConfigError, match="delta"):
        parse_config(write_cfg(tmp_path, {"tree": {"delta": 1.2}}), ())


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="tree.branching"):
        validate_config({"tree": {"branching": 2}})
    with pytest.raises(ConfigError, match="meshes"):
        validate_config({"meshes": {}})


def test_missing_seed_with_randomized_check_rejected():
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"experiment": {"rayleigh_samples": 10}})
    validate_config({"experiment": {"rayleigh_samples": 10}, "seed": 1})


@pytest.mark.parametrize("subcommand, override, key", [
    ("spectrum1d", "experiment.h_1d=Infinity", "experiment.h_1d"),
    ("spectrum1d", "tree.l0=Infinity", "tree.l0"),
    ("spectrum1d", "tree.delta=-Infinity", "tree.delta"),
    ("spectrum1d", "potential.params=[NaN, 1]", "potential.params[0]"),
    ("spectrum2d", "geometry.h=Infinity", "geometry.h"),
    ("sandwich", "geometry.eps_list=[0.2, NaN]", "geometry.eps_list[1]"),
    ("decompose", "experiment.h_1d=1" + "0" * 400, "experiment.h_1d"),
], ids=["h1d-inf", "l0-inf", "delta-minus-inf", "params-nan", "h2d-inf", "eps-nan",
        "h1d-overflow"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, subcommand, override, key):
    # Python's json reads NaN and Infinity; a number must be finite
    cfg = write_cfg(tmp_path, {"potential": {"kind": "cosine"}})
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out),
                 "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: expected a finite number"), err
    assert not out.exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # numpy's generators take a non-negative seed only
    with pytest.raises(ConfigError, match="seed: must be >= 0, got -1"):
        validate_config({"seed": -1})
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        validate_config({"seed": -3, "experiment": {"rayleigh_samples": 2}})
    validate_config({"seed": 0, "experiment": {"rayleigh_samples": 2}})
    cfg = write_cfg(tmp_path, {"seed": -1})
    out = tmp_path / "out"
    assert main(["check-discreteness", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: must be >= 0")
    assert not out.exists()


def test_type_errors_carry_path():
    with pytest.raises(ConfigError, match="tree.k"):
        validate_config({"tree": {"k": "two"}})
    with pytest.raises(ConfigError, match="geometry.eps_list"):
        validate_config({"geometry": {"eps_list": 0.1}})
    with pytest.raises(ConfigError, match=r"experiment.n_list\[1\]: expected a number"):
        validate_config({"experiment": {"n_list": [4, "8"]}})


def test_config_round_trip():
    cfg = validate_config(dict(MINIMAL, seed=3))
    again = validate_config(json.loads(json.dumps(cfg.data, sort_keys=True, indent=2)))
    assert again.data == cfg.data
    assert again.config_hash() == cfg.config_hash()


def test_overrides_parse_dotted_paths():
    raw = apply_overrides(json.loads(json.dumps(MINIMAL)),
                          ["tree.delta=0.4", "seed=9"])
    assert raw["tree"]["delta"] == 0.4
    assert raw["seed"] == 9
    with pytest.raises(ConfigError):
        apply_overrides({}, ["no_equals_sign"])


def test_single_edge_spectrum_csv(tmp_path):
    cfg = write_cfg(tmp_path, {
        "tree": {"k": 1, "l0": 1.0, "r": 0.5, "delta": 0.6, "N": 2, "J": 0}})
    out = tmp_path / "out"
    assert main(["spectrum1d", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "spectrum1d.csv").read_text().splitlines()
    assert lines[0].startswith("# treespec")
    assert lines[1] == "index,lambda,multiplicity,residual"
    lam1 = float(lines[2].split(",")[1])
    assert lam1 == pytest.approx((np.pi / 2) ** 2, rel=1e-3)


def test_decompose_matches_spectrum1d(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["spectrum1d", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    s1 = [float(l.split(",")[1])
          for l in (out / "spectrum1d.csv").read_text().splitlines()[2:]]
    s2 = [float(l.split(",")[1])
          for l in (out / "decompose.csv").read_text().splitlines()[2:]]
    assert np.allclose(s1, s2, rtol=1e-8)


@pytest.mark.parametrize("payload", [{}, {"potential": {"kind": "cosine"}}],
                         ids=["default", "cosine"])
def test_decompose_agrees_with_the_direct_solve_to_roundoff(tmp_path, payload):
    # 1.7e-12 and 2.2e-12 while the small components were solved densely
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    gaps = [float(l.split(",")[-1])
            for l in (out / "decompose.csv").read_text().splitlines()[2:]]
    assert len(gaps) == 4 and max(gaps) <= 1e-13


def test_check_discreteness_exit_codes(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["check-discreteness", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert main(["check-discreteness", "--config", str(cfg), "--out", str(out),
                 "--set", "tree.delta=0.4"]) == 1
    report = json.loads((out / "discreteness.json").read_text())
    assert report["holds"] is False


def test_identical_config_and_seed_identical_bytes(tmp_path):
    payload = dict(MINIMAL, seed=11,
                   geometry={"eps_list": [0.2, 0.1]},
                   experiment={"m": 2, "rayleigh_samples": 10})
    cfg = write_cfg(tmp_path, payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["spectrum1d", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["check-discreteness", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert main(["sandwich", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("spectrum1d.csv", "discreteness.json", "sandwich.csv",
                 "sandwich_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_blas_threads_leave_the_output_bytes_unchanged(tmp_path):
    # the BLAS thread count could change how sums round: two fresh
    # interpreters with one and two OpenBLAS threads write the same bytes
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        write_cfg(cwd, MINIMAL)
        probe(main_exits(0, "spectrum1d"), cwd, "None", OPENBLAS_NUM_THREADS=threads)
        outputs.append((cwd / "out" / "spectrum1d.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert b" config=" in outputs[0]


def test_invalid_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum1d", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["spectrum1d", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": 1, "output_dir": "\xff"}')
    assert main(["spectrum1d", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: not UTF-8")


@pytest.mark.parametrize("subcommand, overrides, key", [
    ("check-discreteness", ['potential.kind="bogus"'], "potential.kind"),
    ("spectrum1d", ['potential.kind="cosine"', "potential.params=[2.0]"],
     "potential.params"),
    ("spectrum2d", ['potential.kind="cosine"', "potential.params=[2.0]"],
     "potential.params"),
])
def test_malformed_potential_is_a_config_error(tmp_path, capsys, subcommand,
                                               overrides, key):
    cfg = write_cfg(tmp_path, MINIMAL)
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 *sets]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@pytest.mark.parametrize("payload, key", [
    ({"geometry": {"eps_list": [0.1, 0.2]}}, "geometry.eps_list"),
    ({"geometry": {"eps_list": [0.2, 1.5]}}, "geometry.eps_list"),
    ({"experiment": {"n_list": [8, 4]}}, "experiment.n_list"),
    ({"experiment": {"n_list": [0, 8]}}, "experiment.n_list"),
    ({"experiment": {"n_list": [-4, 8]}}, "experiment.n_list"),
    ({"experiment": {"n_list": [4, 8, 8, 16]}}, "experiment.n_list"),
    ({"experiment": {"h_1d": -1}}, "experiment.h_1d"),
    ({"experiment": {"h_1d": 0}}, "experiment.h_1d"),
    ({"experiment": {"m": 0}}, "experiment.m"),
    ({"geometry": {"h": -1}}, "geometry.h"),
    ({"geometry": {"n_cross": 1}}, "geometry.n_cross"),
    ({"geometry": {"c": 5}}, "geometry.c"),
    ({"weights": {"zone_factor": -1}}, "weights.zone_factor"),
    ({"geometry": {"eps_list": []}}, "geometry.eps_list"),
    ({"experiment": {"n_list": []}}, "experiment.n_list"),
    ({"experiment": {"rayleigh_samples": -5}}, "experiment.rayleigh_samples"),
], ids=["eps-ascending", "eps-out-of-range", "n-descending", "n-zero", "n-negative",
        "n-repeated", "h1d-negative", "h1d-zero", "m-zero", "h2d-negative", "n-cross-one", "c-five",
        "zone-factor-negative", "eps-empty", "n-empty", "rayleigh-samples-negative"])
def test_bad_config_domain_exits_2_on_every_subcommand(tmp_path, capsys, subcommand,
                                                       payload, key):
    # rejected at load time, before any subcommand runs
    cfg = write_cfg(tmp_path, dict(MINIMAL, **payload))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


def test_apex_check_reads_the_binary_connector_for_wider_trees(tmp_path):
    # the geometry.c range comes from the connector of min(k, 2), so a
    # ternary tree still runs the 1-D subcommands
    cfg = write_cfg(tmp_path, {"tree": {"k": 3}})
    assert main(["spectrum1d", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("c, code", [(0.0099, 2), (0.01, 0), (2.0, 0), (2.01, 2)])
def test_apex_range_is_closed(tmp_path, capsys, c, code):
    cfg = write_cfg(tmp_path, {"geometry": {"c": c}})
    assert main(["check-discreteness", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert "geometry.c" in err and "outside [0.01, 2.0]" in err


@pytest.mark.parametrize("subcommand", ["spectrum2d", "sandwich", "project"])
@pytest.mark.parametrize("override", ["geometry.c=0.05", "tree.delta=0.1",
                                      "geometry.n_cross=40"])
def test_unmeshable_connector_rejected_at_load(tmp_path, capsys, subcommand, override):
    # the canonical connector fails the mesher's 20-degree gate at any geometry.h
    cfg = write_cfg(tmp_path, {})
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out),
                 "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert all(key in err for key in ("tree.delta", "geometry.c", "geometry.n_cross"))
    assert not out.exists()


def test_deep_tree_rejected_at_load_only_where_a_geometry_is_built(tmp_path, capsys):
    # J = 14: the default tubes eps delta**j outgrow the edges r**j with depth
    cfg = write_cfg(tmp_path, {"tree": {"J": 14}})
    for sub in SUBCOMMANDS:
        out = tmp_path / sub
        code = main([sub, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if sub in ("spectrum2d", "sandwich", "project", "converge-weights"):
            assert code == 2, sub
            assert err.startswith("config error: tree.") and "tree.J = 14" in err
            key = "experiment.n_list[0]" if sub == "converge-weights" else "geometry.eps_list[0]"
            assert key in err, err
            assert not out.exists()
        else:
            assert code == 0, (sub, err)


def test_feasibility_is_checked_at_the_pitch_the_subcommand_meshes_at(tmp_path, capsys):
    # J = 8, eps 0.2: the connector cuts leave too short an edge at h but
    # not at the h/2 that project meshes at
    cfg = write_cfg(tmp_path, {"tree": {"J": 8}, "geometry": {"eps_list": [0.2, 0.1]}})
    for sub in ("spectrum2d", "sandwich"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)]) == 2
        err = capsys.readouterr().err
        assert "tree.J = 8" in err and "geometry.eps_list[0] = 0.2" in err
    check_feasible(parse_config(cfg, ()), "project")


@pytest.mark.parametrize("subcommand", ["spectrum1d", "decompose", "sandwich",
                                        "converge-weights"])
def test_m_above_the_free_1d_dofs_rejected_at_load(tmp_path, capsys, subcommand):
    # the default tree has 300 free dofs at h_1d = 0.01, and each of these
    # subcommands solves that whole-tree pencil for m pairs
    cfg = write_cfg(tmp_path, {})
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(cfg), "--out", str(out),
                 "--set", "experiment.m=301"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: experiment.m = 301") and "300 free dofs" in err
    assert not out.exists()


def test_m_equal_to_the_free_1d_dofs_runs_and_m_above_the_2d_dofs_is_rejected_at_load(
        tmp_path, capsys):
    cfg = write_cfg(tmp_path, {})
    assert main(["spectrum1d", "--config", str(cfg), "--out", str(tmp_path / "1d"),
                 "--set", "experiment.m=300"]) == 0
    assert main(["spectrum2d", "--config", str(cfg), "--out", str(tmp_path / "2d"),
                 "--set", "experiment.m=100000"]) == 2
    assert capsys.readouterr().err.startswith("config error: experiment.m = 100000")


@pytest.mark.parametrize("subcommand, overrides, free", [
    # the A_Q and A_P pencils on the 1-D mesh matched to eps 0.2 at pitch 0.015
    ("sandwich", ["experiment.m=200"], 189),
    # the 2-D pencil at eps 0.2 and pitch 0.03
    ("spectrum2d", ["experiment.m=500", "geometry.eps_list=[0.2]"], 410),
])
def test_m_above_the_smallest_pencil_rejected_at_load(tmp_path, capsys, subcommand,
                                                      overrides, free):
    # both m lie below the 300 free dofs of the 1-D mesh at experiment.h_1d
    cfg = write_cfg(tmp_path, {})
    out = tmp_path / "out"
    sets = [a for o in overrides for a in ("--set", o)]
    assert main([subcommand, "--config", str(cfg), "--out", str(out), *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: experiment.m = ") and f" {free} free dofs" in err
    assert not out.exists()


def test_attractive_potential_spectra_match_the_dense_solve(tmp_path):
    # W = -60 cos(theta) has four eigenvalues below 0 on the default tree,
    # far below the values nearest 0
    from treespec.operator_1d import assemble_1d, build_mesh_1d, rho_star_profile

    payload = {"potential": {"kind": "cosine", "params": [-60, 1]}}
    cfg = write_cfg(tmp_path, payload)
    for sub in ("spectrum1d", "spectrum2d"):
        assert main([sub, "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
    got = [float(line.split(",")[1]) for line in
           (tmp_path / "spectrum1d" / "spectrum1d.csv").read_text().splitlines()[2:]]
    ecfg = parse_config(cfg, ()).experiment
    tree = build_tree(ecfg.tree)
    rs = rho_star_profile(tree)
    system = assemble_1d(tree, build_mesh_1d(tree, ecfg.h_1d, rs.breakpoints), rs, rs,
                         ecfg.w_limit())
    want = scipy.linalg.eigh(system.K.toarray(), system.M.toarray(), eigvals_only=True)
    assert want[3] < 0
    np.testing.assert_allclose(got, want[:ecfg.m], rtol=1e-9)


def test_project_runs_with_an_attractive_potential(tmp_path):
    # at amplitude -5, u^T K u + u^T M u of the ground state is negative; the
    # Holder fields are normalized in the potential-free H1 norm
    cfg = write_cfg(tmp_path, {"potential": {"kind": "cosine", "params": [-5, 1]}})
    assert main(["project", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_weight_zones_rejected_at_load(tmp_path, capsys):
    # J = 4: zones of width 1/4 collide inside the generation-3 edges; J = 0:
    # no vertex, so every gap is 0 and "gaps decreasing" would fail vacuously
    for J, wants in ((4, ("experiment.n_list[0] = 4",
                          "vertex zones collide inside generation 3 edges")),
                     (0, ("branching vertex",))):
        cfg = write_cfg(tmp_path, {"tree": {"J": J}})
        out = tmp_path / f"o{J}"
        assert main(["converge-weights", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: tree.") and f"tree.J = {J}" in err
        assert all(want in err for want in wants), err
        assert not out.exists()


@pytest.mark.parametrize("sub, override", [
    ("connector-constants", "tree.k=3"),
    ("connector-constants", "tree.k=4"),
    ("connector-constants", "tree.N=3"),
    ("check-discreteness", "tree.J=0"),
])
def test_tree_outside_the_subcommand_domain_rejected_at_load(tmp_path, capsys, sub,
                                                             override):
    # k >= 3 read the k = 2 connector and N = 3 one with N = 2 section widths;
    # J = 0 has no per-generation factor, so its verdict hung on the truncation
    cfg = write_cfg(tmp_path, {})
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out), "--set", override]) == 2
    key, _, value = override.partition("=")
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} = {value}: "), err
    assert not out.exists()


def test_node_budget_rejects_a_deep_tree_at_once(tmp_path, capsys):
    # 3**(10**7) has 16 million bits; the check stops once the running
    # product passes the budget (3.1 s to reject when it took the power)
    cfg = write_cfg(tmp_path, {"tree": {"k": 3, "J": 10_000_000}})
    start = time.perf_counter()
    assert main(["check-discreteness", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 0.1
    assert "exceeds node budget" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["spectrum1d", "check-discreteness"])
def test_deep_path_with_coinciding_shells_rejected_at_load(tmp_path, capsys, sub):
    # on a path (k = 1) the node budget allows J < 10**6; at r = 0.5 the shells
    # t_54 and t_55 coincide in floating point, which the 1-D profile
    # rejected only once a run had started (exit 1 and 3)
    cfg = write_cfg(tmp_path, {"tree": {"k": 1, "J": 60}})
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tree: tree.J = 60: "), err
    assert not out.exists()


def test_path_budget_rejects_a_long_path_at_once(tmp_path, capsys):
    # the node budget caps k**J, which is 1 on a path; J + 1 edges it is
    # (1.45 s to accept this tree, and every subcommand then looped over
    # 10**7 generations)
    cfg = write_cfg(tmp_path, {"tree": {"k": 1, "r": 0.999999999, "delta": 0.9999999,
                                        "J": 10_000_000}})
    start = time.perf_counter()
    assert main(["check-discreteness", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err.startswith("config error: tree: tree.J = 10000000: ") and "node budget" in err


@pytest.mark.parametrize("sub", ["spectrum1d", "decompose", "check-discreteness"])
@pytest.mark.parametrize("tree", [
    {"delta": 0.01, "N": 100, "J": 2},
    {"k": 1, "r": 0.99, "J": 1500},
    {"k": 1, "r": 0.9, "J": 160, "delta": 0.1, "N": 3},
], ids=["zero", "zero-path", "subnormal"])
def test_underflowing_weight_rejected_at_load(tmp_path, capsys, sub, tree):
    # the last generation's weight delta**((N-1) J) omega below the smallest
    # normal float: 0 failed the weight profile once a run had started (exit
    # 1 and 3), and the subnormal 1e-320 stalled the 1-D solves for minutes
    cfg = write_cfg(tmp_path, {"tree": tree})
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tree: tree.delta = "), err
    assert "tree.N = " in err and f"tree.J = {tree['J']}: " in err
    assert not out.exists()


@pytest.mark.parametrize("sub, payload, key", [
    ("sandwich", {"geometry": {"eps_list": [0.2]}}, "geometry.eps_list"),
    ("project", {"geometry": {"eps_list": [0.2]}}, "geometry.eps_list"),
    ("converge-weights", {"experiment": {"n_list": [4]}}, "experiment.n_list"),
])
def test_one_entry_trend_rejected_at_load(tmp_path, capsys, sub, payload, key):
    # a monotonicity check over one value would pass vacuously
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: a trend needs at least two"), err
    assert not out.exists()


def test_one_entry_lists_still_run_where_no_trend_is_checked(tmp_path):
    cfg = write_cfg(tmp_path, {"geometry": {"eps_list": [0.2]},
                               "experiment": {"n_list": [4]}})
    for sub in SUBCOMMANDS:
        if sub not in ("sandwich", "project", "converge-weights"):
            check_feasible(parse_config(cfg, ()), sub)
    assert main(["spectrum2d", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("J", range(11))
def test_load_verdict_equals_build_verdict(J):
    # spectrum2d meshes at geometry.h, project at geometry.h / 2; a rejected
    # geometry fails to build, an accepted one builds (the feasible J <= 10
    # geometries number at most 33k nodes)
    tree = build_tree(TreeSpec(J=J))
    ecfg = ExperimentConfig()
    for sub, h in (("spectrum2d", 0.03), ("project", 0.015)):
        for eps in ecfg.eps_list:
            # project checks a trend, so it needs a second entry; eps / 2 is
            # feasible wherever eps is, for J <= 10
            cfg = validate_config({"tree": {"J": J}, "geometry": {"eps_list": [eps, eps / 2]}})
            try:
                check_feasible(cfg, sub)
            except ConfigError:
                with pytest.raises(Geometry2DError):
                    build_geometry_2d(tree, ecfg.geometry(eps, h))
            else:
                build_geometry_2d(tree, ecfg.geometry(eps, h))


@pytest.mark.parametrize("overrides", [[], ["--set", "seed=1"], ["--set", "tree.k=3"]])
def test_non_object_config_is_a_config_error(tmp_path, capsys, overrides):
    cfg = write_cfg(tmp_path, [1, 2])
    assert main(["spectrum1d", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 *overrides]) == 2
    assert "top level: expected an object" in capsys.readouterr().err


def test_set_override_with_bad_json_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["spectrum1d", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--set", "tree.delta=zero"]) == 2
    assert "--set tree.delta" in capsys.readouterr().err


def _csv_ints(path):
    return [tuple(int(float(v)) for v in line.split(","))
            for line in path.read_text().splitlines()[2:]]


def test_spectrum2d_mesh_dump(tmp_path):
    # the tag file holds, per component copy, the edges in one of its
    # triangles only, local edges ascending with the smaller local index
    # first; tag 1 on the n_cross edges of the root section, the Dirichlet set
    cfg_path = write_cfg(tmp_path, dict(MINIMAL, geometry={"eps_list": [0.2]}))
    out = tmp_path / "out"
    assert main(["spectrum2d", "--config", str(cfg_path), "--out", str(out),
                 "--dump-mesh"]) == 0
    for name in ("mesh_nodes.csv", "mesh_triangles.csv", "mesh_tags.csv",
                 "field_mode1.csv"):
        assert (out / name).exists()
    ecfg = parse_config(cfg_path, ()).experiment
    root = build_geometry_2d(build_tree(ecfg.tree), ecfg.geometry(0.2)).root_nodes
    assert len(root) == ecfg.n_cross + 1

    tags = _csv_ints(out / "mesh_tags.csv")
    root_edges = {(int(min(a, b)), int(max(a, b))) for a, b in zip(root[:-1], root[1:])}
    tagged = [(c, n0, n1) for c, n0, n1, tag in tags if tag == 1]
    assert len(tagged) == ecfg.n_cross
    assert {(min(n0, n1), max(n0, n1)) for _, n0, n1 in tagged} == root_edges
    assert {c for c, _, _ in tagged} == {0}
    assert {n for _, n0, n1 in tagged for n in (n0, n1)} <= set(root.tolist())
    assert {tag for *_, tag in tags} == {0, 1}

    local, n_local = {}, {}   # (component, node) -> local index: node row order
    for node, comp, *_ in _csv_ints(out / "mesh_nodes.csv"):
        local[comp, node] = n_local.get(comp, 0)
        n_local[comp] = local[comp, node] + 1
    triangles = _csv_ints(out / "mesh_triangles.csv")
    assert [c for c, *_ in tags] == sorted(c for c, *_ in tags)
    for comp in sorted(n_local):
        rows = [(n0, n1) for c, n0, n1, _ in tags if c == comp]
        assert {(min(r), max(r)) for r in rows} == one_triangle_edges(
            [t for c, *t in triangles if c == comp])
        loc = [(local[comp, n0], local[comp, n1]) for n0, n1 in rows]
        assert all(a < b for a, b in loc)
        assert loc == sorted(loc)


def test_dump_mesh_rejected_outside_spectrum2d(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    for sub in SUBCOMMANDS:
        if sub == "spectrum2d":
            continue
        out = tmp_path / sub
        with pytest.raises(SystemExit) as exit_info:
            main([sub, "--config", str(cfg), "--out", str(out), "--dump-mesh"])
        assert exit_info.value.code == 2, sub
        assert "--dump-mesh" in capsys.readouterr().err
        assert not out.exists()


def test_connector_constants_dump(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["connector-constants", "--config", str(cfg),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "connector_constants.json").read_text())
    assert set(payload["matrices"]) == {"Abar", "A", "Bbar", "B",
                                        "E0bar", "E1bar", "E0", "E1"}
    assert payload["constants"]["rho_P_factor"] <= 1.0
    assert payload["constants"]["rho_Q_factor"] >= 1.0


# every file a run on {} writes: a CSV's header row in column order, and the
# keys of a JSON file and of the objects nested in it as slash-joined paths
OUTPUT_SCHEMA = {
    ("spectrum1d",): {"spectrum1d.csv": "index,lambda,multiplicity,residual"},
    ("decompose",): {
        "decompose.csv": "index,lambda,multiplicity,lambda_direct,relative_gap"},
    ("spectrum2d",): {"spectrum2d.csv": "eps,index,lambda,residual"},
    ("spectrum2d", "--dump-mesh"): {
        "spectrum2d.csv": "eps,index,lambda,residual",
        "mesh_nodes.csv": "node,component,x,y,theta",
        "mesh_triangles.csv": "component,n0,n1,n2",
        "mesh_tags.csv": "component,n0,n1,tag",
        "field_mode1.csv": "node,value"},
    ("sandwich",): {
        "sandwich.csv": "eps,m,mu,lambda,nu,nu_bar,phi_Q_mu,phi_P_nu,ok_upper,ok_lower",
        "sandwich_summary.json": {"fitted_c", "fitted_c/0.2", "fitted_c/0.1",
                                  "fitted_c/0.05", "c_stable_factor", "nu1_minus_mu1",
                                  "gaps_decreasing", "all_pass"}},
    ("converge-weights",): {
        "converge_weights.csv": "n,m,lambda_n,lambda_limit,gap",
        "converge_weights_summary.json": {"equiv_constant", "envelope_ok",
                                          "envelope_failures", "gaps_decreasing",
                                          "final_relative_gap"}},
    ("project",): {
        "project.csv": "eps,lambda_2d,distance,overlap,holder_constant",
        "project_summary.json": {"distances_decreasing", "final_distance",
                                 "tracking_ok"}},
    ("check-discreteness",): {
        "discreteness.json": {"holds", "best_C", "per_generation_factor", "boundary"}},
    ("connector-constants",): {
        "connector_constants.json": {
            "constants", *(f"constants/{name}" for name in (
                "alpha_Abar", "alpha_A", "alpha_Bbar", "alpha_B", "beta_Abar",
                "beta_Bbar", "beta_A", "beta_B", "rho_Q_factor", "rho_P_factor")),
            "matrices", *(f"matrices/{name}" for name in (
                "Abar", "A", "Bbar", "B", "E0bar", "E1bar", "E0", "E1")),
            "pentagon_vertices", "arm_lengths", "mesh_nodes"}},
}


def key_paths(payload: dict, prefix: str = "") -> set:
    paths = set()
    for key, value in payload.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= key_paths(value, f"{prefix}{key}/")
    return paths


@pytest.mark.parametrize("argv", OUTPUT_SCHEMA)
def test_output_schema(tmp_path, argv):
    # a renamed, reordered, added or dropped column or key fails here
    cfg = write_cfg(tmp_path, {})
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    schema = OUTPUT_SCHEMA[argv]
    assert sorted(p.name for p in out.iterdir()) == sorted(schema)
    for name, want in schema.items():
        text = (out / name).read_text()
        if name.endswith(".csv"):
            assert text.splitlines()[1] == want, name
        else:
            assert key_paths(json.loads(text)) == want, name


def test_output_schema_covers_every_subcommand():
    assert set(OUTPUT_SCHEMA) >= {(sub,) for sub in SUBCOMMANDS}


GOLDEN_DEFAULTS = {
    "tree": {"k": 2, "l0": 1.0, "r": 0.5, "delta": 0.6, "N": 2,
             "omega": 1.0, "J": 2},
    "weights": {"zone_factor": 1.1},
    "potential": {"kind": "zero", "params": [1.0, 1.0]},
    "geometry": {"eps_list": [0.2, 0.1, 0.05], "c": 0.3, "h": 0.03,
                 "n_cross": 3},
    "experiment": {"m": 4, "n_list": [4, 8, 16, 32], "h_1d": 0.01,
                   "rayleigh_samples": 0},
    "output_dir": ".",
    "seed": None,
}


def test_default_config_golden():
    # the hash heads every CSV; it depends only on the key set and defaults
    cfg = validate_config({})
    assert cfg.data == GOLDEN_DEFAULTS
    assert cfg.config_hash() == "d8c61a352e81"


def test_config_keys_map_to_record_defaults():
    paths = set()
    for block, value in _DEFAULTS.items():
        paths |= {f"{block}.{k}" for k in value} if isinstance(value, dict) else {block}
    assert paths == set(_FIELDS) | set(_CLI_ONLY)
    assert not set(_FIELDS) & set(_CLI_ONLY)
    for path, (owner, name) in _FIELDS.items():
        block, key = path.split(".")
        default = owner._field_defaults[name]
        default = list(default) if isinstance(default, tuple) else default
        assert _DEFAULTS[block][key] == default, path
    # the empty config builds the default records
    assert validate_config({}).experiment == ExperimentConfig()


# the scipy modules a solve loads; importing the package, the config checks
# and check-discreteness must load none of them
SCIPY_MODULES = ("scipy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
                 "scipy.spatial")


def probe(code: str, cwd: Path, result: str, **env):
    """The JSON value of the expression ``result`` in a fresh interpreter,
    run in ``cwd`` with the extra environment ``env``, after ``code``;
    ``result`` is evaluated before the probe imports ``json``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    out = subprocess.run([sys.executable, "-c",
                          f"import sys\n{code}\nresult = {result}\n"
                          "import json\nprint(json.dumps(result))"],
                         cwd=cwd, env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def scipy_modules_after(code: str, cwd: Path) -> list:
    """The SCIPY_MODULES a fresh interpreter holds after running ``code``."""
    return probe(code, cwd, f"[m for m in {SCIPY_MODULES!r} if m in sys.modules]")


def main_exits(code: int, *argv: str) -> str:
    return (f"from treespec.cli import main\n"
            f"assert main({[*argv, '--config', 'cfg.json', '--out', 'out']!r}) == {code}")


@pytest.mark.parametrize("code, loaded", [
    ("import treespec, treespec.cli\ntreespec.cli.validate_config({})", []),
    (main_exits(2, "sandwich", "--set", "geometry.eps_list=[0.9, 0.5]"), []),
    (main_exits(2, "converge-weights", "--set", "tree.J=4"), []),
    (main_exits(2, "spectrum1d", "--set", "experiment.m=100000"), []),
    (main_exits(0, "check-discreteness"), []),
    (main_exits(2, "check-discreteness", "--set", "tree.J=0"), []),
    (main_exits(0, "spectrum1d"), ["scipy", "scipy.sparse", "scipy.sparse.linalg",
                                   "scipy.linalg"]),
], ids=["import-and-validate", "infeasible-geometry", "infeasible-zones",
        "oversized-m", "check-discreteness", "check-discreteness-J0", "spectrum1d"])
def test_config_checks_and_check_discreteness_run_without_scipy(tmp_path, code, loaded):
    # start-up cost: scipy is imported by the functions that solve, on first
    # use; the spectrum1d case shows that the probe sees a solve load it
    write_cfg(tmp_path, {})
    assert scipy_modules_after(code, tmp_path) == loaded


# validating a config reads the schema and the tree; the solver modules load
# at a subcommand's first solve
CONFIG_PATH_MODULES = ["treespec", "treespec.cli", "treespec.config", "treespec.tree_model"]
SOLVER_MODULES = ["treespec.convergence", "treespec.eigensolver", "treespec.fem_2d",
                  "treespec.operator_1d"]
# standard-library modules that validation never calls: argparse, json and
# hashlib take about 11 ms of start-up, and dataclasses with inspect 12 ms
UNUSED_STDLIB = ["argparse", "json", "hashlib", "dataclasses", "inspect"]


def test_config_path_loads_no_solver_module(tmp_path):
    # start-up cost: the package namespace is lazy and the CLI imports the
    # solver modules in its runners; the tracer of the benchmark patches by
    # identity, so a lazily resolved name is its defining module's object
    result = probe(
        "import importlib\nimport treespec, treespec.cli\ntreespec.cli.validate_config({})",
        tmp_path,
        "{'loaded': sorted(m for m in sys.modules if m.partition('.')[0] == 'treespec'), "
        "'stdlib': [m for m in %r if m in sys.modules], "
        "'foreign': [n for n, m in treespec._EXPORTS.items() if getattr(treespec, n) "
        "is not getattr(importlib.import_module('treespec.' + m), n)]}" % UNUSED_STDLIB)
    assert result["loaded"] == CONFIG_PATH_MODULES
    assert not set(SOLVER_MODULES) & set(result["loaded"])
    assert result["stdlib"] == []
    assert result["foreign"] == []


@pytest.mark.parametrize("code, numpy_loaded", [
    ("import treespec, treespec.cli\ntreespec.cli.validate_config({})", False),
    ("import treespec.cli\n"
     "treespec.cli.validate_config({'potential': {'kind': 'cosine', 'params': [-60, 1]}})",
     False),
    (main_exits(2, "spectrum1d", "--set", "tree.depth=3"), False),
    ("from treespec.cli import main\ntry:\n    main(['--help'])\n"
     "except SystemExit as exit:\n    assert exit.code == 0", False),
    ("from treespec.tree_model import TreeSpec, build_tree\nbuild_tree(TreeSpec())", True),
], ids=["import-and-validate", "validate-cosine", "schema-error", "help", "build-tree"])
def test_config_path_runs_without_numpy(tmp_path, code, numpy_loaded):
    # numpy takes about 85 ms of start-up; the modules a config check runs
    # import it in the functions that build arrays, and a cosine W imports it
    # when evaluated; the build-tree case shows that the probe sees it load
    write_cfg(tmp_path, {})
    loaded = probe(code, tmp_path, "[m for m in sys.modules if m.partition('.')[0] == 'numpy']")
    assert bool(loaded) == numpy_loaded
