"""The benchmark's tracer wraps package functions by name; a rename or merge
in the package must fail here, not only when the benchmark runs."""

import importlib.util
from pathlib import Path

import scipy.sparse.linalg as spla

import treespec.fem_2d as fem_2d
import treespec.operator_1d as operator_1d
from treespec.tree_model import TreeSpec, build_tree

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_restored():
    tracing = _load_tracing()
    originals = (fem_2d.matched_mesh_1d, spla.eigsh)
    with tracing.Tracer().installed():   # raises TraceSetupError on a missing name
        assert fem_2d.matched_mesh_1d is not originals[0]
    assert (fem_2d.matched_mesh_1d, spla.eigsh) == originals


def test_assembly_spans_are_recorded():
    tracing = _load_tracing()
    tree = build_tree(TreeSpec(J=2))
    tm = fem_2d.build_geometry_2d(tree, fem_2d.GeometrySpec2D(eps=0.2, c=0.3, h=0.05,
                                                              n_cross=3))
    rs = operator_1d.rho_star_profile(tree)
    mesh = operator_1d.build_mesh_1d(tree, h=0.05, breakpoints=rs.breakpoints)
    tracer = tracing.Tracer()
    with tracer.installed():
        fem_2d.assemble_2d(tm, None)
        operator_1d.assemble_1d(tree, mesh, rs, rs, None)
    spans = tracer.summary()
    assert spans["fem_2d.assemble_2d"][2] == 1
    assert spans["operator_1d.assemble_1d"][2] == 1
    # the local pairs of all components come from one call inside the 2-D span
    assert spans["mesh2d.stiffness_and_mass"][2] == 1
    layers = tracing.layer_values(tracer)
    assert layers["fem_2d.assemble_2d.s"] > 0.0
    assert layers["operator_1d.assemble_1d.dofs"] == mesh.n_dofs
