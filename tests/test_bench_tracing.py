"""The benchmark's tracer wraps package functions by name; a rename or merge
in the package must fail here, not only when the benchmark runs."""

import importlib.util
from pathlib import Path

import scipy.sparse.linalg as spla

import treespec.fem_2d as fem_2d

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
