"""Numerical laboratory for width-weighted operators on metric trees and their
2-D inflated counterparts.

The package namespace is lazy (PEP 562): ``_EXPORTS`` maps each public name to
the module that defines it, and the first access to a name imports that
module and returns its object.  So ``import treespec`` runs no submodule, and
importing the CLI and validating a config load only ``cli``, ``config`` and
``tree_model``, on the standard library alone: numpy is imported by the
functions that build arrays, and scipy by those that assemble or solve.  On
a 2-CPU Xeon VM (Python 3.11, numpy 2.4, cached ``.pyc`` files) a fresh
interpreter that does this exits after about 97 ms, 30 ms of them in the
imports, against 132 ms for one that imports numpy alone and 50 ms for an
empty one.  So ``validate_config``, a config it rejects and ``--help``
load neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "TreeSpec": "tree_model", "Tree": "tree_model", "EdgeId": "tree_model",
    "build_tree": "tree_model",
    "SkeletonStar": "connector", "EquivalenceConstants": "connector",
    "analyze_connector": "connector",
    "WeightProfile": "operator_1d", "rho_star_profile": "operator_1d",
    "build_mesh_1d": "operator_1d", "assemble_1d": "operator_1d",
    "radial_decomposition_spectrum": "operator_1d",
    "discreteness_condition_check": "operator_1d",
    "Spectrum": "eigensolver", "smallest_eigenpairs": "eigensolver",
    "merge_spectra": "eigensolver",
    "GeometrySpec2D": "fem_2d", "build_geometry_2d": "fem_2d", "assemble_2d": "fem_2d",
    "matched_mesh_1d": "fem_2d", "p_eps_project": "fem_2d", "q_eps_lift": "fem_2d",
    "ExperimentConfig": "config",
    "phi_Q": "convergence", "phi_P": "convergence",
    "weight_convergence_experiment": "convergence", "sandwich_experiment": "convergence",
    "kernel_gap_check": "convergence", "rayleigh_bound_check": "convergence",
    "eigenfunction_projection_experiment": "convergence",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    # not cached here, so a replaced module attribute is what the package
    # returns too
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
