"""Numerical laboratory for width-weighted operators on metric trees and their
2-D inflated counterparts.

No module imports scipy at module level: each function that needs it imports
it on entry, so importing the package, validating a config and the checks
that assemble nothing run on numpy alone.
"""

__version__ = "0.1.0"

from .connector import EquivalenceConstants, SkeletonStar, analyze_connector
from .convergence import (
    ExperimentConfig,
    eigenfunction_projection_experiment,
    kernel_gap_check,
    phi_P,
    phi_Q,
    rayleigh_bound_check,
    sandwich_experiment,
    weight_convergence_experiment,
)
from .eigensolver import Spectrum, merge_spectra, smallest_eigenpairs
from .fem_2d import (
    GeometrySpec2D,
    assemble_2d,
    build_geometry_2d,
    matched_mesh_1d,
    p_eps_project,
    q_eps_lift,
)
from .operator_1d import (
    WeightProfile,
    assemble_1d,
    build_mesh_1d,
    discreteness_condition_check,
    radial_decomposition_spectrum,
    rho_star_profile,
)
from .tree_model import EdgeId, Tree, TreeSpec, build_tree

__all__ = [
    "__version__",
    "TreeSpec", "Tree", "EdgeId", "build_tree",
    "SkeletonStar", "EquivalenceConstants", "analyze_connector",
    "WeightProfile", "rho_star_profile",
    "build_mesh_1d", "assemble_1d",
    "radial_decomposition_spectrum",
    "discreteness_condition_check",
    "Spectrum", "smallest_eigenpairs", "merge_spectra",
    "GeometrySpec2D", "build_geometry_2d", "assemble_2d",
    "matched_mesh_1d", "p_eps_project", "q_eps_lift",
    "ExperimentConfig", "phi_Q", "phi_P",
    "weight_convergence_experiment", "sandwich_experiment",
    "kernel_gap_check", "rayleigh_bound_check",
    "eigenfunction_projection_experiment",
]
