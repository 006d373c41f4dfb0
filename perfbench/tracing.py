"""Span and counter tracing around the public functions of treespec.

The package binds names with ``from .x import f``, so a function lives in
several module namespaces at once.  ``Tracer.installed()`` replaces the
original function object in its defining module and in every ``treespec.*``
namespace that bound it, and restores all of them on exit.  A listed function
that no longer exists raises ``TraceSetupError``: a rename or merge must break
the trace visibly instead of silently reporting an empty layer.

Spans nest on one stack (one thread, one client).  A span's self time is its
duration minus the time covered by its child spans.
"""

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Eigensolver bucket boundary by input size, frozen here on purpose: it is not
# read from treespec.eigensolver.DENSE_CUTOFF, so moving that cutoff shows up
# as time moving within a fixed bucket.
SMALL_N = 2000


class TraceSetupError(RuntimeError):
    """A traced function is missing from the package."""


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.unique = defaultdict(set)
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), math.nan, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, prefix) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def summary(self) -> dict:
        """name -> (total seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out[name]
            agg[0] += end - start
            agg[1] += end - start - covered
            agg[2] += 1
        return out

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        try:
            for module, attr, make in _TRACED:
                self._patch(module, attr, make)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, module, attr, make):
        try:
            mod = importlib.import_module(module)
        except ImportError as err:
            raise TraceSetupError(f"traced module {module} is missing: {err}") from err
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        original = getattr(owner, name, None)
        if owner is None or not callable(original):
            raise TraceSetupError(f"traced function {module}.{attr} is missing; "
                                  "update perfbench/tracing.py")
        wrapper = functools.wraps(original)(make(self, original))
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)
        if cls_name:
            return
        for key, ns in list(sys.modules.items()):
            if ns is mod or not (key == "treespec" or key.startswith("treespec.")):
                continue
            for bound, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, bound, original))
                    setattr(ns, bound, wrapper)


# ---------------------------------------------------------------------------
# Wrapper factories: make(tracer, original) -> replacement callable
# ---------------------------------------------------------------------------

def _timed(span, observe=None):
    def make(tracer, original):
        def wrapper(*args, **kwargs):
            with tracer.span(span):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result
        return wrapper
    return make


def _counted(counter):
    def make(tracer, original):
        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return original(*args, **kwargs)
        return wrapper
    return make


def _eigensolver(tracer, original):
    def wrapper(K, *args, **kwargs):
        n = K.shape[0]
        bucket = "eigensolver.small" if n <= SMALL_N else "eigensolver.large"
        tracer.counts["eigensolver.dofs"] += n
        try:
            with tracer.span(bucket):
                spec = original(K, *args, **kwargs)
        except Exception:
            tracer.counts["eigensolver.errors"] += 1
            raise
        if spec.residuals is not None and len(spec.residuals):
            tracer.maxima["eigensolver.max_residual"] = max(
                tracer.maxima["eigensolver.max_residual"], float(spec.residuals.max()))
        return spec
    return wrapper


def _eigsh(tracer, original):
    # counts ARPACK calls that do not go through smallest_eigenpairs
    def wrapper(*args, **kwargs):
        if tracer.inside("eigensolver."):
            return original(*args, **kwargs)
        tracer.counts["eigensolver.bypass.calls"] += 1
        with tracer.span("eigensolver.bypass"):
            return original(*args, **kwargs)
    return wrapper


def _add_dofs(counter):
    def observe(tracer, args, kwargs, result):
        tracer.counts[counter] += result.n_full
    return observe


def _geometry(tracer, args, kwargs, result):
    tracer.counts["fem_2d.nodes"] += result.n_nodes
    tracer.unique["fem_2d.build_geometry_2d"].add((result.tree.spec, result.spec2d))


def _connector(tracer, args, kwargs, result):
    tracer.unique["connector.analyze_connector"].add(
        (args, tuple(sorted(kwargs.items()))))


# (defining module, attribute, wrapper factory); public names only
_TRACED = (
    ("treespec.tree_model", "build_tree", _timed("tree_model.build_tree")),
    ("treespec.tree_model", "Tree.counting_function",
     _counted("tree_model.counting_function.calls")),
    ("treespec.operator_1d", "build_mesh_1d", _timed("operator_1d.build_mesh_1d")),
    ("treespec.operator_1d", "assemble_1d",
     _timed("operator_1d.assemble_1d", _add_dofs("operator_1d.assemble_1d.dofs"))),
    ("treespec.operator_1d", "radial_decomposition_spectrum",
     _timed("operator_1d.radial_decomposition")),
    ("treespec.operator_1d", "discreteness_condition_check",
     _timed("operator_1d.discreteness")),
    ("treespec.operator_1d", "hardy_inequality_check", _timed("operator_1d.hardy")),
    ("treespec.eigensolver", "smallest_eigenpairs", _eigensolver),
    ("scipy.sparse.linalg", "eigsh", _eigsh),
    ("treespec.connector", "analyze_connector",
     _timed("connector.analyze_connector", _connector)),
    ("treespec.mesh2d", "stiffness_and_mass", _timed("mesh2d.stiffness_and_mass")),
    ("treespec.fem_2d", "build_geometry_2d",
     _timed("fem_2d.build_geometry_2d", _geometry)),
    ("treespec.fem_2d", "assemble_2d", _timed("fem_2d.assemble_2d")),
    ("treespec.fem_2d", "matched_mesh_1d", _timed("fem_2d.matched_mesh_1d")),
    ("treespec.fem_2d", "p_eps_project", _timed("fem_2d.p_eps_project")),
    ("treespec.fem_2d", "q_eps_lift", _timed("fem_2d.q_eps_lift")),
    ("treespec.convergence", "sandwich_experiment", _timed("convergence.sandwich")),
    ("treespec.convergence", "eigenfunction_projection_experiment",
     _timed("convergence.projection")),
    ("treespec.convergence", "kernel_gap_check", _timed("convergence.kernel_gap")),
    ("treespec.convergence", "rayleigh_bound_check", _timed("convergence.rayleigh")),
)

# per-layer metric -> (span or counter, what to read)
LAYER_METRICS = {
    "tree_model.build_tree.s": ("tree_model.build_tree", "total"),
    "tree_model.counting_function.calls": ("tree_model.counting_function.calls", "count"),
    "operator_1d.build_mesh_1d.s": ("operator_1d.build_mesh_1d", "total"),
    "operator_1d.assemble_1d.s": ("operator_1d.assemble_1d", "total"),
    "operator_1d.assemble_1d.calls": ("operator_1d.assemble_1d", "calls"),
    "operator_1d.assemble_1d.dofs": ("operator_1d.assemble_1d.dofs", "count"),
    "operator_1d.radial_decomposition.s": ("operator_1d.radial_decomposition", "self"),
    "operator_1d.hardy.s": ("operator_1d.hardy", "total"),
    "operator_1d.hardy.calls": ("operator_1d.hardy", "calls"),
    "operator_1d.discreteness.s": ("operator_1d.discreteness", "total"),
    "eigensolver.small.s": ("eigensolver.small", "total"),
    "eigensolver.small.calls": ("eigensolver.small", "calls"),
    "eigensolver.large.s": ("eigensolver.large", "total"),
    "eigensolver.large.calls": ("eigensolver.large", "calls"),
    "eigensolver.dofs": ("eigensolver.dofs", "count"),
    "eigensolver.errors": ("eigensolver.errors", "count"),
    "eigensolver.max_residual": ("eigensolver.max_residual", "max"),
    "eigensolver.bypass.calls": ("eigensolver.bypass.calls", "count"),
    "connector.analyze_connector.s": ("connector.analyze_connector", "total"),
    "connector.analyze_connector.calls": ("connector.analyze_connector", "calls"),
    "connector.analyze_connector.unique": ("connector.analyze_connector", "unique"),
    "fem_2d.build_geometry_2d.s": ("fem_2d.build_geometry_2d", "total"),
    "fem_2d.build_geometry_2d.calls": ("fem_2d.build_geometry_2d", "calls"),
    "fem_2d.build_geometry_2d.unique": ("fem_2d.build_geometry_2d", "unique"),
    "fem_2d.nodes": ("fem_2d.nodes", "count"),
    "fem_2d.assemble_2d.s": ("fem_2d.assemble_2d", "self"),
    "mesh2d.stiffness_and_mass.s": ("mesh2d.stiffness_and_mass", "total"),
    "mesh2d.stiffness_and_mass.calls": ("mesh2d.stiffness_and_mass", "calls"),
    "fem_2d.matched_mesh_1d.s": ("fem_2d.matched_mesh_1d", "total"),
    "fem_2d.p_eps_project.s": ("fem_2d.p_eps_project", "total"),
    "fem_2d.p_eps_project.calls": ("fem_2d.p_eps_project", "calls"),
    "fem_2d.q_eps_lift.s": ("fem_2d.q_eps_lift", "total"),
    "fem_2d.q_eps_lift.calls": ("fem_2d.q_eps_lift", "calls"),
    "convergence.rayleigh.self_s": ("convergence.rayleigh", "self"),
    "convergence.sandwich.self_s": ("convergence.sandwich", "self"),
    "convergence.projection.self_s": ("convergence.projection", "self"),
    "convergence.kernel_gap.self_s": ("convergence.kernel_gap", "self"),
}


_UNITS = {"total": "s", "self": "s", "max": "norm"}


def layer_unit(metric: str) -> str:
    return _UNITS.get(LAYER_METRICS[metric][1], "count")


def layer_values(tracer: Tracer) -> dict:
    """Per-layer metric values of one traced pass; absent layers read 0."""
    spans = tracer.summary()
    read = {
        "total": lambda key: spans[key][0] if key in spans else 0.0,
        "self": lambda key: spans[key][1] if key in spans else 0.0,
        "calls": lambda key: spans[key][2] if key in spans else 0,
        "count": lambda key: tracer.counts.get(key, 0),
        "max": lambda key: tracer.maxima.get(key, 0.0),
        "unique": lambda key: len(tracer.unique.get(key, ())),
    }
    return {metric: read[how](key) for metric, (key, how) in LAYER_METRICS.items()}
