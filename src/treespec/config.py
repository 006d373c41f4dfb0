"""The experiment config: the schema record with its defaults and domain
checks, and the error its checks raise.

Validating a config loads only this module and ``tree_model``, and runs on
the standard library alone: the cosine potential imports numpy when it is
evaluated, and ``mesh2d``, ``connector`` and the solver modules are imported
by the functions that use them.  ``ExperimentConfig`` is a named tuple, not a
dataclass, so that the check does not import ``dataclasses`` and ``inspect``.
"""

from collections import namedtuple

from .tree_model import TreeSpec

FINE_PITCH = 0.5             # the fine 2-D mesh pitch, as a multiple of h_2d
APEX_C_RANGE = (0.01, 2.0)   # geometry.c: the reference connector's apex pitch


class ExperimentError(RuntimeError):
    """An experiment could not produce a meaningful result."""


class ExperimentConfig(namedtuple(
        "ExperimentConfig",
        "tree eps_list n_list m h_1d h_2d n_cross apex_c zone_factor potential "
        "potential_params seed",
        defaults=(TreeSpec(), (0.2, 0.1, 0.05), (4, 8, 16, 32), 4, 0.01, 0.03, 3, 0.3, 1.1,
                  "zero", (1.0, 1.0), 0))):
    """The parameters of every experiment; ``potential`` is "zero" or "cosine"."""

    __slots__ = ()

    def geometry(self, eps: float, h: float | None = None) -> "GeometrySpec2D":
        """Inflated-tree geometry at width eps, at pitch h_2d unless h is given."""
        from .fem_2d import GeometrySpec2D
        return GeometrySpec2D(eps=eps, c=self.apex_c,
                              h=self.h_2d if h is None else h,
                              n_cross=self.n_cross)

    def validate(self) -> None:
        """Reject a config value outside the supported domain; messages name
        the config key."""
        self.tree.validate()
        for key, values in (("geometry.eps_list", self.eps_list),
                            ("experiment.n_list", self.n_list)):
            if len(values) == 0:
                raise ExperimentError(f"{key}: must not be empty")
        if not all(0 < e < 1 for e in self.eps_list):
            raise ExperimentError("geometry.eps_list: entries must lie in (0, 1)")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ExperimentError("geometry.eps_list: entries must be strictly decreasing")
        if any(b <= a for a, b in zip((0, *self.n_list), self.n_list)):
            raise ExperimentError(
                "experiment.n_list: entries must be positive and strictly increasing")
        for key, value, low in (("experiment.h_1d", self.h_1d, 0), ("geometry.h", self.h_2d, 0),
                                ("weights.zone_factor", self.zone_factor, 0),
                                ("experiment.m", self.m, 0), ("geometry.n_cross", self.n_cross, 1)):
            if not value > low:
                raise ExperimentError(f"{key}: must be > {low}, got {value}")
        # the range canonical_connector checks too; a 1-D subcommand on k >= 3
        # must still load, and the 2-D ones reject such a tree with their geometry
        c_min, c_max = APEX_C_RANGE
        if not c_min <= self.apex_c <= c_max:
            raise ExperimentError(
                f"geometry.c: apex parameter c = {self.apex_c} outside [{c_min}, {c_max}]")
        self.w_limit()   # rejects a malformed potential

    def _require_trend(self, key: str) -> None:
        """Reject a trend or rate over "geometry.eps_list" or
        "experiment.n_list" with fewer than two entries: over one value a
        monotonicity check passes vacuously and a rate has no slope."""
        values = {"geometry.eps_list": self.eps_list, "experiment.n_list": self.n_list}[key]
        if len(values) < 2:
            noun = key.rpartition(".")[2].removesuffix("_list")
            raise ExperimentError(f"{key}: a trend needs at least two {noun} values, "
                                  f"got {list(values)}")

    # potential plumbing: the radial potential is the one definition and
    # check of W(theta), on the tree and on its inflation alike; the bound
    # C_W is read after it
    def w_limit(self):
        """The radial potential W(theta), None for "zero"; rejects an unknown
        kind or cosine parameters other than [amp, freq]."""
        if self.potential == "zero":
            return None
        if self.potential != "cosine":
            raise ExperimentError(
                f"potential.kind: unknown kind {self.potential!r}")
        params = tuple(self.potential_params)
        if len(params) != 2 or not all(
                isinstance(p, (int, float)) and not isinstance(p, bool) for p in params):
            raise ExperimentError(
                f"potential.params: cosine takes [amp, freq], got {list(params)}")
        amp, freq = params

        def w(t):
            import numpy as np

            return amp * np.cos(freq * np.asarray(t, float))

        return w

    def c_w(self) -> float:
        """sup |W|: the cosine amplitude, 0 for "zero"."""
        return 0.0 if self.w_limit() is None else abs(self.potential_params[0])
