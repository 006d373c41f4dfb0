"""Regular rooted metric trees: generations, counting function, weights, truncation.

A regular tree has constant branching number ``k`` and geometric edge lengths
``l0 * r**j`` at generation ``j``.  Edges and vertices are indexed generation-major
(generation ``j`` holds ``k**j`` edges, and the vertex closing edge ``(j, i)`` is
labeled ``(j, i)`` as well), so no per-node adjacency storage is needed.  The root
sits at distance 0 and carries the Dirichlet condition; the vertex at the far end
of a generation-J edge is a truncated tip.

numpy is imported by the methods that build arrays, so checking a
``TreeSpec`` runs on the standard library alone.
"""

from dataclasses import dataclass

# Hard cap on k**J before an explicit resource error is raised.
DEFAULT_NODE_BUDGET = 1_000_000


class TreeModelError(ValueError):
    """Invalid tree parameters or out-of-domain query."""


class ResourceBudgetError(TreeModelError):
    """Requested tree exceeds the configured node budget."""


@dataclass(frozen=True)
class TreeSpec:
    """Combinatorial and metric description of a regular rooted tree.

    Parameters
    ----------
    k : branching number (children per vertex), >= 1
    l0 : length of the generation-0 edge
    r : length ratio between consecutive generations, in (0, 1)
    delta : width ratio of the inflated tree, in (0, 1)
    N : ambient dimension of the inflated tree, >= 2
    omega : cross-section measure of the reference section
    J : last generation kept by the truncation, >= 0
    """

    k: int = 2
    l0: float = 1.0
    r: float = 0.5
    delta: float = 0.6
    N: int = 2
    omega: float = 1.0
    J: int = 2

    def validate(self) -> None:
        if self.k < 1:
            raise TreeModelError(f"branching k must be >= 1, got {self.k}")
        if not self.l0 > 0:
            raise TreeModelError(f"base length l0 must be positive, got {self.l0}")
        if not 0.0 < self.r < 1.0:
            raise TreeModelError(f"length ratio r must be in (0, 1), got {self.r}")
        if not 0.0 < self.delta < 1.0:
            raise TreeModelError(f"width ratio delta must be in (0, 1), got {self.delta}")
        if self.N < 2:
            raise TreeModelError(f"dimension N must be >= 2, got {self.N}")
        if not self.omega > 0:
            raise TreeModelError(f"cross-section measure must be positive, got {self.omega}")
        if self.J < 0:
            raise TreeModelError(f"max generation J must be >= 0, got {self.J}")
        # k**J itself has J log2(k) bits: stop the product once it passes
        nodes = 1
        for _ in range(self.J if self.k > 1 else 0):
            nodes *= self.k
            if nodes > DEFAULT_NODE_BUDGET:
                raise ResourceBudgetError(
                    f"k**J = {self.k}**{self.J} exceeds node budget {DEFAULT_NODE_BUDGET}"
                )
        # the shells t_j of Tree, in the same float arithmetic: at r = 0.5,
        # 1 - r**54 rounds to 1 and t_54 = t_55
        t = 0.0
        for j in range(1, self.J + 2):
            t, prev = self.l0 * (1.0 - self.r ** j) / (1.0 - self.r), t
            if not t > prev:
                raise TreeModelError(
                    f"tree.J = {self.J}: the shells t_{j - 1} and t_{j} coincide in "
                    f"floating point (l0 = {self.l0}, r = {self.r})")


@dataclass(frozen=True)
class EdgeId:
    """Edge address: generation ``j`` and index within the generation."""

    j: int
    index: int


class Tree:
    """Truncated regular metric tree built from a :class:`TreeSpec`.

    Shell boundaries ``t_0 = 0 < t_1 < ... < t_{J+1} = radius`` separate the
    generations; edge ``(j, i)`` spans ``[t_j, t_{j+1}]``.  Interior (branching)
    vertices exist at ``t_{j+1}`` for ``j < J``; the counting function is
    right-continuous at the shells.
    """

    def __init__(self, spec: TreeSpec):
        import numpy as np

        spec.validate()
        self.spec = spec
        j = np.arange(spec.J + 2)
        # t_shell[j] = distance from root to the start of generation j.
        self.t_shell = spec.l0 * (1.0 - spec.r ** j) / (1.0 - spec.r)
        self.edge_lengths = spec.l0 * spec.r ** np.arange(spec.J + 1)
        self.radius = float(self.t_shell[-1])

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def J(self) -> int:
        return self.spec.J

    def interior_vertices(self):
        """Iterate branching vertices, labeled by the edge they close."""
        for j in range(self.spec.J):
            for i in range(self.spec.k ** j):
                yield EdgeId(j, i)

    def generations_at(self, t) -> "np.ndarray":
        """Generation of the shell containing each distance in ``t``
        (right-continuous), as an integer array of the shape of ``t``."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        bad = ~((t >= 0.0) & (t < self.radius))
        if bad.any():
            raise TreeModelError(f"t = {t[bad].flat[0]} outside [0, {self.radius})")
        j = np.searchsorted(self.t_shell, t, side="right") - 1
        return np.minimum(j, self.spec.J)

    def counting_function(self, t) -> "np.ndarray":
        """Number of edges meeting the sphere of radius ``t`` around the root,
        g(t) = k**gen(t), elementwise for an array ``t``."""
        return self.spec.k ** self.generations_at(t)

    def rho_star(self, j: int) -> float:
        """Canonical weight delta**((N-1)*gen) * |Omega| on a generation-j edge."""
        self._check_generation(j)
        return self.spec.delta ** ((self.spec.N - 1) * j) * self.spec.omega

    def tail_radius(self, j: int, truncated: bool) -> float:
        """Radius of the maximal connected subtree strictly beyond generation ``j``.

        With ``truncated=False`` the geometric tail of the infinite tree is
        returned; otherwise the sum stops at generation J.
        """
        self._check_generation(j)
        r, l0 = self.spec.r, self.spec.l0
        if truncated:
            return l0 * (r ** (j + 1) - r ** (self.spec.J + 1)) / (1.0 - r)
        return l0 * r ** (j + 1) / (1.0 - r)

    def _check_generation(self, j: int) -> None:
        if not 0 <= j <= self.spec.J:
            raise TreeModelError(f"generation {j} outside [0, {self.spec.J}]")


def build_tree(spec: TreeSpec) -> Tree:
    """Build the truncated tree, validating the spec against the node budget."""
    return Tree(spec)
