"""Smallest eigenpairs of sparse symmetric pencils K u = lambda M u.

Small systems go through a dense direct solve; larger ones use ARPACK in
shift-invert mode around sigma = 0 (retrying with a negative shift when the
stiffness matrix is indefinite at the origin).  Returned vectors are
M-orthonormal and each pair carries an independently recomputed residual; the
solve fails when a pair's backward error exceeds the tolerance.
"""

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_CUTOFF = 2000
GUARD_VECTORS = 5
# Roundoff allowance of the recomputed residual, in units of
# eps (||K||_1 + |lam| ||M||_1) ||u||.  Converged pairs of the test suite,
# null vectors of K included, stay below 31.
RESIDUAL_ROUNDOFF = 1000.0


class EigensolverError(RuntimeError):
    """Eigen-iteration failed to converge or inputs violate the contract."""


@dataclass
class Spectrum:
    """Sorted eigenvalues with multiplicities, optional vectors and residuals."""

    values: np.ndarray
    multiplicities: np.ndarray
    vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.multiplicities = np.asarray(self.multiplicities, dtype=int)

    def expanded_values(self, m: int | None = None) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, optionally truncated to m."""
        out = np.repeat(self.values, self.multiplicities)
        return out if m is None else out[:m]

    def __len__(self) -> int:
        return len(self.values)


def _as_csr(a) -> sp.csr_matrix:
    if sp.issparse(a):
        return a.tocsr()
    return sp.csr_matrix(np.asarray(a, dtype=float))


def _residuals(K, M, vals, vecs) -> tuple:
    """Per pair, the residual r = ||Ku - lam Mu|| / ||Mu|| and the backward
    error: the part of ||Ku - lam Mu|| above its roundoff allowance,
    relative to ||Ku|| + |lam| ||Mu||.

    The backward error is invariant under scaling K, M or both.  The
    allowance keeps it at 0 for null vectors of K, where ||Ku|| is itself
    roundoff; it does not depend on the tolerance, because roundoff does not.
    """
    allowance = RESIDUAL_ROUNDOFF * np.finfo(float).eps
    k_norm = spla.norm(K, 1)
    m_norm = spla.norm(M, 1)
    res = np.empty(len(vals))
    backward = np.empty(len(vals))
    for i, lam in enumerate(vals):
        u = vecs[:, i]
        Ku = K @ u
        Mu = M @ u
        num = np.linalg.norm(Ku - lam * Mu)
        den = np.linalg.norm(Mu)
        excess = num - allowance * (k_norm + abs(lam) * m_norm) * np.linalg.norm(u)
        scale = np.linalg.norm(Ku) + abs(lam) * den
        res[i] = num / den if den > 0 else np.inf
        backward[i] = 0.0 if excess <= 0 else (excess / scale if scale > 0 else np.inf)
    return res, backward


def _m_orthonormalize(M, vecs: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization of the block against the M inner product."""
    G = vecs.T @ (M @ vecs)
    G = 0.5 * (G + G.T)
    w, Q = np.linalg.eigh(G)
    if np.min(w) <= 0:
        raise EigensolverError("returned block is M-degenerate")
    return vecs @ (Q / np.sqrt(w)) @ Q.T


def smallest_eigenpairs(K, M, m: int, tol: float = 1e-9,
                        with_vectors: bool = True) -> Spectrum:
    """Return the m smallest eigenpairs of K u = lambda M u.

    K must be symmetric and M symmetric positive definite.  For dimensions up
    to DENSE_CUTOFF a dense generalized solve is used; above that, ARPACK
    shift-invert at sigma=0 with GUARD_VECTORS extra Ritz vectors, retried at
    a negative shift if the factorization of K fails.  The ARPACK start
    vector comes from a generator seeded with 0 on every call, so a repeated
    solve returns the same bits.
    """
    K = _as_csr(K)
    M = _as_csr(M)
    n = K.shape[0]
    if K.shape != (n, n) or M.shape != (n, n):
        raise EigensolverError("K and M must be square and of equal size")
    if m < 1 or m > n:
        raise EigensolverError(f"requested {m} pairs from a system of size {n}")

    if n <= DENSE_CUTOFF or m + GUARD_VECTORS >= n - 1:
        vals, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
        vals, vecs = vals[:m], vecs[:, :m]
    else:
        k = min(m + GUARD_VECTORS, n - 2)
        vals = vecs = None
        last_err = None
        for sigma in (0.0, -0.1 * _scale_estimate(K, M), -_scale_estimate(K, M)):
            try:
                vals, vecs = spla.eigsh(K, k=k, M=M, sigma=sigma, which="LM",
                                        tol=tol, rng=np.random.default_rng(0))
                break
            except (RuntimeError, spla.ArpackError, ValueError) as err:  # retry shifted
                last_err = err
        if vals is None:
            raise EigensolverError(f"shift-invert iteration failed: {last_err}")
        order = np.argsort(vals)[:m]
        vals, vecs = vals[order], vecs[:, order]

    vecs = _m_orthonormalize(M, vecs)
    res, backward = _residuals(K, M, vals, vecs)
    if np.any(backward > max(tol, 1e-12) * 100):
        # a backward error far above the request means the iteration silently
        # stalled; unlike the residual it is invariant under scaling K or M
        raise EigensolverError(
            f"max backward error {backward.max():.3e} exceeds tolerance "
            f"(max residual {res.max():.3e})")
    return Spectrum(
        values=vals,
        multiplicities=np.ones(m, dtype=int),
        vectors=vecs if with_vectors else None,
        residuals=res,
    )


def _scale_estimate(K, M) -> float:
    dk = np.abs(K.diagonal()).max()
    dm = np.abs(M.diagonal()).max()
    return dk / dm if dm > 0 else 1.0


def merge_spectra(parts: list[tuple[Spectrum, int]], m: int | None = None) -> Spectrum:
    """K-way merge of sorted spectra, multiplying multiplicities.

    ``parts`` is a list of (spectrum, multiplicity) pairs; the result keeps
    values sorted and is invariant under permutation of the inputs.  Entries
    whose multiplicity is zero are dropped.
    """
    heap = []
    for which, (spec, mult) in enumerate(parts):
        if mult == 0 or len(spec) == 0:
            continue
        if np.any(np.diff(spec.values) < 0):
            raise EigensolverError("merge_spectra requires sorted inputs")
        heap.append((spec.values[0], which, 0, mult))
    heapq.heapify(heap)

    values, mults = [], []
    while heap:
        val, which, pos, mult = heapq.heappop(heap)
        spec = parts[which][0]
        values.append(val)
        mults.append(mult * int(spec.multiplicities[pos]))
        if pos + 1 < len(spec):
            heapq.heappush(heap, (spec.values[pos + 1], which, pos + 1, mult))
        if m is not None and sum(mults) >= m:
            break
    return Spectrum(values=np.array(values), multiplicities=np.array(mults, dtype=int))


def cluster_multiplicities(spec: Spectrum, tol: float = 1e-8) -> Spectrum:
    """Group near-equal eigenvalues into explicit multiplicities.

    Two consecutive values belong to one cluster when they differ by less than
    tol * max(1, |value|).
    """
    if len(spec) == 0:
        return spec
    values, mults = [spec.values[0]], [int(spec.multiplicities[0])]
    for v, c in zip(spec.values[1:], spec.multiplicities[1:]):
        if abs(v - values[-1]) <= tol * max(1.0, abs(values[-1])):
            mults[-1] += int(c)
        else:
            values.append(v)
            mults.append(int(c))
    return Spectrum(values=np.array(values), multiplicities=np.array(mults, dtype=int))
