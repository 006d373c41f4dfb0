"""Smallest eigenpairs of sparse symmetric pencils K u = lambda M u.

Every pencil goes through a shift-invert Lanczos iteration around sigma = 0
(retried at a negative shift when K - sigma M cannot be factored, and run
below the whole spectrum when K is indefinite, the pairs it resolves too
coarsely there then solved again at 0), which
applies one LDL^T factorization per shift and stops once the m wanted Ritz
pairs have converged: GUARD_VECTORS more pairs only widen its basis.  That
basis holds at most n - 1 vectors and more than m + GUARD_VECTORS, so only a
pencil with m + GUARD_VECTORS >= n - 1 is solved densely.  A Lanczos step
projects its new vector off the basis only when an M-overlap exceeds
_OVERLAP_TOL = 1e-12 times its M-norm.  Shift-invert Lanczos can miss copies
of a multiple eigenvalue, so every Lanczos call is certified by a Sylvester
inertia count below the cluster that holds the m-th Ritz value, and a miss
is repaired by Lanczos solves in the M-orthogonal complement of the pairs
found.  Returned vectors are M-orthonormal and each pair carries an
independently recomputed residual; the solve fails when a pair's backward
error exceeds the tolerance.
"""

from dataclasses import dataclass

import numpy as np

# Ritz pairs past the wanted ones that size the Lanczos basis; they are
# neither converged nor returned.
GUARD_VECTORS = 5
# A Ritz pair has converged when its residual bound is at most this times
# |theta| (ARPACK's test); a pair whose backward error exceeds 100 times it
# fails the solve.
RITZ_TOL = 1e-9
# Two sorted eigenvalues belong to one cluster when they differ by at most
# this times max(1, |first value of the cluster|).
_CLUSTER_TOL = 1e-8
# Roundoff allowance of the recomputed residual, in units of
# eps (||K||_1 + |lam| ||M||_1) ||u||.  Converged pairs of the test suite,
# null vectors of K included, stay below 31.
RESIDUAL_ROUNDOFF = 1000.0
# A Lanczos vector whose overlaps with the basis are all at most this times
# its M-norm is taken as M-orthogonal to it, and no Gram-Schmidt pass
# projects them off.  From 1e-12 to 1e-10 the solves of the four deep-tree
# decompose cases (whole tree and components) skip 181 to 196 of their 343
# passes, take the same time and keep every backward error at 0; at sqrt(eps)
# two k2-J12 radial components reach 5.5e-8 and 8.0e-8, and a scaled 2-D
# sandwich pencil fails the gate at 1.03e-7.
_OVERLAP_TOL = 1e-12


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

    def expanded_values(self, m: int | None) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, truncated to m unless m is
        None."""
        out = np.repeat(self.values, self.multiplicities)
        return out if m is None else out[:m]

    def __len__(self) -> int:
        return len(self.values)


def _as_csr(a) -> "scipy.sparse.csr_matrix":
    """a as a canonical CSR matrix: sorted indices, no duplicate entries.  A
    CSR input is canonicalized in place, which keeps its values."""
    import scipy.sparse as sp

    a = a.tocsr() if sp.issparse(a) else sp.csr_matrix(np.asarray(a, dtype=float))
    a.sum_duplicates()
    return a


def _norm_1(a: "scipy.sparse.csr_matrix") -> float:
    """||a||_1, the largest absolute column sum, in one pass over the
    stored entries of the canonical CSR matrix a."""
    return np.bincount(a.indices, np.abs(a.data), a.shape[1]).max()


def _column_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", x, x))


def _residuals(K, M, vals, vecs, MV) -> tuple:
    """Per pair, the residual r = ||Ku - lam Mu|| / ||Mu|| and the backward
    error: the part of ||Ku - lam Mu|| above its roundoff allowance,
    relative to ||Ku|| + |lam| ||Mu||.  K and M are canonical CSR, and MV is
    M vecs.

    The backward error is invariant under scaling K, M or both.  The
    allowance keeps it at 0 for null vectors of K, where ||Ku|| is itself
    roundoff; it does not depend on the tolerance, because roundoff does not.
    """
    allowance = RESIDUAL_ROUNDOFF * np.finfo(float).eps
    lam = np.abs(vals)
    KV = K @ vecs
    num = _column_norms(KV - MV * vals)
    den = _column_norms(MV)
    excess = num - allowance * (_norm_1(K) + lam * _norm_1(M)) * _column_norms(vecs)
    scale = _column_norms(KV) + lam * den
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.where(den > 0, num / den, np.inf)
        backward = np.where(excess <= 0, 0.0,
                            np.where(scale > 0, excess / scale, np.inf))
    return res, backward


def _m_orthonormalize(M, vecs: np.ndarray) -> tuple:
    """Symmetric orthonormalization of the block against the M inner
    product, and M times the result."""
    MV = M @ vecs
    G = vecs.T @ MV
    G = 0.5 * (G + G.T)
    w, Q = np.linalg.eigh(G)
    if np.min(w) <= 0:
        raise EigensolverError("returned block is M-degenerate")
    C = (Q / np.sqrt(w)) @ Q.T
    return vecs @ C, MV @ C


def smallest_eigenpairs(K, M, m: int, with_vectors: bool = True) -> Spectrum:
    """Return the m smallest eigenpairs of K u = lambda M u.

    K must be symmetric and M symmetric positive definite.  The pairs come
    from the shift-invert Lanczos iteration at sigma=0, which converges the m
    wanted Ritz pairs in a basis sized for GUARD_VECTORS more, retried at a
    negative shift if the factorization of K fails, and run at a shift below
    the spectrum if that factor has negative pivots, the pairs nearest 0
    then solved again at 0 if that shift resolved them too coarsely.  Only a
    pencil with no room for that basis, m + GUARD_VECTORS >= n - 1, is
    solved densely, and its pairs pass the same backward-error gate.  An inertia count certifies
    that no eigenvalue below the cluster of the m-th Ritz value was missed;
    on a miscount the missed pairs are searched for with the found ones
    locked, again while each such repair finds a missed pair, until as many
    values lie below the count shift as the count says.  A repair that
    closes the count is certified by it; after one that does not, the count
    is taken again below the cluster of the new m-th value.  The call fails
    once a repair finds none.  Each Lanczos start vector comes from a
    generator seeded with the number of locked vectors, so a repeated solve
    returns the same bits.
    """
    import scipy.linalg

    K = _as_csr(K)
    M = _as_csr(M)
    n = K.shape[0]
    if K.shape != (n, n) or M.shape != (n, n):
        raise EigensolverError("K and M must be square and of equal size")
    if m < 1 or m > n:
        raise EigensolverError(f"requested {m} pairs from a system of size {n}")

    if m + GUARD_VECTORS >= n - 1:   # no Lanczos basis fits
        vals, vecs = scipy.linalg.eigh(K.toarray(), M.toarray())
        vals, vecs = vals[:m], vecs[:, :m]
    else:
        vals, vecs = _certified_shift_invert(K, M, m)

    vecs, MV = _m_orthonormalize(M, vecs)
    res, backward = _residuals(K, M, vals, vecs, MV)
    if np.any(backward > RITZ_TOL * 100):
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


def _certified_shift_invert(K, M, m: int):
    """The m smallest pairs from shift-invert Lanczos, checked by an
    inertia count.

    The count is taken below the cluster that holds the m-th Ritz value: a
    missed copy inside that cluster does not change the m smallest values,
    while any eigenvalue missed below it does.  A Krylov space holds one
    direction of each eigenspace, so a larger solve can miss the same copies
    again; a repair instead locks the pairs found and converges as many
    pairs as the count says are missing in the M-orthogonal complement of
    their vectors.  A repair that finds a pair below the count shift may be
    followed by another, up to m + 1 solves: each solve finds a direction of
    every eigenspace it reaches, so that is enough for m copies of one
    eigenvalue.  A repair that finds none fails the call, and so does a
    result of fewer than m pairs.  After a repair the last count is read
    again first: when as many values lie below its shift as it counts,
    every eigenvalue below that shift is known and the m-th value lies at
    or below the one it was taken for, so a recount at a shift no higher
    could only agree and is not taken.  Otherwise the count is taken anew
    below the cluster of the lowered m-th value, which may lie far below
    the last shift, past a large cluster whose copies one repair after
    another would find one at a time.  The factor of K - sigma M at each
    shift tried is kept for the whole call, so a repair solves with the
    factor of the first solve.

    Below the spectrum of an indefinite K, Lanczos resolves a value lambda
    only to about |lambda - sigma| RITZ_TOL, too coarse for one much nearer
    0 than sigma.  The certified pairs whose backward error exceeds RITZ_TOL
    are then solved again at sigma = 0, with the other pairs locked: as many
    pairs as an inertia count puts nearer 0 than the farthest of them, which
    Lanczos at 0 converges first.  That result is certified and repaired as
    the first was, at sigma = 0.
    """
    factors = {}
    shifts = _shifts(K, M, factors)
    vals, vecs = _repaired(K, M, m, *_shift_invert(K, M, m, np.empty((K.shape[0], 0)),
                                                   factors, shifts), factors, shifts)
    if shifts[0] < 0 and 0.0 in factors:   # K factored with negative pivots
        coarse = _residuals(K, M, vals, vecs, M @ vecs)[1] > RITZ_TOL
        if coarse.any():
            reach = np.abs(vals[coarse]).max()
            reach += _CLUSTER_TOL * max(1.0, reach)
            keep = ~coarse
            wanted = _inertia_below(K, M, reach) - int(np.count_nonzero(vals[keep] < reach))
            near_vals, near_vecs = _shift_invert(K, M, wanted, vecs[:, keep], factors, (0.0,))
            vals, vecs = _repaired(K, M, m, np.concatenate([vals[keep], near_vals]),
                                   np.hstack([vecs[:, keep], near_vecs]), factors, (0.0,))
    return vals, vecs


def _repaired(K, M, m: int, vals: np.ndarray, vecs: np.ndarray, factors: dict,
              shifts: tuple):
    """The m smallest of the pairs (vals, vecs) once the inertia count
    below the cluster of the m-th value agrees, after the repair solves at
    shifts that it takes (_certified_shift_invert)."""
    vals, vecs = _ascending(vals, vecs)
    if len(vals) < m:
        raise EigensolverError(
            f"shift-invert missed {m - len(vals)} eigenvalue(s): it "
            f"returned {len(vals)} of {m} pairs")
    sigma, found = _count_shift(vals, m)
    below, solves = _inertia_below(K, M, sigma), 1
    while below > found and solves <= m:
        # no repair solve is larger than the first, whatever the count says
        more_vals, more_vecs = _shift_invert(K, M, min(below - found, m), vecs,
                                             factors, shifts)
        solves += 1
        if not np.any(more_vals < sigma):   # the repair found none
            break
        vals, vecs = _ascending(np.concatenate([vals, more_vals]), np.hstack([vecs, more_vecs]))
        found = int(np.count_nonzero(vals < sigma))
        if found != below:   # recount below the cluster of the new m-th value
            sigma, found = _count_shift(vals, m)
            below = _inertia_below(K, M, sigma)
    if below == found:
        return vals[:m], vecs[:, :m]
    if below < found:
        raise EigensolverError(
            f"inertia count: {below} eigenvalues below {sigma:.6g} but "
            f"{found} Ritz values")
    raise EigensolverError(
        f"shift-invert missed {below - found} eigenvalue(s) below {sigma:.6g} "
        f"after {solves} solves")


def _ascending(vals: np.ndarray, vecs: np.ndarray):
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _shift_invert(K, M, wanted: int, locked: np.ndarray, factors: dict, shifts: tuple):
    """wanted pairs nearest the first of shifts whose vectors are
    M-orthogonal to the columns of locked, which are M-orthonormal
    eigenvectors; retried at the later shifts.  factors maps each shift
    factored so far to its LDL^T factor of K - sigma M and gains the ones
    factored here."""
    last_err = None
    for sigma in shifts:
        try:
            if sigma not in factors:
                factors[sigma] = _ldl(K - sigma * M if sigma else K)
            theta, vecs = _lanczos(factors[sigma], M, wanted, locked)
        except RuntimeError as err:   # singular, pivoted or stalled: retry shifted
            last_err = err
            continue
        return sigma + 1.0 / theta, vecs
    raise EigensolverError(f"shift-invert iteration failed: {last_err}")


def _shifts(K, M, factors: dict) -> tuple:
    """The shifts a solve tries in turn, with their factors in factors.

    Just below 0, theta = 1/(lambda - sigma) of the wanted pairs stays
    sharp, and larger negative shifts take over when that factor or
    iteration fails.  A factor of K with negative pivots means eigenvalues
    below 0, where Lanczos at 0 would converge to the values nearest 0
    instead of the smallest: the one shift is then a sigma below the whole
    spectrum, bracketed by Sylvester counts, doubled from -1 until a factor
    of K - sigma M has no negative pivot and bisected until the lowest
    eigenvalue lies within 5% of |sigma| above it.
    """
    ladder = tuple(-fraction * _scale_estimate(K, M) if fraction else 0.0
                   for fraction in (0.0, 1e-6, 0.1, 1.0))
    try:
        factors[0.0] = _ldl(K)
    except RuntimeError:
        return ladder[1:]
    if not np.any(factors[0.0].U.diagonal() < 0):
        return ladder

    def reached(sigma):   # whether an eigenvalue lies at or below sigma
        try:
            return _inertia_below(K, M, sigma) > 0
        except EigensolverError:   # a singular factor: sigma is one
            return True

    hi, lo = 0.0, -1.0   # the lowest eigenvalue lies in (lo, hi]
    while reached(lo):
        hi, lo = lo, 2.0 * lo
    while hi - lo > 0.05 * -lo:
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return (lo,)


def _lanczos(lu, M, wanted: int, locked: np.ndarray):
    """(theta, vectors): the wanted eigenpairs of largest |theta| of
    OP = (K - sigma M)^-1 M, lu being the factor of K - sigma M, by Ericsson
    & Ruhe's spectral-transformation Lanczos (Math. Comp. 1980).

    With k = wanted + GUARD_VECTORS, the basis of ncv = max(2k + 1, 20)
    vectors (scipy's ARPACK default) is kept M-orthonormal.  A step takes
    w = OP v_j, removes alpha v_j, with alpha = (M v_j)^T w read off the
    operator's input, and the couplings of row j of the projected matrix
    (beta v_{j-1}, or the arrow after a restart) in one product over
    V[first:j+1], then takes M w and the overlaps h = V[:j+1] M w
    (_m_orthogonalize).  Only when max|h| > _OVERLAP_TOL ||w||_M, with
    _OVERLAP_TOL = 1e-12, does it project h off, a full classical
    Gram-Schmidt pass in the M inner product, and take M w again for the
    norm; the pass is repeated only when it shrinks w below 1/sqrt(2) of its
    length (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976).  So a step
    whose vector is M-orthogonal to the basis within 1e-12 takes 1 M-product
    and 1 sweep over the basis, and one that is projected 2 and 2: partial
    reorthogonalization (Simon, Math. Comp. 1984) on the measured overlaps,
    which cost one sweep, instead of Simon's estimated ones: the solve error
    of a shift-invert operator sets the noise of his recurrence, and with a
    noise term large enough that the estimates bound the measured overlaps
    of the tree pencils, almost no step skips the sweep.  The corrections of
    the passes are added to alpha, as in ARPACK.  v_j and M v_j are scaled
    in place and the products go into one work vector, so a step allocates
    only the results of the solve and the M-products.  Every solve is
    followed by the M-projection off the locked vectors, whose pairs so
    become theta = 0.  The start is OP applied to a uniform vector, so it
    lies in the range of OP, drawn from a generator seeded with the number
    of locked vectors: a repair started from the vector of the first solve
    would hold, of each eigenspace, only the direction that solve found and
    locked, and would reach the missed copies through roundoff alone.  As in
    ARPACK, the projected matrix holds the Lanczos coefficients only.

    A first solve tests its Ritz pairs on a full basis only, as in ARPACK; a
    repair, which runs with locked vectors and wants the few pairs its count
    missed, tests at every step once its basis is larger than the wanted
    pairs.  The call returns once the wanted pairs meet
    |beta s_last| <= RITZ_TOL |theta|; the guard pairs are not tested, as in
    Wu & Simon's thick-restart Lanczos (SIAM J. Matrix Anal. Appl. 2000),
    and never returned, since a locked vector must be an eigenvector.  A
    full basis that has not converged restarts from its (k + ncv) // 2
    leading Ritz vectors (thick restart), more than k so that a Ritz value
    close to the k-th cannot stall it.  dsyev's QL/QR deflates relative to
    neighbouring entries: a deflation relative to the largest theta, 1/eps
    times the rest at a near-singular shift, passed vectors with backward
    errors up to 0.9 as converged.  The vectors returned are
    OP y / theta = y + (beta s_last / theta) v_next for the Ritz vectors y,
    which have the smaller pencil residual.
    """
    import scipy.linalg

    n = M.shape[0]
    k = wanted + GUARD_VECTORS
    ML = M @ locked
    rng = np.random.default_rng(locked.shape[1])
    ncv = min(n - 1, max(2 * k + 1, 20))
    V = np.empty((ncv + 1, n))
    H = np.zeros((ncv + 1, ncv))   # lower triangle: the projected matrix
    removed = np.empty(n)          # the part of w a projection takes off
    test_every_step = locked.shape[1] > 0

    def op(Mx):
        y = lu.solve(Mx)
        if locked.shape[1]:
            y -= locked @ (ML.T @ y)
        return y

    def start(j):
        return _m_orthogonalize(M, V[:j], op(M @ rng.uniform(-1.0, 1.0, n)), removed)

    w, Mw, _, beta = start(0)
    j = first = 0   # row j of H couples v_j to V[first:j]
    for _ in range(10 * n):   # scipy's ARPACK budget of 10 n, counted in steps
        np.divide(w, beta, out=V[j])
        if j == ncv or (test_every_step and j > wanted):
            theta, S, info = scipy.linalg.lapack.dsyev(H[:j, :j], lower=1)
            if info:
                raise EigensolverError(f"dsyev failed on the projected matrix: {info}")
            order = np.argsort(-np.abs(theta))
            theta, S = theta[order], S[:, order]
            bound = H[j, j - 1] * S[-1]
            theta_w, bound_w = theta[:wanted], bound[:wanted]
            if np.all(np.abs(bound_w) <= RITZ_TOL * np.abs(theta_w)):
                return theta_w, (np.vstack([S[:, :wanted], bound_w / theta_w]).T @ V[:j + 1]).T
        if j == ncv:   # a full basis that has not converged: thick restart
            j, first = (k + ncv) // 2, 0
            V[:j] = S[:, :j].T @ V[:ncv]
            V[j] = V[ncv]
            H[:] = 0.0
            H[range(j), range(j)] = theta[:j]
            H[j, :j] = bound[:j]
        Mw /= beta   # M v_j
        w = op(Mw)
        H[j, j] = Mw @ w   # alpha
        w -= np.matmul(H[j, first:j + 1], V[first:j + 1], out=removed)
        w, Mw, coef, beta = _m_orthogonalize(M, V[:j + 1], w, removed)
        H[j, j] += coef[j]
        H[j + 1, j] = beta
        if not beta:   # an invariant subspace: go on, uncoupled, from a new start
            w, Mw, _, beta = start(j + 1)
        j, first = j + 1, j
    raise EigensolverError(f"Lanczos iteration did not converge in {10 * n} steps")


def _m_orthogonalize(M, V, w, removed):
    """(w, M w, coefficients, M-norm): w less its M-projection on the
    M-orthonormal rows of V, by classical Gram-Schmidt passes in the M
    inner product; removed is the work vector of the projection.

    The overlaps h = V M w are always computed, but a pass projects them off
    only when max|h| > _OVERLAP_TOL ||w||_M, and only a projection is
    followed by a second M-product, for the norm of what is left.  A pass
    that shrinks w below 1/sqrt(2) of its length is repeated (Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 1976); the norm reads 0 when the repeat
    shrinks w again, since w then lay in the span up to roundoff.
    """
    coef, Mw = np.zeros(len(V)), M @ w
    norm = np.sqrt(w @ Mw)
    for _ in range(2):
        h = V @ Mw
        if not len(h) or np.abs(h).max() <= _OVERLAP_TOL * norm:
            return w, Mw, coef, norm
        before = norm
        w -= np.matmul(h, V, out=removed)
        coef += h
        Mw = M @ w
        norm = np.sqrt(w @ Mw)
        if norm >= before / np.sqrt(2.0):
            return w, Mw, coef, norm
    return w, Mw, coef, 0.0


def _ldl(A):
    """LDL^T factorization of the symmetric matrix A, as a SuperLU object.

    SuperLU in symmetric mode with a minimum-degree ordering of A + A^T and
    diagonal pivots only gives U = D L^T when it permutes rows and columns
    alike, which is checked.  On a tree pencil the factor has no fill, so
    SuperLU's panels and relaxed supernodes, made for factors with fill, only
    cost: it factors column by column (panel_size=1) with no relaxation
    (relax=1).  Factor / solve ms, one BLAS thread, min of 20 interleaved
    runs, rows panel_size, columns relax, "-" scipy's default:

        k2-J14, n = 33,412                2-D J=3, h=0.02, n = 822
              -        1        2               -         1         2
        -  15.1/0.58 17.2/0.56 11.7/1.64    1.05/0.08 0.99/0.08 1.02/0.08
        1   7.4/0.55  7.7/0.52  6.9/1.61    0.67/0.08 0.60/0.08 0.58/0.05
        2   7.0/0.54  7.9/0.53  6.8/1.66    0.69/0.08 0.73/0.08 0.72/0.09
        4   7.4/0.52  8.3/0.52  6.9/1.60    0.76/0.08 0.77/0.07 0.75/0.09

    A Lanczos call solves 35-50 times per factor, and relaxed supernodes
    triple the solve on the deep tree.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    # A is symmetric, so the arrays of its CSR form are those of its CSC form
    lu = spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   relax=1, panel_size=1, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError("the LDL^T factorization pivoted off the diagonal")
    return lu


def _count_shift(vals: np.ndarray, m: int):
    """(sigma, c): a shift just below the smallest member vals[c] of the
    cluster of ascending vals that holds vals[m-1]; c values lie below it."""
    clusters = cluster_multiplicities(Spectrum(vals, np.ones(len(vals), dtype=int)))
    ends = np.cumsum(clusters.multiplicities)
    i = int(np.searchsorted(ends, m))
    c = int(ends[i] - clusters.multiplicities[i])
    margin = _CLUSTER_TOL * max(1.0, abs(vals[c]))
    if c > 0:
        margin = min(margin, 0.5 * (vals[c] - vals[c - 1]))
    return vals[c] - margin, c


def _inertia_below(K, M, sigma: float) -> int:
    """Number of eigenvalues of K u = lambda M u below sigma.

    By Sylvester's law of inertia it is the number of negative pivots of an
    LDL^T factorization of K - sigma M.
    """
    try:
        lu = _ldl(K - sigma * M)
    except RuntimeError as err:   # exactly singular (sigma is an eigenvalue) or pivoted
        raise EigensolverError(f"inertia count at {sigma:.6g}: {err}") from err
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _scale_estimate(K, M) -> float:
    dk = np.abs(K.diagonal()).max()
    dm = np.abs(M.diagonal()).max()
    return dk / dm if dm > 0 else 1.0


def merge_spectra(parts: list[tuple[Spectrum, int]], m: int | None) -> Spectrum:
    """Merge of sorted spectra, multiplying multiplicities.

    ``parts`` is a list of (spectrum, multiplicity) pairs; the result keeps
    values sorted, equal values in input order, and its values are invariant
    under permutation of the inputs.  Entries whose multiplicity is zero are
    dropped.  Unless ``m`` is None the merge stops at the first value whose
    cumulative multiplicity reaches m.
    """
    parts = [(spec, mult) for spec, mult in parts if mult != 0 and len(spec)]
    if any(np.any(np.diff(spec.values) < 0) for spec, _ in parts):
        raise EigensolverError("merge_spectra requires sorted inputs")
    values = np.concatenate([np.empty(0)] + [spec.values for spec, _ in parts])
    mults = np.concatenate([np.empty(0, dtype=int)]
                           + [mult * spec.multiplicities for spec, mult in parts])
    order = np.argsort(values, kind="stable")
    if m is not None:
        order = order[:np.searchsorted(np.cumsum(mults[order]), m) + 1]
    return Spectrum(values=values[order], multiplicities=mults[order])


def cluster_multiplicities(spec: Spectrum) -> Spectrum:
    """Group near-equal eigenvalues into explicit multiplicities.

    Two consecutive values belong to one cluster when they differ by at most
    _CLUSTER_TOL * max(1, |first value of the cluster|).
    """
    if len(spec) == 0:
        return spec
    values, mults = [spec.values[0]], [int(spec.multiplicities[0])]
    for v, c in zip(spec.values[1:], spec.multiplicities[1:]):
        if abs(v - values[-1]) <= _CLUSTER_TOL * max(1.0, abs(values[-1])):
            mults[-1] += int(c)
        else:
            values.append(v)
            mults.append(int(c))
    return Spectrum(values=np.array(values), multiplicities=np.array(mults, dtype=int))
