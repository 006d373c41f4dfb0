import functools
import heapq
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treespec import eigensolver
from treespec.config import ExperimentConfig
from treespec.eigensolver import (
    GUARD_VECTORS,
    EigensolverError,
    Spectrum,
    _inertia_below,
    _ldl,
    _residuals,
    RESIDUAL_ROUNDOFF,
    RITZ_TOL,
    cluster_multiplicities,
    merge_spectra,
    smallest_eigenpairs,
)
from treespec.fem_2d import assemble_2d, build_geometry_2d
from treespec.mesh2d import mesh_polygon, stiffness_and_mass
from treespec.operator_1d import (
    Mesh1D,
    assemble_1d,
    build_mesh_1d,
    element_form,
    radial_decomposition_spectrum,
    rho_star_profile,
)
from treespec.tree_model import TreeSpec, build_tree

SRC = Path(__file__).resolve().parents[1] / "src" / "treespec"


def interval_mixed_bc(n, L=1.0):
    """P1 discretization of -u'' on [0, L], Dirichlet left / Neumann right."""
    h = L / n
    main_k = np.full(n, 2.0 / h)
    main_k[-1] = 1.0 / h
    K = sp.diags([np.full(n - 1, -1.0 / h), main_k, np.full(n - 1, -1.0 / h)], [-1, 0, 1])
    main_m = np.full(n, 4.0 * h / 6.0)
    main_m[-1] = 2.0 * h / 6.0
    M = sp.diags([np.full(n - 1, h / 6.0), main_m, np.full(n - 1, h / 6.0)], [-1, 0, 1])
    return K.tocsr(), M.tocsr()


def tree_pencil(spec: TreeSpec, h: float = 0.01):
    """K and M of the 1-D tree pencil of spec at pitch h."""
    tree = build_tree(spec)
    rs = rho_star_profile(tree)
    system = assemble_1d(tree, build_mesh_1d(tree, h=h, breakpoints=rs.breakpoints),
                         rs, rs, None)
    return system.K, system.M


def test_interval_dirichlet_neumann_ground_state():
    K, M = interval_mixed_bc(256)
    spec = smallest_eigenpairs(K, M, 2)
    assert spec.values[0] == pytest.approx((np.pi / 2) ** 2, rel=1e-3)
    assert spec.values[1] == pytest.approx((3 * np.pi / 2) ** 2, rel=1e-3)


def test_identity_pencil():
    n = 40
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n))
    M = A @ A.T + n * np.eye(n)
    spec = smallest_eigenpairs(sp.csr_matrix(M), sp.csr_matrix(M), 5)
    assert np.allclose(spec.values, 1.0, atol=1e-10)


def test_matches_dense_oracle_random_pencil():
    n = 50
    rng = np.random.default_rng(7)
    A = rng.standard_normal((n, n))
    K = A @ A.T + 0.1 * np.eye(n)
    B = rng.standard_normal((n, n))
    M = B @ B.T + n * np.eye(n)
    oracle = np.sort(scipy.linalg.eigh(K, M, eigvals_only=True))[:6]
    spec = smallest_eigenpairs(sp.csr_matrix(K), sp.csr_matrix(M), 6)
    assert np.allclose(spec.values, oracle, atol=1e-10)


def test_sparse_path_used_above_cutoff():
    K, M = interval_mixed_bc(2500)
    spec = smallest_eigenpairs(K, M, 3)
    exact = [((2 * m - 1) * np.pi / 2) ** 2 for m in (1, 2, 3)]
    assert np.allclose(spec.values, exact, rtol=1e-4)
    assert spec.residuals.max() < 1e-6


def test_vectors_m_orthonormal():
    K, M = interval_mixed_bc(300)
    spec = smallest_eigenpairs(K, M, 6)
    G = spec.vectors.T @ (M @ spec.vectors)
    assert np.abs(G - np.eye(6)).max() <= 1e-8


def test_residuals_recomputed_small():
    K, M = interval_mixed_bc(500)
    spec = smallest_eigenpairs(K, M, 4)
    for i, lam in enumerate(spec.values):
        u = spec.vectors[:, i]
        res = np.linalg.norm(K @ u - lam * (M @ u)) / np.linalg.norm(M @ u)
        assert res <= 2e-6


def test_monotone_under_psd_update():
    n = 60
    rng = np.random.default_rng(3)
    A = rng.standard_normal((n, n))
    K = A @ A.T + np.eye(n)
    M = np.eye(n)
    v = rng.standard_normal(n)
    K2 = K + np.outer(v, v)
    s1 = smallest_eigenpairs(sp.csr_matrix(K), sp.csr_matrix(M), 8)
    s2 = smallest_eigenpairs(sp.csr_matrix(K2), sp.csr_matrix(M), 8)
    assert np.all(s2.values >= s1.values - 1e-10)


def test_indefinite_K_negative_shift_retry():
    K, M = interval_mixed_bc(2500)
    # shift the operator down so several eigenvalues are negative and the
    # factorization of K at sigma=0 sees an indefinite matrix
    K = (K - 30.0 * M).tocsr()
    spec = smallest_eigenpairs(K, M, 3)
    exact = [((2 * m - 1) * np.pi / 2) ** 2 - 30.0 for m in (1, 2, 3)]
    assert np.allclose(spec.values, exact, rtol=1e-3, atol=1e-3)


def test_indefinite_pencil_solved_below_its_spectrum():
    # four values far below the 200 in [0.01, 2]: Lanczos at sigma = 0
    # converges to the values nearest 0, so a factor of K with negative
    # pivots moves the solve to a shift below the whole spectrum; from m = 5
    # on the values near 0, resolved there only to |lambda - sigma| RITZ_TOL,
    # are solved again at sigma = 0
    d = np.concatenate([[-400.0, -250.0, -90.0, -30.0], np.linspace(0.01, 2.0, 200)])
    K = sp.diags(np.random.default_rng(3).permutation(d)).tocsr()
    M = sp.identity(len(d), format="csr")
    for m in (1, 3, 4, 5, 6):
        spec = smallest_eigenpairs(K, M, m)
        np.testing.assert_allclose(spec.values, np.sort(d)[:m], rtol=1e-10)


def test_indefinite_pencil_solves_a_negative_value_near_0():
    # -0.01 is re-solved at sigma = 0, where 0.005, above the 4 wanted
    # values, lies nearer the shift than it: the count asks for both
    d = np.concatenate([[-400.0, -250.0, -3.0, -0.01], np.linspace(0.005, 2.0, 200)])
    K = sp.diags(np.random.default_rng(3).permutation(d)).tocsr()
    M = sp.identity(len(d), format="csr")
    np.testing.assert_allclose(smallest_eigenpairs(K, M, 4).values, np.sort(d)[:4],
                               rtol=1e-10)


def test_indefinite_shift_is_bracketed_by_inertia_counts():
    # the shift lies below the lowest eigenvalue, within 5% of its size
    K, M = interval_mixed_bc(300)
    K = (K - 60.0 * M).tocsr()
    lowest = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)[0]
    (sigma,) = eigensolver._shifts(K, M, {})
    assert sigma < lowest <= 0.95 * sigma
    assert eigensolver._shifts(*interval_mixed_bc(300), {})[0] == 0.0


def takes_the_dense_path(n, m):
    """Whether an m-pair solve of an n-dof pencil has no room for a Lanczos
    basis and is solved densely."""
    return m + GUARD_VECTORS >= n - 1


@pytest.mark.parametrize("n", [9, 2500], ids=["dense", "arpack"])
@pytest.mark.parametrize("sk,sm", [(1e8, 1.0), (1e-8, 1.0), (1e8, 1e8), (1.0, 1e-8)])
def test_converged_pairs_accepted_at_any_scale(n, sk, sm):
    assert takes_the_dense_path(n, 3) == (n == 9)
    K, M = interval_mixed_bc(n)
    base = smallest_eigenpairs(K, M, 3)
    scaled = smallest_eigenpairs((sk * K).tocsr(), (sm * M).tocsr(), 3)
    assert np.allclose(scaled.values, base.values * sk / sm, rtol=1e-8, atol=0.0)


# interval sizes of a 3-pair solve on either side of the Krylov minimum: the
# largest that is solved densely, and one that takes the Lanczos path
PATH_SIZES = {"dense": 9, "arpack": 256}


def on_both_paths(argnames, grid):
    """Parametrize over the grid and the two solver paths; a dense case keeps
    the bare id of its grid point."""
    cases, ids = [], []
    for point in grid:
        base = "-".join(str(v) for v in point)
        cases += [(*point, "dense"), (*point, "arpack")]
        ids += [base, f"{base}-arpack"]
    return pytest.mark.parametrize(f"{argnames},path", cases, ids=ids)


def corrupt_solver(monkeypatch, path, corrupt):
    """Patch the solver of the given path to pass (vals, vecs) through
    corrupt; return the interval pencil whose size reaches that path."""
    n = PATH_SIZES[path]
    assert takes_the_dense_path(n, 3) == (path == "dense")
    if path == "dense":
        eigh = scipy.linalg.eigh
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda a, b: corrupt(*eigh(a, b)))
    else:
        monkeypatch.setattr(eigensolver, "_lanczos",
                            lanczos_returning_eigenvalues(corrupt))
    return interval_mixed_bc(n)


def lanczos_returning_eigenvalues(alter):
    """The Lanczos iteration with its pairs passed through alter as
    (eigenvalues, vectors); the pencils patched with it are factored at
    sigma = 0, where an eigenvalue is 1 / theta."""
    lanczos = eigensolver._lanczos

    def altered(*args):
        theta, vecs = lanczos(*args)
        vals, vecs = alter(1.0 / theta, vecs)
        return 1.0 / vals, vecs

    return altered


@on_both_paths("sk", [(1e-8,), (1.0,), (1e8,)])
def test_stalled_pairs_rejected_at_any_scale(monkeypatch, sk, path):
    noise = 1e-4 * np.random.default_rng(1).standard_normal((256, 256))

    def stalled(vals, vecs):
        return vals, vecs + noise[:vecs.shape[0], :vecs.shape[1]]

    K, M = corrupt_solver(monkeypatch, path, stalled)
    with pytest.raises(EigensolverError, match="backward error"):
        smallest_eigenpairs((sk * K).tocsr(), M, 3)


@on_both_paths("sk,c", [(sk, c) for c in (1e-4, 1e-6) for sk in (1e-8, 1.0, 1e8)])
def test_low_frequency_mode_mixing_rejected(monkeypatch, sk, c, path):
    # a stalled iteration that returns u1 + c u2: K barely amplifies the
    # error, so only a gate relative to ||Ku|| + |lam| ||Mu|| catches it
    def mixed(vals, vecs):
        first, second = np.argsort(vals)[:2]
        vecs = vecs.copy()
        vecs[:, first] += c * vecs[:, second]
        return vals, vecs

    K, M = corrupt_solver(monkeypatch, path, mixed)
    with pytest.raises(EigensolverError, match="backward error"):
        smallest_eigenpairs((sk * K).tocsr(), M, 3)


def residuals_per_column(K, M, vals, vecs):
    """Reference: the residual and backward error of _residuals, one pair at
    a time."""
    allowance = RESIDUAL_ROUNDOFF * np.finfo(float).eps
    k_norm = abs(K).sum(axis=0).max()
    m_norm = abs(M).sum(axis=0).max()
    res, backward = np.empty(len(vals)), np.empty(len(vals))
    for i, lam in enumerate(vals):
        u = vecs[:, i]
        Ku, Mu = K @ u, M @ u
        num = np.linalg.norm(Ku - lam * Mu)
        den = np.linalg.norm(Mu)
        excess = num - allowance * (k_norm + abs(lam) * m_norm) * np.linalg.norm(u)
        scale = np.linalg.norm(Ku) + abs(lam) * den
        res[i] = num / den if den > 0 else np.inf
        backward[i] = 0.0 if excess <= 0 else (excess / scale if scale > 0 else np.inf)
    return res, backward


def test_residuals_equal_the_per_column_formula():
    K, M = interval_mixed_bc(300)
    spec = smallest_eigenpairs(K, M, 6)
    noise = 1e-6 * np.random.default_rng(2).standard_normal(spec.vectors.shape)
    # converged pairs (backward error 0), perturbed ones, a zero vector
    # (residual and backward error undefined: inf and 0) and a shifted value
    vecs = np.hstack([spec.vectors, spec.vectors + noise, np.zeros((300, 1)),
                      spec.vectors[:, :1]])
    vals = np.concatenate([spec.values, spec.values, [1.0], [-spec.values[0]]])
    res, backward = _residuals(K, M, vals, vecs, M @ vecs)
    ref_res, ref_backward = residuals_per_column(K, M, vals, vecs)
    assert np.all(backward[:6] == 0) and np.all(backward[6:12] > 0)
    assert np.array_equal(np.isinf(res), np.isinf(ref_res)) and np.isinf(res[12])
    assert backward[12] == 0 and backward[13] > 0
    finite = np.isfinite(ref_res)
    np.testing.assert_allclose(res[finite], ref_res[finite], rtol=1e-14, atol=0)
    np.testing.assert_allclose(backward, ref_backward, rtol=1e-14, atol=0)


def count_factorizations(monkeypatch) -> dict:
    """Record the sparse LU factorizations of the solver and the factor that
    every Lanczos iteration receives."""
    import scipy.sparse.linalg
    seen = {"splu": [], "lanczos": []}
    splu, lanczos = scipy.sparse.linalg.splu, eigensolver._lanczos

    def recorded_splu(*args, **kwargs):
        seen["splu"].append(splu(*args, **kwargs))
        return seen["splu"][-1]

    def recorded_lanczos(lu, *args):
        seen["lanczos"].append(lu)
        return lanczos(lu, *args)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded_splu)
    monkeypatch.setattr(eigensolver, "_lanczos", recorded_lanczos)
    return seen


def test_one_factor_per_shift_and_one_per_count(monkeypatch):
    # a certified solve with no miss: one factor of K - sigma M for the
    # iteration and one for the inertia count
    seen = count_factorizations(monkeypatch)
    K, M = interval_mixed_bc(2500)
    smallest_eigenpairs(K, M, 3)
    assert len(seen["splu"]) == 2
    assert len(seen["lanczos"]) == 1 and seen["lanczos"][0] is seen["splu"][0]


def test_repair_solve_reuses_the_factor_of_its_shift(monkeypatch):
    # the locked repair of the 4-fold eigenvalue below solves with the
    # factor of the first solve, and the first inertia count certifies it:
    # one factor for the iteration and one for the count
    seen = count_factorizations(monkeypatch)
    d = np.concatenate([[1.0, 2.0, 3.0], [5.0] * 4, np.arange(6.0, 2500.0)])
    smallest_eigenpairs(sp.diags(d).tocsr(), sp.identity(len(d), format="csr"), 8)
    assert len(seen["lanczos"]) == 2
    assert seen["lanczos"][0] is seen["lanczos"][1] is seen["splu"][0]
    assert len(seen["splu"]) == 2


def test_repair_that_leaves_the_count_open_recounts(monkeypatch):
    # the first solve finds 1, 5 and 6, so the count below 6 reads 21 while
    # 2 values were found; each repair adds about one copy of the 20-fold 5.
    # The repair that lowers the 3rd value to 5 recounts below 5, which
    # certifies [1, 5, 5]: waiting on the first count would need all 20
    # copies, more than m + 1 solves find
    seen = count_factorizations(monkeypatch)
    d = np.concatenate([[1.0], [5.0] * 20, np.arange(6.0, 2500.0)])
    spec = smallest_eigenpairs(sp.diags(d).tocsr(), sp.identity(len(d), format="csr"), 3)
    assert np.allclose(spec.values, [1.0, 5.0, 5.0], rtol=1e-9)
    assert len(seen["lanczos"]) == 2
    assert len(seen["splu"]) == 3


def test_inertia_count_matches_dense_count():
    n = 60
    rng = np.random.default_rng(5)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    K = A + A.T                      # indefinite
    M = B @ B.T + n * np.eye(n)
    dense = scipy.linalg.eigh(K, M, eigvals_only=True)
    for sigma in np.concatenate([[dense[0] - 1.0, dense[-1] + 1.0],
                                 0.5 * (dense[:-1] + dense[1:])[::7]]):
        assert _inertia_below(sp.csr_matrix(K), sp.csr_matrix(M), sigma) == \
            np.count_nonzero(dense < sigma)
    Ki, Mi = interval_mixed_bc(200)
    dense = scipy.linalg.eigh(Ki.toarray(), Mi.toarray(), eigvals_only=True)
    for sigma in (-1.0, 1.0, 30.0, 1e3, 1e5, 1e6):
        assert _inertia_below(Ki, Mi, sigma) == np.count_nonzero(dense < sigma)


@functools.cache
def pencil_with_dense_spectrum(k: int, J: int, h: float):
    """The 1-D tree pencil of TreeSpec(k=k, J=J) at pitch h, or the default
    config's 2-D pencil at its first width when k is 0, with its dense
    eigenvalues."""
    if k:
        K, M = tree_pencil(TreeSpec(k=k, J=J), h)
    else:
        cfg = ExperimentConfig()
        system = assemble_2d(build_geometry_2d(build_tree(cfg.tree),
                                               cfg.geometry(cfg.eps_list[0])), None)
        K, M = system.K, system.M
    return K, M, scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pencil=st.one_of(st.tuples(st.sampled_from([1, 2, 3]), st.integers(0, 4),
                                  st.sampled_from([0.05, 0.1, 0.25])),
                        st.just((0, 0, 0.0))),
       exponent=st.floats(-2.0, 6.0), negative=st.booleans())
def test_inertia_count_matches_dense_count_on_tree_pencils(pencil, exponent, negative):
    # the count reads the pivots of the column-by-column factor; a shift is
    # kept 1e-6 relative away from every eigenvalue
    K, M, dense = pencil_with_dense_spectrum(*pencil)
    sigma = (-1.0 if negative else 1.0) * 10.0 ** exponent
    assume(np.min(np.abs(dense - sigma)) > 1e-6 * max(1.0, abs(sigma)))
    assert _inertia_below(K, M, sigma) == np.count_nonzero(dense < sigma)


@pytest.mark.parametrize("spec", [TreeSpec(k=1, J=3), TreeSpec(k=3, J=4), TreeSpec(k=2, J=14)],
                         ids=["k1-J3", "k3-J4", "k2-J14"])
def test_ldl_of_a_tree_pencil_has_no_fill(spec):
    # L (unit diagonal) and U = D L^T hold the entries of A and no more
    K = tree_pencil(spec)[0]
    lu = _ldl(K)
    assert lu.L.nnz + lu.U.nnz == K.nnz + K.shape[0]


def test_multiple_eigenvalue_below_the_mth_found():
    # four copies of a 2x2 block with eigenvalues 30 and 32 next to an
    # interval: the 8 smallest are 2.47, 22.2, 30 (four times), 32, 32.  A
    # single Krylov space holds one direction of each eigenspace, and the
    # m + 5 Ritz values of one shift-invert solve miss a copy of 30.
    K, M = interval_mixed_bc(2400)
    block = sp.csr_matrix([[31.0, 1.0], [1.0, 31.0]])
    Kb = sp.block_diag([K] + [block] * 4, format="csr")
    Mb = sp.block_diag([M] + [sp.identity(2)] * 4, format="csr")
    assert not takes_the_dense_path(Kb.shape[0], 8)
    spec = smallest_eigenpairs(Kb, Mb, 8)
    import scipy.sparse.linalg
    low = scipy.sparse.linalg.eigsh(K, 2, M=M, sigma=0.0,
                                    rng=np.random.default_rng(0))[0]
    expected = np.concatenate([np.sort(low), [30.0] * 4, [32.0] * 2])
    assert np.allclose(spec.values, expected, rtol=1e-9, atol=0.0)
    G = spec.vectors.T @ (Mb @ spec.vectors)
    assert np.abs(G - np.eye(8)).max() <= 1e-8


def test_copies_a_larger_solve_misses_are_found_with_the_rest_locked():
    # a 4-fold eigenvalue 5 below the 8th: the first solve finds three
    # copies, and so does a solve from scratch with more Ritz vectors; the
    # missed copy is found in the complement of the pairs already found
    d = np.concatenate([[1.0, 2.0, 3.0], [5.0] * 4, np.arange(6.0, 2500.0)])
    spec = smallest_eigenpairs(sp.diags(d).tocsr(), sp.identity(len(d), format="csr"), 8)
    assert np.allclose(spec.values, [1, 2, 3, 5, 5, 5, 5, 6], rtol=1e-12, atol=0.0)


def test_unrepaired_miss_raises(monkeypatch):
    # an iteration that always drops the lowest pair it finds: the inertia
    # count sees the miss on every solve, and the call fails instead of
    # returning the 2nd..(m+1)-th values
    def drop_lowest(vals, vecs):
        keep = np.argsort(vals)[1:]
        return vals[keep], vecs[:, keep]

    monkeypatch.setattr(eigensolver, "_lanczos", lanczos_returning_eigenvalues(drop_lowest))
    K, M = interval_mixed_bc(256)
    with pytest.raises(EigensolverError, match=r"missed 1 eigenvalue"):
        smallest_eigenpairs(K, M, 3)


def test_repair_that_finds_no_missed_pair_raises(monkeypatch):
    # an iteration that converges one pair more than wanted and drops the
    # lowest: the first solve misses lambda_1, the repair returns lambda_5,
    # above the count shift, and the call fails without a third solve
    lanczos = eigensolver._lanczos

    def skip_lowest(lu, M, wanted, locked):
        theta, vecs = lanczos(lu, M, wanted + 1, locked)
        keep = np.argsort(-theta)[1:]   # factored at sigma = 0: theta = 1 / lambda
        return theta[keep], vecs[:, keep]

    monkeypatch.setattr(eigensolver, "_lanczos", skip_lowest)
    K, M = interval_mixed_bc(256)
    with pytest.raises(EigensolverError, match=r"missed 1 eigenvalue\(s\) below .* after 2 solves"):
        smallest_eigenpairs(K, M, 3)


def neumann_interval(n):
    """The interval pencil with Neumann conditions at both ends: K
    annihilates constants, so it cannot be factored at sigma = 0."""
    K, M = interval_mixed_bc(n)
    K, M = K.tolil(), M.tolil()
    K[0, 0], M[0, 0] = n, M[-1, -1]
    return K.tocsr(), M.tocsr()


def test_neumann_ground_state_accepted():
    # null vector of K: ||Ku|| is roundoff, the roundoff allowance keeps the
    # backward error at 0
    n = 256
    spec = smallest_eigenpairs(*neumann_interval(n), 2)
    assert abs(spec.values[0]) < 1e-8
    # the n nodes span [h, 1]
    assert spec.values[1] == pytest.approx((np.pi * n / (n - 1)) ** 2, rel=1e-3)


def test_retry_shift_keeps_both_pairs_far_below_the_roundoff_allowance():
    # the first retry shift lies just below 0, where theta = 1/(lambda -
    # sigma) of the wanted pairs stays sharp; at -0.1 of the scale estimate
    # the null pair's residual reached 0.73 of the allowance and the second
    # pair's 11.6 times it
    K, M = neumann_interval(256)
    spec = smallest_eigenpairs(K, M, 2)
    u, lam = spec.vectors, spec.values
    allowance = RESIDUAL_ROUNDOFF * np.finfo(float).eps * np.linalg.norm(u, axis=0) * (
        abs(K).sum(axis=0).max() + np.abs(lam) * abs(M).sum(axis=0).max())
    residual = np.linalg.norm(K @ u - (M @ u) * lam, axis=0)
    assert np.all(residual <= 0.01 * allowance)


def test_bad_request_rejected():
    K, M = interval_mixed_bc(10)
    with pytest.raises(EigensolverError):
        smallest_eigenpairs(K, M, 0)
    with pytest.raises(EigensolverError):
        smallest_eigenpairs(K, M, 11)


def make_spec(values, mults=None):
    values = np.asarray(values, dtype=float)
    if mults is None:
        mults = np.ones(len(values), dtype=int)
    return Spectrum(values=values, multiplicities=np.asarray(mults))


def test_merge_basic():
    merged = merge_spectra([(make_spec([1.0, 3.0]), 1), (make_spec([2.0]), 2)], m=None)
    assert merged.values.tolist() == [1.0, 2.0, 3.0]
    assert merged.multiplicities.tolist() == [1, 2, 1]


def test_merge_single_input_unchanged():
    s = make_spec([0.5, 1.5, 2.5], [1, 2, 1])
    merged = merge_spectra([(s, 1)], m=None)
    assert merged.values.tolist() == s.values.tolist()
    assert merged.multiplicities.tolist() == s.multiplicities.tolist()


def test_merge_permutation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(100):
        parts = []
        for _ in range(rng.integers(1, 5)):
            vals = np.sort(rng.uniform(0, 10, size=rng.integers(1, 6)))
            parts.append((make_spec(vals), int(rng.integers(1, 4))))
        ref = merge_spectra(parts, m=None)
        perm = list(np.random.default_rng(0).permutation(len(parts)))
        shuffled = merge_spectra([parts[i] for i in perm], m=None)
        assert np.array_equal(ref.expanded_values(None), shuffled.expanded_values(None))


def _merge_heap_loop(parts, m=None):
    """Reference k-way merge: pop the smallest (value, part, position) until
    the multiplicities reach m."""
    heap = [(spec.values[0], which, 0, mult) for which, (spec, mult) in enumerate(parts)
            if mult != 0 and len(spec)]
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
    return values, mults


def test_merge_ties_keep_input_order_and_cut_at_m():
    parts = [(make_spec([1.0, 2.0, 5.0], [1, 3, 1]), 1),
             (make_spec([2.0, 3.0], [2, 1]), 2),
             (make_spec([0.5, 2.0]), 1)]
    merged = merge_spectra(parts, m=None)
    assert merged.values.tolist() == [0.5, 1.0, 2.0, 2.0, 2.0, 3.0, 5.0]
    assert merged.multiplicities.tolist() == [1, 1, 3, 4, 1, 2, 1]
    # the cut keeps the first value whose cumulative multiplicity reaches m
    cut = merge_spectra(parts, m=5)
    assert cut.values.tolist() == [0.5, 1.0, 2.0]
    assert cut.multiplicities.tolist() == [1, 1, 3]
    # reversed inputs reverse the order of the tied values only
    rev = merge_spectra(parts[::-1], m=5)
    assert rev.values.tolist() == [0.5, 1.0, 2.0, 2.0]
    assert rev.multiplicities.tolist() == [1, 1, 1, 4]
    assert np.array_equal(cut.expanded_values(5), rev.expanded_values(5))


def test_merge_equals_the_heap_merge_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(300):
        parts = []
        for _ in range(rng.integers(1, 5)):
            vals = np.sort(rng.integers(0, 6, size=rng.integers(0, 5)) * 0.5)
            parts.append((make_spec(vals, rng.integers(1, 3, size=len(vals))),
                          int(rng.integers(0, 3))))
        for perm in (np.arange(len(parts)), rng.permutation(len(parts))):
            permuted = [parts[i] for i in perm]
            for m in (None, 0, 1, int(rng.integers(1, 12))):
                merged = merge_spectra(permuted, m=m)
                values, mults = _merge_heap_loop(permuted, m=m)
                assert merged.values.tolist() == values
                assert merged.multiplicities.tolist() == mults


def test_merge_drops_zero_multiplicity():
    merged = merge_spectra([(make_spec([1.0]), 1), (make_spec([0.5]), 0)], m=None)
    assert merged.values.tolist() == [1.0]


def test_cluster_multiplicities():
    s = make_spec([1.0, 1.0 + 1e-12, 2.0])
    c = cluster_multiplicities(s)
    assert c.values.tolist() == [1.0, 2.0]
    assert c.multiplicities.tolist() == [2, 1]


def test_lanczos_solve_is_bitwise_repeatable():
    # the Lanczos start vector is seeded, so the same pencil gives the same
    # bits on every call
    K, M = tree_pencil(TreeSpec(k=2, J=11))
    assert not takes_the_dense_path(K.shape[0], 4)
    first, second = (smallest_eigenpairs(K, M, 4) for _ in range(2))
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)
    assert np.array_equal(first.residuals, second.residuals)


def sturm_eigenvalue(K, M, i: int) -> float:
    """The i-th smallest eigenvalue of the tridiagonal pencil (K, M), K
    positive definite, by bisection on the Sturm count of K - sigma M taken
    in 60 digits from the stored float64 entries."""
    with mpmath.workdps(60):
        a, c = ([mpmath.mpf(x) for x in A.diagonal()] for A in (K, M))
        b, d = ([mpmath.mpf(0)] + [mpmath.mpf(x) for x in A.diagonal(1)] for A in (K, M))

        def count(sigma):
            below, pivot = 0, mpmath.mpf(1)
            for aj, bj, cj, dj in zip(a, b, c, d):
                pivot = aj - sigma * cj - (bj - sigma * dj) ** 2 / pivot
                below += pivot < 0
            return below

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while count(hi) < i:
            lo, hi = hi, 2 * hi
        while hi - lo > mpmath.mpf(10) ** -18 * hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if count(mid) >= i else (mid, hi)
        return float((lo + hi) / 2)


@pytest.fixture(scope="module")
def graded_component():
    """The generation-6 radial component of k=2, r=0.5, delta=0.3, J=19 at 8
    equal elements per generation (n = 112), and the 60-digit values of its
    four smallest eigenvalues.  Its mass diagonal spans 7.6e-14 to 9.5e-7,
    and a dense solve of it fails the backward-error gate at 1.7e-6."""
    tree = build_tree(TreeSpec(k=2, r=0.5, delta=0.3, J=19))
    rs = rho_star_profile(tree)
    mesh = Mesh1D.from_layouts(tree, [np.linspace(0.0, b - a, 9) for a, b in
                                      zip(tree.t_shell[:-1], tree.t_shell[1:])])
    c = element_form(mesh, rs, rs, None).component(6)
    return c, [sturm_eigenvalue(c.K, c.M, i) for i in range(1, 5)]


@pytest.mark.parametrize("m", [1, 3, 4])
def test_graded_component_solved_to_its_60_digit_values(graded_component, m):
    c, exact = graded_component
    assert c.K.shape[0] == 112 and not takes_the_dense_path(112, m)
    spec = smallest_eigenpairs(c.K, c.M, m)
    np.testing.assert_allclose(spec.values, exact[:m], rtol=1e-12, atol=0.0)


def unit_square_neumann(h):
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return stiffness_and_mass(mesh_polygon(square, h=h, sections={},
                                           section_intervals=None))


def indefinite_interval(n):
    K, M = interval_mixed_bc(n)
    return (K - 30.0 * M).tocsr(), M


@pytest.mark.parametrize("pencil,m", [(lambda: unit_square_neumann(0.05), 3),
                                      (lambda: unit_square_neumann(0.05), 8),
                                      (lambda: indefinite_interval(400), 3)],
                         ids=["neumann-square-m3", "neumann-square-m8", "indefinite"])
def test_first_shift_solve_matches_the_dense_oracle(pencil, m):
    # K is factored at sigma = 0: singular (smallest pivot about 1e-14) on
    # the Neumann square, indefinite on the interval.  Started from a raw
    # random vector instead of OP applied to one, the iteration returns
    # pi^2 0.2% off on the square; with Ritz pairs from a divide-and-conquer
    # eigh of the projected matrix, whose deflation is relative to the null
    # theta of about 1e14, the square's m=8 vectors have backward errors of
    # 0.6.
    K, M = (a.tocsr() for a in pencil())
    n, k = K.shape[0], m + GUARD_VECTORS
    assert not takes_the_dense_path(n, m)
    theta, vecs = eigensolver._lanczos(_ldl(K), M, k, np.empty((n, 0)))
    dense = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    nearest = np.sort(dense[np.argsort(np.abs(dense))[:k]])
    # relative, and absolute for the null eigenvalue of the Neumann square
    np.testing.assert_allclose(np.sort(1.0 / theta), nearest, rtol=1e-9, atol=1e-9)
    assert _residuals(K, M, 1.0 / theta, vecs, M @ vecs)[1].max() <= 100 * RITZ_TOL


class CountedProducts:
    """A matrix that counts the products taken with it."""

    def __init__(self, A):
        self.A, self.shape, self.calls = A, A.shape, 0

    def __matmul__(self, x):
        self.calls += 1
        return self.A @ x


class CountedSolves:
    """A factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_lanczos_step_takes_two_m_products():
    # one solve per step; the norm, then one full Gram-Schmidt pass, repeated
    # only when it shrinks the vector: at most 2 M-products per step, the
    # coefficient alpha read off the operator's input.  The constant covers
    # the product with the locked block, the extra product of a start and
    # two repeated passes.  A full basis of ncv = 27 vectors takes 28 solves;
    # on k3-J7 the 8 wanted pairs need a thick restart (on k2-J11 they
    # converge in one basis).
    K, M = tree_pencil(TreeSpec(k=3, J=7))
    M, lu = CountedProducts(M), CountedSolves(_ldl(K))
    eigensolver._lanczos(lu, M, 8, np.empty((K.shape[0], 0)))
    assert lu.calls > 2 * (8 + GUARD_VECTORS) + 2   # at least one restart
    assert M.calls <= 2 * lu.calls + 4


@pytest.mark.parametrize("spec", [TreeSpec(k=2, J=14), TreeSpec(k=3, J=9)],
                         ids=["k2-J14", "k3-J9"])
def test_lanczos_step_projects_only_when_the_basis_lost_orthogonality(spec):
    # a step whose overlaps with the basis are all below _OVERLAP_TOL of its
    # M-norm is not projected and takes 1 M-product, not 2: 43 products for
    # 28 solves on k2-J14 and 66 for 42 on k3-J9, against 58 and 86 when
    # every step is projected
    K, M = tree_pencil(spec)
    M, lu = CountedProducts(M), CountedSolves(_ldl(K))
    eigensolver._lanczos(lu, M, 8, np.empty((K.shape[0], 0)))
    assert M.calls <= 1.6 * lu.calls


@pytest.mark.parametrize("factor,projected", [(0.1, False), (10.0, True)])
def test_gram_schmidt_pass_runs_only_on_overlaps_above_the_tolerance(factor, projected):
    n, j = 40, 6
    d = np.linspace(1.0, 2.0, n)
    M = CountedProducts(sp.diags(d).tocsr())
    V = np.eye(n)[:j] / np.sqrt(d[:j])[:, None]   # M-orthonormal rows
    w0 = np.zeros(n)
    w0[j:] = np.random.default_rng(3).standard_normal(n - j)
    w0 /= np.sqrt(w0 @ (d * w0))   # M-orthogonal to V, unit M-norm
    overlaps = factor * eigensolver._OVERLAP_TOL * np.linspace(-1.0, 1.0, j)
    w = w0 + overlaps @ V   # V M w = overlaps
    before = w.copy()
    out, Mw, coef, norm = eigensolver._m_orthogonalize(M, V, w, np.empty(n))
    if projected:
        assert M.calls == 2
        np.testing.assert_allclose(coef, overlaps, rtol=1e-6, atol=0.0)
        assert np.abs(V @ (d * out)).max() <= 1e-16
    else:
        assert M.calls == 1
        assert not coef.any() and np.array_equal(out, before)
    np.testing.assert_allclose(Mw, d * out, rtol=1e-15)
    assert norm == pytest.approx(1.0, rel=1e-9)


def test_deep_tree_solves_stay_inside_the_convergence_request(monkeypatch):
    # the whole-tree solve and the component solves of the decomposition of
    # k2-J12 (r = 0.6, delta = 0.5, h = 0.005), m = 8, each pair within the
    # backward error RITZ_TOL that the solver converges to, a hundredth of
    # the gate.  With _OVERLAP_TOL at sqrt(eps) the components of n = 306
    # and 506 reach 5.5e-8 and 8.0e-8; asked for 8 pairs instead of 4, the
    # one of n = 186 reached 1.7e-7, over the gate
    tree = build_tree(TreeSpec(k=2, J=12, r=0.6, delta=0.5))
    rs = rho_star_profile(tree)
    mesh = build_mesh_1d(tree, h=0.005, breakpoints=rs.breakpoints)
    system = assemble_1d(tree, mesh, rs, rs, None)
    backward, residuals = [], eigensolver._residuals

    def recorded(*args):
        out = residuals(*args)
        backward.append(out[1].max())
        return out

    monkeypatch.setattr(eigensolver, "_residuals", recorded)
    smallest_eigenpairs(system.K, system.M, 8, with_vectors=False)
    radial_decomposition_spectrum(tree, mesh, rs, rs, None, 8)
    assert len(backward) == 6
    assert max(backward) <= RITZ_TOL


def test_deep_tree_solve_takes_at_most_30_factor_solves(monkeypatch):
    # the stopping test reads the 8 wanted pairs only, so one full basis of
    # 27 steps converges them (28 solves); waiting for the guard pairs too
    # took a thick restart and 49 solves
    ldl, factors = eigensolver._ldl, []

    def counted_ldl(A):
        factors.append(CountedSolves(ldl(A)))
        return factors[-1]

    monkeypatch.setattr(eigensolver, "_ldl", counted_ldl)
    smallest_eigenpairs(*tree_pencil(TreeSpec(k=2, J=14)), 8)
    assert sum(lu.calls for lu in factors) <= 30


def test_deep_tree_repair_is_certified_by_the_first_count(monkeypatch):
    # on k3-J9 the first solve finds 4 of the 6 copies of 2.5473 and returns
    # 4.558 as the 8th value; the count below 4.558 reads 9, 2 more than it
    # found.  The repair of those 2 tests its Ritz pairs at every step and
    # converges before its basis of 20 vectors is full (one solve starts it,
    # one per step).  It finds the 2 copies, which the first count
    # certifies: the call factors once for the iteration and once for the
    # count
    ldl, lanczos = eigensolver._ldl, eigensolver._lanczos
    factors, solves = [], []

    def counted_ldl(A):
        factors.append(CountedSolves(ldl(A)))
        return factors[-1]

    def counted_lanczos(lu, M, wanted, locked):
        before = lu.calls
        out = lanczos(lu, M, wanted, locked)
        solves.append((wanted, locked.shape[1], lu.calls - before))
        return out

    monkeypatch.setattr(eigensolver, "_ldl", counted_ldl)
    monkeypatch.setattr(eigensolver, "_lanczos", counted_lanczos)
    spec = smallest_eigenpairs(*tree_pencil(TreeSpec(k=3, J=9)), 8)
    assert np.count_nonzero(np.isclose(spec.values, 2.5473, rtol=1e-4)) == 5
    assert len(factors) == 2
    assert [s[:2] for s in solves] == [(8, 0), (2, 8)]
    assert solves[1][2] - 1 < 20


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([2, 3, 4]), J=st.integers(1, 3), h=st.sampled_from([0.02, 0.05]),
       m=st.integers(1, 16))
def test_certified_solve_finds_every_copy_of_multiple_eigenvalues(k, J, h, m):
    # a vertex component of generation j enters the tree pencil with
    # multiplicity k**(j-1) (k-1), and one Krylov space holds one direction
    # of each eigenspace: the missed copies are found by the locked repairs.
    # A repair started from the first solve's vector, which holds no
    # direction of an eigenspace but the one locked, raised on k2-J3 at
    # h = 0.02 and m = 15.
    K, M, dense = pencil_with_dense_spectrum(k, J, h)
    assume(not takes_the_dense_path(K.shape[0], m))
    spec = smallest_eigenpairs(K, M, m)
    np.testing.assert_allclose(spec.values, dense[:m], rtol=1e-9, atol=0.0)
    G = spec.vectors.T @ (M @ spec.vectors)
    assert np.abs(G - np.eye(m)).max() <= 1e-8


@pytest.mark.parametrize("spec", [TreeSpec(k=2, J=14), TreeSpec(k=3, J=9)],
                         ids=["k2-J14", "k3-J9"])
def test_solve_memory_peak_on_deep_tree_pencils(spec):
    # 72 n-vectors: an ARPACK solve of these pencils peaks at 71.1; the
    # Lanczos basis is allocated once at full size and never copied (50.1)
    K, M = tree_pencil(spec)
    n = K.shape[0]
    assert n > 32_000
    tracemalloc.start()
    try:
        smallest_eigenpairs(K, M, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * 8 * n


# sparse or dense generalized eigensolvers; numpy's eigvalsh on the small
# dense connector forms is not a pencil solve
PENCIL_SOLVERS = re.compile(
    r"\beigsh\b|\.eigs\(|\blobpcg\b|scipy\.linalg\.eig"
    r"|from scipy(\.sparse)?\.linalg import[^\n]*\beig")
# a second sparse iteration, or an operator wrapped for one
SPARSE_ITERATIONS = re.compile(r"\beigsh\b|\bLinearOperator\b")


def test_every_pencil_solve_goes_through_the_eigensolver():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert "eigensolver.py" in sources and "convergence.py" in sources
    for name, text in sources.items():
        if name != "eigensolver.py":
            assert not PENCIL_SOLVERS.search(text), name
        assert not SPARSE_ITERATIONS.search(text), name
    # experiments assemble through assemble_1d and assemble_2d only
    for name in ("scatter_pencil", "stiffness_and_mass"):
        assert name not in sources["convergence.py"], name
    assert "scipy.sparse.linalg" not in sources["convergence.py"]
