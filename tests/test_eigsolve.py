import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from afemeig import assemble_mass, assemble_stiffness, build_space, detect_cluster, solve_smallest
from afemeig.eigsolve import (EigenCluster, EigensolverError, _factor, _negative_pivots, _shifted,
                              m_orthonormalize, residual_norms)
from afemeig.fem import prolongate
from afemeig.mesh import refine, uniform_refine

from conftest import square_mesh


def _laplace_system(rounds, degree=1, coeffs=None):
    from afemeig import Coefficients
    space = build_space(square_mesh(rounds), degree)
    co = coeffs or Coefficients()
    return space, assemble_stiffness(space, co), assemble_mass(space)


def test_diagonal_pencil():
    K = sp.diags([1.0, 2.0, 3.0]).tocsr()
    M = sp.identity(3, format="csr")
    vals, vecs = solve_smallest(K, M, 2)
    assert np.allclose(vals, [1.0, 2.0])
    assert np.allclose(np.abs(vecs[:2, :2]), np.eye(2), atol=1e-12)


def test_identity_pencil_all_ones():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    K = sp.csr_matrix(A @ A.T + 6 * np.eye(6))
    vals, _ = solve_smallest(K, K.copy(), 3)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_square_laplace_lambda1():
    # legs 1/64 after 12 bisection rounds of the two-triangle square
    _, K, M = _laplace_system(12)
    vals, vecs = solve_smallest(K, M, 3)
    lam1 = 2 * math.pi ** 2
    rel = (vals[0] - lam1) / lam1
    assert 0 < rel <= 2e-3  # discrete values approach from above


def test_b_orthonormality_and_residuals():
    _, K, M = _laplace_system(8)
    tol = 1e-10
    vals, vecs = solve_smallest(K, M, 5, tol=tol)
    gram = vecs.T @ (M @ vecs)
    assert np.abs(gram - np.eye(5)).max() <= 1e-10
    res = residual_norms(K, M, vals, vecs)
    assert np.all(res <= tol * np.maximum(1.0, vals))


def test_rayleigh_quotient_consistency():
    _, K, M = _laplace_system(7)
    tol = 1e-10
    vals, vecs = solve_smallest(K, M, 4, tol=tol)
    for lam, v in zip(vals, vecs.T):
        rq = (v @ (K @ v)) / (v @ (M @ v))
        assert abs(rq - lam) <= 10 * tol * lam


def test_eigenvalues_monotone_from_above_on_nested_meshes():
    lam_exact = [2, 5, 5, 8]
    lam_exact = [l * math.pi ** 2 for l in lam_exact]
    prev = None
    for rounds in (6, 8, 10):
        _, K, M = _laplace_system(rounds)
        vals, _ = solve_smallest(K, M, 4)
        if prev is not None:
            assert np.all(vals <= prev + 1e-10)
        assert np.all(vals >= np.array(lam_exact) - 1e-10)
        prev = vals


def test_detect_cluster_examples():
    assert detect_cluster([19.7, 49.3, 49.4, 98.7], 0.01) == [[0], [1, 2], [3]]
    assert detect_cluster([1.0, 10.0, 100.0], 0.01) == [[0], [1], [2]]
    osc = [1.01, 2.02, 2.0201, 3.05, 3.0502, 3.0503]
    assert [len(c) for c in detect_cluster(osc, 1e-3)] == [1, 2, 3]


def test_oscillator_discrete_spectrum_clusters():
    # lambda = nx + ny + 1 gives multiplicities 1, 2, 3 on the truncated box
    from afemeig import Coefficients, harmonic_oscillator
    from afemeig.mesh import uniform_refine
    prob = harmonic_oscillator()
    space = build_space(uniform_refine(prob.initial_mesh(), 10), 1)
    K = assemble_stiffness(space, prob.coefficients)
    M = assemble_mass(space)
    vals, _ = solve_smallest(K, M, 7)
    sizes = [len(c) for c in detect_cluster(vals, 0.05)]
    assert sizes[:3] == [1, 2, 3]
    assert np.allclose(vals[:6], [1, 2, 2, 3, 3, 3], atol=0.1)


def test_detect_cluster_rejects_descending():
    with pytest.raises(ValueError):
        detect_cluster([2.0, 1.0])


def test_recombination_preserves_span_residual():
    _, K, M = _laplace_system(7)
    vals, vecs = solve_smallest(K, M, 3)
    V = vecs[:, 1:3]
    cluster = EigenCluster(vals[1:3], V)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * math.pi)
    Q = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    rec = EigenCluster(cluster.values, cluster.vectors @ Q)
    assert rec.q == 2
    def span_residual(W):
        rq = W.T @ (K @ W)
        return np.linalg.norm((K @ W) - (M @ W) @ rq)
    assert span_residual(rec.vectors) == pytest.approx(span_residual(V), abs=1e-10)
    gram = rec.vectors.T @ (M @ rec.vectors)
    assert np.abs(gram - np.eye(2)).max() < 1e-10


def test_m_orthonormalize():
    rng = np.random.default_rng(1)
    M = sp.identity(8, format="csr")
    V = rng.standard_normal((8, 3))
    W = m_orthonormalize(V, M)
    assert np.allclose(W.T @ W, np.eye(3), atol=1e-13)


def test_m_orthonormalize_many_columns():
    # 57 eigenvectors of a 961-dof pencil, as a wide cluster window asks for;
    # Cholesky QR in two passes leaves them M-orthonormal to round-off
    _, K, M = _laplace_system(10)
    assert K.shape[0] == 961
    _, V = solve_smallest(K, M, 57)
    rng = np.random.default_rng(4)
    for W in (V, V @ rng.standard_normal((57, 57)), rng.standard_normal((961, 57))):
        W = m_orthonormalize(W, M)
        assert np.abs(W.T @ (M @ W) - np.eye(57)).max() < 1e-12


def test_m_orthonormalize_breakdown_raises():
    M = sp.identity(6, format="csr")
    V = np.random.default_rng(2).standard_normal((6, 3))
    for bad in (0.0, np.nan):
        W = V.copy()
        W[:, 1] = bad
        with pytest.raises(EigensolverError, match="breakdown"):
            m_orthonormalize(W, M)


def test_solver_input_validation():
    K = sp.identity(4, format="csr")
    with pytest.raises(ValueError):
        solve_smallest(K, K, 5)
    with pytest.raises(ValueError):
        solve_smallest(K, sp.identity(3, format="csr"), 1)
    with pytest.raises(ValueError):
        solve_smallest(K, K, 1, start=np.ones(3))
    # a NaN pole would pass the inertia check with nothing below it
    with pytest.raises(ValueError, match="pole must be a finite number"):
        solve_smallest(K, K, 1, pole=float("nan"))


def test_determinism_of_eigensolve():
    _, K, M = _laplace_system(9)  # large enough to hit the Lanczos path
    assert K.shape[0] > 260
    v1, x1 = solve_smallest(K, M, 4)
    v2, x2 = solve_smallest(K, M, 4)
    assert np.array_equal(v1, v2)
    assert np.array_equal(x1, x2)



def _tridiagonal(n, diag, off):
    return sp.diags([np.full(n - 1, off), np.full(n, diag), np.full(n - 1, off)],
                    [-1, 0, 1])


def test_start_in_one_block_still_finds_the_smallest():
    # two uncoupled blocks whose spectra interleave; a start vector inside the
    # first block spans a Krylov space that never reaches the second one
    a, b = 150, 140
    K = sp.block_diag([_tridiagonal(a, 2.0, -1.0),
                       _tridiagonal(b, 2.6, -1.3)]).tocsr()
    M = sp.block_diag([_tridiagonal(a, 4 / 6, 1 / 6),
                       _tridiagonal(b, 4 / 6, 1 / 6)]).tocsr()
    assert K.shape[0] > 260
    nev = 4
    exact = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                     subset_by_index=[0, nev - 1])
    start = np.zeros(a + b)
    start[:a] = np.sin(np.pi * np.arange(1, a + 1) / (a + 1))
    vals, _ = solve_smallest(K, M, nev, start=start)
    np.testing.assert_allclose(vals, exact, rtol=1e-9)


def test_warm_solve_whose_nev_cuts_a_near_double_pair():
    # two uncoupled blocks, the second scaled so that its smallest eigenvalue
    # sits 1e-8 above the first block's nev-th: the request takes one member
    # of the pair, and either one is a right answer.  The diagonal 2.2, not 2,
    # keeps the pencil's condition near 60, so that dense eigh itself is good
    # to 1e-12 relative at the bottom of the spectrum.
    a, b, nev = 150, 140, 4

    def eigenvalue(n, j):   # j-th eigenvalue of tridiag(-1, 2.2, -1) against M
        t = np.cos(j * np.pi / (n + 1))
        return (2.2 - 2 * t) / (4 / 6 + 2 / 6 * t)

    scale = eigenvalue(a, nev) * (1 + 1e-8) / eigenvalue(b, 1)
    K = sp.block_diag([_tridiagonal(a, 2.2, -1.0),
                       _tridiagonal(b, 2.2 * scale, -scale)]).tocsr()
    M = sp.block_diag([_tridiagonal(a, 4 / 6, 1 / 6),
                       _tridiagonal(b, 4 / 6, 1 / 6)]).tocsr()
    exact = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                     subset_by_index=[0, nev])
    assert 5e-9 < (exact[nev] - exact[nev - 1]) / exact[nev] < 2e-8
    start = np.concatenate([np.sin(np.pi * np.arange(1, a + 1) / (a + 1)),
                            np.sin(np.pi * np.arange(1, b + 1) / (b + 1))])
    vals, _ = solve_smallest(K, M, nev, start=start)
    np.testing.assert_allclose(vals[:nev - 1], exact[:nev - 1], rtol=1e-12)
    assert np.min(np.abs(vals[-1] - exact[nev - 1:]) / exact[nev]) < 1e-12


def test_singular_stiffness_raises_on_the_sparse_path():
    _, K, M = _laplace_system(9)
    assert K.shape[0] > 260
    K = K.tolil()
    K[50, :] = 0.0
    K[:, 50] = 0.0
    with pytest.raises(EigensolverError, match="factorization failed"):
        solve_smallest(K.tocsr(), M, 3)


def _count_applies(monkeypatch):
    """Count the shift-invert operator applies: calls of the factor's solve."""
    counts = []
    splu = spla.splu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            counts[-1] += 1
            return self.lu.solve(b)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def counted_splu(*args, **kwargs):
        counts.append(0)
        return Counted(splu(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", counted_splu)
    return counts


def test_warm_start_on_a_refined_mesh_matches_cold_and_dense(monkeypatch):
    from afemeig import Coefficients
    coarse_mesh = square_mesh(8)
    coarse = build_space(coarse_mesh, 1)
    co = Coefficients()
    nev = 5
    _, coarse_vecs = solve_smallest(assemble_stiffness(coarse, co),
                                    assemble_mass(coarse), nev)
    centroids = coarse_mesh.vertices[coarse_mesh.elements].mean(axis=1)
    result = refine(coarse_mesh, np.nonzero(centroids.sum(axis=1) < 0.8)[0])
    fine = build_space(result.mesh, 1)
    K, M = assemble_stiffness(fine, co), assemble_mass(fine)
    assert 260 < K.shape[0] < 2000
    start = prolongate(coarse, fine, result.ancestor,
                       coarse.expand(coarse_vecs.sum(axis=1)))[fine.free_dofs]
    applies = _count_applies(monkeypatch)
    warm, _ = solve_smallest(K, M, nev, start=start)
    cold, _ = solve_smallest(K, M, nev)
    dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                     subset_by_index=[0, nev - 1])
    np.testing.assert_allclose(warm, cold, rtol=1e-12)
    np.testing.assert_allclose(warm, dense, rtol=1e-12)
    # a warm solve costs fewer applies than a cold one, the same on every run
    solve_smallest(K, M, nev, start=start)
    solve_smallest(K, M, nev)
    warm_applies, cold_applies = applies[:2]
    assert applies == [warm_applies, cold_applies] * 2
    assert warm_applies < cold_applies


@pytest.mark.parametrize("problem, degree, rounds", [
    ("square", 2, 8), ("oscillator", 1, 9)])
def test_sparse_path_matches_dense(problem, degree, rounds):
    # the factored shift-invert path on P2, and on the oscillator's variable-c
    # pencil, against a dense solve of the same pencil
    from afemeig import get_problem
    prob = get_problem(problem)
    space = build_space(uniform_refine(prob.initial_mesh(), rounds), degree)
    K, M = assemble_stiffness(space, prob.coefficients), assemble_mass(space)
    assert 260 < K.shape[0] < 3000
    nev = 6
    vals, _ = solve_smallest(K, M, nev)
    dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                     subset_by_index=[0, nev - 1])
    np.testing.assert_allclose(vals, dense, rtol=1e-12)


# small P1 and P2 meshes of each problem, 353-481 free dofs: above the dense
# cutoff, so that solve_smallest takes the factored path
_SMALL_SYSTEMS = [("square", 1, 9), ("square", 2, 7), ("oscillator", 1, 8),
                  ("oscillator", 2, 6), ("lshape", 1, 7), ("lshape", 2, 5)]


def _system(problem, degree, rounds):
    from afemeig import get_problem
    prob = get_problem(problem)
    space = build_space(uniform_refine(prob.initial_mesh(), rounds), degree)
    return assemble_stiffness(space, prob.coefficients), assemble_mass(space)


@pytest.mark.parametrize("problem, degree, rounds", _SMALL_SYSTEMS)
def test_shifted_matrix_is_the_sparse_difference(problem, degree, rounds):
    # on the assembly's one pattern the difference is K's data minus sigma
    # times M's; a mass matrix of another pattern takes the sparse difference
    K, M = _system(problem, degree, rounds)
    lumped = sp.diags(np.asarray(M.sum(axis=1)).ravel()).tocsr()
    for mass in (M, lumped):
        for sigma in (0.0, 7.5):
            got, want = _shifted(K, mass, sigma), (K - sigma * mass).tocsr()
            assert got.format == "csr"
            np.testing.assert_array_equal(got.toarray(), want.toarray())
    assert _shifted(K, M, 0.0) is K


@pytest.mark.parametrize("problem, degree, rounds", _SMALL_SYSTEMS)
def test_negative_pivots_count_the_eigenvalues_below_the_pole(problem, degree, rounds):
    K, M = _system(problem, degree, rounds)
    dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    # the distinct values: the square's and the oscillator's multiplets are
    # multiple to round-off on these symmetric meshes
    distinct = dense[np.r_[True, np.diff(dense) > 1e-8 * dense[1:]]]
    for sigma in (distinct[:12] + distinct[1:13]) / 2:
        assert _negative_pivots(_factor(_shifted(K, M, sigma))) == np.count_nonzero(dense < sigma)


@pytest.mark.parametrize("problem, degree, rounds", _SMALL_SYSTEMS)
def test_pole_at_a_computed_eigenvalue_still_gives_the_smallest(problem, degree, rounds):
    # K - sigma*M is singular to round-off.  Its count may fall on either side
    # of the values at sigma, or the factor may fail; the solve returns the
    # nev smallest either way, through the certificate or through sigma = 0.
    # Poles 1 and 2 lie below (lambda_0 + lambda_5)/2, pole 3 above it on the
    # square, where the values nearest it skip lambda_0.
    K, M = _system(problem, degree, rounds)
    nev = 6
    dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                     subset_by_index=[0, nev - 1])
    for pole in dense[1:4]:
        try:
            below = _negative_pivots(_factor(_shifted(K, M, pole)))
        except EigensolverError:
            below = None
        if below is not None:
            near = np.abs(dense - pole) <= 1e-8 * pole
            assert np.count_nonzero(dense < pole) - np.count_nonzero(near) <= below
            assert below <= np.count_nonzero(dense <= pole) + np.count_nonzero(near)
        vals, _ = solve_smallest(K, M, nev, pole=pole)
        np.testing.assert_allclose(vals, dense, rtol=1e-10)


def test_a_pole_whose_nearest_values_skip_the_smallest_falls_back(monkeypatch):
    K, M = _system("square", 1, 9)
    nev = 4
    dense = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                     subset_by_index=[0, nev])
    factors = _count_applies(monkeypatch)
    # below (lambda_0 + lambda_nev)/2 the nev values nearest the pole are the
    # nev smallest: the count certifies them, and one factor does
    vals, _ = solve_smallest(K, M, nev, pole=(dense[0] + dense[1]) / 2)
    np.testing.assert_allclose(vals, dense[:nev], rtol=1e-10)
    assert len(factors) == 1
    # between 8 and 10 pi^2 they are 5, 5, 8 and 10 pi^2: the factor counts 3
    # values below the pole, 2 of them came back, and the solve runs again
    # at sigma = 0, with a second factor
    pole = (dense[nev - 1] + dense[nev]) / 2
    assert pole > (dense[0] + dense[nev]) / 2
    vals, _ = solve_smallest(K, M, nev, pole=pole)
    np.testing.assert_allclose(vals, dense[:nev], rtol=1e-10)
    assert len(factors) == 3
