"""Smallest eigenpairs of the generalized problem K x = lambda M x.

K and M are sparse SPD (Dirichlet rows/columns eliminated), so the smallest
eigenvalues are extracted by shift-invert Lanczos: ARPACK runs on
(K - sigma M)^-1 M with one sparse LU factor of K - sigma M.  The pole sigma
is 0 unless the caller names one; a pole certifies its solve by the factor's
inertia, and the solve falls back to sigma = 0 when it cannot.  Small systems
take a dense direct solve, which keeps coarse meshes robust.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_DENSE_CUTOFF = 260
# weight of the seeded random part of a warm start vector: a start confined to
# a few eigenspaces can make ARPACK miss smaller eigenvalues, while 1e-2
# already costs most of the saved operator applies
_START_NOISE = 1e-6


class EigensolverError(RuntimeError):
    """Factorization breakdown or non-convergence."""


@dataclass
class EigenCluster:
    """A group of discrete eigenpairs approximating one exact eigenvalue.

    vectors hold one b-orthonormal column per member, in the order of values.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def q(self):
        return len(self.values)


def _fix_signs(vectors):
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def m_orthonormalize(vectors, M):
    """Cholesky QR in the M inner product, two passes.

    Each pass factors the Gram matrix V^T M V = R^T R and replaces V by
    V R^-1; the second pass removes what the first left of round-off.  The
    columns keep their order and span: column j spans what the first j
    input columns span.
    """
    V = np.array(vectors, float, copy=True)
    for _ in range(2):
        try:
            R = sla.cholesky(V.T @ (M @ V), lower=False)
        except (sla.LinAlgError, ValueError) as exc:
            raise EigensolverError(
                "breakdown while b-orthonormalizing eigenvectors") from exc
        V = sla.solve_triangular(R, V.T, trans="T", lower=False).T
    return V


def _factor(A):
    """SuperLU factor of the symmetric sparse matrix A with diagonal pivots.

    A symmetric matrix's CSR arrays, read as CSC, are the matrix itself, so a
    CSR matrix reaches SuperLU with no conversion.

    A minimum-degree ordering of A + A^T with diagonal pivots fills 30-60 %
    of what the default unsymmetric LU does on K.  relax=1 turns off
    SuperLU's relaxed supernodes: on the final square-p2 matrix (n = 28k, one
    BLAS thread) the factor took 0.58 s with them and 0.12 s without, with
    L+U nonzero counts 14 apart, and 33 solves took 0.30 s against 0.14 s.
    panel_size=10 instead of the default 20 cut the 18 factors of that run
    from 0.46 to 0.42 s (median of 7).
    """
    try:
        return spla.splu(A.tocsr().T, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, relax=1, panel_size=10,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise EigensolverError(f"factorization failed: {exc}") from exc


def _negative_pivots(lu):
    """The number of negative eigenvalues of the factored symmetric matrix,
    or None when the factor cannot tell.

    With one permutation on both sides, P^T A P = L U and U = D L^T, so by
    Sylvester's law of inertia the negative entries of U's diagonal count
    the negative eigenvalues of A.  For A = K - sigma*M that is the number
    of eigenvalues of the pencil below sigma.  Reading `lu.U` makes CSC
    copies of L and U, so call it once the factor's solves are done.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _shifted(K, M, sigma):
    """K - sigma*M, as a CSR matrix at sigma != 0.

    The assembly gives K and M one CSR pattern, explicit zeros kept, so the
    difference is one data array on K's pattern, with no sparse subtraction.
    """
    if sigma == 0.0:
        return K
    K, M = K.tocsr(), M.tocsr()
    if np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices):
        return sp.csr_matrix((K.data - sigma * M.data, K.indices, K.indptr), shape=K.shape)
    return K - sigma * M


def _shift_invert(K, M, nev, tol, v0, ncv, sigma):
    """ARPACK on (K - sigma*M)^-1 M: the nev eigenpairs nearest sigma, and,
    at sigma != 0, the factor's count of eigenvalues below sigma."""
    # built here, so that K - sigma*M is freed before the factor grows
    lu = _factor(_shifted(K, M, sigma))
    op_inv = spla.LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    try:
        vals, vecs = spla.eigsh(K, k=nev, M=M, sigma=sigma, which="LM",
                                v0=v0, ncv=ncv, tol=tol, maxiter=5000,
                                OPinv=op_inv)
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"Lanczos did not converge: {exc}") from exc
    except spla.ArpackError as exc:
        raise EigensolverError(f"Lanczos failed: {exc}") from exc
    return vals, vecs, None if sigma == 0.0 else _negative_pivots(lu)


def _checked(K, M, vals, vecs, tol):
    """The pairs in ascending order, M-orthonormal with fixed signs, once
    every residual is within the tolerance budget."""
    order = np.argsort(vals, kind="stable")
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(vecs[:, order])
    vecs = _fix_signs(m_orthonormalize(vecs, M))

    resid = residual_norms(K, M, vals, vecs)
    bound = max(tol, 1e-12) * np.maximum(1.0, np.abs(vals))
    if np.any(resid > 100 * bound):
        raise EigensolverError(
            f"eigenpair residual {resid.max():.3e} exceeds tolerance budget")
    return vals, vecs


def solve_smallest(K, M, nev, tol=1e-10, seed=2357, start=None, pole=0.0):
    """Return the `nev` smallest eigenpairs as (values, vectors).

    values are ascending; vectors are M-orthonormal columns with a
    deterministic sign convention.  `tol` bounds the relative eigenvalue
    accuracy; residuals are verified after the solve.  On the Lanczos path
    the start vector is a normal vector drawn from `seed`; a `start` vector,
    such as the sum of a coarser mesh's eigenvectors, replaces it but for a
    small part of the random one.

    A warm solve, one with a `start`, builds a Krylov space of 2*nev + 1
    vectors; a cold one builds max(4*nev + 1, 25).  When the nev-th value is
    one member of a pair split by round-off-scale amounts (a request that cuts
    a multiplet), either member may come back as the last value, and the two
    space sizes need not pick the same one; the values before the pair do not
    move beyond `tol`.

    A nonzero `pole` sigma makes the Lanczos path factor K - sigma*M and
    return the nev eigenpairs nearest sigma.  They are the nev smallest when
    the factor's `_negative_pivots` equal the number of them below sigma: then
    every eigenvalue below sigma came back, and the rest are the nearest ones
    above it.  When the factor or Lanczos fails, the count differs or a
    residual is too large, the solve runs again at sigma = 0.  The dense path
    ignores the pole.
    """
    n = K.shape[0]
    if K.shape != M.shape or K.shape[0] != K.shape[1]:
        raise ValueError("K and M must be square matrices of equal size")
    if not 1 <= nev <= n:
        raise ValueError(f"nev={nev} out of range for dimension {n}")
    if start is not None and np.shape(start) != (n,):
        raise ValueError(f"start must have shape ({n},)")
    if not np.isfinite(pole):
        raise ValueError(f"pole must be a finite number, got {pole!r}")

    if n <= _DENSE_CUTOFF or nev > n - 2:
        try:
            vals, vecs = sla.eigh(K.toarray(), M.toarray(),
                                  subset_by_index=[0, nev - 1])
        except sla.LinAlgError as exc:  # pragma: no cover - pathological input
            raise EigensolverError(f"dense eigensolver failed: {exc}") from exc
        return _checked(K, M, vals, vecs, tol)

    v0 = np.random.default_rng(seed).standard_normal(n)
    if start is not None:
        start = np.asarray(start, float)
        v0 = (start / np.linalg.norm(start)
              + _START_NOISE * v0 / np.linalg.norm(v0))
    # a start prolongated from the nested coarser mesh lies close to the
    # wanted eigenspace, so 2*nev + 1 vectors (the ARPACK guide asks for
    # at least 2*nev) suffice, where 25 make every warm L-shape solve of
    # the benchmark run a whole 26-apply sweep.  Cold solves, the window
    # lock's among them, keep the wider space.
    ncv = min(n - 1, 2 * nev + 1 if start is not None else max(4 * nev + 1, 25))
    if pole != 0.0:
        try:
            vals, vecs, below = _shift_invert(K, M, nev, tol, v0, ncv, pole)
            if below == np.count_nonzero(vals < pole):
                return _checked(K, M, vals, vecs, tol)
        except EigensolverError:
            pass       # the pole failed; sigma = 0 below
    vals, vecs, _ = _shift_invert(K, M, nev, tol, v0, ncv, 0.0)
    return _checked(K, M, vals, vecs, tol)


def residual_norms(K, M, vals, vecs):
    """|| K v - lambda M v ||_2 / || M v ||_2 per eigenpair."""
    KV = K @ vecs
    MV = M @ vecs
    num = np.linalg.norm(KV - MV * vals[None, :], axis=0)
    den = np.linalg.norm(MV, axis=0)
    return num / den


def detect_cluster(values, rel_gap_tol=1e-3):
    """Partition ascending values into clusters by relative gap.

    Two consecutive values stay in one cluster when
    (v[i+1] - v[i]) / v[i+1] < rel_gap_tol.  Returns a list of index lists.
    """
    values = np.asarray(values, float)
    if values.size == 0:
        return []
    if np.any(np.diff(values) < -1e-12 * np.maximum(1.0, np.abs(values[:-1]))):
        raise ValueError("values must be ascending")
    clusters = [[0]]
    for i in range(1, values.size):
        gap = (values[i] - values[i - 1]) / values[i] if values[i] != 0 else 0.0
        if gap < rel_gap_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters
