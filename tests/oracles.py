"""Test-only oracles: independent checks that never run in the solve path.

- `monomial_integral`: exact reference-triangle integrals for the quadrature
  tests;
- `evaluate` (with the element search `_locate`): point values and gradients
  of a finite element function;
- `export_matrixmarket`: MatrixMarket dump of an assembled matrix;
- `edge_jump_total`: the edge-jump estimator total with every interior edge
  counted once;
- `brute_force_distance`: a Monte-Carlo lower bound on the directed
  eigenspace distance;
- the oscillation-Lipschitz harness (`calibrate_oscillation_constant`,
  `oscillation_lipschitz_check`, `_patch_h1_norms`).
"""

from math import factorial

import numpy as np
import scipy.sparse as sp

from afemeig.estimator import _edge_terms, source_indicators
from afemeig.fem import shape_gradients, shape_values
from afemeig.gap import _GapWorkspace
from afemeig.quadrature import triangle_rule


def monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


# ---------------------------------------------------------------------------
# point evaluation


def _locate(space, point, start=0, max_steps=None):
    """Element containing `point` via neighbour walk with brute-force fallback
    (the walk can stall on non-convex domains)."""
    mesh = space.mesh
    v0, _, _, Binv = space.geometry()
    nbr = mesh.element_neighbors()
    t = start
    steps = max_steps or (2 * int(np.sqrt(mesh.n_elements)) + 16)
    for _ in range(steps):
        xi = Binv[t] @ (point - v0[t])
        bary = np.array([1.0 - xi[0] - xi[1], xi[0], xi[1]])
        worst = int(np.argmin(bary))
        if bary[worst] >= -1e-12:
            return t
        nxt = nbr[t, worst]
        if nxt < 0:
            break
        t = nxt
    # fallback: vectorized scan
    xi = np.einsum("eij,ej->ei", Binv, point - v0)
    bary = np.stack([1.0 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]], axis=1)
    inside = np.nonzero(np.min(bary, axis=1) >= -1e-10)[0]
    return int(inside[0]) if inside.size else -1


def evaluate(space, coefficient_vector, points):
    """Values and gradients of a FE function at arbitrary points.

    Returns (values, gradients, inside) where points outside the domain are
    flagged False and carry NaNs.
    """
    points = np.atleast_2d(np.asarray(points, float))
    coeffs = np.asarray(coefficient_vector, float)
    v0, _, _, Binv = space.geometry()
    n = points.shape[0]
    values = np.full(n, np.nan)
    grads = np.full((n, 2), np.nan)
    inside = np.zeros(n, dtype=bool)
    t_prev = 0
    for i, p in enumerate(points):
        t = _locate(space, p, start=t_prev)
        if t < 0:
            continue
        t_prev = t
        xi = Binv[t] @ (p - v0[t])
        local = coeffs[space.element_dofs[t]]
        values[i] = local @ shape_values(space.degree, xi)
        gref = shape_gradients(space.degree, xi)        # (nb, 2)
        grads[i] = (local @ gref) @ Binv[t]             # Binv^T applied from the left
        inside[i] = True
    return values, grads, inside


def export_matrixmarket(matrix, path):
    from scipy.io import mmwrite

    mmwrite(path, sp.coo_matrix(matrix))


# ---------------------------------------------------------------------------
# estimator and gap oracles


def edge_jump_total(space, coeffs, vectors):
    """Independent edge-loop total of h_E ||J_E||^2 (each edge counted once)."""
    vectors = np.asarray(vectors, float)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    _, _, eta_edge = _edge_terms(space, coeffs, vectors, space.degree + 2)
    return float(np.sum(eta_edge))


def brute_force_distance(exact, discrete, space, coeffs, n_samples=100_000,
                         seed=0, K_full=None, M_full=None, subdivision=1):
    """Monte-Carlo lower bound on the directed distance.

    Samples b-unit coefficient directions on the exact side and takes the max
    Gram projection error; approaches directed_distance from below as the
    sample count grows, and matches it for one-dimensional spaces.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    ws = _GapWorkspace(exact, discrete, space, coeffs, K_full, M_full, subdivision)
    D = ws.G - ws.P @ np.linalg.solve(ws.S, ws.P.T)
    D = 0.5 * (D + D.T)
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((n_samples, exact.dim))
    scale = np.sqrt(np.einsum("si,ij,sj->s", alpha, ws.B, alpha))
    alpha /= scale[:, None]
    d2 = np.einsum("si,ij,sj->s", alpha, D, alpha)
    return float(np.sqrt(max(np.max(d2), 0.0)))


# ---------------------------------------------------------------------------
# oscillation Lipschitz harness


def _patch_h1_norms(space, coeffs, diff):
    """|| . ||_{1, omega_T} of a vector FE function, per element."""
    pts, wts = triangle_rule(2 * space.degree)
    _, _, det, Binv = space.geometry()
    vals = shape_values(space.degree, pts)
    gref = shape_gradients(space.degree, pts)
    gphys = np.einsum("eji,bqj->ebqi", Binv, gref)
    per_elem = np.zeros(space.mesh.n_elements)
    for m in range(diff.shape[1]):
        local = diff[:, m][space.element_dofs]
        uq = np.einsum("eb,bq->eq", local, vals)
        gq = np.einsum("eb,ebqi->eqi", local, gphys)
        dens = uq ** 2 + np.einsum("eqi,eqi->eq", gq, gq)
        per_elem += det * np.einsum("eq,q->e", dens, wts)
    nbr = space.mesh.element_neighbors()
    patch = per_elem.copy()
    for j in range(3):
        has = nbr[:, j] >= 0
        patch[has] += per_elem[nbr[has, j]]
    return np.sqrt(patch)


def calibrate_oscillation_constant(space, coeffs, n_fields=100, seed=0, margin=1.05):
    """Empirical Lipschitz constant: max of osc(V, T) / ||V||_{1, omega_T}
    over random coefficient fields, inflated by `margin`."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        v = rng.standard_normal((space.ndofs, 1))
        v[space.dirichlet_dofs, :] = 0.0
        osc = np.sqrt(source_indicators(space, coeffs, v,
                                        [lambda p: np.zeros(p.shape[0])]).osc2)
        nrm = _patch_h1_norms(space, coeffs, v)
        mask = nrm > 1e-14
        if np.any(mask):
            worst = max(worst, float(np.max(osc[mask] / nrm[mask])))
    return margin * worst


def oscillation_lipschitz_check(space, coeffs, V, W, c_est=None):
    """Per-element slack of osc(V,T) <= osc(W,T) + C ||V - W||_{1, omega_T}.

    Negative or zero slack means the bound holds on that element.
    """
    V = np.atleast_2d(np.asarray(V, float).T).T
    W = np.atleast_2d(np.asarray(W, float).T).T
    if V.shape != W.shape:
        raise ValueError("V and W must have the same shape")
    if c_est is None:
        c_est = calibrate_oscillation_constant(space, coeffs)
    zeros = [lambda p: np.zeros(p.shape[0])] * V.shape[1]
    osc_v = np.sqrt(source_indicators(space, coeffs, V, zeros).osc2)
    osc_w = np.sqrt(source_indicators(space, coeffs, W, zeros).osc2)
    return osc_v - osc_w - c_est * _patch_h1_norms(space, coeffs, V - W)
