import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from afemeig import (AfemConfig, Coefficients, assemble_mass, assemble_stiffness,
                     build_space, dorfler_mark, eigen_indicators, run_afem,
                     solve_smallest)
from afemeig.eigsolve import EigenCluster
from afemeig.estimator import _indicators
from afemeig.fem import assemble_load, shape_gradients, shape_hessians, shape_values
from afemeig.quadrature import triangle_rule

from conftest import perturbed, square_mesh, two_region_square
from oracles import (calibrate_oscillation_constant, diameters, edge_jump_total,
                     gauss_legendre, oscillation_lipschitz_check, validate_mesh)


def _a_times(coeffs, region, g):
    """A grad u on an element with region tag `region`."""
    if isinstance(coeffs.a, dict):
        return g @ np.asarray(coeffs.a[region], float).T
    return coeffs.a * g


def _l2_residue(phi, wts, values):
    """values minus their weighted least-squares fit by the rows of phi."""
    sw = np.sqrt(wts)
    coef = np.linalg.lstsq((phi * sw).T, values * sw, rcond=None)[0]
    return values - coef @ phi


def _loop_oracle(space, coeffs, vectors, lams=None, sources=None):
    """Straightforward per-element / per-edge re-implementation: (eta2, osc2).

    The oscillation projects R_T onto P_{k-1}(T) (monomials in physical
    coordinates about the first vertex) and J_E onto P_k(E), both by
    quadrature; the edge part is round-off for elementwise-constant A.
    """
    mesh = space.mesh
    k = space.degree
    pts, wts = triangle_rule(2 * k + 2)
    t1d, w1d = gauss_legendre(k + 2)
    v0, B, det, Binv = space.geometry()
    h = diameters(mesh)
    eta2 = np.zeros(mesh.n_elements)
    osc2 = np.zeros(mesh.n_elements)
    vectors = np.atleast_2d(vectors.T).T
    for m in range(vectors.shape[1]):
        coef = vectors[:, m]
        for e in range(mesh.n_elements):
            local = coef[space.element_dofs[e]]
            xq = v0[e] + pts @ B[e].T
            uq = local @ shape_values(k, pts)
            hess = np.einsum("b,bij->ij", local, shape_hessians(k))
            hess = Binv[e].T @ hess @ Binv[e]
            if isinstance(coeffs.a, dict):      # A:H
                div_term = np.sum(np.asarray(coeffs.a[mesh.region[e]], float) * hess)
            else:
                div_term = coeffs.a * np.trace(hess)
            cq = coeffs.c_at(xq) if callable(coeffs.c) else coeffs.c
            r0 = lams[m] * uq if sources is None else sources[m](xq)
            R = r0 + div_term - cq * uq
            eta2[e] += h[e] ** 2 * det[e] * np.sum(wts * R ** 2)
            dx, dy = (xq - v0[e]).T
            phi = np.array([dx ** a * dy ** b for a in range(k) for b in range(k - a)])
            osc2[e] += h[e] ** 2 * det[e] * np.sum(wts * _l2_residue(phi, wts, R) ** 2)
    edges, _, owners, _ = mesh.edge_table()
    for eid in range(edges.shape[0]):
        ta, tb = owners[eid]
        if tb < 0:
            continue
        a_v, b_v = mesh.vertices[edges[eid, 0]], mesh.vertices[edges[eid, 1]]
        tang = b_v - a_v
        length = np.linalg.norm(tang)
        nu = np.array([tang[1], -tang[0]]) / length
        xq = a_v + np.outer(t1d, tang)
        phi = np.array([t1d ** p for p in range(k + 1)])
        jump2 = osc = 0.0
        for m in range(vectors.shape[1]):
            coef = vectors[:, m]
            grads = []
            for t in (ta, tb):
                local = coef[space.element_dofs[t]]
                xi = (xq - v0[t]) @ Binv[t].T
                g = np.einsum("b,bqi->qi", local, shape_gradients(k, xi))
                grads.append(_a_times(coeffs, mesh.region[t], g @ Binv[t]))
            J = (grads[0] - grads[1]) @ nu
            jump2 += length * np.sum(w1d * J ** 2)
            osc += length * np.sum(w1d * _l2_residue(phi, w1d, J) ** 2)
        for t in (ta, tb):
            eta2[t] += length * jump2
            osc2[t] += length * osc
    return eta2, osc2


@pytest.fixture(scope="module")
def small_cluster():
    space = build_space(square_mesh(4), 1)
    co = Coefficients()
    K = assemble_stiffness(space, co)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 3)
    V = np.column_stack([space.expand(vecs[:, 1]), space.expand(vecs[:, 2])])
    return space, co, EigenCluster(vals[1:3], V)


def test_vectorized_indicators_match_loop_oracle(small_cluster):
    space, co, cluster = small_cluster
    ind = eigen_indicators(space, co, cluster)
    eta2, _ = _loop_oracle(space, co, cluster.vectors, lams=cluster.values)
    assert np.allclose(ind.eta2, eta2, rtol=1e-12, atol=1e-14)


def test_p2_indicators_match_loop_oracle():
    space = build_space(square_mesh(3), 2)
    co = Coefficients()
    K = assemble_stiffness(space, co)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 2)
    V = space.expand(vecs[:, 0])[:, None]
    ind = _indicators(space, co, V, lams=[vals[0]])
    eta2, _ = _loop_oracle(space, co, V, lams=[vals[0]])
    assert np.allclose(ind.eta2, eta2, rtol=1e-12, atol=1e-14)


def _c_sq(p):
    return p[:, 0] ** 2 + p[:, 1] ** 2


_COEFF_CASES = {
    "A-table": Coefficients(a={0: [[2.0, 0.5], [0.5, 1.0]], 1: [[1.0, -0.3], [-0.3, 3.0]]},
                            c=_c_sq),
}


@pytest.mark.parametrize("case", list(_COEFF_CASES))
@pytest.mark.parametrize("degree", [1, 2])
def test_indicators_match_loop_oracle_with_coefficients(degree, case):
    # on the uniform mesh and on a perturbed one, whose Jacobians have no
    # symmetry that could hide a transposed metric or flux map
    co = _COEFF_CASES[case]
    base = two_region_square(4 if degree == 1 else 3)
    for mesh in (base, perturbed(base)):
        validate_mesh(mesh)
        space = build_space(mesh, degree)
        rng = np.random.default_rng(3)
        V = rng.standard_normal((space.ndofs, 2))
        V[space.dirichlet_dofs] = 0.0
        lams = [20.0, 50.0]
        ind = _indicators(space, co, V, lams=lams)
        eta2, osc2 = _loop_oracle(space, co, V, lams=lams)
        np.testing.assert_allclose(ind.eta2, eta2, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(ind.osc2, osc2, rtol=1e-12, atol=1e-14)


def test_linear_interpolant_has_zero_indicator():
    space = build_space(square_mesh(3), 1)
    co = Coefficients()
    p = space.dof_coords
    lin = 3.0 * p[:, 0] - 2.0 * p[:, 1] + 0.5
    ind = _indicators(space, co, lin[:, None], lams=[0.0])
    assert ind.total_eta2 == 0.0
    assert ind.total_osc2 == 0.0


def test_interior_residual_is_lambda_u_for_p1(small_cluster):
    # with A = I, c = 0, P1: div(A grad u) vanishes so eta2(lam) - eta2(0)
    # must equal lam^2 h_T^2 int u^2 exactly
    space, co, cluster = small_cluster
    u = cluster.vectors[:, 0]
    lam = cluster.values[0]
    with_lam = _indicators(space, co, u[:, None], lams=[lam])
    without = _indicators(space, co, u[:, None], lams=[0.0])
    pts, wts = triangle_rule(4)
    _, _, det, _ = space.geometry()
    uq = np.einsum("eb,bq->eq", u[space.element_dofs], shape_values(1, pts))
    expected = lam ** 2 * diameters(space.mesh) ** 2 * det * np.einsum(
        "eq,q->e", uq ** 2, wts)
    assert np.allclose(with_lam.eta2 - without.eta2, expected, rtol=1e-12)


def test_oscillation_below_indicator(small_cluster):
    space, co, cluster = small_cluster
    ind = eigen_indicators(space, co, cluster)
    assert np.all(ind.osc2 <= ind.eta2 * (1 + 1e-12) + 1e-18)
    assert ind.total_eta2 == pytest.approx(np.sum(ind.eta2), rel=1e-12)


def test_edge_double_counting(small_cluster):
    # summing jump terms over elements counts each interior edge twice; on
    # this uniform mesh the eigenfunction's jumps also match with the sign of
    # one side flipped, so a random field checks the jump itself
    space, co, cluster = small_cluster
    random = space.expand(np.random.default_rng(4).standard_normal(space.n_free))
    for u in (cluster.vectors[:, 0], random):
        jumps_only = _indicators(space, co, u[:, None], lams=[0.0])  # P1, c=0
        once = edge_jump_total(space, co, u)
        assert jumps_only.total_eta2 == pytest.approx(2.0 * once, rel=1e-12)


def test_source_indicators_zero_for_zero_data():
    space = build_space(square_mesh(3), 1)
    co = Coefficients()
    zero = np.zeros((space.ndofs, 1))
    ind = _indicators(space, co, zero, sources=[lambda p: np.zeros(p.shape[0])])
    assert ind.total_eta2 == 0.0


def test_source_indicators_duplication_doubles():
    space = build_space(square_mesh(4), 1)
    co = Coefficients()
    f = lambda p: np.sin(math.pi * p[:, 0]) * p[:, 1]
    K = assemble_stiffness(space, co)
    u = space.expand(spla.spsolve(K.tocsc(), assemble_load(space, f)))
    one = _indicators(space, co, u[:, None], sources=[f])
    two = _indicators(space, co, np.column_stack([u, u]), sources=[f, f])
    assert np.allclose(two.eta2, 2.0 * one.eta2, rtol=1e-13)
    eta2, _ = _loop_oracle(space, co, u[:, None], sources=[f])
    assert np.allclose(one.eta2, eta2, rtol=1e-12, atol=1e-14)


def test_mismatched_inputs_rejected(small_cluster):
    space, co, cluster = small_cluster
    with pytest.raises(ValueError):
        _indicators(space, co, cluster.vectors, sources=[lambda p: p[:, 0]])
    other = build_space(square_mesh(2), 1)
    with pytest.raises(ValueError):
        eigen_indicators(other, co, cluster)


def test_total_eta2_decreases_along_afem():
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, cluster_index=1,
                     multiplicity=1, max_dof=4000, compute_gap=False)
    tr = run_afem(cfg)
    eta2 = tr.series("eta2")
    assert len(eta2) >= 11
    assert np.all(np.diff(eta2) < 0)


# -- oscillation Lipschitz harness -----------------------------------------


@pytest.fixture(scope="module")
def lipschitz_setup():
    space = build_space(square_mesh(3), 1)
    co = Coefficients(a=1.0, c=1.0)
    c_est = calibrate_oscillation_constant(space, co, n_fields=100, seed=0)
    return space, co, c_est


def test_lipschitz_equal_fields(lipschitz_setup):
    space, co, c_est = lipschitz_setup
    rng = np.random.default_rng(4)
    V = rng.standard_normal((space.ndofs, 2))
    slack = oscillation_lipschitz_check(space, co, V, V.copy(), c_est)
    assert np.allclose(slack, 0.0, atol=1e-12)


def test_lipschitz_fresh_fields_bounded(lipschitz_setup):
    # calibrated on 100 random fields; verify on 100 fresh ones with W = 0
    space, co, c_est = lipschitz_setup
    rng = np.random.default_rng(99)
    for _ in range(100):
        V = rng.standard_normal((space.ndofs, 1))
        V[space.dirichlet_dofs] = 0.0
        slack = oscillation_lipschitz_check(space, co, V, np.zeros_like(V), c_est)
        assert np.all(slack <= 1e-12)


def test_lipschitz_positive_homogeneity(lipschitz_setup):
    space, co, c_est = lipschitz_setup
    rng = np.random.default_rng(12)
    V = rng.standard_normal((space.ndofs, 1))
    W = rng.standard_normal((space.ndofs, 1))
    s1 = oscillation_lipschitz_check(space, co, V, W, c_est)
    s3 = oscillation_lipschitz_check(space, co, 3.0 * V, 3.0 * W, c_est)
    assert np.allclose(s3, 3.0 * s1, rtol=1e-10, atol=1e-12)


# -- cluster-basis equivalence (the indicator is span-stable) ---------------


def _random_rotation(rng):
    th = rng.uniform(0, 2 * math.pi)
    s, c = math.sin(th), math.cos(th)
    flip = rng.choice([1.0, -1.0])
    return np.array([[c, -s * flip], [s, c * flip]])


def test_recombination_equivalence_per_element(small_cluster):
    space, co, cluster = small_cluster
    base = eigen_indicators(space, co, cluster)
    rng = np.random.default_rng(17)
    q = cluster.q
    mask = base.eta2 > 1e-12 * base.eta2.mean()
    for _ in range(20):
        rec = EigenCluster(cluster.values, cluster.vectors @ _random_rotation(rng))
        other = eigen_indicators(space, co, rec)
        ratio = other.eta2[mask] / base.eta2[mask]
        assert ratio.max() <= q + 0.1
        assert ratio.min() >= 1.0 / (q + 0.1)


def test_dorfler_set_transfer_under_recombination(small_cluster):
    space, co, cluster = small_cluster
    theta = 0.5
    base = eigen_indicators(space, co, cluster)
    marked = sorted(dorfler_mark(base, theta).marked)
    rng = np.random.default_rng(23)
    q = cluster.q
    for _ in range(20):
        rec = EigenCluster(cluster.values, cluster.vectors @ _random_rotation(rng))
        other = eigen_indicators(space, co, rec)
        frac = other.eta2[marked].sum() / other.total_eta2
        assert frac >= 0.99 * theta / q ** 2
