import math
import tracemalloc

import numpy as np
import pytest

import afemeig.driver
import afemeig.gap
from afemeig import (AfemConfig, Coefficients, assemble_mass, assemble_stiffness,
                     build_initial, build_space, gap_energy, get_problem, run_afem,
                     run_afem, solve_smallest, square_laplace, uniform_refine)
from afemeig.eigsolve import EigenCluster, m_orthonormalize
from afemeig.gap import ExactEigenspace, GapError, _GapWorkspace, gap_rule

from conftest import square_mesh
from oracles import (brute_force_distance, directed_distance_from_grams,
                     reference_gap, reverse_distance_bound, subdivided_gap_rule)


@pytest.fixture(scope="module")
def cluster2_setup():
    # fine enough that the forward distance drops below 1, where the
    # reverse-distance bound d/(1-d) is meaningful
    prob = square_laplace()
    mesh = square_mesh(9)
    space = build_space(mesh, 1)
    co = prob.coefficients
    K = assemble_stiffness(space, co)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 4)
    V = np.column_stack([space.expand(vecs[:, 1]), space.expand(vecs[:, 2])])
    cluster = EigenCluster(vals[1:3], V)
    return prob, space, co, cluster


def test_planar_toy_distance():
    # identity operators in the plane: exact = e1, discrete = (cos, sin)
    for phi in (0.0, 0.3, 1.2, -0.9, math.pi / 2):
        d = directed_distance_from_grams(
            [[1.0]], [[math.cos(phi)]], [[1.0]], [[1.0]])
        assert d == pytest.approx(abs(math.sin(phi)), abs=1e-14)


def test_distance_zero_when_exact_in_space():
    # linear "eigenfunctions" are reproduced exactly by P1 interpolation
    mesh = square_mesh(2)
    space = build_space(mesh, 1)
    co = Coefficients()
    nrm = math.sqrt(7.0 / 15.0)  # || x + 0.2 ||_{L2(0,1)^2}
    fn = lambda p: np.stack([(p[:, 0] + 0.2) / nrm, np.full(len(p), 1.0 / nrm),
                             np.zeros(len(p))])
    exact = ExactEigenspace(1.0, [fn])
    v = fn(space.dof_coords)[0]
    cluster = EigenCluster(np.array([1.0]), v[:, None])
    assert _GapWorkspace([exact], [cluster], space, co).distances[0][0] <= 1e-10
    # identical spans make the full gap vanish as well
    assert gap_energy([exact], [cluster], space, co)[0] <= 1e-10


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", ["square", "oscillator"])
def test_gap_grams_equal_matrix_grams(name, degree):
    # the gap's degree 2k+4 rule integrates the discrete Grams exactly:
    # A constant, c = 0 on the square and c = |x|^2 on the oscillator
    prob = get_problem(name)
    space = build_space(uniform_refine(prob.initial_mesh(), 2), degree)
    co = prob.coefficients
    rng = np.random.default_rng(degree)
    V = np.column_stack([
        space.dof_coords[:, 0] + 0.2,                   # nonzero Dirichlet entries
        rng.standard_normal(space.ndofs),
        space.expand(rng.standard_normal(space.n_free)),
    ])
    ws = _GapWorkspace([prob.exact_clusters[0]], [EigenCluster(np.ones(3), V)],
                       space, co)
    S = V.T @ (assemble_stiffness(space, co, apply_dirichlet=False) @ V)
    SM = V.T @ (assemble_mass(space, apply_dirichlet=False) @ V)
    assert np.abs(ws.S - S).max() <= 1e-13 * np.abs(S).max()
    assert np.abs(ws.SM - SM).max() <= 1e-13 * np.abs(SM).max()


@pytest.mark.parametrize("subdivision", [1, 2])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", ["square", "oscillator"])
def test_window_gaps_equal_gaps_alone(monkeypatch, name, degree, subdivision):
    # one workspace for every cluster of the window gives each cluster's gap
    # as a workspace of its own would
    monkeypatch.setattr(afemeig.gap, "gap_rule", subdivided_gap_rule(subdivision))
    prob = get_problem(name)
    space = build_space(uniform_refine(prob.initial_mesh(), 3), degree)
    co = prob.coefficients
    exact = prob.exact_clusters
    stops = np.cumsum([e.dim for e in exact])
    vals, vecs = solve_smallest(assemble_stiffness(space, co), assemble_mass(space),
                                int(stops[-1]))
    clusters = [EigenCluster(vals[stop - e.dim:stop],
                             np.column_stack([space.expand(vecs[:, k])
                                              for k in range(stop - e.dim, stop)]))
                for stop, e in zip(stops, exact)]
    window = gap_energy(exact, clusters, space, co)
    alone = [gap_energy([e], [cl], space, co)[0]
             for e, cl in zip(exact, clusters)]
    assert len(window) == len(exact)
    np.testing.assert_allclose(window, alone, rtol=1e-13, atol=0)


def _window_clusters(exact, space, co):
    """The discrete clusters of the window of `exact`, from one solve."""
    stops = np.cumsum([e.dim for e in exact])
    vals, vecs = solve_smallest(assemble_stiffness(space, co), assemble_mass(space),
                                int(stops[-1]))
    return [EigenCluster(vals[stop - e.dim:stop],
                         np.column_stack([space.expand(vecs[:, k])
                                          for k in range(stop - e.dim, stop)]))
            for stop, e in zip(stops, exact)]


def _anisotropic_square():
    # two material regions with a full, different A on each: the square's
    # sines are no eigenfunctions of it, but their gap is still defined
    prob = square_laplace()
    mesh = build_initial(prob.vertices, prob.triangles, region=[0, 1])
    co = Coefficients(a={0: [[2.0, 0.5], [0.5, 1.0]], 1: [[1.0, -0.3], [-0.3, 0.5]]},
                      c=lambda p: 1.0 + p[:, 0] * p[:, 1])
    return prob.exact_clusters, mesh, co


@pytest.mark.parametrize("subdivision", [0, 1, 2])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", ["square", "oscillator", "anisotropic"])
def test_blocked_gaps_equal_whole_mesh_gaps(monkeypatch, name, degree, subdivision):
    # a block of one element, of seven, and one block for the whole mesh all
    # give the gaps and Grams of the whole-mesh workspace, to rounding
    if name == "anisotropic":
        exact, mesh, co = _anisotropic_square()
    else:
        prob = get_problem(name)
        exact, mesh, co = prob.exact_clusters, prob.initial_mesh(), prob.coefficients
    space = build_space(uniform_refine(mesh, 5), degree)
    clusters = _window_clusters(exact, space, co)
    monkeypatch.setattr(afemeig.gap, "gap_rule", subdivided_gap_rule(subdivision))
    rule = afemeig.gap.gap_rule(space)
    gaps, grams = reference_gap(exact, clusters, space, co, rule)
    nq = rule.wts.size
    for elements in (1, 7, space.mesh.n_elements + 1):
        monkeypatch.setattr(afemeig.gap, "BLOCK_POINTS", elements * nq)
        np.testing.assert_allclose(gap_energy(exact, clusters, space, co),
                                   gaps, rtol=1e-12, atol=0)
        ws = _GapWorkspace(exact, clusters, space, co)
        for key, ref in grams.items():
            assert np.abs(getattr(ws, key) - ref).max() <= 1e-12 * np.abs(ref).max(), key


def test_gap_memory_does_not_grow_with_the_mesh():
    # the peak of one call on meshes of 16k and 65k elements: the workspace
    # holds one block's fields, so only the cluster vectors grow with the mesh
    prob = get_problem("oscillator")
    exact = prob.exact_clusters[:2]
    mesh = uniform_refine(prob.initial_mesh(), 12)
    rng = np.random.default_rng(3)
    peaks, sizes = [], []
    for _ in range(2):
        space = build_space(mesh, 1)
        W = m_orthonormalize(rng.standard_normal((space.n_free, 3)), assemble_mass(space))
        clusters = [EigenCluster(np.ones(1), space.expand(W[:, 0])[:, None]),
                    EigenCluster(np.ones(2), np.column_stack([space.expand(W[:, 1]),
                                                              space.expand(W[:, 2])]))]
        tracemalloc.start()
        try:
            gap_energy(exact, clusters, space, prob.coefficients)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(mesh.n_elements)
        mesh = uniform_refine(mesh, 2)
    assert sizes[1] == 4 * sizes[0] >= 16_000
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_exact_members_evaluated_twice_per_point(monkeypatch):
    # every exact member of the window is evaluated on every quadrature point
    # of a row exactly twice, value and gradient together: once for the Grams
    # and once for the residuals; members outside the window are never called
    points = {}

    def counted(key, fn):
        def call(p):
            points[key] += len(p)
            return fn(p)
        points[key] = 0
        return call

    def problem(name):
        prob = get_problem(name)
        prob.exact_clusters = [
            ExactEigenspace(e.value, [counted((ci, j), f) for j, f in enumerate(e.basis)])
            for ci, e in enumerate(prob.exact_clusters)]
        return prob

    monkeypatch.setattr(afemeig.driver, "get_problem", problem)
    tr = run_afem(AfemConfig(problem="oscillator", degree=1, first_n=3, max_dof=1500))
    assert len(tr) >= 3
    nq = gap_rule(build_space(get_problem("oscillator").initial_mesh(), 1)).wts.size
    window = {key: n for key, n in points.items() if key[0] < 2}
    assert len(window) == 3   # clusters 1 and 2: three members
    assert set(window.values()) == {2 * nq * sum(tr.n_elements)}
    assert all(n == 0 for key, n in points.items() if key[0] >= 2)


@pytest.mark.parametrize("rows", [
    lambda out: out[0], lambda out: out.T, lambda out: out[:2], lambda out: out[:, :-1],
], ids=["value-only", "point-major", "no-y-derivative", "one-point-short"])
def test_member_of_wrong_shape_rejected(cluster2_setup, rows):
    # a member must return the (3, m) rows of value, d/dx and d/dy; any other
    # shape, even one with 3 m numbers, names the member
    prob, space, co, cluster = cluster2_setup
    good, other = prob.exact_clusters[1].basis
    exact = ExactEigenspace(prob.exact_clusters[1].value,
                            [good, lambda p: rows(other(p))])
    with pytest.raises(GapError, match=r"exact\[0\]\.basis\[1\] returned shape"):
        _GapWorkspace([exact], [cluster], space, co)


def test_brute_force_bounds_directed(cluster2_setup):
    prob, space, co, cluster = cluster2_setup
    exact = prob.exact_clusters[1]
    d = _GapWorkspace([exact], [cluster], space, co).distances[0][0]
    bf = brute_force_distance(exact, cluster, space, co, 100_000)
    assert bf <= d + 1e-12
    assert bf == pytest.approx(d, rel=1e-3)


def test_brute_force_exact_for_q1(cluster2_setup):
    prob, space, co, _ = cluster2_setup
    K = assemble_stiffness(space, co)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 1)
    cl1 = EigenCluster(vals[:1], space.expand(vecs[:, 0])[:, None])
    exact = prob.exact_clusters[0]
    d = _GapWorkspace([exact], [cl1], space, co).distances[0][0]
    bf = brute_force_distance(exact, cl1, space, co, 1000)
    assert bf == pytest.approx(d, rel=1e-12)


def test_brute_force_sample_floor():
    with pytest.raises(ValueError):
        brute_force_distance(None, None, None, None, n_samples=10)


def test_gap_is_max_of_directions(cluster2_setup):
    prob, space, co, cluster = cluster2_setup
    exact = prob.exact_clusters[1]
    ws = _GapWorkspace([exact], [cluster], space, co)
    fwd, rev = ws.distances[0]
    delta = gap_energy([exact], [cluster], space, co)[0]
    assert delta == max(fwd, rev)
    # d(Y, X) <= d(X, Y) / (1 - d(X, Y)) for equal dimensions and d < 1
    assert fwd < 1.0
    assert rev <= reverse_distance_bound(fwd) + 1e-8


def test_gap_invariant_under_recombination(cluster2_setup):
    prob, space, co, cluster = cluster2_setup
    exact = prob.exact_clusters[1]
    delta = gap_energy([exact], [cluster], space, co)[0]
    rng = np.random.default_rng(5)
    for _ in range(5):
        th = rng.uniform(0, 2 * math.pi)
        Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        delta2 = gap_energy([exact], [EigenCluster(cluster.values, cluster.vectors @ Q)],
                            space, co)[0]
        assert delta2 == pytest.approx(delta, abs=1e-10)


def test_dimension_mismatch_rejected(cluster2_setup):
    prob, space, co, cluster = cluster2_setup
    with pytest.raises(GapError):
        gap_energy([prob.exact_clusters[0]], [cluster], space, co)


def test_quadrature_subdivision_converged(cluster2_setup, monkeypatch):
    # doubling the subdivision must not move the measured gap by > 1%
    prob, space, co, cluster = cluster2_setup
    exact = prob.exact_clusters[1]
    monkeypatch.setattr(afemeig.gap, "gap_rule", subdivided_gap_rule(1))
    d1 = gap_energy([exact], [cluster], space, co)[0]
    monkeypatch.setattr(afemeig.gap, "gap_rule", subdivided_gap_rule(2))
    d2 = gap_energy([exact], [cluster], space, co)[0]
    assert d2 == pytest.approx(d1, rel=1e-2)


def test_random_perturbed_instances_agree_with_oracle():
    # randomized q=2 subspaces near the true cluster: oracle agreement and the
    # reverse-distance bound hold on every instance
    prob = square_laplace()
    mesh = square_mesh(5)
    space = build_space(mesh, 1)
    co = prob.coefficients
    K = assemble_stiffness(space, co)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 3)
    exact = prob.exact_clusters[1]
    rng = np.random.default_rng(77)
    for trial in range(10):
        W = vecs[:, 1:3] + 0.1 * rng.standard_normal(vecs[:, 1:3].shape)
        W = m_orthonormalize(W, M)
        V = np.column_stack([space.expand(W[:, 0]), space.expand(W[:, 1])])
        cl = EigenCluster(vals[1:3], V)
        ws = _GapWorkspace([exact], [cl], space, co)
        d = ws.distances[0][0]
        bf = brute_force_distance(exact, cl, space, co, 100_000, seed=trial)
        assert bf == pytest.approx(d, rel=1e-3)
        if d < 1.0:
            assert ws.distances[0][1] <= reverse_distance_bound(d) + 1e-8


def test_gap_monotone_under_refinement():
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, cluster_index=2,
                     multiplicity=2, max_dof=4000)
    tr = run_afem(cfg)
    gaps = np.sqrt(tr.series("gap2"))
    assert len(gaps) >= 11
    assert np.all(np.diff(gaps) <= 1e-8)
