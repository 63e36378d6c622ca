import itertools
import math

import numpy as np
import pytest

from afemeig import (Coefficients, MeshError, assemble_mass, assemble_stiffness, build_space,
                     gap_energy, harmonic_oscillator, refine, square_laplace)
from afemeig.eigsolve import EigenCluster
from afemeig.estimator import _indicators
from afemeig.fem import (_flux_map, _matvec2, energy_error, prolongate, shape_gradients,
                         shape_values)
from afemeig.mesh import build_initial
from afemeig.quadrature import _TRI_RULES, triangle_rule

from conftest import lshape_mesh, perturbed, sine_solution, square_mesh, two_region_square
from oracles import (b_norm, energy_norm, evaluate, export_matrixmarket, galerkin_project,
                     gauss_legendre, monomial_integral, on_polygon, per_point_energy_error,
                     quadrature_matrices, rule_gradients, rule_points,
                     triangle_rule_subdivided)


REF_TRIANGLE = build_initial([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def test_quadrature_rules_exact_for_monomials():
    for rule_degree in _TRI_RULES:
        pts, wts = triangle_rule(rule_degree)
        for a in range(rule_degree + 1):
            for b in range(rule_degree + 1 - a):
                val = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
                assert val == pytest.approx(monomial_integral(a, b), abs=1e-15)


def test_space_rule_is_the_tabulated_rule():
    # every element rule of the package has the tabulated points and weights,
    # bit for bit, and so has the subdivision oracle with no round
    space = build_space(square_mesh(2), 1)
    for rule_degree in _TRI_RULES:
        pts, wts = triangle_rule(rule_degree)
        for rule in (space.rule(rule_degree), triangle_rule_subdivided(space, rule_degree, 0)):
            for got, want in ((rule.pts, pts), (rule.wts, wts)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("degree", [0, 1, 3, 5, 9])
def test_untabulated_rule_degree_rejected(degree):
    with pytest.raises(ValueError, match="no triangle rule of degree"):
        triangle_rule(degree)


def test_subdivided_rule_matches_plain_on_polynomials():
    rule = triangle_rule_subdivided(build_space(REF_TRIANGLE, 1), 4, 2)
    pts, wts = rule.pts, rule.wts
    assert wts.sum() == pytest.approx(0.5)
    assert np.sum(wts * pts[:, 0] ** 2 * pts[:, 1] ** 2) == pytest.approx(
        monomial_integral(2, 2), abs=1e-15)


def test_interval_rule_exactness():
    t, w = gauss_legendre(3)
    for p in range(6):
        assert np.sum(w * t ** p) == pytest.approx(1.0 / (p + 1), abs=1e-14)


def test_rule_p1_gradients_are_barycentric():
    # grad lambda_i = rot90(v_k - v_j) / (2 |T|) for (i, j, k) cyclic, with
    # the signed area; the mesh mixes element sizes and orientations
    mesh = refine(lshape_mesh(1), {0, 5, 9}).mesh
    space = build_space(mesh, 1)
    rule = space.rule(2)
    fields = rule.fields_on(slice(None), np.eye(space.ndofs))   # (3, ndofs, nq, ne)
    v = mesh.vertices[mesh.elements]                             # (ne, 3, 2)
    area2 = ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
             - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1]))
    for i in range(3):
        edge = v[:, (i + 2) % 3] - v[:, (i + 1) % 3]
        expected = np.stack([-edge[:, 1], edge[:, 0]], axis=1) / area2[:, None]
        got = fields[1:, mesh.elements[:, i], :, np.arange(mesh.n_elements)]   # (ne, 2, nq)
        assert np.abs(got - expected[:, :, None]).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("mesh, area", [(square_mesh(3), 1.0), (lshape_mesh(2), 3.0)])
def test_rule_weights_sum_to_domain_area(mesh, area):
    for degree in (1, 2):
        rule = triangle_rule_subdivided(build_space(mesh, degree), 4, 1)
        assert np.sum(rule.wts) * rule.det.sum() == pytest.approx(area, rel=1e-14)
        # one subdivision: the base rule on each of four sub-triangles
        assert rule.points_on(slice(None)).shape == (2, 4 * triangle_rule(4)[1].size,
                                                     mesh.n_elements)


def test_block_points_equal_rule_points():
    # the points of any block of elements are the per-point map v0 + B x of
    # the whole mesh, bit for bit
    mesh = refine(lshape_mesh(1), {0, 5, 9}).mesh
    rule = triangle_rule_subdivided(build_space(mesh, 2), 6, 1)
    for blk in (slice(0, 1), slice(3, 10), slice(0, mesh.n_elements + 5)):
        xy = rule.points_on(blk)
        assert np.array_equal(xy.transpose(2, 1, 0), rule_points(rule)[blk])


@pytest.mark.parametrize("degree", [1, 2])
def test_fields_on_a_block_equals_the_whole_mesh_call(degree):
    # the fields of a block of two or more elements are those of the
    # whole-mesh call bit for bit, also when written into a slice of a larger
    # array, and they are the per-point einsum of the physical gradients.  A
    # one-element block agrees to rounding only: OpenBLAS hands a matrix
    # product with one row or column to its matrix-vector kernel, which sums
    # in another order.
    mesh = perturbed(two_region_square(3))
    ne = mesh.n_elements
    space = build_space(mesh, degree)
    rule = triangle_rule_subdivided(space, 2 * degree + 2, 1)
    V = np.random.default_rng(degree).standard_normal((space.ndofs, 3))
    whole = rule.fields_on(slice(None), V)
    assert whole.shape == (3, 3, rule.wts.size, ne)
    for blk in (slice(0, 2), slice(3, 10), slice(ne - 2, ne + 5), slice(5, ne + 5)):
        np.testing.assert_array_equal(rule.fields_on(blk, V), whole[..., blk])
        Z = np.full((3, 5) + whole[..., blk].shape[2:], np.nan)
        rule.fields_on(blk, V, out=Z[:, 2:])
        np.testing.assert_array_equal(Z[:, 2:], whole[..., blk])
    for e in (0, ne - 1):
        one = rule.fields_on(slice(e, e + 1), V)
        assert np.abs(one - whole[..., e:e + 1]).max() <= 1e-15 * np.abs(whole).max()
    local = V[space.element_dofs]                               # (ne, nb, k)
    want = np.concatenate([np.einsum("ebk,bq->kqe", local, rule.vals)[None],
                           np.einsum("ebk,ebqi->ikqe", local, rule_gradients(rule))])
    assert np.abs(whole - want).max() <= 1e-13 * np.abs(want).max()


_ENERGY_A = {"scalar": 1.7,
             "A-table": {0: [[2.0, 0.5], [0.5, 1.0]], 1: [[1.0, -0.3], [-0.3, 3.0]]}}
_ENERGY_C = {"constant-c": 2.5, "callable-c": lambda p: 1.0 + p[:, 0] ** 2 + p[:, 0] * p[:, 1]}


@pytest.mark.parametrize("mesh", ["uniform", "perturbed"])
@pytest.mark.parametrize("c", list(_ENERGY_C))
@pytest.mark.parametrize("a", list(_ENERGY_A))
@pytest.mark.parametrize("degree", [1, 2])
def test_energy_error_matches_the_per_point_einsum(degree, a, c, mesh):
    # the a-norm of a closed form minus the fields of a discrete function
    # equals the einsum over whole-mesh arrays of points and gradients
    coeffs = Coefficients(a=_ENERGY_A[a], c=_ENERGY_C[c])
    base = two_region_square(3)
    space = build_space(base if mesh == "uniform" else perturbed(base), degree)
    vec = sine_solution(space.dof_coords)[0]
    vec += 0.05 * np.random.default_rng(degree).standard_normal(space.ndofs)
    got = energy_error(space, coeffs, vec, sine_solution)
    assert got == pytest.approx(per_point_energy_error(space, coeffs, vec, sine_solution),
                                rel=1e-12)


# The 2x2 maps of the package, each as the einsum it computes, and five
# more broadcast forms, two of them the whole-mesh physical points and shape
# gradients of `oracles.rule_points` and `oracles.rule_gradients`.  Each
# case gives the operands at the shapes of its call site and the broadcast
# form of the matrix that _matvec2 takes.  ``gv``
# is made as the estimator makes its reference vertex gradients, and ``gm``
# by an einsum whose output is not C-ordered.
_MATVEC2_CASES = {
    "eij,qj->eqi": lambda d: (d["B"], d["pts"], d["B"][:, None]),
    "eji,bqj->ebqi": lambda d: (d["Binv"], d["gref"], d["BinvT"][:, None, None]),
    "nij,nj->ni": lambda d: (d["Binv"], d["rel"], d["Binv"]),                   # prolongate
    "eij,ekj->eki": lambda d: (d["A"], d["Binv"], d["A"][:, None]),             # flux map
    "eij,mevj->mevi": lambda d: (d["F"], d["gv"], d["F"][:, None]),             # vertex fluxes
    "eij,meqj->meqi": lambda d: (d["A"], d["gm"], d["A"][:, None]),
    "eij,ebqj->ebqi": lambda d: (d["A"], d["grads"], d["A"][:, None, None]),
    "eji,bvj->ebvi": lambda d: (d["Binv"], d["gref_vert"], d["BinvT"][:, None, None]),
}


@pytest.mark.parametrize("subscripts", list(_MATVEC2_CASES))
def test_matvec2_equals_einsum(subscripts):
    # _matvec2 computes every entry as the einsum does, bit for bit, and its
    # output keeps the layout of v when it has v's shape, as ``a * v`` would
    mesh = lshape_mesh(8)
    mesh = refine(mesh, range(0, mesh.n_elements, 3)).mesh
    rng = np.random.default_rng(8)
    ne = mesh.n_elements
    A = rng.standard_normal((ne, 2, 2))
    A = A @ A.transpose(0, 2, 1) + np.eye(2)
    for degree in (1, 2):
        space = build_space(mesh, degree)
        _, B, _, Binv = space.geometry()
        gref_vert = shape_gradients(degree, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        local = rng.standard_normal((ne, gref_vert.shape[0], 2))
        gv = (local.transpose(2, 0, 1) @ gref_vert.reshape(-1, 6)).reshape(2, ne, 3, 2)
        for rule in ((4, 0), (6, 0), (4, 1)):   # 6, 12 and 24 points
            pts = triangle_rule_subdivided(space, *rule).pts
            gref = shape_gradients(degree, pts)
            grads = np.einsum("eji,bqj->ebqi", Binv, gref)
            gm = np.einsum("ebl,ebqi->leqi", local, grads)
            assert not gm.flags.c_contiguous
            data = dict(B=B, Binv=Binv, BinvT=Binv.transpose(0, 2, 1), A=A, pts=pts,
                        F=A @ Binv.transpose(0, 2, 1), gref=gref, grads=grads, gm=gm,
                        rel=rng.standard_normal((ne, 2)), gref_vert=gref_vert, gv=gv)
            M, v, M_bcast = _MATVEC2_CASES[subscripts](data)
            out = _matvec2(M_bcast, v)
            np.testing.assert_array_equal(out, np.einsum(subscripts, M, v))
            if out.shape == v.shape:
                assert out.strides == v.strides


def test_p1_local_stiffness_reference_triangle(laplace_coeffs):
    space = build_space(REF_TRIANGLE, 1)
    K = assemble_stiffness(space, laplace_coeffs, apply_dirichlet=False).toarray()
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-14)


def test_p1_local_mass_reference_triangle():
    space = build_space(REF_TRIANGLE, 1)
    M = assemble_mass(space, apply_dirichlet=False).toarray()
    area = 0.5
    expected = area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert np.allclose(M, expected, atol=1e-15)


def test_stiffness_row_sums_vanish(laplace_coeffs):
    space = build_space(square_mesh(3), 1)
    K = assemble_stiffness(space, laplace_coeffs, apply_dirichlet=False)
    assert np.abs(np.asarray(K.sum(axis=1))).max() < 1e-12


def test_constrained_stiffness_is_spd(laplace_coeffs):
    space = build_space(square_mesh(3), 2)
    K = assemble_stiffness(space, laplace_coeffs)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(K.shape[0])
        assert x @ (K @ x) > 0


@pytest.mark.parametrize("degree", [1, 2])
def test_mass_sum_equals_area(degree):
    space = build_space(square_mesh(4), degree)
    M = assemble_mass(space, apply_dirichlet=False)
    assert M.sum() == pytest.approx(1.0, abs=1e-12)
    lspace = build_space(
        refine(square_mesh(2), {0, 3}).mesh, degree)
    assert assemble_mass(lspace, apply_dirichlet=False).sum() == pytest.approx(1.0, abs=1e-12)


def _locally_refined(mesh, b, rounds=3, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 5), replace=False)
        mesh = refine(mesh, marked, b=b).mesh
    return mesh


def test_dirichlet_dofs_lie_on_boundary():
    # a dof is Dirichlet if and only if its point lies on the domain's
    # polygon, on uniform and on locally refined meshes
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    lshape = [(-1, -1), (0, -1), (0, 0), (1, 0), (1, 1), (-1, 1)]
    meshes = []
    for base, corners in ((square_mesh(2), square), (lshape_mesh(1), lshape)):
        meshes += [(base, corners)] + [(_locally_refined(base, b), corners) for b in (1, 2)]
    for (mesh, corners), degree in itertools.product(meshes, (1, 2)):
        space = build_space(mesh, degree)
        n_edges = mesh.edge_table()[0].shape[0]
        assert space.ndofs == mesh.n_vertices + (n_edges if degree == 2 else 0)
        dirichlet = np.zeros(space.ndofs, bool)
        dirichlet[space.dirichlet_dofs] = True
        assert space.dirichlet_dofs.size == dirichlet.sum()
        np.testing.assert_array_equal(dirichlet, on_polygon(space.dof_coords, corners))
        assert space.n_free == space.ndofs - space.dirichlet_dofs.size


def test_interpolate_reproduces_linears():
    space = build_space(square_mesh(3), 1)
    vec = space.dof_coords[:, 0]
    pts = np.random.default_rng(0).uniform(0.05, 0.95, (30, 2))
    vals, grads, inside = evaluate(space, vec, pts)
    assert inside.all()
    assert np.abs(vals - pts[:, 0]).max() < 1e-14
    vec2 = space.dof_coords @ [1.0, 2.0]
    _, grads2, _ = evaluate(space, vec2, pts)
    assert np.abs(grads2 - [1.0, 2.0]).max() < 1e-12


def test_interpolation_degree_reproduction():
    f = lambda p: p[:, 0] ** 2
    pts = np.random.default_rng(1).uniform(0.1, 0.9, (25, 2))
    s2 = build_space(square_mesh(2), 2)
    vals2, _, _ = evaluate(s2, f(s2.dof_coords), pts)
    assert np.abs(vals2 - f(pts)).max() < 1e-13
    s1 = build_space(square_mesh(2), 1)
    vals1, _, _ = evaluate(s1, f(s1.dof_coords), pts)
    assert np.abs(vals1 - f(pts)).max() > 1e-4  # P1 cannot represent x^2


def test_evaluate_flags_outside_points():
    space = build_space(square_mesh(2), 1)
    vec = space.dof_coords[:, 0]
    vals, _, inside = evaluate(space, vec, [(2.0, 2.0), (0.5, 0.5)])
    assert not inside[0] and inside[1]
    assert np.isnan(vals[0])


def test_norms(laplace_coeffs):
    space = build_space(square_mesh(4), 1)
    zero = np.zeros(space.ndofs)
    assert energy_norm(space, laplace_coeffs, zero) == 0.0
    assert b_norm(space, zero) == 0.0
    # Rayleigh identity for a discrete eigenpair
    from afemeig import solve_smallest
    K = assemble_stiffness(space, laplace_coeffs)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 1)
    full = space.expand(vecs[:, 0])
    assert b_norm(space, full) == pytest.approx(1.0, abs=1e-12)
    assert energy_norm(space, laplace_coeffs, full) ** 2 == pytest.approx(
        vals[0] * b_norm(space, full) ** 2, rel=1e-11)


@pytest.mark.parametrize("degree", [1, 2])
def test_prolongation_exactness(degree, laplace_coeffs):
    mesh = square_mesh(3)
    coarse = build_space(mesh, degree)
    rng = np.random.default_rng(degree)
    res = refine(mesh, set(rng.choice(mesh.n_elements, 10, replace=False).tolist()), b=1)
    fine = build_space(res.mesh, degree)
    vec = rng.standard_normal(coarse.ndofs)
    pvec = prolongate(coarse, fine, res.ancestor, vec)
    pts = rng.uniform(0.02, 0.98, (50, 2))
    va, ga, _ = evaluate(coarse, vec, pts)
    vb, gb, _ = evaluate(fine, pvec, pts)
    assert np.abs(va - vb).max() < 1e-12
    assert np.abs(ga - gb).max() < 1e-10


@pytest.mark.parametrize("degree", [1, 2])
def test_galerkin_projection_orthogonality(degree):
    # || w - R_h w ||^2 = || w - R_H w ||^2 - || R_h w - R_H w ||^2 on nested
    # spaces, up to the quadrature used to realize R_h for analytic w
    mesh = square_mesh(6 if degree == 1 else 5)
    co = Coefficients(a=1.0, c=1.0)
    rng = np.random.default_rng(9)
    coarse = build_space(mesh, degree)
    res = refine(mesh, set(rng.choice(mesh.n_elements, 30, replace=False).tolist()))
    fine = build_space(res.mesh, degree)
    RH = galerkin_project(coarse, co, sine_solution)
    Rh = galerkin_project(fine, co, sine_solution)
    eH = energy_error(coarse, co, RH, sine_solution)
    eh = energy_error(fine, co, Rh, sine_solution)
    diff = Rh - prolongate(coarse, fine, res.ancestor, RH)
    dn = energy_norm(fine, co, diff)
    assert eh ** 2 == pytest.approx(eH ** 2 - dn ** 2, rel=1e-5)


def test_coefficient_validation():
    with pytest.raises(MeshError):
        Coefficients(a=1.0, c=-1.0).c_at(np.zeros((1, 2)))
    with pytest.raises(MeshError):
        Coefficients(a={0: [[1.0, 2.0], [2.0, 1.0]]}).a_matrix_for(np.zeros(1, np.int64))
    mat = Coefficients(a={0: [[2.0, 0.5], [0.5, 1.0]]}).a_matrix_for(np.zeros(3, np.int64))
    assert mat.shape == (3, 2, 2)


def test_region_matrix_symmetric_to_rounding_is_stored_symmetrized():
    # np.allclose admits this A; the stiffness matrix reads only the symmetric
    # part of the metric, so the flux map of the estimator's jumps must not
    # see A's skew part either
    A = [[100.0, 50.0], [50.0004, 100.0]]
    S = 0.5 * (np.array(A) + np.array(A).T)
    near, exact = Coefficients(a={0: A}), Coefficients(a={0: S})
    assert near.a[0].dtype == float and near.a[0].tobytes() == S.tobytes()
    mesh = perturbed(square_mesh(2))
    rng = np.random.default_rng(1)
    for degree in (1, 2):
        space = build_space(mesh, degree)
        V = rng.standard_normal((space.ndofs, 2))
        V[space.dirichlet_dofs] = 0.0
        np.testing.assert_array_equal(_flux_map(space, near), _flux_map(space, exact))
        got, want = (_indicators(space, co, V, lams=[20.0, 50.0]) for co in (near, exact))
        np.testing.assert_array_equal(got.eta2, want.eta2)
        np.testing.assert_array_equal(got.osc2, want.osc2)


def test_coefficients_compare_by_identity():
    # field-wise equality would compare the stored region arrays, and numpy
    # raises on the truth value of an array comparison
    table = {0: [[2.0, 0.5], [0.5, 1.0]]}
    co = Coefficients(a=table)
    assert (co == Coefficients(a=table)) is False
    assert (co == co) is True
    assert (co != Coefficients(a=table)) is True


@pytest.mark.parametrize("kwargs, message", [
    (dict(a=0.0), "coefficient a is not positive"),
    (dict(a=-1.0), "coefficient a is not positive"),
    (dict(a=lambda p: 1.0 + p[:, 0]), "region table of 2x2 matrices, not a callable"),
    (dict(a=math.inf), "coefficient a is not finite"),
    (dict(a=math.nan), "coefficient a is not finite"),
    (dict(a={0: [[1.0, 0.0], [0.0, math.inf]]}), "region 0: coefficient A has a non-finite"),
    (dict(a={0: [[1.0, math.nan], [math.nan, 1.0]]}), "region 0: coefficient A has a non-finite"),
    (dict(c=math.nan), "coefficient c is not finite"),
    (dict(c=math.inf), "coefficient c is not finite"),
], ids=["zero", "negative", "callable", "a-inf", "a-nan", "A-inf-entry", "A-nan-entry",
        "c-nan", "c-inf"])
def test_diffusion_rejected_when_coefficients_are_made(kwargs, message):
    with pytest.raises(MeshError, match=message):
        Coefficients(**kwargs)


def test_region_matrix_assembly_matches_scalar():
    # a scalar a is the table {0: a*I} broadcast, so stiffness, indicators and
    # gap take one code path for both and agree bit for bit, for any a
    mesh = square_mesh(3)
    exact = square_laplace().exact_clusters[1]
    rng = np.random.default_rng(5)
    for a in (2.0, 0.3):
        scalar, table = Coefficients(a=a), Coefficients(a={0: a * np.eye(2)})
        for degree in (1, 2):
            space = build_space(mesh, degree)
            V = rng.standard_normal((space.ndofs, 2))
            V[space.dirichlet_dofs] = 0.0
            K, ind, gap = [], [], []
            for co in (scalar, table):
                K.append(assemble_stiffness(space, co).toarray())
                field = _indicators(space, co, V, lams=[20.0, 50.0])
                ind.append(np.stack([field.eta2, field.osc2]))
                gap.append(gap_energy([exact], [EigenCluster(np.array([50.0, 50.0]), V)],
                                      space, co))
            np.testing.assert_array_equal(K[0], K[1])
            np.testing.assert_array_equal(ind[0], ind[1])
            assert gap[0] == gap[1]


_ASSEMBLY_COEFFS = {
    "scalar": Coefficients(a=1.7, c=0.0),
    "constant-c": Coefficients(a=0.6, c=2.5),
    "A-table": Coefficients(a={0: [[2.0, 0.5], [0.5, 1.0]], 1: [[1.0, -0.3], [-0.3, 3.0]]}),
    "oscillator": harmonic_oscillator().coefficients,
}


@pytest.mark.parametrize("mesh", ["uniform", "perturbed"])
@pytest.mark.parametrize("apply_dirichlet", [True, False], ids=["free", "all"])
@pytest.mark.parametrize("case", list(_ASSEMBLY_COEFFS))
@pytest.mark.parametrize("degree", [1, 2])
def test_variable_c_mass_term_matches_the_einsum(degree, case, apply_dirichlet, mesh):
    # stiffness and mass from the metric and the reference tables equal the
    # per-point einsum of physical gradients, sliced from the full matrix; on
    # the perturbed mesh no two elements share or mirror a Jacobian
    coeffs = _ASSEMBLY_COEFFS[case]
    base = two_region_square(3)
    space = build_space(base if mesh == "uniform" else perturbed(base), degree)
    want = quadrature_matrices(space, coeffs, apply_dirichlet)
    got = (assemble_stiffness(space, coeffs, apply_dirichlet),
           assemble_mass(space, apply_dirichlet))
    for g, w in zip(got, want):
        assert g.shape == w.shape
        g, w = g.toarray(), w.toarray()
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("apply_dirichlet", [True, False], ids=["free", "all"])
@pytest.mark.parametrize("case", ["scalar", "A-table", "oscillator"])
@pytest.mark.parametrize("degree", [1, 2])
def test_stiffness_and_mass_share_one_symmetric_csr_pattern(degree, case, apply_dirichlet):
    # the shift-invert solve builds K - sigma*M from the two data arrays on
    # K's pattern and hands the CSR arrays to SuperLU as CSC: both need one
    # pattern, explicit zeros kept, and matrices symmetric to the bit
    space = build_space(_locally_refined(two_region_square(3), b=1), degree)
    K = assemble_stiffness(space, _ASSEMBLY_COEFFS[case], apply_dirichlet)
    M = assemble_mass(space, apply_dirichlet)
    np.testing.assert_array_equal(K.indptr, M.indptr)
    np.testing.assert_array_equal(K.indices, M.indices)
    for A in (K, M):
        assert A.has_canonical_format
        C = A.tocsc()
        np.testing.assert_array_equal(C.indices, A.indices)
        np.testing.assert_array_equal(C.data, A.data)


def test_matrixmarket_export(tmp_path, laplace_coeffs):
    space = build_space(square_mesh(2), 1)
    K = assemble_stiffness(space, laplace_coeffs)
    path = tmp_path / "k.mtx"
    export_matrixmarket(K, path)
    from scipy.io import mmread
    assert np.allclose(mmread(str(path)).toarray(), K.toarray())


def test_partition_of_unity_shape_values():
    pts = np.random.default_rng(2).uniform(0, 0.5, (40, 2))
    for degree in (1, 2):
        assert np.allclose(shape_values(degree, pts).sum(axis=0), 1.0, atol=1e-14)
