"""Test-only oracles: independent checks that never run in the solve path.

- `validate_mesh`: the conformity invariants of a mesh (finite vertices,
  positive areas, at most two owners per edge, no vertex at the midpoint of
  a single-owner edge, where a bisection would leave it hanging);
- `signed_areas`, `edge_lengths` and `shape_regularity`: element areas,
  local edge lengths and the largest ratio of diameter to inscribed-ball
  diameter of a mesh;
- `on_polygon`: which points lie on a closed polygon, the geometric
  boundary that the Dirichlet dofs must match;
- `reference_edge_table`: the mesh's edge table by a row-wise unique and a
  loop over the local edges, which `afemeig.mesh._edge_table` must
  reproduce;
- `reference_hanging_vertex`: the hanging-vertex search of `build_initial`
  by testing every vertex against every edge, which
  `afemeig.mesh._hanging_vertex` must reproduce;
- `element_neighbors`: the element across each local edge, and
  `diameters`: each element's longest edge, the estimator's h_T;
- `reference_refine`: newest-vertex bisection one element at a time, with
  stack-based completion, the reference numbering `refine` must reproduce,
  and `refined_set`: the input elements a refinement split, from its
  ancestor array;
- `monomial_integral`: exact reference-triangle integrals for the quadrature
  tests, and `gauss_legendre`: a Gauss-Legendre rule on [0, 1] for edge
  integrals;
- `triangle_rule_subdivided`: a tabulated rule over rounds of uniform 4-way
  subdivision, as an element rule of a space, and `subdivided_gap_rule`: a
  stand-in for `afemeig.gap.gap_rule` built on it, for the tests that
  compare the gap against finer rules;
- `evaluate` (with the element search `_locate`): point values and gradients
  of a finite element function;
- `export_matrixmarket`: MatrixMarket dump of an assembled matrix;
- `rule_points` and `rule_gradients`: the physical points and shape
  gradients of an element rule on the whole mesh, one einsum each, which
  `ElementRule.points_on` and `ElementRule.fields_on` must reproduce;
- `quadrature_matrices`: stiffness and mass matrices from physical gradients
  at quadrature points, restricted by slicing the full matrix, which the
  reference-table assembly of `afemeig.fem` must reproduce;
- `per_point_energy_error`: the energy error by einsums over those arrays;
- `edge_jump_total`: the edge-jump estimator total of a P1 function with
  every interior edge counted once, by a plain loop over edges;
- `brute_force_distance`: a Monte-Carlo lower bound on the directed
  eigenspace distance;
- `reference_gap`: the gaps and Grams of a window from whole-mesh arrays,
  every member at every point of the mesh at once, which the blocked
  workspace of `afemeig.gap` must reproduce;
- `directed_distance_from_grams`: the directed distance from Gram data
  alone, and `reverse_distance_bound`: d(Y, X) <= d(X, Y) / (1 - d(X, Y));
- `energy_norm` and `b_norm`: norms through the assembled matrices;
- `galerkin_project`: the energy projection R_h w of an analytic function;
- the oscillation-Lipschitz harness (`calibrate_oscillation_constant`,
  `oscillation_lipschitz_check`, `_patch_h1_norms`).
"""

from math import factorial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from afemeig.estimator import _indicators
from afemeig.fem import (ElementRule, assemble_mass, assemble_stiffness, shape_gradients,
                         shape_values)
from afemeig.gap import GapError, _GapWorkspace
from afemeig.mesh import _EDGE_VERTS, _ROTATE, Mesh, MeshError, RefineResult
from afemeig.quadrature import triangle_rule


def element_neighbors(mesh):
    """(ne, 3) neighbour element id across each local edge, -1 on boundary."""
    _, _, owners, owner_local = mesh.edge_table()
    nbr = -np.ones((mesh.n_elements, 3), dtype=np.int64)
    for s in range(2):
        mask = owners[:, s] >= 0
        nbr[owners[mask, s], owner_local[mask, s]] = owners[mask, 1 - s]
    return nbr


def signed_areas(mesh):
    """(ne,) signed area of each element, positive when counterclockwise."""
    v = mesh.vertices[mesh.elements]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def edge_lengths(mesh):
    """(ne, 3) length of each element's local edges."""
    v = mesh.vertices[mesh.elements]
    d = v[:, [b for _, b in _EDGE_VERTS]] - v[:, [a for a, _ in _EDGE_VERTS]]
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])


def shape_regularity(mesh):
    """max over elements of diameter / inscribed-ball diameter."""
    lens = edge_lengths(mesh)
    areas = signed_areas(mesh)
    if np.any(areas <= 0):
        raise MeshError("degenerate or inverted element")
    h = lens.max(axis=1)
    perim = lens.sum(axis=1)
    rho = 4.0 * areas / perim  # inradius = area / semi-perimeter
    return float(np.max(h / rho))


def diameters(mesh):
    """(ne,) longest edge of each element."""
    return edge_lengths(mesh).max(axis=1)


def on_polygon(points, corners, tol=1e-12):
    """(m,) mask of the `points` (m, 2) that lie on the closed polygon with
    the given corners, within `tol` of one of its sides."""
    points = np.asarray(points, float)
    a = np.asarray(corners, float)
    d = np.roll(a, -1, axis=0) - a
    rel = points[:, None] - a                                # (m, sides, 2)
    t = np.clip(np.einsum("msi,si->ms", rel, d) / np.einsum("si,si->s", d, d), 0, 1)
    gap = rel - t[..., None] * d
    return (np.einsum("msi,msi->ms", gap, gap) <= tol * tol).any(axis=1)


def reference_edge_table(elements):
    """`_edge_table(elements, nv)` from ``np.unique(axis=0)`` of the sorted
    vertex pairs, with owners filled one local edge at a time, in element
    order."""
    pairs = np.sort(np.asarray(elements)[:, _EDGE_VERTS].reshape(-1, 2), axis=1)
    edges, inverse, counts = np.unique(pairs, axis=0, return_inverse=True,
                                       return_counts=True)
    inverse = inverse.reshape(-1)
    if counts.max(initial=0) > 2:
        a, b = edges[np.argmax(counts > 2)].tolist()
        raise MeshError(f"non-conforming input: edge {(a, b)} shared by more than 2 elements")
    owners = -np.ones((len(edges), 2), np.int64)
    owner_local = -np.ones((len(edges), 2), np.int64)
    for flat, e in enumerate(inverse.tolist()):
        slot = 0 if owners[e, 0] < 0 else 1
        owners[e, slot], owner_local[e, slot] = divmod(flat, 3)
    return edges, inverse.reshape(-1, 3), owners, owner_local


def reference_hanging_vertex(vertices, edges):
    """`_hanging_vertex(vertices, edges)` by testing every (edge, vertex)
    pair: the first pair in that order with the vertex strictly inside the
    edge, as ``(vertex, edge id)``, or None."""
    pa, pb = vertices[edges[:, 0]], vertices[edges[:, 1]]
    d = pb - pa
    L2 = np.einsum("ij,ij->i", d, d)
    eid, vid = np.divmod(np.arange(edges.shape[0] * vertices.shape[0]), vertices.shape[0])
    rel = vertices[vid] - pa[eid]
    de = d[eid]
    t = np.einsum("ij,ij->i", rel, de) / L2[eid]
    on_line = np.abs(rel[:, 0] * de[:, 1] - rel[:, 1] * de[:, 0]) <= 1e-12 * np.sqrt(L2[eid])
    hit = on_line & (t > 1e-10) & (t < 1 - 1e-10) & np.all(edges[eid] != vid[:, None], axis=1)
    if not hit.any():
        return None
    k = np.argmax(hit)  # pairs run in (edge, vertex) order
    return int(vid[k]), int(eid[k])


def validate_mesh(mesh):
    """Raise MeshError unless `mesh` satisfies the conformity invariants."""
    if not np.all(np.isfinite(mesh.vertices)):
        raise MeshError("non-finite vertex coordinates")
    if np.any(signed_areas(mesh) <= 0):
        raise MeshError("inverted or degenerate element")
    edges, _, owners, _ = mesh.edge_table()    # raises on a third owner
    # a bisection that skips the element across its edge leaves the midpoint
    # hanging on that edge, which keeps a single owner
    single = edges[owners[:, 1] < 0]
    mids = 0.5 * (mesh.vertices[single[:, 0]] + mesh.vertices[single[:, 1]])
    points = set(map(tuple, mesh.vertices.tolist()))
    for (a, b), mid in zip(single.tolist(), mids.tolist()):
        if tuple(mid) in points:
            raise MeshError(f"hanging vertex at the midpoint of edge {(a, b)}")


# ---------------------------------------------------------------------------
# sequential bisection


class _RefineWork:
    """Mutable append-only refinement workspace over the neighbour array.

    Element "tokens" are never reused: bisecting a token marks it dead and
    appends two children.  Tokens < ne_old are the elements of the input
    mesh; ``root`` maps every token to its input-mesh ancestor.  ``nbr[t][i]``
    is the token across local edge ``i`` of `t` (-1 on the boundary).  The
    completion stack of a terminating labeling never holds a token twice, so
    a stack taller than the token count means an incompatible labeling.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.ne_old = mesh.n_elements
        self.verts = mesh.vertices.tolist()
        self.elems = mesh.elements.tolist()
        self.refe = mesh.refinement_edge.tolist()
        self.gen = mesh.generation.tolist()
        self.nbr = element_neighbors(mesh).tolist()
        self.alive = [True] * self.ne_old
        self.root = list(range(self.ne_old))
        self.children = {}

    def _split(self, tok, mid):
        """Replace `tok` by its two children across its refinement edge,
        using existing midpoint vertex id `mid`.  Each child's local edge 0
        (its half of the bisected edge) still points at tok's neighbour
        there; the caller links it to the partner's child."""
        v, nb = self.elems[tok], self.nbr[tok]
        i, j, k = _ROTATE[self.refe[tok]]
        p, a, b = v[i], v[j], v[k]
        n_ab, n_bp, n_pa = nb[i], nb[j], nb[k]
        c1 = len(self.elems)
        c2 = c1 + 1
        self.elems += [(p, a, mid), (p, mid, b)]
        self.refe += [2, 1]          # edges (p, a) and (b, p), opposite the new vertex
        self.gen += [self.gen[tok] + 1] * 2
        self.root += [self.root[tok]] * 2
        self.nbr += [[n_ab, c2, n_pa], [n_ab, n_bp, c1]]
        self.alive[tok] = False
        self.alive += [True, True]
        for n, c in ((n_pa, c1), (n_bp, c2)):
            if n >= 0:
                row = self.nbr[n]
                row[row.index(tok)] = c
        self.children[tok] = (c1, c2)
        return c1, c2

    def bisect_conforming(self, tok):
        """Bisect `tok`, recursively pre-bisecting incompatible neighbours."""
        nbr, refe, alive = self.nbr, self.refe, self.alive
        stack = [tok]
        while stack:
            t = stack[-1]
            if not alive[t]:
                stack.pop()
                continue
            partner = nbr[t][refe[t]]
            if partner >= 0 and nbr[partner][refe[partner]] != t:
                if len(stack) > len(self.elems):
                    raise MeshError("completion does not terminate: incompatible "
                                    "refinement-edge labeling")
                stack.append(partner)
                continue
            stack.pop()
            v, (_, j, k) = self.elems[t], _ROTATE[refe[t]]
            va, vb = self.verts[v[j]], self.verts[v[k]]
            mid = len(self.verts)
            self.verts.append((0.5 * (va[0] + vb[0]), 0.5 * (va[1] + vb[1])))
            c1, c2 = self._split(t, mid)
            if partner >= 0:
                d1, d2 = self._split(partner, mid)
                # the partner runs the shared edge the other way: d2 holds the
                # half that c1 holds, d1 the half of c2
                nbr[c1][0], nbr[d2][0] = d2, c1
                nbr[c2][0], nbr[d1][0] = d1, c2

    def freeze(self):
        """Produce the new Mesh plus its ancestor array."""
        mesh, ne_old = self.mesh, self.ne_old
        alive = np.array(self.alive)
        tokens = np.flatnonzero(alive)

        def rows(old, new):
            """The input mesh's rows followed by those of the appended tokens."""
            return np.concatenate([old, np.array(new, old.dtype).reshape((-1,) + old.shape[1:])])

        ancestor = rows(np.arange(ne_old), self.root[ne_old:])[tokens]
        new_mesh = Mesh(rows(mesh.vertices, self.verts[mesh.n_vertices:]),
                        rows(mesh.elements, self.elems[ne_old:])[tokens],
                        rows(mesh.refinement_edge, self.refe[ne_old:])[tokens],
                        rows(mesh.generation, self.gen[ne_old:])[tokens],
                        mesh.region[ancestor])
        return new_mesh, ancestor


def reference_refine(mesh, marked, b=1):
    """`refine` one bisection at a time: each round bisects its targets in
    ascending token order, each with stack-based completion, and the next
    round's targets are the children of every target of this one."""
    targets = sorted(set(int(t) for t in marked))
    if not targets:
        return RefineResult(mesh, np.arange(mesh.n_elements))
    work = _RefineWork(mesh)
    for _ in range(b):
        for tok in targets:
            if work.alive[tok]:
                work.bisect_conforming(tok)
        targets = sorted(c for tok in targets for c in work.children[tok])
    return RefineResult(*work.freeze())


def refined_set(result):
    """Ids of the input elements that a refinement split: those that are not
    the ancestor of exactly one output element."""
    return frozenset(np.flatnonzero(np.bincount(result.ancestor) != 1).tolist())


def monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def gauss_legendre(npoints):
    """Gauss-Legendre rule on [0, 1], exact for degree 2*npoints - 1."""
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_rule_subdivided(space, degree, levels):
    """The tabulated rule of `degree` replicated over `levels` rounds of
    uniform 4-way subdivision of the reference triangle, on every element of
    `space`.  With no round its points and weights are those of
    `space.rule(degree)`, bit for bit."""
    points, weights = triangle_rule(degree)
    tris = [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
    for _ in range(levels):
        finer = []
        for t in tris:
            m01 = 0.5 * (t[0] + t[1])
            m12 = 0.5 * (t[1] + t[2])
            m20 = 0.5 * (t[2] + t[0])
            finer += [
                np.array([t[0], m01, m20]),
                np.array([t[1], m12, m01]),
                np.array([t[2], m20, m12]),
                np.array([m01, m12, m20]),
            ]
        tris = finer
    scale = 0.25 ** levels
    all_pts, all_wts = [], []
    for t in tris:
        b = np.stack([t[1] - t[0], t[2] - t[0]], axis=1)
        all_pts.append(t[0] + points @ b.T)
        all_wts.append(scale * weights)
    return ElementRule(space, np.vstack(all_pts), np.concatenate(all_wts))


def subdivided_gap_rule(levels):
    """A stand-in for `afemeig.gap.gap_rule`: its degree 2k+4 rule over
    `levels` rounds of 4-way subdivision."""
    return lambda space: triangle_rule_subdivided(space, 2 * space.degree + 4, levels)


# ---------------------------------------------------------------------------
# point evaluation


def _locate(space, nbr, point, start=0, max_steps=None):
    """Element containing `point` via a walk over the neighbours `nbr`, with
    brute-force fallback (the walk can stall on non-convex domains)."""
    mesh = space.mesh
    v0, _, _, Binv = space.geometry()
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
    nbr = element_neighbors(space.mesh)
    t_prev = 0
    for i, p in enumerate(points):
        t = _locate(space, nbr, p, start=t_prev)
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
# norms and projections


def rule_points(rule):
    """Physical points of `rule` on every element, (ne, nq, 2): v0 + B x."""
    v0, B, _, _ = rule.space.geometry()
    return np.einsum("eij,qj->eqi", B, rule.pts) + v0[:, None]


def rule_gradients(rule):
    """Physical shape gradients of `rule` on every element, (ne, nb, nq, 2):
    B^-T times the reference gradients."""
    return np.einsum("eji,bqj->ebqi", rule.Binv, shape_gradients(rule.space.degree, rule.pts))


def quadrature_matrices(space, coeffs, apply_dirichlet=True):
    """(stiffness, mass) summed over the points of the degree 2k+2 rule,
    exact for constant A and a c of degree up to 2: A times the physical
    shape gradients, by einsum, against the gradients; the full matrices
    are sliced to the free dofs when `apply_dirichlet` is set."""
    rule = space.rule(2 * space.degree + 2)
    A = coeffs.a_matrix_for(space.mesh.region)
    xq, grads = rule_points(rule), rule_gradients(rule)
    flux = np.einsum("eij,ebqj->ebqi", A, grads)
    stiff = np.einsum("ebqi,edqi,q->ebd", flux, grads, rule.wts)
    cq = np.broadcast_to(coeffs.c_at(xq), xq.shape[:2])
    stiff += np.einsum("bq,dq,eq,q->ebd", rule.vals, rule.vals, cq, rule.wts)
    mass = np.einsum("bq,dq,q->bd", rule.vals, rule.vals, rule.wts)[None]
    nb = space.element_dofs.shape[1]
    rows = np.repeat(space.element_dofs, nb, axis=1).ravel()
    cols = np.tile(space.element_dofs, (1, nb)).ravel()
    out = []
    for local in (stiff, mass):
        local = np.broadcast_to(local * rule.det[:, None, None], stiff.shape)
        mat = sp.coo_matrix((local.ravel(), (rows, cols)),
                            shape=(space.ndofs, space.ndofs)).tocsr()
        out.append(mat[space.free_dofs][:, space.free_dofs] if apply_dirichlet else mat)
    return tuple(out)


def _quadratic_form(space, matrix_full, vec):
    vec = np.asarray(vec, float)
    if vec.shape != (space.ndofs,):
        raise ValueError("expected a full-length coefficient vector")
    val = float(vec @ (matrix_full @ vec))
    if val < -1e-10 * max(1.0, float(vec @ vec)):
        raise ArithmeticError("quadratic form is negative: matrix is not SPD")
    return np.sqrt(max(val, 0.0))


def energy_norm(space, coeffs, vec):
    K = assemble_stiffness(space, coeffs, apply_dirichlet=False)
    return _quadratic_form(space, K, vec)


def b_norm(space, vec):
    M = assemble_mass(space, apply_dirichlet=False)
    return _quadratic_form(space, M, vec)


def galerkin_project(space, coeffs, fn):
    """Energy projection of an analytic function onto the space (R_h w).

    `fn` maps (m, 2) points to the (3, m) rows of w, dw/dx and dw/dy.  The
    right-hand side a(w, phi_i) is integrated with the degree 2k+2 rule.
    """
    rule = space.rule(2 * space.degree + 2)
    xq = rule_points(rule)
    w = np.asarray(fn(xq.reshape(-1, 2)), float).reshape(3, *xq.shape[:2])
    wval, wgrad = w[0], w[1:].transpose(1, 2, 0)
    aw = np.einsum("eij,eqj->eqi", coeffs.a_matrix_for(space.mesh.region), wgrad)
    local = np.einsum("ebqi,eqi,q->eb", rule_gradients(rule), aw, rule.wts)
    cq = coeffs.c_at(xq)
    if not (np.isscalar(cq) and cq == 0.0):
        local += np.einsum("bq,eq,q->eb", rule.vals, wval * cq, rule.wts)
    local *= rule.det[:, None]
    rhs = np.zeros(space.ndofs)
    np.add.at(rhs, space.element_dofs.ravel(), local.ravel())
    K = assemble_stiffness(space, coeffs)
    return space.expand(spsolve(K, rhs[space.free_dofs]))


def per_point_energy_error(space, coeffs, vec, fn):
    """|| w - u_h ||_a at the points of the degree 2k+2 rule, by einsums over
    whole-mesh arrays of points and physical gradients; `fn` as in
    `afemeig.fem.energy_error`."""
    rule = space.rule(2 * space.degree + 2)
    xq = rule_points(rule)
    w = np.asarray(fn(xq.reshape(-1, 2)), float).reshape(3, *xq.shape[:2])
    dval, dgrad = w[0], w[1:].transpose(1, 2, 0)
    local = np.asarray(vec, float)[space.element_dofs]
    dval -= np.einsum("eb,bq->eq", local, rule.vals)
    dgrad -= np.einsum("eb,ebqi->eqi", local, rule_gradients(rule))
    agrad2 = np.einsum("eqi,eij,eqj->eq", dgrad, coeffs.a_matrix_for(space.mesh.region), dgrad)
    dens = agrad2 + coeffs.c_at(xq) * dval ** 2
    return float(np.sqrt(np.einsum("eq,q,e->", dens, rule.wts, rule.det)))


# ---------------------------------------------------------------------------
# estimator and gap oracles


def edge_jump_total(space, coeffs, vectors):
    """sum over interior edges E of h_E ||J_E||^2_{0,E}, each edge once.

    P1 only: the gradient on each owner is constant, solved from
    [1, x, y] (c0, g) = u on its three vertices, so the jump
    J_E = (A g0 - A g1) . nu is constant and ||J_E||^2_{0,E} = |E| J_E^2,
    with h_E = |E|.
    """
    if space.degree != 1:
        raise ValueError("edge_jump_total needs P1")
    mesh = space.mesh
    vectors = np.asarray(vectors, float).reshape(space.ndofs, -1)
    amat = coeffs.a_matrix_for(mesh.region)
    edges, _, owners, _ = mesh.edge_table()
    total = 0.0
    for (a, b), (t0, t1) in zip(edges, owners):
        if t1 < 0:
            continue
        tang = mesh.vertices[b] - mesh.vertices[a]
        length = float(np.hypot(*tang))
        nu = np.array([tang[1], -tang[0]]) / length
        for u in vectors.T:
            flux = []
            for t in (t0, t1):
                dofs = space.element_dofs[t]
                system = np.column_stack([np.ones(3), space.dof_coords[dofs]])
                g = np.linalg.solve(system, u[dofs])[1:]
                flux.append(amat[t] @ g)
            total += length * length * float((flux[0] - flux[1]) @ nu) ** 2
    return total


def brute_force_distance(exact, discrete, space, coeffs, n_samples=100_000, seed=0):
    """Monte-Carlo lower bound on the directed distance.

    Samples b-unit coefficient directions on the exact side and takes the max
    Gram projection error; approaches `_GapWorkspace.distances[0][0]` from below
    as the sample count grows, and matches it for one-dimensional spaces.
    Its Grams come from `afemeig.gap.gap_rule`, or from the rule a test puts
    in its place.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    ws = _GapWorkspace([exact], [discrete], space, coeffs)
    D = ws.G - ws.P @ np.linalg.solve(ws.S, ws.P.T)
    D = 0.5 * (D + D.T)
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((n_samples, exact.dim))
    scale = np.sqrt(np.einsum("si,ij,sj->s", alpha, ws.B, alpha))
    alpha /= scale[:, None]
    d2 = np.einsum("si,ij,sj->s", alpha, D, alpha)
    return float(np.sqrt(max(np.max(d2), 0.0)))


def _gram(left, right):
    """(i, j) sums over points and elements of left[i] * right[j].

    Both are (members, points, ne); a right side with one point (constant on
    each element) meets the left side summed over its points.
    """
    if right.shape[1] != left.shape[1]:
        left = left.sum(axis=1, keepdims=True)
    return left.reshape(len(left), -1) @ right.reshape(len(right), -1).T


class _WholeMeshGap:
    """Quadrature data and Grams of every member of a window's clusters, on
    the whole mesh at once, from the element rule `rule` of `space`.

    Each side is (values, x gradients, y gradients), arrays of shape
    (members, nq, ne); the P1 discrete gradients have one point.  The
    residual of each direction is integrated on its own cluster's members.
    """

    def __init__(self, exact, discrete, space, coeffs, rule):
        V = np.column_stack([cl.vectors for cl in discrete])
        stops = np.cumsum([cl.q for cl in discrete])
        self.blocks = [slice(stop - cl.q, stop) for stop, cl in zip(stops, discrete)]
        xq = rule_points(rule).transpose(1, 0, 2)         # (nq, ne, 2)
        nq, ne = xq.shape[:2]
        flat = xq.reshape(-1, 2)
        basis = [fn for eigenspace in exact for fn in eigenspace.basis]
        self.exact = tuple(np.stack([np.asarray(fn(flat), float).reshape(3, nq, ne)
                                     for fn in basis], axis=1))
        self.w = rule.wts[:, None] * rule.det[None, :]
        self.wc = self.w * coeffs.c_at(xq)
        self.A = np.ascontiguousarray(
            coeffs.a_matrix_for(space.mesh.region).transpose(1, 2, 0))   # (2, 2, ne)
        local = V.T[:, space.element_dofs.T]                        # (m, nb, ne)
        gref = shape_gradients(space.degree, rule.pts if space.degree > 1 else rule.pts[:1])
        r0, r1 = gref[..., 0].T @ local, gref[..., 1].T @ local
        Binv = rule.Binv.transpose(1, 2, 0)
        self.discrete = (rule.vals.T @ local, Binv[0, 0] * r0 + Binv[1, 0] * r1,
                         Binv[0, 1] * r0 + Binv[1, 1] * r1)

        (uv, ux, uy), (vv, vx, vy) = self.exact, self.discrete
        wv = self.w if vx.shape[1] == nq else self.w.sum(axis=0, keepdims=True)
        cu = self.wc * uv
        self.G, self.P = _gram(cu, uv), _gram(cu, vv)
        self.S = _gram(self.wc * vv, vv)
        for i, (ug, vg) in enumerate(((ux, vx), (uy, vy))):
            flux = self._flux(i, ux, uy, self.w)
            self.G += _gram(flux, ug)
            self.P += _gram(flux, vg)
            self.S += _gram(self._flux(i, vx, vy, wv), vg)
        self.B = _gram(self.w * uv, uv)
        self.SM = _gram(self.w * vv, vv)

    def _flux(self, i, gx, gy, w):
        """Component i of w * A grad for gradient components (m, n, ne)."""
        return (self.A[i, 0] * gx + self.A[i, 1] * gy) * w

    def _residual_norm(self, i, alpha, beta):
        """|| sum alpha_j u_j - sum beta_l v_l ||_a over cluster i, pointwise."""
        blk = self.blocks[i]
        rv, rx, ry = (np.tensordot(alpha, u[blk], 1) - np.tensordot(beta, v[blk], 1)
                      for u, v in zip(self.exact, self.discrete))
        total = np.vdot(self.wc * rv, rv)
        for j, r in enumerate((rx, ry)):
            total += np.vdot(self._flux(j, rx, ry, self.w), r)
        return float(np.sqrt(max(total, 0.0)))

    def directed(self, i, reverse=False):
        blk = self.blocks[i]
        G, B, P, S, SM = (M[blk, blk] for M in (self.G, self.B, self.P, self.S, self.SM))
        from_a, from_b, cross, to_a = (S, SM, P.T, G) if reverse else (G, B, P, S)
        sol = np.linalg.solve(to_a, cross.T)
        D = from_a - cross @ sol
        _, W = sla.eigh(0.5 * (D + D.T), 0.5 * (from_b + from_b.T))
        alpha = W[:, -1]
        c = sol @ alpha
        return self._residual_norm(i, c, alpha) if reverse else self._residual_norm(i, alpha, c)


def reference_gap(exact, discrete, space, coeffs, rule):
    """Gaps of a window's clusters and the Grams (G, B, P, S, SM) of all
    their members, from whole-mesh arrays at the points of the element rule
    `rule`: the result `gap_energy` and its blocked workspace must reproduce
    to rounding when `rule` is their `gap_rule`."""
    ws = _WholeMeshGap(exact, discrete, space, coeffs, rule)
    gaps = [max(ws.directed(i), ws.directed(i, reverse=True)) for i in range(len(exact))]
    return gaps, {name: getattr(ws, name) for name in ("G", "B", "P", "S", "SM")}


def directed_distance_from_grams(from_a, cross, to_a, from_b):
    """sup-inf distance from Gram data alone."""
    from_a = np.asarray(from_a, float)
    cross = np.atleast_2d(np.asarray(cross, float))
    to_a = np.atleast_2d(np.asarray(to_a, float))
    from_b = np.asarray(from_b, float)
    try:
        proj = cross @ np.linalg.solve(to_a, cross.T)
    except np.linalg.LinAlgError as exc:
        raise GapError(f"degenerate target space: {exc}") from exc
    D = from_a - proj
    D = 0.5 * (D + D.T)
    mu = sla.eigh(D, 0.5 * (from_b + from_b.T), eigvals_only=True)
    return float(np.sqrt(max(mu[-1], 0.0)))


def reverse_distance_bound(d_forward):
    """Upper bound d(Y, X) <= d(X, Y) / (1 - d(X, Y)) for equal dimensions."""
    if d_forward >= 1.0:
        return np.inf
    return d_forward / (1.0 - d_forward)


# ---------------------------------------------------------------------------
# oscillation Lipschitz harness


def _patch_h1_norms(space, coeffs, diff):
    """|| . ||_{1, omega_T} of a vector FE function, per element."""
    rule = space.rule(2 * space.degree)
    grads = rule_gradients(rule)
    per_elem = np.zeros(space.mesh.n_elements)
    for m in range(diff.shape[1]):
        local = diff[:, m][space.element_dofs]
        uq = np.einsum("eb,bq->eq", local, rule.vals)
        gq = np.einsum("eb,ebqi->eqi", local, grads)
        dens = uq ** 2 + np.einsum("eqi,eqi->eq", gq, gq)
        per_elem += rule.det * np.einsum("eq,q->e", dens, rule.wts)
    nbr = element_neighbors(space.mesh)
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
        osc = np.sqrt(_indicators(space, coeffs, v,
                                  sources=[lambda p: np.zeros(p.shape[0])]).osc2)
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
    osc_v = np.sqrt(_indicators(space, coeffs, V, sources=zeros).osc2)
    osc_w = np.sqrt(_indicators(space, coeffs, W, sources=zeros).osc2)
    return osc_v - osc_w - c_est * _patch_h1_norms(space, coeffs, V - W)
