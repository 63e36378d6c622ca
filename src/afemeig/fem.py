"""Lagrange finite element spaces (P1, P2) and Galerkin assembly.

Coefficient vectors are always full-length (one entry per dof, including
constrained ones); the assembled matrices are restricted to free dofs when
``apply_dirichlet`` is set, which keeps them symmetric positive definite for
the Cholesky-based eigensolver.  Assembly renumbers the per-element blocks'
COO triplets to the kept dofs and converts them to CSR once, which sums
duplicates deterministically for a fixed mesh.

A is constant on each element and the map from the reference triangle
affine, so the stiffness and mass blocks need no quadrature points: each is
one product of per-element data, the metric B^-1 A B^-T and det B, with
exact reference integrals of the shape functions (`_reference_tables`).
Only the integrals of point data, a variable c, the load, the estimator's
residual, the energy error and the gap, take quadrature points: an
`ElementRule` has one map from reference to physical points, `points_on`,
and one kernel for the values and gradients of finite element functions
there, `fields_on`.  The energy error and the gap weigh such fields by one
a-form (`_energy_weights`, `_energy_weighted`).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

from .mesh import MeshError
from .quadrature import triangle_rule


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Operator data for a(u, v) = (A grad u, grad v) + (c u, v).

    A is constant on each element: ``a`` is a positive scalar (A = a*I) or a
    dict mapping region tags to symmetric positive definite 2x2 arrays.  ``c``
    is a nonnegative scalar or a callable c(points)->(m,) field.  The scalars
    and the matrices are checked when the object is made, and each matrix,
    symmetric only to rounding, is stored as the float array (A + A^T)/2, so
    that the stiffness matrix and the estimator's fluxes use one operator.
    Two objects are equal only when they are the same object.
    """

    a: Union[float, dict] = 1.0
    c: Union[float, Callable] = 0.0

    def __post_init__(self):
        if callable(self.a):
            raise MeshError("coefficient a must be a positive scalar or a region table "
                            "of 2x2 matrices, not a callable")
        if isinstance(self.a, dict):
            table = {}
            for tag, mat in self.a.items():
                m = np.asarray(mat, float)
                if not np.all(np.isfinite(m)):
                    raise MeshError(f"region {tag}: coefficient A has a non-finite entry")
                if m.shape != (2, 2) or not np.allclose(m, m.T):
                    raise MeshError(f"region {tag}: A must be a symmetric 2x2 matrix")
                if np.linalg.eigvalsh(m)[0] <= 0:
                    raise MeshError(f"region {tag}: A is not positive definite")
                table[tag] = 0.5 * (m + m.T)
            object.__setattr__(self, "a", table)
        elif not np.isfinite(self.a):
            raise MeshError("coefficient a is not finite")
        elif not self.a > 0:
            raise MeshError("coefficient a is not positive")
        if not callable(self.c):
            if not np.isfinite(self.c):
                raise MeshError("coefficient c is not finite")
            if self.c < 0:
                raise MeshError("coefficient c is negative")

    def a_matrix_for(self, region):
        """A on every element, (ne, 2, 2); a read-only broadcast for scalar a."""
        if not isinstance(self.a, dict):
            return np.broadcast_to(self.a * np.eye(2), (region.size, 2, 2))
        missing = set(np.unique(region).tolist()) - set(self.a)
        if missing:
            raise MeshError(f"no coefficient matrix for region tags {sorted(missing)}")
        out = np.empty((region.size, 2, 2))
        for tag, mat in self.a.items():
            out[region == tag] = mat
        return out

    def c_at(self, points):
        if callable(self.c):
            vals = np.asarray(self.c(points.reshape(-1, 2)), float).reshape(points.shape[:-1])
            if not np.all(np.isfinite(vals)):
                raise MeshError("coefficient c evaluated to a non-finite value")
            if np.any(vals < -1e-14):
                raise MeshError("coefficient c is negative")
            return vals
        return float(self.c)


def _matvec2(M, v):
    """2x2 matrix times 2-vector, broadcast over the leading axes:
    ``out[..., i] = M[..., i, 0] * v[..., 0] + M[..., i, 1] * v[..., 1]``.

    A sum of two products has one rounding order, so this equals the
    matching ``np.einsum`` bit for bit, at a fraction of its cost.  When the
    result has v's shape it also keeps v's memory layout, as ``a * v`` would:
    the einsum reductions that read it sum in an order set by that layout.
    """
    shape = np.broadcast_shapes(M.shape[:-2], v.shape[:-1]) + (2,)
    out = np.empty_like(v) if shape == v.shape else np.empty(shape)
    for i in range(2):
        np.multiply(M[..., i, 0], v[..., 0], out=out[..., i])
        out[..., i] += M[..., i, 1] * v[..., 1]
    return out


# ---------------------------------------------------------------------------
# reference shape functions


def shape_values(degree, pts):
    """Basis values at reference points; returns (nb, ...) array."""
    pts = np.asarray(pts, float)
    x, y = pts[..., 0], pts[..., 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    if degree == 1:
        return np.stack([l0, l1, l2])
    if degree == 2:
        return np.stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
        ])
    raise ValueError(f"unsupported degree {degree}")


def shape_gradients(degree, pts):
    """Reference-coordinate gradients; returns (nb, ..., 2)."""
    pts = np.asarray(pts, float)
    x, y = pts[..., 0], pts[..., 1]
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    if degree == 1:
        g = [(-one, -one), (one, zero), (zero, one)]
    elif degree == 2:
        l0 = 1.0 - x - y
        g = [
            ((1 - 4 * l0), (1 - 4 * l0)),
            (4 * x - 1, zero),
            (zero, 4 * y - 1),
            (4 * y, 4 * x),
            (-4 * y, 4 * (l0 - y)),
            (4 * (l0 - x), -4 * x),
        ]
    else:
        raise ValueError(f"unsupported degree {degree}")
    return np.stack([np.stack(pair, axis=-1) for pair in g])


def shape_hessians(degree):
    """Constant reference Hessians, (nb, 2, 2). P1 basis has none."""
    if degree == 1:
        return np.zeros((3, 2, 2))
    if degree == 2:
        return np.array([
            [[4, 4], [4, 4]],
            [[4, 0], [0, 0]],
            [[0, 0], [0, 4]],
            [[0, 4], [4, 0]],
            [[0, -4], [-4, -8]],
            [[-8, -4], [-4, 0]],
        ], dtype=float)
    raise ValueError(f"unsupported degree {degree}")


# ---------------------------------------------------------------------------
# spaces


class FeSpace:
    """Continuous Lagrange space of degree 1 or 2 with Dirichlet bookkeeping."""

    def __init__(self, mesh, degree):
        if degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        self.mesh = mesh
        self.degree = degree
        nv = mesh.n_vertices
        edges, elem_edges, owners, _ = mesh.edge_table()
        # the boundary edges are the single-owner edges
        boundary = owners[:, 1] < 0
        dirichlet = np.unique(edges[boundary])
        if degree == 1:
            self.element_dofs = mesh.elements.copy()
            self.dof_coords = mesh.vertices.copy()
        else:
            self.element_dofs = np.hstack([mesh.elements, nv + elem_edges])
            mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
            self.dof_coords = np.vstack([mesh.vertices, mids])
            dirichlet = np.concatenate([dirichlet, nv + np.flatnonzero(boundary)])
        self.ndofs = self.dof_coords.shape[0]
        self.dirichlet_dofs = dirichlet
        free_mask = np.ones(self.ndofs, dtype=bool)
        free_mask[dirichlet] = False
        self.free_dofs = np.nonzero(free_mask)[0]
        self.n_free = self.free_dofs.size
        self._geom = None

    # geometry used by every quadrature loop
    def geometry(self):
        if self._geom is None:
            v = self.mesh.vertices[self.mesh.elements]
            B = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
            det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
            inv = np.empty_like(B)
            inv[:, 0, 0] = B[:, 1, 1] / det
            inv[:, 0, 1] = -B[:, 0, 1] / det
            inv[:, 1, 0] = -B[:, 1, 0] / det
            inv[:, 1, 1] = B[:, 0, 0] / det
            self._geom = (v[:, 0], B, det, inv)
        return self._geom

    def rule(self, degree):
        """Quadrature data of the degree rule on every element."""
        return ElementRule(self, *triangle_rule(degree))

    def expand(self, free_vector):
        """Zero-pad a free-dof vector to full length."""
        full = np.zeros(self.ndofs)
        full[self.free_dofs] = free_vector
        return full


class ElementRule:
    """One quadrature rule mapped to every element of a space.

    ``wts`` (nq,), ``det`` (ne,), ``Binv`` (ne, 2, 2) and the reference shape
    values ``vals`` (nb, nq) are set at once.  Physical data are made per
    slice of elements, point-major so that per-element data broadcast along
    the contiguous axis: the points by `points_on` and the fields of finite
    element functions by `fields_on`.
    """

    def __init__(self, space, pts, wts):
        self.space = space
        self.pts = pts
        self.wts = wts
        _, _, self.det, self.Binv = space.geometry()
        self.vals = shape_values(space.degree, pts)
        # P1 gradients are constant on each element: map them at one point
        self._gref = shape_gradients(space.degree, pts if space.degree > 1 else pts[:1])

    def points_on(self, elements):
        """x and y of the points of the given elements, (2, nq, n)."""
        v0, B, _, _ = self.space.geometry()
        v0, B = v0[elements], B[elements]
        out = np.empty((2, self.pts.shape[0], B.shape[0]))
        for i in range(2):
            np.multiply.outer(self.pts[:, 0], B[:, i, 0], out=out[i])
            out[i] += np.multiply.outer(self.pts[:, 1], B[:, i, 1])
            out[i] += v0[:, i]
        return out

    def fields_on(self, elements, V, out=None):
        """Value, d/dx and d/dy of each column of V (ndofs, k) at the points
        of the given elements, (3, k, nq, n), written to `out` if given.
        The reference gradients are mapped by B^-T: at every point for P2,
        once per element for P1."""
        local = V.T[:, self.space.element_dofs[elements].T]     # (k, nb, n)
        r0, r1 = self._gref[..., 0].T @ local, self._gref[..., 1].T @ local
        Binv = self.Binv[elements].transpose(1, 2, 0)
        if out is None:
            out = np.empty((3, local.shape[0], self.wts.size, local.shape[2]))
        out[0] = self.vals.T @ local
        out[1] = Binv[0, 0] * r0 + Binv[1, 0] * r1
        out[2] = Binv[0, 1] * r0 + Binv[1, 1] * r1
        return out


def _element_major(fn, xy):
    """fn, from (m, 2) points to (m,) values, at the points xy (2, nq, ne)
    of `ElementRule.points_on`, as a C-contiguous (ne, nq) array: the layout
    in which the products over the points sum."""
    values = np.asarray(fn(xy.reshape(2, -1).T), float).reshape(xy.shape[1:])
    return np.ascontiguousarray(values.T)


def build_space(mesh, degree):
    return FeSpace(mesh, degree)


# ---------------------------------------------------------------------------
# assembly


@lru_cache(maxsize=None)
def _reference_tables(degree):
    """Exact integrals over the reference triangle, flattened over (b, d):
    the mass table int phi_b phi_d, (nb*nb,), and the stiffness tables
    int d_i phi_b d_j phi_d for ij = xx, xy + yx and yy, (3, nb*nb).

    Every table is symmetric in (b, d) bit for bit, so an element block that
    is their product with per-element weights is too.
    """
    pts, wts = triangle_rule(2 * degree)
    vals, grads = shape_values(degree, pts), shape_gradients(degree, pts)
    mass = np.einsum("bq,dq,q->bd", vals, vals, wts)
    s = np.einsum("bqi,dqj,q->ijbd", grads, grads, wts)
    tables = np.stack([mass, s[0, 0], s[0, 1] + s[1, 0], s[1, 1]])
    tables = 0.5 * (tables + tables.transpose(0, 2, 1))
    tables = tables.reshape(4, -1)
    tables.flags.writeable = False
    return tables[0], tables[1:]


def _flux_map(space, coeffs):
    """A B^-T on every element, (ne, 2, 2): it maps the reference gradient
    of a function to its physical flux A grad u."""
    _, _, _, Binv = space.geometry()
    # row j of the product is A times row j of B^-1, a column of A B^-T
    return _matvec2(coeffs.a_matrix_for(space.mesh.region)[:, None], Binv).transpose(0, 2, 1)


def _metric(space, coeffs):
    """The entries xx, xy and yy of the symmetric B^-1 A B^-T on every
    element, (ne, 3).  For reference gradients g of u and h of v,
    (A grad u) . grad v is their dot product with
    (g_x h_x, g_x h_y + g_y h_x, g_y h_y)."""
    _, _, _, Binv = space.geometry()
    F = _flux_map(space, coeffs)
    out = np.empty((Binv.shape[0], 3))
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        np.multiply(Binv[:, i, 0], F[:, 0, j], out=out[:, k])
        out[:, k] += Binv[:, i, 1] * F[:, 1, j]
    return out


def _to_csr(space, local, apply_dirichlet):
    """CSR matrix of the element blocks local (ne, nb*nb), on the free dofs
    or on every dof.  The triplets are renumbered first, so constrained rows
    and columns never enter the matrix."""
    if apply_dirichlet:
        n = space.n_free
        number = np.full(space.ndofs, -1, np.int32)
        number[space.free_dofs] = np.arange(n, dtype=np.int32)
    else:
        n = space.ndofs
        number = np.arange(n, dtype=np.int32)
    dofs = number[space.element_dofs]
    nb = dofs.shape[1]
    rows = np.repeat(dofs, nb, axis=1).ravel()
    cols = np.tile(dofs, (1, nb)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(n, n)).tocsr()


def assemble_stiffness(space, coeffs, apply_dirichlet=True):
    """Sparse matrix of a(phi_j, phi_i) = (A grad, grad) + (c .,.).

    A variable c is taken at the points of the degree 2k+2 rule, exact for
    the oscillator's quadratic c, against the table w_q phi_b(x_q) phi_d(x_q).
    """
    mass, stiff = _reference_tables(space.degree)
    if callable(coeffs.c):
        rule = space.rule(2 * space.degree + 2)
        cq = _element_major(coeffs.c_at, rule.points_on(slice(None)))
        c_table = np.einsum("bq,dq,q->qbd", rule.vals, rule.vals, rule.wts)
        c_table = c_table.reshape(rule.wts.size, -1)
    else:
        cq = np.full((space.mesh.n_elements, 1), float(coeffs.c))
        c_table = mass[None]
    _, _, det, _ = space.geometry()
    weights = np.hstack([_metric(space, coeffs), cq]) * det[:, None]
    return _to_csr(space, weights @ np.vstack([stiff, c_table]), apply_dirichlet)


def assemble_mass(space, apply_dirichlet=True):
    """Sparse matrix of b(phi_j, phi_i) = (phi_j, phi_i): det B times the
    reference mass table on every element."""
    mass, _ = _reference_tables(space.degree)
    _, _, det, _ = space.geometry()
    return _to_csr(space, det[:, None] * mass, apply_dirichlet)


def assemble_load(space, f):
    """Load vector b(f, phi_i) on the free dofs for a callable source
    f(points)->(m,)."""
    rule = space.rule(2 * space.degree + 2)
    fq = _element_major(f, rule.points_on(slice(None)))
    local = np.einsum("bq,eq,q->eb", rule.vals, fq, rule.wts) * rule.det[:, None]
    rhs = np.zeros(space.ndofs)
    np.add.at(rhs, space.element_dofs.ravel(), local.ravel())
    return rhs[space.free_dofs]


# ---------------------------------------------------------------------------
# prolongation and the a-form at quadrature points


def prolongate(coarse_space, fine_space, ancestor, vec):
    """Carry a coarse coefficient vector to a refined mesh exactly.

    `ancestor` is `RefineResult.ancestor`, the coarse element id of every
    fine element.  Every fine dof point lies inside the coarse ancestor of
    one of its elements; evaluating the coarse polynomial there reproduces
    the same function because refinement nests elements.
    """
    if coarse_space.degree != fine_space.degree:
        raise ValueError("prolongation requires matching degrees")
    vec = np.asarray(vec, float)
    fine = fine_space
    host_elem = np.empty(fine.ndofs, dtype=np.int64)
    seen = np.zeros(fine.ndofs, dtype=bool)
    for local in range(fine.element_dofs.shape[1]):
        col = fine.element_dofs[:, local]
        new = ~seen[col]
        host_elem[col[new]] = np.nonzero(new)[0]
        seen[col[new]] = True
    parents = np.asarray(ancestor, dtype=np.int64)[host_elem]
    v0, _, _, Binv = coarse_space.geometry()
    rel = fine.dof_coords - v0[parents]
    xi = _matvec2(Binv[parents], rel)
    vals = shape_values(coarse_space.degree, xi)        # (nb, ndofs_fine)
    local = vec[coarse_space.element_dofs[parents]]     # (ndofs_fine, nb)
    return np.einsum("nb,bn->n", local, vals)


def _energy_weights(rule, coeffs, elements, flat):
    """The weights of the a-form at the points `flat` (nq n, 2) of the given
    elements, see `_energy_weighted`, and the quadrature weights w (nq, n)."""
    w = rule.wts[:, None] * rule.det[elements]
    c = coeffs.c_at(flat)
    wc = w * (c if np.isscalar(c) else c.reshape(w.shape))
    if isinstance(coeffs.a, dict):
        A = coeffs.a_matrix_for(rule.space.mesh.region[elements])
        return (wc, w * A[:, 0, 0], w * A[:, 0, 1], w * A[:, 1, 1]), w
    return (wc, coeffs.a * w), w


def _energy_weighted(weights, Z):
    """The a-form's left factor of fields Z (3, k, nq, n): c w times the
    values and w A times the gradient.  `weights` is (c w, w A_xx, w A_xy,
    w A_yy), or (c w, a w) for A = a I, each (nq, n)."""
    out = np.empty_like(Z)
    np.multiply(Z[0], weights[0], out=out[0])
    if len(weights) == 2:
        np.multiply(Z[1:], weights[1], out=out[1:])
    else:
        _, xx, xy, yy = weights
        np.multiply(Z[1], xx, out=out[1])
        out[1] += xy * Z[2]
        np.multiply(Z[2], yy, out=out[2])
        out[2] += xy * Z[1]
    return out


def energy_error(space, coeffs, vec, fn):
    """|| w - u_h ||_a by quadrature against an analytic w, given as one
    callable from (m, 2) points to the (3, m) rows of w, dw/dx and dw/dy:
    the a-form, weighed as the gap weighs it, of w minus the fields of u_h
    at the points of the degree 2k+2 rule (the gap's own rule, `gap.gap_rule`,
    is of degree 2k+4)."""
    rule = space.rule(2 * space.degree + 2)
    every = slice(None)
    flat = rule.points_on(every).reshape(2, -1).T
    uh = rule.fields_on(every, np.asarray(vec, float)[:, None])[:, 0]
    d = np.asarray(fn(flat), float).reshape(uh.shape) - uh
    weights, _ = _energy_weights(rule, coeffs, every, flat)
    return float(np.sqrt(np.sum(_energy_weighted(weights, d) * d)))
