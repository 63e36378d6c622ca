"""Residual a posteriori indicators and oscillations, per element.

For each member function u with datum r0 (lambda*u for eigenpairs, f for
source problems) the element residual is

    R_T = r0 + div(A grad u) - c u,

and the jump J_E = [[A grad u]] . nu on interior edges.  The local indicator

    eta^2_T = h_T^2 ||R_T||^2_{0,T} + sum_{E in dT} h_E ||J_E||^2_{0,E}

sums each interior edge fully into BOTH adjacent elements (no 1/2 factor),
and a cluster's indicator is the plain sum over its members.  The oscillation
subtracts the L2 projection of R_T onto P_{k-1}(T).  A is constant on each
element and grad u affine there (P1, P2), so J_E is affine along E: its
integral is taken in closed form from the end values, and its oscillation
against P_k(E) is identically zero.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fem import _matvec2, shape_gradients, shape_hessians
from .quadrature import triangle_rule

_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass
class IndicatorField:
    """Per-element squared indicators and oscillations."""

    eta2: np.ndarray
    osc2: np.ndarray

    @property
    def total_eta2(self):
        return float(np.sum(self.eta2))

    @property
    def total_osc2(self):
        return float(np.sum(self.osc2))


@lru_cache(maxsize=None)
def _tri_projector(degree_poly, rule_degree):
    """Quadrature-point L2 projector onto reference monomials of degree <= p.

    The affine Jacobian is constant per element, so projecting in reference
    coordinates equals the physical L2 projection.
    """
    pts, wts = triangle_rule(rule_degree)
    monos = [(0, 0)]
    if degree_poly >= 1:
        monos += [(1, 0), (0, 1)]
    if degree_poly >= 2:
        monos += [(2, 0), (1, 1), (0, 2)]
    phi = np.stack([pts[:, 0] ** a * pts[:, 1] ** b for a, b in monos])
    gram = np.einsum("iq,jq,q->ij", phi, phi, wts)
    proj = phi.T @ np.linalg.solve(gram, phi * wts[None, :])
    return proj  # (nq, nq), maps point values to projected point values


def _interior_terms(space, coeffs, vectors, lams, sources, rule_degree):
    mesh = space.mesh
    rule = space.rule(rule_degree)
    h2 = mesh.diameters() ** 2
    href = shape_hessians(space.degree)
    cq = coeffs.c_on(rule)
    amat = coeffs.a_matrix_for(mesh.region)
    proj = _tri_projector(space.degree - 1, rule_degree)
    eta2 = np.zeros(mesh.n_elements)
    osc2 = np.zeros(mesh.n_elements)
    for m in range(vectors.shape[1]):
        local = vectors[:, m][space.element_dofs]
        uq = np.einsum("eb,bq->eq", local, rule.vals)
        if sources is not None:
            r0 = np.asarray(sources[m](rule.xq.reshape(-1, 2)), float).reshape(uq.shape)
        else:
            r0 = lams[m] * uq
        if href.any():   # P2: div(A grad u) = A : Hess(u), constant on each element
            hess = np.einsum("eki,ekl,elj->eij", rule.Binv,
                             np.einsum("eb,bij->eij", local, href), rule.Binv)
            r0 = r0 + np.einsum("eij,eij->e", amat, hess)[:, None]
        R = r0 - cq * uq
        Rbar = R @ proj.T
        eta2 += h2 * rule.det * np.einsum("eq,q->e", R ** 2, rule.wts)
        osc2 += h2 * rule.det * np.einsum("eq,q->e", (R - Rbar) ** 2, rule.wts)
    return eta2, osc2


def _edge_terms(space, coeffs, vectors):
    """Squared jump indicator accumulated per element, in closed form.

    A is constant and grad u affine on each element, so J_E is affine along
    the edge and int_E J^2 ds = |E| (J_a^2 + J_a J_b + J_b^2) / 3 from its
    values at the end points a and b.
    """
    mesh = space.mesh
    edges, _, owners, owner_local = mesh.edge_table()
    interior = owners[:, 1] >= 0
    e_int, own, loc = edges[interior], owners[interior], owner_local[interior]
    tang = mesh.vertices[e_int[:, 1]] - mesh.vertices[e_int[:, 0]]
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)   # |E| nu
    _, _, _, Binv = space.geometry()
    gvert = _matvec2(Binv.transpose(0, 2, 1)[:, None, None],
                     shape_gradients(space.degree, _REF_VERTICES))   # (ne, nb, 3, 2)
    grads = np.einsum("emb,ebvi->mevi",
                      vectors[space.element_dofs].transpose(0, 2, 1), gvert)
    flux = coeffs.apply_a(mesh.region, grads)                # (nmem, ne, 3, 2)

    ends = []   # each owner's flux at a and at b; local edge l joins l+1, l+2
    for side in (0, 1):
        el, l = own[:, side], loc[:, side]
        after = (l + 1) % 3
        at_a = np.where(mesh.elements[el, after] == e_int[:, 0], after, (l + 2) % 3)
        ends.append((flux[:, el, at_a], flux[:, el, 3 - l - at_a]))
    ja, jb = (np.einsum("mei,ei->me", f0 - f1, normal) for f0, f1 in zip(*ends))
    eta_edge = np.sum(ja * ja + ja * jb + jb * jb, axis=0) / 3.0   # |E| int_E J^2 ds
    # each interior edge contributes fully to both owners
    return np.bincount(own.T.ravel(), np.tile(eta_edge, 2), minlength=mesh.n_elements)


def _indicators(space, coeffs, vectors, lams=None, sources=None):
    vectors = np.asarray(vectors, float)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    if vectors.shape[0] != space.ndofs:
        raise ValueError("solution vectors do not live on this space")
    if sources is None and (lams is None or len(lams) != vectors.shape[1]):
        raise ValueError("one eigenvalue per cluster member required")
    if sources is not None and len(sources) != vectors.shape[1]:
        raise ValueError("one source field per solution vector required")
    rule_degree = 2 * space.degree + 2
    eta_i, osc_i = _interior_terms(space, coeffs, vectors, lams, sources, rule_degree)
    eta_e = _edge_terms(space, coeffs, vectors)
    return IndicatorField(eta2=eta_i + eta_e, osc2=osc_i)


def eigen_indicators(space, coeffs, cluster):
    """Cluster indicator: sum of member indicators with their own lambdas."""
    return _indicators(space, coeffs, cluster.vectors, lams=np.asarray(cluster.values))
