"""Residual a posteriori indicators and oscillations, per element.

For each member function u with datum r0 (lambda*u for eigenpairs, f for
source problems) the element residual is

    R_T = r0 + div(A grad u) - c u,

and the jump J_E = [[A grad u]] . nu on interior edges.  The local indicator

    eta^2_T = h_T^2 ||R_T||^2_{0,T} + sum_{E in dT} h_E ||J_E||^2_{0,E}

sums each interior edge fully into BOTH adjacent elements (no 1/2 factor),
and a cluster's indicator is the plain sum over its members.  Oscillations
subtract the L2 projection of R_T onto P_{k-1}(T) and of J_E onto P_k(E).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fem import _matvec2, shape_gradients, shape_hessians
from .quadrature import interval_rule, triangle_rule


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


@lru_cache(maxsize=None)
def _edge_projector(degree_poly, npoints):
    t, w = interval_rule(npoints)
    phi = np.stack([t ** p for p in range(degree_poly + 1)])
    gram = np.einsum("iq,jq,q->ij", phi, phi, w)
    proj = phi.T @ np.linalg.solve(gram, phi * w[None, :])
    return proj


def _interior_terms(space, coeffs, vectors, lams, sources, rule_degree):
    mesh = space.mesh
    rule = space.rule(rule_degree)
    xq = rule.xq
    h2 = mesh.diameters() ** 2
    href = shape_hessians(space.degree)
    cq = coeffs.c_at(xq)
    amat = coeffs.a_matrix_for(mesh.region)
    proj = _tri_projector(space.degree - 1, rule_degree)
    eta2 = np.zeros(mesh.n_elements)
    osc2 = np.zeros(mesh.n_elements)
    for m in range(vectors.shape[1]):
        local = vectors[:, m][space.element_dofs]
        uq = np.einsum("eb,bq->eq", local, rule.vals)
        if sources is not None:
            r0 = np.asarray(sources[m](xq.reshape(-1, 2)), float).reshape(xq.shape[:2])
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


def _edge_terms(space, coeffs, vectors, npoints):
    """Squared jump indicator and oscillation accumulated per element."""
    mesh = space.mesh
    edges, _, owners, _ = mesh.edge_table()
    interior = owners[:, 1] >= 0
    e_int = edges[interior]
    own = owners[interior]
    if e_int.shape[0] == 0:
        z = np.zeros(mesh.n_elements)
        return z, z.copy()
    t, w = interval_rule(npoints)
    va = mesh.vertices[e_int[:, 0]]
    vb = mesh.vertices[e_int[:, 1]]
    tang = vb - va
    lens = np.linalg.norm(tang, axis=1)
    nu = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / lens[:, None]
    xq = va[:, None, :] + t[None, :, None] * tang[:, None, :]
    v0, _, _, Binv = space.geometry()
    proj = _edge_projector(space.degree, npoints)

    flux = []
    for side in (0, 1):
        el = own[:, side]
        rel = xq - v0[el][:, None, :]
        xi = _matvec2(Binv[el][:, None], rel)
        gref = shape_gradients(space.degree, xi)            # (nb, nE, nq, 2)
        gphys = _matvec2(Binv[el].transpose(0, 2, 1)[:, None], gref)
        dofs = space.element_dofs[el]                        # (nE, nb)
        gm = np.einsum("emb,beqi->meqi",
                       vectors[dofs].transpose(0, 2, 1), gphys)  # (nmem, nE, nq, 2)
        flux.append(coeffs.apply_a(mesh.region[el], gm))
    jump = np.einsum("meqi,ei->meq", flux[0] - flux[1], nu)

    wl = w[None, None, :] * lens[None, :, None]
    jump2 = np.einsum("meq->e", jump ** 2 * wl)              # int_E J^2 ds, all members
    jdiff = jump - jump @ proj.T
    osc_e = np.einsum("meq->e", jdiff ** 2 * wl)
    eta_edge = lens * jump2
    osc_edge = lens * osc_e

    eta2 = np.zeros(mesh.n_elements)
    osc2 = np.zeros(mesh.n_elements)
    for side in (0, 1):   # each interior edge contributes fully to both owners
        np.add.at(eta2, own[:, side], eta_edge)
        np.add.at(osc2, own[:, side], osc_edge)
    return eta2, osc2


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
    eta_e, osc_e = _edge_terms(space, coeffs, vectors, space.degree + 2)
    return IndicatorField(eta2=eta_i + eta_e, osc2=osc_i + osc_e)


def eigen_indicators(space, coeffs, cluster):
    """Cluster indicator: sum of member indicators with their own lambdas."""
    return _indicators(space, coeffs, cluster.vectors, lams=np.asarray(cluster.values))
