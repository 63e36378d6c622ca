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

No gradient is formed at quadrature points.  u at the points of the degree
2k+2 rule is a product of the element coefficients with the reference shape
values; the P2 term div(A grad u) is sum_b u_b (B^-1 A B^-T : Hess_ref
phi_b), with the metric of `fem._metric`; the vertex fluxes of the jumps are
one 2x2 map by A B^-T of the reference gradients at the vertices; h_T
comes from the Jacobian B.  `FeSpace.rule` supplies the weights, and
`ElementRule.points_on` the points, mapped only for a source f or a
variable c.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fem import (_element_major, _flux_map, _matvec2, _metric, shape_gradients,
                  shape_hessians)
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
def _tri_projector(degree_poly):
    """Quadrature-point L2 projector onto reference polynomials of degree
    `degree_poly`, 0 or 1, at the points of the 2k+2 rule (k = degree_poly + 1).

    The affine Jacobian is constant per element, so projecting in reference
    coordinates equals the physical L2 projection.
    """
    pts, wts = triangle_rule(2 * degree_poly + 4)
    phi = np.vstack([np.ones(len(pts)), pts.T[:2 * degree_poly]])
    gram = np.einsum("iq,jq,q->ij", phi, phi, wts)
    proj = phi.T @ np.linalg.solve(gram, phi * wts[None, :])
    return proj  # (nq, nq), maps point values to projected point values


def _interior_terms(space, coeffs, local, lams, sources):
    """h_T^2 ||R_T||^2 and its oscillation per element, member by member,
    from the element coefficients `local` (members, ne, nb), by the degree
    2k+2 rule."""
    mesh = space.mesh
    rule = space.rule(2 * space.degree + 2)
    # h_T^2, the longest edge squared, times det B, which scales the weights
    _, B, det, _ = space.geometry()
    edges = (B[..., 0], B[..., 1], B[..., 1] - B[..., 0])
    weight = np.max([np.einsum("ei,ei->e", e, e) for e in edges], axis=0) * det
    xy = rule.points_on(slice(None)) if callable(coeffs.c) or sources is not None else None
    cq = _element_major(coeffs.c_at, xy) if callable(coeffs.c) else float(coeffs.c)
    proj = _tri_projector(space.degree - 1)
    if space.degree == 2:
        # div(A grad u) = sum_b u_b (B^-1 A B^-T : Hess_ref phi_b), constant on each element
        href = shape_hessians(2)
        hess = np.stack([href[:, 0, 0], href[:, 0, 1] + href[:, 1, 0], href[:, 1, 1]])
        div_table = _metric(space, coeffs) @ hess                # (ne, nb)
    eta2 = np.zeros(mesh.n_elements)
    osc2 = np.zeros(mesh.n_elements)
    for m, lm in enumerate(local):
        uq = lm @ rule.vals
        if sources is not None:
            r0 = _element_major(sources[m], xy)
        else:
            r0 = lams[m] * uq
        if space.degree == 2:
            r0 = r0 + np.einsum("eb,eb->e", lm, div_table)[:, None]
        R = r0 - cq * uq
        eta2 += weight * ((R * R) @ rule.wts)
        D = R - R @ proj.T
        osc2 += weight * ((D * D) @ rule.wts)
    return eta2, osc2


def _edge_terms(space, coeffs, local):
    """Squared jump indicator accumulated per element, in closed form.

    A is constant and grad u affine on each element, so J_E is affine along
    the edge and int_E J^2 ds = |E| (J_a^2 + J_a J_b + J_b^2) / 3 from its
    values at the end points a and b.
    """
    mesh = space.mesh
    _, _, owners, owner_local = mesh.edge_table()
    interior = owners[:, 1] >= 0
    gref = shape_gradients(space.degree, _REF_VERTICES)     # (nb, 3, 2)
    grads = (local @ gref.reshape(gref.shape[0], -1)).reshape(*local.shape[:2], 3, 2)
    flux = _matvec2(_flux_map(space, coeffs)[:, None], grads)
    flux = flux.reshape(len(local), -1, 2)     # (members, ne * 3, 2): row 3 * element + vertex

    # Local edge l joins local vertices l+1 and l+2.  Both owners are
    # counterclockwise, so they run their shared edge in opposite directions:
    # owner 0 from a to b, owner 1 from b to a.
    (el0, el1), (l0, l1) = owners[interior].T, owner_local[interior].T
    a0, b0 = 3 * el0 + (l0 + 1) % 3, 3 * el0 + (l0 + 2) % 3
    a1, b1 = 3 * el1 + (l1 + 2) % 3, 3 * el1 + (l1 + 1) % 3
    vertex = mesh.elements.ravel()
    tang = mesh.vertices[vertex[b0]] - mesh.vertices[vertex[a0]]
    normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)   # |E| nu
    ja, jb = (np.einsum("mei,ei->me", flux[:, i0] - flux[:, i1], normal)
              for i0, i1 in ((a0, a1), (b0, b1)))
    eta_edge = np.sum(ja * ja + ja * jb + jb * jb, axis=0) / 3.0   # |E| int_E J^2 ds
    # each interior edge contributes fully to both owners
    return np.bincount(np.concatenate([el0, el1]), np.tile(eta_edge, 2),
                       minlength=mesh.n_elements)


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
    local = vectors.T[:, space.element_dofs]       # (members, ne, nb)
    eta_i, osc_i = _interior_terms(space, coeffs, local, lams, sources)
    eta_e = _edge_terms(space, coeffs, local)
    return IndicatorField(eta2=eta_i + eta_e, osc2=osc_i)


def eigen_indicators(space, coeffs, cluster):
    """Cluster indicator: sum of member indicators with their own lambdas."""
    return _indicators(space, coeffs, cluster.vectors, lams=np.asarray(cluster.values))
