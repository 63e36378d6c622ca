"""Energy-norm distance between exact and discrete eigenspaces.

The directed distance from X to Y is sup over the b-unit sphere of X of the
a-orthogonal projection error onto Y.  With Gram matrices

    G = a-Gram of X,  B = b-Gram of X,  S = a-Gram of Y,  P = cross a-terms,

the squared projection error of the X element with coefficients alpha is
alpha^T (G - P S^-1 P^T) alpha, and the sup over {alpha : alpha^T B alpha = 1}
is the largest eigenvalue of the pencil (G - P S^-1 P^T, B).  The returned
distance re-integrates the residual of the maximizing direction pointwise,
which sidesteps the Gram cancellation that would otherwise floor tiny
distances at sqrt(machine eps).  The gap is the max of the two directed
distances, each computed by the same formula with the roles swapped.

`gap_energy` measures every cluster of a window from one workspace: the rule,
its points and every exact and discrete member are evaluated once, and the
Grams of all members are BLAS products of which each cluster's Grams are
diagonal blocks.  Each exact member is one call per row that returns its
values and gradient together (see `ExactEigenspace`).  Every Gram comes from
one subdivided element rule of degree 2k+2, which for constant A and
quadratic c (every built-in problem) makes the discrete Grams S and SM equal
V^T K V and V^T M V up to rounding.  A P1 gradient is constant on each
element and kept with a point axis of length one; a product with it sums the
other factor over the element's points first.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .fem import shape_gradients


@dataclass
class ExactEigenspace:
    """Analytic eigenvalue with a b-orthonormal closed-form basis: callables
    from (m, 2) points to the (3, m) rows of value, d/dx and d/dy."""

    value: float
    basis: list

    @property
    def dim(self):
        return len(self.basis)


class GapError(RuntimeError):
    pass


def _gram(left, right):
    """(i, j) sums over points and elements of left[i] * right[j].

    Both are (members, points, ne); a right side with one point (constant on
    each element) meets the left side summed over its points.
    """
    if right.shape[1] != left.shape[1]:
        left = left.sum(axis=1, keepdims=True)
    return left.reshape(len(left), -1) @ right.reshape(len(right), -1).T


class _GapWorkspace:
    """Quadrature data and Grams of every member of a window's clusters.

    Each side is (values, x gradients, y gradients), arrays of shape
    (members, nq, ne): point-major, so per-element data broadcasts along the
    contiguous axis.  The P1 discrete gradients have one point.  G, B, P, S
    and SM pair every member with every other; cluster i owns the block
    ``blocks[i]`` of both sides.
    """

    def __init__(self, exact, discrete, space, coeffs, subdivision=1):
        V = np.column_stack([cl.vectors for cl in discrete])
        if V.shape[0] != space.ndofs:
            raise GapError("cluster vectors do not live on the given space")
        stops = np.cumsum([cl.q for cl in discrete])
        self.blocks = [slice(stop - cl.q, stop) for stop, cl in zip(stops, discrete)]

        rule = space.rule(2 * space.degree + 2, subdivision)
        xq = rule.xq.transpose(1, 0, 2)         # (nq, ne, 2), the rule's own layout
        nq, ne = xq.shape[:2]
        flat = xq.reshape(-1, 2)
        # the members first: a call's temporaries set the workspace's memory
        # peak, so neither the weights nor the last call's output outlive it
        basis = [(ci, j, fn) for ci, eigenspace in enumerate(exact)
                 for j, fn in enumerate(eigenspace.basis)]
        u = np.empty((3, len(basis), nq, ne))
        for i, (ci, j, fn) in enumerate(basis):
            out = np.asarray(fn(flat), float)
            if out.shape != (3, nq * ne):
                raise GapError(f"exact[{ci}].basis[{j}] returned shape "
                               f"{out.shape}, expected (3, {nq * ne})")
            u[:, i] = out.reshape(3, nq, ne)
            del out
        self.exact = tuple(u)
        self.w = rule.wts[:, None] * rule.det[None, :]
        self.wc = self.w * coeffs.c_at(xq)
        self.A = np.ascontiguousarray(
            coeffs.a_matrix_for(space.mesh.region).transpose(1, 2, 0))   # (2, 2, ne)

        # discrete gradients from element data: reference gradients mapped by
        # Binv^T, at one point on P1, where they are constant on each element
        local = V.T[:, space.element_dofs.T]                        # (m, nb, ne)
        gref = shape_gradients(space.degree, rule.pts if space.degree > 1 else rule.pts[:1])
        r0, r1 = gref[..., 0].T @ local, gref[..., 1].T @ local
        Binv = rule.Binv.transpose(1, 2, 0)
        self.discrete = (rule.vals.T @ local, Binv[0, 0] * r0 + Binv[1, 0] * r1,
                         Binv[0, 1] * r0 + Binv[1, 1] * r1)
        del rule, xq, flat, u

        (uv, ux, uy), (vv, vx, vy) = self.exact, self.discrete
        wv = self.w if vx.shape[1] == nq else self.w.sum(axis=0, keepdims=True)
        cu = self.wc * uv
        self.G, self.P = _gram(cu, uv), _gram(cu, vv)
        del cu
        self.S = _gram(self.wc * vv, vv)
        for i, (ug, vg) in enumerate(((ux, vx), (uy, vy))):
            flux = self._flux(i, ux, uy, self.w)
            self.G += _gram(flux, ug)
            self.P += _gram(flux, vg)
            del flux
            self.S += _gram(self._flux(i, vx, vy, wv), vg)
        self.B = _gram(self.w * uv, uv)
        self.SM = _gram(self.w * vv, vv)

    def _flux(self, i, gx, gy, w):
        """Component i of w * A grad for gradient components (m, n, ne)."""
        flux = self.A[i, 0] * gx
        flux += self.A[i, 1] * gy
        flux *= w
        return flux

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
        """Distance from cluster i's exact space to its discrete one (or back)."""
        blk = self.blocks[i]
        G, B, P, S, SM = (M[blk, blk] for M in (self.G, self.B, self.P, self.S, self.SM))
        from_a, from_b, cross, to_a = (S, SM, P.T, G) if reverse else (G, B, P, S)
        try:
            sol = np.linalg.solve(to_a, cross.T)
        except np.linalg.LinAlgError as exc:
            raise GapError(f"degenerate cluster Gram: {exc}") from exc
        D = from_a - cross @ sol
        D = 0.5 * (D + D.T)
        _, W = sla.eigh(D, 0.5 * (from_b + from_b.T))
        alpha = W[:, -1]   # b-normalized maximizer of the projection error
        c = sol @ alpha
        return self._residual_norm(i, c, alpha) if reverse else self._residual_norm(i, alpha, c)


def gap_energy(exact, discrete, space, coeffs, subdivision=1):
    """Energy gap delta of each pair of equal-length sequences of exact
    eigenspaces and discrete clusters: the max of its two directed distances."""
    if len(exact) != len(discrete) or not exact:
        raise GapError("need one exact eigenspace per discrete cluster")
    if any(e.dim != d.q for e, d in zip(exact, discrete)):
        raise GapError("spaces must have equal dimension")
    ws = _GapWorkspace(exact, discrete, space, coeffs, subdivision)
    return [max(ws.directed(i), ws.directed(i, reverse=True)) for i in range(len(exact))]
