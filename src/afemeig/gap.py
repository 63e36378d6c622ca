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

Every Gram comes from one subdivided element rule of degree 2k+2, which for
constant A and quadratic c (every built-in problem) makes the discrete Grams
S and SM equal V^T K V and V^T M V up to rounding.
"""

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla


@dataclass(frozen=True)
class ExactFunction:
    """Closed-form function with evaluable gradient; both take (m, 2) arrays."""

    value: Callable
    grad: Callable


@dataclass
class ExactEigenspace:
    """Analytic eigenvalue with a b-orthonormal closed-form basis."""

    value: float
    basis: list

    @property
    def dim(self):
        return len(self.basis)


class GapError(RuntimeError):
    pass


# point values (q, ne, nq), gradients and A-weighted gradients (q, ne, nq, 2)
# of one basis
_SideData = namedtuple("_SideData", "vals grads agrads")


class _GapWorkspace:
    """Shared quadrature data for every distance between two fixed spaces."""

    def __init__(self, exact, cluster, space, coeffs, subdivision=1):
        V = cluster.vectors
        if V.shape[0] != space.ndofs:
            raise GapError("cluster vectors do not live on the given space")

        rule = space.rule(2 * space.degree + 2, subdivision)
        xq = rule.xq
        flat = xq.reshape(-1, 2)
        ne, nq = xq.shape[:2]
        self.wdet = rule.wts[None, :] * rule.det[:, None]
        self.cq = coeffs.c_at(xq)
        region = space.mesh.region

        uvals = np.empty((exact.dim, ne, nq))
        ugrads = np.empty((exact.dim, ne, nq, 2))
        for i, fn in enumerate(exact.basis):
            uvals[i] = np.asarray(fn.value(flat), float).reshape(ne, nq)
            ugrads[i] = np.asarray(fn.grad(flat), float).reshape(ne, nq, 2)
        self.exact = _SideData(uvals, ugrads, coeffs.apply_a(region, ugrads))

        local = V[space.element_dofs]                       # (ne, nb, qd)
        vvals = np.einsum("ebl,bq->leq", local, rule.vals)
        vgrads = np.einsum("ebl,ebqi->leqi", local, rule.grads)
        self.discrete = _SideData(vvals, vgrads, coeffs.apply_a(region, vgrads))

        self.G = self._a_gram(self.exact, self.exact)
        self.B = self._b_gram(self.exact, self.exact)
        self.P = self._a_gram(self.exact, self.discrete)
        self.S = self._a_gram(self.discrete, self.discrete)
        self.SM = self._b_gram(self.discrete, self.discrete)

    def _a_gram(self, left, right):
        g = np.einsum("meqi,neqi,eq->mn", left.agrads, right.grads, self.wdet)
        g += np.einsum("meq,neq,eq->mn", left.vals * self.cq, right.vals, self.wdet)
        return g

    def _b_gram(self, left, right):
        return np.einsum("meq,neq,eq->mn", left.vals, right.vals, self.wdet)

    def _residual_norm(self, side_from, alpha, side_to, c):
        """|| sum alpha_i u_i - sum c_l v_l ||_a by pointwise quadrature."""
        rvals = np.einsum("m,meq->eq", alpha, side_from.vals)
        rvals -= np.einsum("l,leq->eq", c, side_to.vals)
        rgrads = np.einsum("m,meqi->eqi", alpha, side_from.grads)
        rgrads -= np.einsum("l,leqi->eqi", c, side_to.grads)
        ragrads = np.einsum("m,meqi->eqi", alpha, side_from.agrads)
        ragrads -= np.einsum("l,leqi->eqi", c, side_to.agrads)
        dens = np.einsum("eqi,eqi->eq", ragrads, rgrads) + self.cq * rvals ** 2
        return float(np.sqrt(max(np.einsum("eq,eq->", dens, self.wdet), 0.0)))

    def directed(self, reverse=False):
        if reverse:
            from_a, from_b, cross, to_a = self.S, self.SM, self.P.T, self.G
            side_from, side_to = self.discrete, self.exact
        else:
            from_a, from_b, cross, to_a = self.G, self.B, self.P, self.S
            side_from, side_to = self.exact, self.discrete
        try:
            sol = np.linalg.solve(to_a, cross.T)
        except np.linalg.LinAlgError as exc:
            raise GapError(f"degenerate cluster Gram: {exc}") from exc
        D = from_a - cross @ sol
        D = 0.5 * (D + D.T)
        _, W = sla.eigh(D, 0.5 * (from_b + from_b.T))
        alpha = W[:, -1]   # b-normalized maximizer of the projection error
        c = sol @ alpha
        return self._residual_norm(side_from, alpha, side_to, c)


def gap_energy(exact, discrete, space, coeffs, subdivision=1):
    """max of the two directed distances (the energy gap delta)."""
    if exact.dim != discrete.q:
        raise GapError("spaces must have equal dimension")
    ws = _GapWorkspace(exact, discrete, space, coeffs, subdivision)
    return max(ws.directed(), ws.directed(reverse=True))

