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

`gap_energy` measures every cluster of a window from one workspace, in two
passes over the mesh in blocks of whole elements of at most `BLOCK_POINTS`
quadrature points.  The first pass evaluates every exact and discrete member
on a block and adds the block's share of the a- and b-Grams of all members,
of which each cluster's Grams are diagonal blocks; the directions come from
those Grams.  The second pass evaluates the members again and integrates the
residuals of every cluster and direction pointwise, all from one product of
their coefficients with the block's fields.  The workspace thus holds one
block's fields, never the mesh's: its memory is bounded by the block, not the
mesh, and each pass stays in cache.  Each exact member is one call per block
that returns its values and gradient together (see `ExactEigenspace`), at
the points of `ElementRule.points_on`; the discrete members come from
`ElementRule.fields_on`, and both are weighed by the a-form of
`fem.energy_error`.  Every Gram comes from one element rule, `gap_rule`: the
tabulated symmetric rule of degree 2k+4 (Dunavant) on each whole element.
For constant A and quadratic c (every built-in problem) it makes the discrete
Grams S and SM equal V^T K V and V^T M V up to rounding.  Its two degrees
above 2k+2 serve the closed-form members: on the oscillator, the large
far-field elements that the estimator leaves coarse still span the Gaussian's
unit length scale, and there a higher degree gains more than a subdivided
rule of lower degree.  The tests bound its deviation from the same rule
subdivided, which they build themselves and put in place of `gap_rule`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .fem import _energy_weighted, _energy_weights

# quadrature points per block of elements: a block's fields, (3, members,
# points) numbers, stay in cache, and no array of the workspace grows with
# the mesh beyond the cluster vectors themselves
BLOCK_POINTS = 8192


def gap_rule(space):
    """The gap's quadrature on every element of `space`: the symmetric rule
    of degree 2k+4 for degree-k elements."""
    return space.rule(2 * space.degree + 4)


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


class _GapWorkspace:
    """Grams of every member of a window's clusters and the residual norms of
    their maximizing directions.

    G, B, P, S and SM pair every member with every other; cluster i owns the
    block ``blocks[i]`` of both sides.  Fields are evaluated one block of
    elements at a time, as (3, members, nq, n) arrays of values, x and y
    gradients: exact members first, then discrete ones from
    `ElementRule.fields_on`, point-major so that per-element data broadcasts
    along the contiguous axis.
    """

    def __init__(self, exact, discrete, space, coeffs):
        self.V = np.column_stack([cl.vectors for cl in discrete])
        if self.V.shape[0] != space.ndofs:
            raise GapError("cluster vectors do not live on the given space")
        stops = np.cumsum([cl.q for cl in discrete])
        self.blocks = [slice(stop - cl.q, stop) for stop, cl in zip(stops, discrete)]
        self.basis = [(ci, j, fn) for ci, eigenspace in enumerate(exact)
                      for j, fn in enumerate(eigenspace.basis)]
        self.space, self.coeffs = space, coeffs
        self.rule = gap_rule(space)

        m = len(self.basis)
        a_gram, b_gram = 0.0, 0.0
        for weights, w, Z in self._fields():
            z = Z.reshape(3, Z.shape[1], -1)
            za = _energy_weighted(weights, Z).reshape(z.shape)
            a_gram = a_gram + (za @ z.transpose(0, 2, 1)).sum(axis=0)
            b_gram = b_gram + (z[0] * w.ravel()) @ z[0].T
        self.G, self.P, self.S = a_gram[:m, :m], a_gram[:m, m:], a_gram[m:, m:]
        self.B, self.SM = b_gram[:m, :m], b_gram[m:, m:]

    def _fields(self):
        """Per block of elements: the weights of the a-form, see
        `fem._energy_weighted`, w (nq, n) and the fields of every member,
        (3, members, nq, n)."""
        rule, space = self.rule, self.space
        nq, m = rule.wts.size, len(self.basis)
        step = max(1, BLOCK_POINTS // nq)
        for start in range(0, space.mesh.n_elements, step):
            blk = slice(start, start + step)
            xy = rule.points_on(blk)
            n = xy.shape[2]
            flat = xy.reshape(2, -1).T       # (nq n, 2) with contiguous columns
            Z = np.empty((3, m + self.V.shape[1], nq, n))
            for i, (ci, j, fn) in enumerate(self.basis):
                out = np.asarray(fn(flat), float)
                if out.shape != (3, nq * n):
                    raise GapError(f"exact[{ci}].basis[{j}] returned shape "
                                   f"{out.shape}, expected (3, {nq * n})")
                Z[:, i] = out.reshape(3, nq, n)
            rule.fields_on(blk, self.V, out=Z[:, m:])
            weights, w = _energy_weights(rule, self.coeffs, blk, flat)
            yield weights, w, Z

    def _direction(self, i, reverse):
        """Coefficients on every member (exact, then discrete) of the residual
        of cluster i's direction of largest projection error."""
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
        m = len(self.basis)
        coef = np.zeros(m + self.V.shape[1])
        coef[blk], coef[m:][blk] = (c, -alpha) if reverse else (alpha, -c)
        return coef

    @cached_property
    def distances(self):
        """(forward, reverse) directed distance of every cluster: the a-norm
        of each residual sum alpha_j u_j - sum beta_l v_l, integrated
        pointwise in one pass for every cluster and direction."""
        C = np.column_stack([self._direction(i, reverse)
                             for i in range(len(self.blocks)) for reverse in (False, True)])
        total = np.zeros(C.shape[1])
        for weights, w, Z in self._fields():
            R = (C.T @ Z.reshape(3, len(C), -1)).reshape(3, C.shape[1], *w.shape)
            total += np.einsum("jkqe,jkqe->k", _energy_weighted(weights, R), R)
        d = np.sqrt(np.maximum(total, 0.0))
        return [(float(d[2 * i]), float(d[2 * i + 1])) for i in range(len(self.blocks))]


def gap_energy(exact, discrete, space, coeffs):
    """Energy gap delta of each pair of equal-length sequences of exact
    eigenspaces and discrete clusters: the max of its two directed distances."""
    if len(exact) != len(discrete) or not exact:
        raise GapError("need one exact eigenspace per discrete cluster")
    if any(e.dim != d.q for e, d in zip(exact, discrete)):
        raise GapError("spaces must have equal dimension")
    ws = _GapWorkspace(exact, discrete, space, coeffs)
    return [max(fwd, rev) for fwd, rev in ws.distances]
