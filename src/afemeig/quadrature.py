"""Quadrature rules on the reference triangle.

The reference triangle has vertices (0,0), (1,0), (0,1) and area 1/2, and
all rule weights sum to 1/2.
"""

from functools import lru_cache

import numpy as np

# Symmetric Gauss rules, (barycentric-style generator, weight) data.
# Weights are given relative to unit total and scaled by the triangle area below.
_TRI_RULES = {
    1: [
        (1.0, "centroid", None),
    ],
    2: [
        (1.0 / 3.0, "s3", 1.0 / 6.0),
    ],
    4: [
        (0.223381589678011, "s3", 0.445948490915965),
        (0.109951743655322, "s3", 0.091576213509771),
    ],
    6: [
        (0.116786275726379, "s3", 0.249286745170910),
        (0.050844906370207, "s3", 0.063089014491502),
        (0.082851075618374, "s6", (0.310352451033785, 0.053145049844816)),
    ],
    8: [
        (0.144315607677787, "centroid", None),
        (0.095091634267285, "s3", 0.459292588292723),
        (0.103217370534718, "s3", 0.170569307751760),
        (0.032458497623198, "s3", 0.050547228317031),
        (0.027230314174435, "s6", (0.263112829634638, 0.008394777409958)),
    ],
}


def _expand_orbit(kind, a):
    if kind == "centroid":
        return [(1.0 / 3.0, 1.0 / 3.0)]
    if kind == "s3":
        return [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]
    if kind == "s6":
        b, c = a
        d = 1.0 - b - c
        return [(b, c), (c, b), (d, b), (b, d), (c, d), (d, c)]
    raise ValueError(kind)


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Return (points (nq, 2), weights (nq,)) exact for polynomials of `degree`."""
    for deg in sorted(_TRI_RULES):
        if deg >= degree:
            break
    else:
        raise ValueError(f"no triangle rule of degree {degree}")
    pts, wts = [], []
    for w, kind, a in _TRI_RULES[deg]:
        orbit = _expand_orbit(kind, a)
        pts.extend(orbit)
        wts.extend([w] * len(orbit))
    points = np.array(pts, dtype=float)
    weights = 0.5 * np.array(wts, dtype=float)
    return points, weights


@lru_cache(maxsize=None)
def triangle_rule_subdivided(degree, levels):
    """Base rule replicated over `levels` rounds of uniform 4-way subdivision.

    Used where the integrand is not polynomial (analytic eigenfunctions) and a
    plain high-order rule on coarse elements is not accurate enough.
    """
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
    return np.vstack(all_pts), np.concatenate(all_wts)

