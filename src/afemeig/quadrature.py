"""Quadrature rules on the reference triangle.

The reference triangle has vertices (0,0), (1,0), (0,1) and area 1/2, and
all rule weights sum to 1/2.  The rules are Dunavant's symmetric Gauss rules
(IJNME 1985) of the degrees the package integrates at, 2, 4, 6 and 8; no
other degree is tabulated, and no rule is subdivided.
"""

from functools import lru_cache

import numpy as np

# Symmetric Gauss rules, (barycentric-style generator, weight) data.
# Weights are given relative to unit total and scaled by the triangle area below.
_TRI_RULES = {
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
    """Return (points (nq, 2), weights (nq,)) of the tabulated rule of
    `degree`, exact for polynomials of that degree."""
    if degree not in _TRI_RULES:
        raise ValueError(f"no triangle rule of degree {degree}; "
                         f"tabulated: {sorted(_TRI_RULES)}")
    pts, wts = [], []
    for w, kind, a in _TRI_RULES[degree]:
        orbit = _expand_orbit(kind, a)
        pts.extend(orbit)
        wts.extend([w] * len(orbit))
    points = np.array(pts, dtype=float)
    weights = 0.5 * np.array(wts, dtype=float)
    return points, weights
