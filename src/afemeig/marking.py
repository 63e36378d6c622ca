"""Dörfler (bulk) marking, minimal up to whole tie classes.

Elements are sorted by indicator descending (ties broken by ascending id) and
the shortest prefix reaching theta * total is found.  Every element whose
indicator ties with the smallest one of that prefix, to within a relative
TIE_REL_TOL, is marked with it, so a cut never splits a class of indicators
that agree only to round-off (symmetric meshes produce such classes): which
members get marked would otherwise depend on the BLAS build and thread count.
The marked set is {eta^2 >= (1 - TIE_REL_TOL) * cut value}, so it is monotone
in theta and a pure, deterministic function of the indicator values.
"""

from dataclasses import dataclass, field

import numpy as np

# indicators within this relative distance of the cut value are one class;
# round-off between congruent elements is 1e-14, real differences far larger
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class MarkResult:
    """`marked` holds the marked element ids, sorted, as an int64 array."""

    marked: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    achieved_fraction: float = 0.0
    converged: bool = False


def dorfler_mark(indicators, theta):
    """Subset with sum(eta2[marked]) >= theta * total, minimal up to tie classes.

    `indicators` is an IndicatorField or a raw nonnegative array of per-element
    eta^2 values.  `achieved_fraction` is the marked share of the total.  A
    zero total yields an empty, converged result.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    eta2 = np.asarray(getattr(indicators, "eta2", indicators), float)
    if eta2.ndim != 1:
        raise ValueError("eta2 must be one-dimensional")
    if np.any(eta2 < 0):
        raise ValueError("negative indicator")
    order = np.lexsort((np.arange(eta2.size), -eta2))
    descending = eta2[order]
    csum = np.cumsum(descending)
    total = csum[-1] if eta2.size else 0.0
    if total <= 0.0:
        return MarkResult(converged=True)
    k = int(np.searchsorted(csum, theta * total, side="left"))
    k = min(k, eta2.size - 1)
    cut = (1.0 - TIE_REL_TOL) * descending[k]
    count = int(np.searchsorted(-descending, -cut, side="right"))
    return MarkResult(marked=np.sort(order[:count]),
                      achieved_fraction=float(csum[count - 1] / total))
