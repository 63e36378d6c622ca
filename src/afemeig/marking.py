"""Dörfler (bulk) marking with minimal cardinality.

Elements are sorted by indicator descending (ties broken by ascending id) and
the shortest prefix reaching theta * total is marked; prefixes nest, so the
marked set is monotone in theta and the outcome is a pure, deterministic
function of its inputs.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MarkResult:
    marked: frozenset = field(default_factory=frozenset)
    achieved_fraction: float = 0.0
    converged: bool = False


def dorfler_mark(indicators, theta):
    """Minimal-cardinality subset with sum(eta2[marked]) >= theta * total.

    `indicators` is an IndicatorField or a raw nonnegative array of per-element
    eta^2 values.  A zero total yields an empty, converged result.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    eta2 = np.asarray(getattr(indicators, "eta2", indicators), float)
    if eta2.ndim != 1:
        raise ValueError("eta2 must be one-dimensional")
    if np.any(eta2 < 0):
        raise ValueError("negative indicator")
    order = np.lexsort((np.arange(eta2.size), -eta2))
    csum = np.cumsum(eta2[order])
    total = csum[-1] if eta2.size else 0.0
    if total <= 0.0:
        return MarkResult(converged=True)
    k = int(np.searchsorted(csum, theta * total, side="left"))
    k = min(k, eta2.size - 1)
    return MarkResult(marked=frozenset(order[:k + 1].tolist()),
                      achieved_fraction=float(csum[k] / total))
