"""Benchmark workloads: fixed adaptive runs of the public afemeig API.

Every workload uses theta = 0.5 and b = 1 and runs to its dof cap.  A
workload is one or more solve calls made in the same child process; the first
call is the primary run, whose eigenvalue error gives the accuracy metrics and
the time to the workload's tolerance.  NOTES.md next to this file says why
each workload was chosen.

This module imports only the standard library, so loading it in the child adds
next to nothing to the timed set-up.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class RunSpec:
    """One solve call: AfemConfig keywords plus its acceptance window."""

    label: str
    config: dict
    # accepted fit_slope of the relative eigenvalue error over the last six
    # rows, as (expected, half-width)
    slope_window: tuple
    first_n: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    runs: tuple
    # the primary run reaches this relative eigenvalue error at roughly half
    # to two thirds of its wall time; the value sits midway (in log scale)
    # between the errors of the two rows around it, so round-off from the
    # ARPACK start vector cannot move the row that first reaches it
    tol: float
    # whether the energy-gap oracle may run (it is the only caller of the
    # assembly without Dirichlet elimination)
    oracle: bool = False


P1_ADAPTIVE = (-1.0, 0.15)
P1_UNIFORM = (-2.0 / 3.0, 0.1)
P2_ADAPTIVE = (-2.0, 0.25)

_COMMON = {"theta": 0.5, "bisections": 1}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="square-p2",
        problem="square",
        runs=(RunSpec("adaptive", dict(_COMMON, degree=2, cluster_index=2,
                                       multiplicity=2, compute_gap=False,
                                       max_dof=25_000),
                      slope_window=P2_ADAPTIVE),),
        tol=3.0e-7,
    ),
    Workload(
        name="lshape-p1-adaptive-uniform",
        problem="lshape",
        runs=(RunSpec("adaptive", dict(_COMMON, degree=1, cluster_index=1,
                                       multiplicity=1, max_dof=8_000),
                      slope_window=P1_ADAPTIVE),
              RunSpec("uniform", dict(_COMMON, degree=1, cluster_index=1,
                                      multiplicity=1, max_dof=8_000,
                                      marking="uniform", compute_gap=False),
                      slope_window=P1_UNIFORM)),
        tol=6.3e-4,
    ),
    Workload(
        name="oscillator-first3-gap",
        problem="oscillator",
        runs=(RunSpec("first-3", dict(_COMMON, degree=1, first_n=3,
                                      compute_gap=True, max_dof=6_000),
                      slope_window=P1_ADAPTIVE, first_n=True),),
        tol=1.23e-3,
        oracle=True,
    ),
)}
