"""The reproduction cases: the paper's rate experiments at desk scale, one row
each.  A row holds the `AfemConfig` keywords of one run and the slopes against
the dofs that its trace should show, as ``series -> (expected, half_width)``.
``afem reproduce`` runs rows through `run_cases`, and the acceptance tests read
their configs and slope windows from the same rows."""

import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import plotting
from .driver import (AfemConfig, emit_plot, export_trace, fit_slope, run_afem,
                     run_afem_first_n, run_afem_source)


def sine_solution(p):
    """u = sin(pi x) sin(pi y) as a closed-form function: the (3, m) rows of
    u, du/dx and du/dy at the (m, 2) points p."""
    sx, cx = np.sin(math.pi * p[:, 0]), np.cos(math.pi * p[:, 0])
    sy, cy = np.sin(math.pi * p[:, 1]), np.cos(math.pi * p[:, 1])
    return np.stack([sx * sy, math.pi * cx * sy, math.pi * sx * cy])


def sine_source(p):
    """f = -Lap u = 2 pi^2 u for u = `sine_solution`, zero on the unit square's
    boundary."""
    return 2 * math.pi ** 2 * sine_solution(p)[0]


@dataclass(frozen=True)
class Case:
    name: str
    config: dict                 # AfemConfig keywords
    slopes: dict                 # series -> (expected slope, half-width)
    source: tuple = None         # (f, u): a source run for f with exact solution u
    versus: str = None           # the adaptive case of this uniform control run


_SQUARE2 = dict(problem="square", degree=1, theta=0.5, cluster_index=2,
                multiplicity=2, max_dof=50_000)
_LSHAPE = dict(problem="lshape", degree=1, theta=0.5, cluster_index=1,
               multiplicity=1, max_dof=40_000)

CASES = {case.name: case for case in (
    Case("square-p1", dict(_SQUARE2, compute_gap=True),
         {"lambda_err_1": (-1.0, 0.15), "lambda_err_2": (-1.0, 0.15),
          "eta": (-0.5, 0.1), "gap2": (-1.0, 0.15)}),
    Case("square-p2", dict(_SQUARE2, degree=2, compute_gap=False),
         {"lambda_err_1": (-2.0, 0.25), "lambda_err_2": (-2.0, 0.25),
          "eta": (-1.0, 0.15)}),
    Case("lshape-p1-adaptive", _LSHAPE, {"lambda_err_1": (-1.0, 0.15)}),
    Case("lshape-p1-uniform", dict(_LSHAPE, marking="uniform", compute_gap=False),
         {"lambda_err_1": (-2.0 / 3.0, 0.1)}, versus="lshape-p1-adaptive"),
    Case("oscillator-first3", dict(problem="oscillator", degree=1, theta=0.5, first_n=3,
                                   max_dof=50_000, compute_gap=False), {}),
    Case("square-source-p1", dict(problem="square", degree=1, theta=0.5, max_dof=40_000),
         {"gap": (-0.5, 0.1)}, source=(sine_source, sine_solution)),
)}


def window(case, series):
    """The expected slope of `series` as text, such as "-2/3 +/- 0.1"."""
    expected, half_width = case.slopes[series]
    return f"{Fraction(expected).limit_denominator(12)} +/- {half_width:g}"


def case_config(case, max_dof=None):
    """The checked `AfemConfig` of one case, with `max_dof` free dofs in place
    of its own when given."""
    config = AfemConfig(**case.config)
    return config if max_dof is None else replace(config, max_dof=max_dof)


def run_case(case, max_dof=None):
    """Run one case, with `max_dof` free dofs in place of its own when given."""
    config = case_config(case, max_dof)
    if case.source:
        f, u = case.source
        return run_afem_source(config, [f], exact=[u])
    return run_afem_first_n(config) if config.first_n else run_afem(config)


def slope_checks(case, trace):
    """series -> (fitted slope, whether it lies in the expected window) for
    each expected slope of `case`, fitted over the last 6 rows; (None, False)
    when the trace has fewer than the 3 rows that a slope needs."""
    if len(trace) < 3:
        return dict.fromkeys(case.slopes, (None, False))
    checks = {}
    for series, (expected, half_width) in case.slopes.items():
        slope = fit_slope(trace, series, "n_dofs", window=6)
        checks[series] = (slope, abs(slope - expected) <= half_width)
    return checks


def run_cases(names=(), max_dof=None, out="results"):
    """Run the named cases, or all of `CASES`, write each one's CSV, JSON
    mirror and SVG plot into `out` and print the report: a line per run, a
    line per expected slope, and a line per adaptive run and uniform control."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError(f"unknown case(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(CASES)}")
    for name in names or CASES:      # a bad config fails before `out` is made
        case_config(CASES[name], max_dof)
    os.makedirs(out, exist_ok=True)
    traces = {}
    for name in names or CASES:
        case = CASES[name]
        trace = traces[name] = run_case(case, max_dof)
        base = os.path.join(out, name)
        export_trace(trace, base + ".csv")
        export_trace(trace, base + ".json", fmt="json")
        series = tuple(case.slopes) or ("eta2",)
        emit_plot(trace, base + ".svg", series=series, title=name,
                  guide_slope=case.slopes[series[0]][0] if case.slopes else -1.0)
        print(f"{name}: {len(trace)} rows to {trace.n_dofs[-1]} dofs, "
              f"status {trace.meta['status']}")
        for series, (slope, ok) in slope_checks(case, trace).items():
            if slope is None:
                print(f"{name} {series}: too few rows ({len(trace)}) for a slope")
            else:
                print(f"{name} {series}: slope {slope:+.3f}, expected "
                      f"{window(case, series)}: {'PASS' if ok else 'FAIL'}")
    for uniform in CASES.values():
        if uniform.name in traces and uniform.versus in traces:
            # the adaptive run against its uniform control, in the first series
            adaptive, series = CASES[uniform.versus], next(iter(uniform.slopes))
            curves = [(c.name, traces[c.name].series("n_dofs"), traces[c.name].series(series))
                      for c in (adaptive, uniform)]
            plotting.loglog_svg(os.path.join(out, f"{adaptive.name}-vs-uniform.svg"), curves,
                                guide_slope=adaptive.slopes[series][0], xlabel="dofs",
                                ylabel=series, title=f"{adaptive.name} vs {uniform.name}")
            (_, n_ad, e_ad), (_, n_un, e_un) = curves
            print(f"{adaptive.name} vs {uniform.name}: final {series} {e_ad[-1]:.3e} at "
                  f"{n_ad[-1]:.0f} dofs against {e_un[-1]:.3e} at {n_un[-1]:.0f} dofs, "
                  f"adaptive {'below' if e_ad[-1] < e_un[-1] else 'NOT below'} uniform")
