"""Adaptive finite element solver for clustered elliptic eigenvalue problems."""

from .driver import (AfemConfig, AfemTrace, ClusterIdentityError, emit_plot,
                     export_trace, fit_slope, read_trace, run_afem,
                     run_afem_first_n, run_afem_source)
from .eigsolve import EigenCluster, detect_cluster, solve_smallest
from .estimator import IndicatorField, eigen_indicators
from .fem import Coefficients, FeSpace, assemble_mass, assemble_stiffness, build_space
from .gap import ExactEigenspace, gap_energy
from .marking import MarkResult, dorfler_mark
from .mesh import Mesh, MeshError, RefineResult, build_initial, refine, uniform_refine
from .problems import ProblemSpec, get_problem, harmonic_oscillator, lshape_laplace, square_laplace

__version__ = "0.1.0"

__all__ = [
    "AfemConfig", "AfemTrace", "ClusterIdentityError", "Coefficients",
    "EigenCluster", "ExactEigenspace", "FeSpace",
    "IndicatorField", "MarkResult", "Mesh", "MeshError", "ProblemSpec",
    "RefineResult", "assemble_mass", "assemble_stiffness",
    "build_initial", "build_space", "detect_cluster",
    "dorfler_mark", "eigen_indicators", "emit_plot",
    "export_trace", "fit_slope", "gap_energy", "get_problem",
    "harmonic_oscillator", "lshape_laplace", "read_trace", "refine",
    "run_afem", "run_afem_first_n", "run_afem_source", "solve_smallest",
    "square_laplace", "uniform_refine",
]
