"""The adaptive loop: Solve -> Estimate -> Mark -> Refine.

`_adaptive_loop` is written once and hands each row only its space.  A step
`step(space, ancestor)` supplies what differs between runs: it assembles what
its own solve needs and returns the indicator field, the tracked eigenvalues
and the gap column.  The two eigenvalue modes share one step over a window
J = {k0, ..., k0+n-1} of ascending discrete eigenvalues whose indicators are
summed: a tracked cluster is J = {k0, ..., k0+q-1} and first-N mode is
J = {0, ..., N-1}; `run_afem` runs the one that its `AfemConfig` requests.  A
source-problem step, which factors K alone, drives the same loop for the
vector boundary-value problem, and so validates the estimator plumbing
independently of the eigensolver.

The window and its cluster sizes are locked once, on the initial mesh, and
never re-decided; row 0 takes the lock's last solve, made with the loop's
number of eigenpairs.  Every row checks that the window rule gives the locked
sizes, and aborts rather than silently tracking something else.
"""

import csv
import io
import json
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import plotting
from .eigsolve import EigenCluster, _factor, detect_cluster, solve_smallest
from .estimator import _indicators, eigen_indicators
from .fem import (assemble_mass, assemble_stiffness, assemble_load, build_space,
                  energy_error, prolongate)
from .gap import gap_energy
from .marking import dorfler_mark
from .mesh import refine, uniform_refine
from .problems import get_problem


# Discrete splitting of a multiple eigenvalue stays a few percent on coarse
# meshes, but built-in clusters can lie closer than 0.1: on the square 17 pi^2,
# 18 pi^2 and 20 pi^2 5.6 % and 10 %, the oscillator's levels q and q + 1
# 1/(q + 1), 9.1 % at q = 10.  ROADMAP item 1 replaces this relative-gap rule.
CLUSTER_REL_GAP_TOL = 0.1
PRE_REFINEMENTS = 3              # uniform rounds on every initial mesh
# A warm solve shift-inverts at a pole this fraction of the way across the gap
# that ends at the first cluster boundary at or after the window's start, on
# the row before's values: below J = {k0, ...} when k0 > 0, above lambda_1 and
# below the second cluster when J starts at lambda_1.  The nearer the pole to
# the values it returns, the faster Lanczos separates them from the rest: over
# a square P2 cluster-2 run to 25k dofs, the operator applies fell from 558 at
# the pole 0 to 389, 303, 286 and 269 at the fractions 0.5, 0.8, 0.9 and 0.95,
# and over seed-1 benchmark runs from 310 to 198 on the L-shape and from 440
# to 254 on the oscillator first-3, where a pole at 0.9 lambda_1 gave 254 and
# 373.  0.9 leaves the pole a tenth of the gap below the boundary, room for
# the values that the refinement lowers.
_POLE_FRACTION = 0.9


class ClusterIdentityError(RuntimeError):
    """Tracked cluster no longer matches its locked position/multiplicity."""


@dataclass
class AfemConfig:
    problem: object = "square"       # registry name, file:<path>, or ProblemSpec
    degree: int = 1
    theta: float = 0.5
    bisections: int = 1              # b
    cluster_index: int = 1
    multiplicity: int = 1            # q
    first_n: int = 0                 # > 0 switches to first-N mode
    max_dof: int = 50_000
    max_iterations: int = 80
    eig_tol: float = 1e-10
    compute_gap: bool = True
    marking: str = "dorfler"         # "dorfler" | "uniform"
    # the Lanczos start vector of cold solves (the window lock and row 0) and
    # the 1e-6 random part of the warm start of every later row
    seed: int = 2357

    def __post_init__(self):
        for name in ("degree", "bisections", "cluster_index", "multiplicity",
                     "first_n", "max_dof", "max_iterations", "seed"):
            value = getattr(self, name)
            # bool is an int to Python, and a float counts only if integral
            if isinstance(value, (bool, np.bool_)) or not (
                    isinstance(value, (int, np.integer))
                    or isinstance(value, float) and value.is_integer()):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        for name in ("theta", "eig_tol"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            setattr(self, name, float(value))
        if not isinstance(self.compute_gap, (bool, np.bool_)):
            raise ValueError(f"compute_gap must be True or False, got {self.compute_gap!r}")
        self.compute_gap = bool(self.compute_gap)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.multiplicity < 1 or self.cluster_index < 1:
            raise ValueError("cluster_index and multiplicity must be >= 1")
        if self.first_n < 0:
            raise ValueError("first_n must be >= 1 when set")
        if self.first_n and (self.cluster_index, self.multiplicity) != (1, 1):
            raise ValueError(f"first_n={self.first_n} names no cluster: cluster_index "
                             f"{self.cluster_index} and multiplicity {self.multiplicity} must be 1")
        if self.bisections < 1:
            raise ValueError("bisections must be >= 1")
        if not self.eig_tol >= 0.0:
            raise ValueError("eig_tol must be >= 0")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        if self.marking not in ("dorfler", "uniform"):
            raise ValueError("marking must be 'dorfler' or 'uniform'")


_COUNTS = ("iter", "n_elements", "n_dofs", "marked")   # int columns
_TOTALS = ("eta2", "osc2", "gap2", "seconds")          # float columns


def _column(name):
    def view(self):
        k = self.columns.index(name)
        return [row[k] for row in self.rows]
    return property(view, doc=f"The {name} column as a list (read-only).")


@dataclass
class AfemTrace:
    """Per-iteration record of an AFEM run: one row per solved mesh, a tuple in
    the CSV column order `columns` (four ints, then floats from lambda_1 on).
    The column attributes are read-only views of the rows."""

    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    final_mesh: object = None

    iters = _column("iter")
    n_elements = _column("n_elements")
    n_dofs = _column("n_dofs")
    marked = _column("marked")
    eta2 = _column("eta2")
    osc2 = _column("osc2")
    gap2 = _column("gap2")
    seconds = _column("seconds")

    @property
    def n_lambda(self):
        return len(self.rows[0]) - len(_COUNTS) - len(_TOTALS) if self.rows else 0

    @property
    def columns(self):
        return (*_COUNTS, *(f"lambda_{i + 1}" for i in range(self.n_lambda)), *_TOTALS)

    @property
    def lambdas(self):
        """The lambda_<i> columns, one tuple per row (read-only)."""
        return [row[len(_COUNTS):-len(_TOTALS)] for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def series(self, name):
        """A column of `columns` as a float array, or a derived series: eta,
        gap, n_elements_added, or lambda_err_<i>, which subtracts
        meta['lambda_refs'] from lambda_<i>."""
        columns = self.columns
        if name in columns:
            k = columns.index(name)
            return np.array([row[k] for row in self.rows], float)
        if name in ("eta", "gap"):
            return np.sqrt(self.series(name + "2"))
        if name == "n_elements_added":
            ne = self.series("n_elements")
            return ne - ne[0]
        lam = "lambda_" + name[len("lambda_err_"):]
        if name.startswith("lambda_err_") and lam in columns:
            refs = self.meta.get("lambda_refs")
            ref = refs[columns.index(lam) - len(_COUNTS)] if refs else None
            if ref is None:
                raise ValueError(f"no reference eigenvalue recorded for {lam}")
            return self.series(lam) - ref
        raise ValueError(f"unknown series {name!r}; choose from {','.join(columns)}, "
                         "eta, gap, n_elements_added or lambda_err_<i>")


# ---------------------------------------------------------------------------
# trace I/O


def export_trace(trace, path, fmt="csv"):
    """CSV with the fixed column schema, or a strict-JSON mirror with metadata,
    where NaN (the gap column of a run without the gap) is written as null."""
    if fmt == "csv":
        text = trace_to_csv_text(trace)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    elif fmt == "json":
        obj = {"meta": trace.meta,
               "columns": trace.columns,
               "rows": [[None if np.isnan(v) else v for v in row] for row in trace.rows]}
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=1, allow_nan=False)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def trace_to_csv_text(trace):
    # csv writes ints with str and floats with repr, which round-trips exactly
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(trace.columns)
    w.writerows(trace.rows)
    return buf.getvalue()


def read_trace(path):
    """Load a trace CSV back; float repr round-trips bit-exactly."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file, no trace header")
    header, *body = rows
    n = len(_COUNTS)
    rows = [tuple(map(int, r[:n])) + tuple(map(float, r[n:])) for r in body]
    trace = AfemTrace(rows=rows)
    if list(trace.columns) != header:
        raise ValueError(f"{path}: not a trace header: {','.join(header)}")
    return trace


def emit_plot(trace, path, series=("eta2", "gap2"), x_field="n_dofs",
              guide_slope=-1.0, title=None):
    """SVG log-log plot of selected trace series with a slope guide line."""
    x = trace.series(x_field)
    curves = []
    for name in series:
        y = trace.series(name)
        keep = (y > 0) & (x > 0)
        if np.any(keep):
            curves.append((name, x[keep], y[keep]))
    if not curves:
        raise ValueError("no positive data to plot")
    plotting.loglog_svg(path, curves, guide_slope=guide_slope,
                        xlabel=x_field, ylabel="value",
                        title=title or trace.meta.get("label", ""))


def fit_slope(trace, y_field, x_field="n_dofs", window=6):
    """Least-squares slope of log y vs log x over the last `window` rows."""
    if isinstance(window, (bool, np.bool_)) or not isinstance(window, (int, np.integer)) \
            or window < 3:
        raise ValueError(f"window must be an integer >= 3, got {window!r}")
    x = np.asarray(trace.series(x_field) if isinstance(trace, AfemTrace) else trace, float)
    y = np.asarray(y_field if not isinstance(y_field, str) else trace.series(y_field), float)
    if x.shape != y.shape:
        raise ValueError(f"x has shape {x.shape} and y {y.shape}: they must pair row by row")
    x, y = x[-window:], y[-window:]
    if x.size < 3:
        raise ValueError("need at least 3 points in the window")
    if not all(np.all((0 < v) & (v < np.inf)) for v in (x, y)):
        raise ValueError("slope fit needs finite positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# the adaptive loop


def _mark_elements(config, ind):
    """The marked elements, and whether the estimator is zero, under either rule."""
    marked = (np.arange(ind.eta2.size) if config.marking == "uniform"
              else dorfler_mark(ind, config.theta).marked)
    return marked, ind.total_eta2 <= 0.0


def _adaptive_loop(problem, config, space, step, meta, t0):
    """Solve -> Estimate -> Mark -> Refine from row 0's `space` until the
    estimator is zero, the space reaches `max_dof` free dofs, or
    `max_iterations` refinements were made.

    `step(space, ancestor)` assembles and solves what its row needs on
    `space`, and returns (IndicatorField, tracked eigenvalues, gap2);
    `ancestor` maps each element to its element on the row before,
    and is None on row 0.  Row 0's seconds count from `t0`.
    """
    trace = AfemTrace()
    trace.meta = {"problem": problem.name, "degree": config.degree,
                  "theta": config.theta, "marking": config.marking,
                  "b": config.bisections, "max_dof": config.max_dof, **meta}
    ancestor = None
    for it in range(config.max_iterations + 1):
        ind, lambdas, gap2 = step(space, ancestor)
        marked, converged = _mark_elements(config, ind)
        at_max_dof = space.n_free >= config.max_dof
        stop = converged or at_max_dof or it == config.max_iterations
        now = time.perf_counter()
        trace.rows.append((it, space.mesh.n_elements, space.n_free,
                           0 if stop else len(marked), *lambdas, ind.total_eta2,
                           ind.total_osc2, float(gap2), now - t0))
        t0 = now
        if stop:
            break
        refined = refine(space.mesh, marked, config.bisections)
        space = build_space(refined.mesh, config.degree)
        ancestor = refined.ancestor
    trace.final_mesh = space.mesh
    trace.meta["status"] = ("converged" if converged else
                            "max_dof" if at_max_dof else "max_iterations")
    return trace


# ---------------------------------------------------------------------------
# eigenvalue runs


def _pre_refined(problem, config):
    """The initial mesh's space after up to `PRE_REFINEMENTS` uniform rounds,
    each made only below `max_dof` free dofs, where the adaptive loop stops."""
    space = build_space(problem.initial_mesh(), config.degree)
    for _ in range(PRE_REFINEMENTS):
        if space.n_free >= config.max_dof:
            break
        space = build_space(uniform_refine(space.mesh, 1), config.degree)
    return space


def _window_sizes(clusters, k0, n):
    """The window rule for J = {k0, ..., k0+n-1}: the sizes of the detected
    clusters that start before J ends, when J is whole clusters with a value
    after it, else None.  A cluster's 1-based position is its place in them."""
    upto = [c for c in clusters if c[0] < k0 + n]
    whole = any(c[0] == k0 for c in upto) and upto[-1][-1] == k0 + n - 1
    return tuple(len(c) for c in upto) if whole and len(clusters) > len(upto) else None


def _lock_window(problem, config):
    """Row 0's space, its solve `(vals, vecs)` and the window (k0, n, sizes).

    The pre-refined mesh is refined uniformly, and solved once it has nev + 3
    free dofs, until the window rule holds, 7 meshes were solved or the mesh
    has `max_dof` free dofs.  A cluster run asks for q + 2 more eigenpairs
    while each solve shows more clusters; a first-N run that fails widens N.
    The last K and M are solved again if the loop's nev differs, so `sizes`
    are the window rule's on the solve that row 0 takes.
    """
    n, q, k = config.first_n, config.multiplicity, config.cluster_index
    nev = n + 2 if n else k - 1 + q + 2
    if nev + 3 > config.max_dof:
        raise ValueError(f"window needs {nev + 3} free dofs, more than max_dof {config.max_dof}")
    space, solved = _pre_refined(problem, config), 0
    while True:
        if space.n_free >= nev + 3:
            K, M = assemble_stiffness(space, problem.coefficients), assemble_mass(space)
            wanted, seen = nev, 0
            while True:
                vals, vecs = solve_smallest(K, M, min(wanted, space.n_free),
                                            tol=config.eig_tol, seed=config.seed)
                clusters = detect_cluster(vals, CLUSTER_REL_GAP_TOL)
                if n or len(clusters) > k or len(clusters) <= seen or vals.size == space.n_free:
                    break
                wanted, seen = wanted + q + 2, len(clusters)
            solved += 1
            k0 = 0 if n else clusters[min(k, len(clusters)) - 1][0]   # < k clusters: rule fails
            sizes = _window_sizes(clusters, k0, n or q)
            if sizes and (n or len(sizes) == k):
                break
        if space.n_free >= config.max_dof or solved == 7:
            if not n:
                raise ClusterIdentityError(
                    f"no cluster of multiplicity {q} at position {k} on {solved} meshes up "
                    f"to {space.n_free} free dofs (max_dof {config.max_dof}); detected "
                    f"sizes {[len(c) for c in clusters]}")
            n = [c for c in clusters if c[0] < n][-1][-1] + 1
            warnings.warn(f"first_n={config.first_n} splits a multiplet; extending to {n}",
                          stacklevel=3)
            break
        space = build_space(uniform_refine(space.mesh, 1), config.degree)
    n = n or q
    nev = min(k0 + n + 2, space.n_free)     # the loop's
    if vals.size != nev:
        vals, vecs = solve_smallest(K, M, nev, tol=config.eig_tol, seed=config.seed)
        sizes = _window_sizes(detect_cluster(vals, CLUSTER_REL_GAP_TOL), k0, n)
    # () matches no row's sizes: a rule that failed here aborts row 0
    return space, (vals, vecs), (k0, n, sizes or ())


def _eigen_step(problem, config, k0, n, sizes, row0, refs):
    """Step over the window J = {k0, ..., k0+n-1}, whose detected clusters up
    to J's end have the locked `sizes`.

    A row aborts unless the window rule `_window_sizes` gives `sizes`.  gap2
    sums the squared energy gaps of the window's clusters to their exact
    eigenspaces, all from one `gap_energy` call, when every window cluster has
    a closed-form eigenspace of its size; otherwise their eigenvalue errors
    against the reference values, when every window cluster has one; otherwise
    NaN, with a warning when the gap was asked for.  Row 0 takes `row0`, the
    lock's solve on its mesh.  `refs` maps a cluster's position to its
    reference value.
    """
    coeffs = problem.coefficients
    exact = problem.exact_clusters or []
    window = [(ci, range(end - size, end)) for ci, (size, end)
              in enumerate(zip(sizes, np.cumsum(sizes)), start=1) if end > k0]
    closed = [exact[ci - 1] for ci, c in window
              if ci <= len(exact) and exact[ci - 1].dim == len(c)]
    # the gap's source: the closed forms, else the reference values, else neither
    by_refs = all(refs.get(ci) is not None for ci, _ in window)
    if config.compute_gap and len(closed) < len(window) and not by_refs:
        warnings.warn("gap2 is NaN: neither closed forms nor reference values cover every "
                      f"cluster of the tracked window {list(range(k0, k0 + n))}", stacklevel=3)
    carried = None     # the row before's space, the sum of its eigenvectors, its values

    def step(space, ancestor):
        nonlocal carried, row0

        def columns(idx):
            return np.column_stack([space.expand(vecs[:, i]) for i in idx])

        if row0 is not None:
            (vals, vecs), row0 = row0, None
        else:
            # assembled before the start is prolongated, and dropped once solved
            K, M = assemble_stiffness(space, coeffs), assemble_mass(space)
            # the meshes are nested, so the coarse eigenvectors prolongate exactly
            start = prolongate(carried[0], space, ancestor, carried[1])[space.free_dofs]
            lam = carried[2]
            carried = None     # frees the coarse space before the solve
            # in the gap that ends at the first cluster boundary j at or after
            # the window's start, above lambda_1 for a window from it, and at
            # most midway between the first and the last value, so that the
            # nev values nearest it are the nev smallest
            j = k0 or sizes[0]
            pole = min(lam[j - 1] + _POLE_FRACTION * (lam[j] - lam[j - 1]),
                       (lam[0] + lam[-1]) / 2)
            # nev reads two values past the window, not one: a warm Lanczos start
            # holds a multiplet's further members only through its 1e-6 noise.
            # Replayed with k0 + n + 1 values at the pole 0, 5 of the 18 warm
            # solves of a square P2 cluster-2 run to 25k dofs returned 2, 5, 8, 10
            # (x pi^2), one 5 pi^2 member short.  The window rule needs the value
            # after the window too.
            vals, vecs = solve_smallest(K, M, min(k0 + n + 2, space.n_free),
                                        tol=config.eig_tol, seed=config.seed,
                                        start=start, pole=pole)
            del K, M
        carried = (space, space.expand(vecs.sum(axis=1)), vals)
        clusters = detect_cluster(vals, CLUSTER_REL_GAP_TOL)
        if _window_sizes(clusters, k0, n) != sizes:
            raise ClusterIdentityError(
                f"tracked window {list(range(k0, k0 + n))} lost on a {space.n_free}-dof "
                f"mesh; detected sizes {[len(c) for c in clusters]}")
        tracked = vals[k0:k0 + n]
        ind = eigen_indicators(space, coeffs,
                               EigenCluster(tracked, columns(range(k0, k0 + n))))
        if not config.compute_gap:
            gap2 = float("nan")
        elif len(closed) == len(window):
            gaps = gap_energy(closed, [EigenCluster(vals[c.start:c.stop], columns(c))
                                       for _, c in window], space, coeffs)
            gap2 = sum(g ** 2 for g in gaps)
        elif by_refs:
            gap2 = sum(float(np.sum(np.abs(vals[c.start:c.stop] - refs[ci])))
                       for ci, c in window)
        else:
            gap2 = float("nan")
        return ind, tuple(float(v) for v in tracked), gap2
    return step


def run_afem(config):
    """AFEM on the window that `config` requests, a cluster or the first N
    eigenpairs, with summed indicators; returns the iteration trace."""
    problem = get_problem(config.problem)
    t0 = time.perf_counter()
    space, row0, (k0, n, sizes) = _lock_window(problem, config)
    mode = (f"first_{config.first_n}" if config.first_n else
            f"cluster_{config.cluster_index}_q{config.multiplicity}")
    refs = {idx: val for idx, val, _ in problem.reference_values or []}
    meta = {"mode": mode, "eig_tol": config.eig_tol,
            "label": f"{problem.name} P{config.degree}", "cluster_sizes": list(sizes),
            "lambda_refs": [refs.get(ci) for ci, size in enumerate(sizes, start=1)
                            for _ in range(size)][k0:]}
    return _adaptive_loop(problem, config, space,
                          _eigen_step(problem, config, k0, n, sizes, row0, refs), meta, t0)


# The old name of first-N runs: perfbench/child.py still calls it, and goes
# with it once the benchmark reads the run's own record (ROADMAP item 16).
run_afem_first_n = run_afem


# ---------------------------------------------------------------------------
# source runs


def run_afem_source(config, sources, exact=None):
    """AFEM for the vector source problem a(u_i, v) = b(f_i, v).

    `sources` are one or more callables f_i(points) -> (m,).  The optional
    `exact` holds one closed-form solution u_i per source, each a callable
    from (m, 2) points to the (3, m) rows of u_i, du_i/dx and du_i/dy; then
    the gap2 column records the sum of the squared energy errors.  A count
    mismatch raises a ValueError before any solve.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source")
    if exact is not None and len(exact) != len(sources):
        raise ValueError(f"exact has {len(exact)} entries for {len(sources)} sources; "
                         "need one closed-form solution per source")
    problem = get_problem(config.problem)
    t0 = time.perf_counter()
    coeffs = problem.coefficients

    def step(space, ancestor):
        # K is SPD, so the eigensolver's factor with diagonal pivots is stable
        lu = _factor(assemble_stiffness(space, coeffs))
        vectors = np.column_stack([space.expand(lu.solve(assemble_load(space, f)))
                                   for f in sources])
        ind = _indicators(space, coeffs, vectors, sources=sources)
        err2 = float("nan") if exact is None else sum(
            energy_error(space, coeffs, vectors[:, i], fn) ** 2
            for i, fn in enumerate(exact))
        return ind, (), err2

    meta = {"mode": f"source_{len(sources)}", "lambda_refs": [],
            "label": f"{problem.name} source P{config.degree}"}
    return _adaptive_loop(problem, config, _pre_refined(problem, config), step, meta, t0)
