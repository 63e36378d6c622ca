"""Spans and work counts at the layer boundaries of afemeig.

`install` replaces the module attributes that afemeig.driver and
afemeig.eigsolve look up at call time with timing wrappers, so the package
itself is unchanged; the wrappers exist only inside a traced child process.
Spans are kept in memory as (name, start, end, parent) and handed back when
the run ends.  A span's self time is its duration minus that of its direct
children; calls are sequential, so children never overlap.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

import scipy.linalg
import scipy.sparse.linalg


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, func, name, count=None):
        """`func` timed as span `name`; `count(counts, result, *args, **kw)`
        records its work counts after the span closes."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result
        return traced

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


class _Namespace:
    """A module stand-in that overrides some attributes."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class _CountedFactor:
    """A SuperLU factor that counts the solves ARPACK makes with it."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, rhs, *args, **kwargs):
        self._counts["eigsolve.op_applies"] += 1
        return self._lu.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _count_refine(c, result, mesh, marked, *args, **kwargs):
    c["mesh.refine.calls"] += 1
    c["mesh.refine.marked"] += len(set(marked))
    c["mesh.refine.bisections"] += result.mesh.n_elements - mesh.n_elements


def _count_assembly(c, matrix, *args, **kwargs):
    c["fem.assemble.calls"] += 1
    c["fem.assemble.nnz"] += int(matrix.nnz)


def _count_solve(c, result, K, M, nev, *args, **kwargs):
    c["eigsolve.calls"] += 1
    c["eigsolve.nev_requested"] += int(nev)


def _count_indicators(c, result, space, coeffs, vectors, *args, **kwargs):
    vectors = getattr(vectors, "vectors", vectors)     # EigenCluster or array
    width = vectors.shape[1] if vectors.ndim == 2 else 1
    c["estimator.calls"] += 1
    c["estimator.element_vectors"] += space.mesh.n_elements * width


def _count_marking(c, result, indicators, *args, **kwargs):
    c["marking.calls"] += 1
    c["marking.marked"] += len(result.marked)
    c["marking.elements"] += len(getattr(indicators, "eta2", indicators))


def _count_gap(c, result, exact, discrete, space, *args, **kwargs):
    c["gap.calls"] += 1
    c["gap.element_clusters"] += space.mesh.n_elements


def install(tracer, afemeig):
    """Wrap every layer call made by afemeig.driver and afemeig.eigsolve."""
    driver, eigsolve = afemeig.driver, afemeig.eigsolve
    w = tracer.wrap

    def assembly(func):
        solver = w(func, "fem.assemble.solver", _count_assembly)
        oracle = w(func, "fem.assemble.oracle", _count_assembly)

        def assemble(*args, apply_dirichlet=True, **kwargs):
            chosen = solver if apply_dirichlet else oracle
            return chosen(*args, apply_dirichlet=apply_dirichlet, **kwargs)
        return assemble

    driver.refine = w(driver.refine, "mesh.refine", _count_refine)
    driver.uniform_refine = w(driver.uniform_refine, "mesh.uniform_refine")
    driver.build_space = w(driver.build_space, "fem.build_space")
    driver.assemble_stiffness = assembly(driver.assemble_stiffness)
    driver.assemble_mass = assembly(driver.assemble_mass)
    driver.solve_smallest = w(driver.solve_smallest, "eigsolve.solve_smallest",
                              _count_solve)
    # cluster mode calls eigen_indicators, first-N mode calls _indicators
    driver.eigen_indicators = w(driver.eigen_indicators, "estimator.indicators",
                                _count_indicators)
    driver._indicators = w(driver._indicators, "estimator.indicators",
                           _count_indicators)
    driver.dorfler_mark = w(driver.dorfler_mark, "marking.dorfler_mark",
                            _count_marking)
    driver.gap_energy = w(driver.gap_energy, "gap.gap_energy", _count_gap)

    eigsolve.m_orthonormalize = w(eigsolve.m_orthonormalize,
                                  "eigsolve.orthonormalize")
    eigsolve.residual_norms = w(eigsolve.residual_norms, "eigsolve.residual")
    eigsolve.sla = _Namespace(scipy.linalg, eigh=w(
        scipy.linalg.eigh, "eigsolve.dense",
        lambda c, *a, **k: c.update(["eigsolve.dense.calls"])))
    eigsolve.spla = _Namespace(scipy.sparse.linalg, eigsh=w(
        scipy.sparse.linalg.eigsh, "eigsolve.lanczos"))

    # ARPACK's shift-invert path factorizes through its own module's `splu`
    arpack = sys.modules[scipy.sparse.linalg.eigsh.__module__]
    splu = arpack.splu

    def factorize(*args, **kwargs):
        tracer.counts["eigsolve.factorizations"] += 1
        return _CountedFactor(splu(*args, **kwargs), tracer.counts)
    arpack.splu = w(factorize, "eigsolve.factorize")
