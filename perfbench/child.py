"""One measured repetition, run in a fresh process by run.py.

    python3 child.py '{"workload": ..., "seed": ..., "mode": "setup"|"run"|"traced"}'

Times the import of afemeig plus get_problem and initial_mesh (set-up), then
runs either a fixed calibration kernel (mode "setup") or every solve call of
the workload.  Prints one JSON object as its last line: timings, peak memory,
each run's eigenvalue rows and a digest of its algorithmic trace columns, and
in "traced" mode the spans and work counts of tracing.py.
"""

import time

T0 = time.perf_counter()

import hashlib    # noqa: E402  (the clock starts before any import)
import json       # noqa: E402
import resource   # noqa: E402
import sys        # noqa: E402
from contextlib import nullcontext  # noqa: E402


def trace_digest(trace):
    """sha256 of every CSV column except `seconds`, floats as repr."""
    h = hashlib.sha256()
    for k in range(len(trace)):
        row = [trace.iters[k], trace.n_elements[k], trace.n_dofs[k], trace.marked[k]]
        row += [float(v) for v in trace.lambdas[k]]
        row += [float(trace.eta2[k]), float(trace.osc2[k]), float(trace.gap2[k])]
        h.update((",".join(repr(v) for v in row) + "\n").encode())
    return h.hexdigest()


def calibrate():
    """Seconds for a fixed mix of interpreter, array and sparse-LU work that
    does not touch afemeig, so its time follows only the machine's speed."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    start = time.perf_counter()
    for _ in range(2):
        counts = {}
        for i in range(60_000):
            key = (i * 7919 % 60_000, i % 97)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((20_000, 3, 2)), rng.standard_normal((20_000, 2, 2))
        acc = np.zeros(5_000)
        for _ in range(5):
            np.add.at(acc, np.arange(20_000) * 13 % 5_000,
                      np.einsum("eij,ejk->eik", a, b)[:, 0, 0])
        n = 90
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        lu = spla.splu((sp.kron(T, sp.eye(n)) + sp.kron(sp.eye(n), T)).tocsc())
        for _ in range(20):
            lu.solve(np.ones(n * n))
    return time.perf_counter() - start


def _float(x):
    # JSON has no NaN; the gap column is NaN when the gap is switched off
    return None if x != x else float(x)


def main(spec):
    import afemeig
    tracer = None
    if spec["mode"] == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, afemeig)
        get_problem = tracer.wrap(afemeig.get_problem, "problems.get_problem")
    else:
        get_problem = afemeig.get_problem

    from workloads import WORKLOADS
    workload = WORKLOADS[spec["workload"]]
    problem = get_problem(workload.problem)
    problem.initial_mesh()
    out = {"setup_s": time.perf_counter() - T0}
    if spec["mode"] == "setup":
        out["calibration_s"] = calibrate()
        import numpy
        import scipy
        out["versions"] = {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__,
                           "afemeig": afemeig.__version__}
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = {k: blas.get(k) for k in ("name", "version")}
        return out

    runs, run_s = [], 0.0
    for run in workload.runs:
        config = afemeig.AfemConfig(problem=problem, seed=spec["seed"], **run.config)
        solve = afemeig.run_afem_first_n if run.first_n else afemeig.run_afem
        start = time.perf_counter()
        with tracer.span("driver.run") if tracer else nullcontext():
            trace = solve(config)
        run_s += time.perf_counter() - start
        runs.append({"label": run.label, "status": trace.meta["status"],
                     "refs": trace.meta["lambda_refs"],
                     "n_dofs": list(trace.n_dofs),
                     "lambdas": [list(map(float, row)) for row in trace.lambdas],
                     "seconds": list(trace.seconds),
                     "eta2_final": float(trace.eta2[-1]),
                     "gap2_final": _float(trace.gap2[-1]),
                     "digest": trace_digest(trace)})
    out.update(run_s=run_s, runs=runs,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        out["spans"] = tracer.spans
        out["self_s"] = tracer.self_times()
        out["counts"] = tracer.counts
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
