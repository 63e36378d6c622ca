"""Benchmark of afemeig's adaptive runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the repository root.  Every measured repetition is a fresh child
process (child.py) with BLAS/OpenMP threads pinned to 1, run one at a time.
The seed reaches the program only as AfemConfig.seed, the ARPACK start
vector.  With --trace 0 the end-to-end metrics are medians (run times:
means) over the repetitions, with times scaled to a reference machine speed
(see CALIBRATION_REF_S); with --trace 1 one untraced and two traced
repetitions give the per-layer metrics.  Every repetition is checked for
correctness (see `check`); the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics, and the exit
code is 1 when a check failed.  Raw samples, run metadata, trace digests and
spans are written to .bench_build/perfbench/.  NOTES.md explains the
workloads and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5        # set-up-only children per untraced run, at least
MIN_REPS = 3             # measured repetitions per untraced run, at least
WORKLOAD_BUDGET_S = 170  # children still running then are stopped (limit: 180 s)
SLOPE_ROWS = 6           # rows in the eigenvalue-error slope fit
# Run times are averaged over the repetitions, not their median: the spread
# between benchmark runs comes from the machine's speed drifting over seconds,
# not from outlying repetitions, and the mean follows that drift least.
MEAN_METRICS = ("run_s", "time_to_tol_s")
# End-to-end times are reported at a reference machine speed: wall seconds
# times CALIBRATION_REF_S over the mean time of child.calibrate in the same
# benchmark run.  The speed of the 2-vCPU host the baseline comes from drifts
# by 15-20 % within half an hour, which raw seconds would carry into every
# comparison.  CALIBRATION_REF_S is close to the kernel's time on that host,
# where reference seconds read within about 10 % of wall seconds.
CALIBRATION_REF_S = 0.55
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metric -> span whose self time it reports
SPAN_METRICS = {
    "mesh.refine.s": "mesh.refine",
    "mesh.uniform_refine.s": "mesh.uniform_refine",
    "fem.build_space.s": "fem.build_space",
    "fem.assemble.solver.s": "fem.assemble.solver",
    "fem.assemble.oracle.s": "fem.assemble.oracle",
    "eigsolve.solve_smallest.s": "eigsolve.solve_smallest",
    "eigsolve.factorize.s": "eigsolve.factorize",
    "eigsolve.lanczos.s": "eigsolve.lanczos",
    "eigsolve.dense.s": "eigsolve.dense",
    "eigsolve.orthonormalize.s": "eigsolve.orthonormalize",
    "eigsolve.residual.s": "eigsolve.residual",
    "estimator.indicators.s": "estimator.indicators",
    "marking.dorfler_mark.s": "marking.dorfler_mark",
    "gap.gap_energy.s": "gap.gap_energy",
    "driver.self.s": "driver.run",
    "problems.get_problem.s": "problems.get_problem",
}
COUNT_METRICS = ("mesh.refine.calls", "mesh.refine.marked", "mesh.refine.bisections",
                 "fem.assemble.calls", "fem.assemble.nnz", "eigsolve.calls",
                 "eigsolve.dense.calls", "eigsolve.factorizations",
                 "eigsolve.op_applies", "estimator.calls",
                 "estimator.element_vectors", "gap.calls", "gap.element_clusters")


class Bench:
    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.deadline = None             # set per workload by measure
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        **{v: "1" for v in THREAD_VARS})

    def child(self, workload, mode):
        """Run one child; returns its JSON result, or an error string."""
        spec = json.dumps({"workload": workload.name, "seed": self.seed, "mode": mode})
        timeout = self.deadline - time.monotonic()
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(mode, 0)
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), spec],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return f"{mode} child stopped: {WORKLOAD_BUDGET_S} s budget of the workload spent"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return f"{mode} child exited {proc.returncode}: {tail[0]}"
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def metadata(self, warm):
        src = hashlib.sha256()
        for path in sorted((self.root / "src").rglob("*.py")):
            src.update(path.relative_to(self.root).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
        commit = None
        if (self.root / ".git").exists():    # a plain source checkout has no commit
            try:
                commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                        capture_output=True, text=True,
                                        timeout=10).stdout.strip() or None
            except (OSError, subprocess.TimeoutExpired):
                pass
        return {**warm["versions"], "blas": warm["blas"], "seed": self.seed,
                "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                "threads": {v: self.env[v] for v in THREAD_VARS},
                "commit": commit, "src_sha256": src.hexdigest()}


# ---------------------------------------------------------------------------
# correctness


def rel_errors(run):
    """Per row: max over the tracked eigenvalues of (lambda_h - ref) / ref."""
    refs = run["refs"]
    return [max((lam - ref) / ref for lam, ref in zip(row, refs))
            for row in run["lambdas"]]


def fit_slope(x, y):
    """Least-squares slope of log y against log x, as afemeig.fit_slope fits
    it; computed here so the checks do not rest on the code they check."""
    lx, ly = [math.log(v) for v in x], [math.log(v) for v in y]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def first_reach_s(run, tol):
    """Cumulative trace seconds until the error first reaches `tol`."""
    elapsed = 0.0
    for err, sec in zip(rel_errors(run), run["seconds"]):
        elapsed += sec
        if err <= tol:
            return elapsed
    return None


def check(workload, result):
    """Problems found in one repetition's result; empty when it passes."""
    if isinstance(result, str):
        return [result]
    problems, finals = [], {}
    for spec, run in zip(workload.runs, result["runs"]):
        tag = f"{workload.name}/{spec.label}"
        if run["status"] != "max_dof":
            problems.append(f"{tag}: status {run['status']!r}, expected 'max_dof'")
        if any(ref is None for ref in run["refs"]):
            problems.append(f"{tag}: no reference eigenvalue")
            continue
        errs = rel_errors(run)
        if any(lam < ref for row in run["lambdas"] for lam, ref in zip(row, run["refs"])):
            problems.append(f"{tag}: lambda_h below its reference (min-max bound)")
            continue
        if len(errs) < SLOPE_ROWS:
            problems.append(f"{tag}: only {len(errs)} rows")
            continue
        slope = fit_slope(run["n_dofs"][-SLOPE_ROWS:], errs[-SLOPE_ROWS:])
        expected, width = spec.slope_window
        if abs(slope - expected) > width:
            problems.append(f"{tag}: error slope {slope:.3f} outside "
                            f"{expected:.3f} +- {width}")
        finals[spec.label] = errs[-1]
    if problems:
        return problems
    if first_reach_s(result["runs"][0], workload.tol) is None:
        problems.append(f"{workload.name}: tolerance {workload.tol} never reached")
    if "uniform" in finals and finals[workload.runs[0].label] >= finals["uniform"]:
        problems.append(f"{workload.name}: adaptive final error is not below "
                        f"the uniform one")
    return problems


def digests(result):
    return [run["digest"] for run in result["runs"]]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, result):
    primary = result["runs"][0]
    errs = rel_errors(primary)
    return {
        "setup_s": (result["setup_s"], "s"),
        "run_s": (result["run_s"], "s"),
        "time_to_tol_s": (first_reach_s(primary, workload.tol), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "lambda_rel_err": (errs[-1], "1"),
        "eta2_final": (primary["eta2_final"], "1"),
        "lambda_err_order": (-fit_slope(primary["n_dofs"][-SLOPE_ROWS:],
                                        errs[-SLOPE_ROWS:]), "1"),
    }


def per_layer(workload, untraced, traced):
    self_s = {metric: statistics.fmean(r["self_s"].get(span, 0.0) for r in traced)
              for metric, span in SPAN_METRICS.items()}
    c = Counter(traced[0]["counts"])
    rows = sum(len(run["n_dofs"]) for run in traced[0]["runs"])
    tracked = sum(len(run["n_dofs"]) * len(run["lambdas"][0]) for run in traced[0]["runs"])
    run_s = statistics.fmean(r["run_s"] for r in traced)
    out = {name: (value, "s") for name, value in self_s.items()}
    out.update({name: (c[name], "count") for name in COUNT_METRICS})
    out.update({
        "mesh.refine.marked_share": (_ratio(c["mesh.refine.marked"],
                                            c["mesh.refine.bisections"]), "ratio"),
        "eigsolve.lock.calls": (c["eigsolve.calls"] - rows, "count"),
        "eigsolve.nev_share": (_ratio(tracked, c["eigsolve.nev_requested"]), "ratio"),
        "marking.marked_fraction": (_ratio(c["marking.marked"], c["marking.elements"]),
                                    "ratio"),
        "gap.gap2_final": (traced[0]["runs"][0]["gap2_final"] if workload.oracle
                           else 0.0, "1"),
        "driver.iterations": (rows, "count"),
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (run_s - untraced["run_s"], "s"),
    })
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def trace_problems(workload, traced):
    """Checks on the traced repetitions: the spans tile each run, work counts
    repeat exactly, and the gap oracle runs only where the workload allows."""
    problems = []
    for r in traced:
        runs = sum(end - start for name, start, end, _ in r["spans"] if name == "driver.run")
        inside = sum(v for k, v in r["self_s"].items() if k != "problems.get_problem")
        if abs(inside - runs) > 1e-6 or abs(runs - r["run_s"]) > 1e-3 * r["run_s"]:
            problems.append(f"{workload.name}: layer self times sum to {inside:.6f} s, "
                            f"run spans to {runs:.6f} s, run_s {r['run_s']:.6f} s")
        oracle_used = r["counts"].get("gap.calls", 0) > 0 or any(
            name == "fem.assemble.oracle" for name, *_ in r["spans"])
        if oracle_used != workload.oracle:
            problems.append(f"{workload.name}: gap oracle used={oracle_used}, "
                            f"expected {workload.oracle}")
    if traced[0]["counts"] != traced[1]["counts"]:
        diff = sorted(k for k in set(traced[0]["counts"]) | set(traced[1]["counts"])
                      if traced[0]["counts"].get(k) != traced[1]["counts"].get(k))
        problems.append(f"{workload.name}: work counts differ between traced runs: {diff}")
    return problems


# ---------------------------------------------------------------------------


def measure(bench, workload, seconds, trace, out_dir):
    bench.deadline = time.monotonic() + WORKLOAD_BUDGET_S
    warm = bench.child(workload, "setup")    # compiles bytecode, warms the page cache
    if isinstance(warm, str):
        sys.exit(f"warm-up failed: {warm}")
    meta = bench.metadata(warm)
    print("# meta " + json.dumps(meta), flush=True)

    start = time.perf_counter()
    setups, reps = [], []
    if trace:
        # the untraced repetition sits between the traced ones, so a drift in
        # machine speed shifts both sides of trace.overhead_s alike
        reps = [bench.child(workload, mode) for mode in ("traced", "run", "traced")]
    else:
        # set-up and calibration samples sit between the repetitions, likewise
        last = 0.0
        while len(reps) < MIN_REPS or time.perf_counter() - start + last <= seconds:
            setups.append(bench.child(workload, "setup"))
            t = time.perf_counter()
            reps.append(bench.child(workload, "run"))
            last = time.perf_counter() - t
            if isinstance(setups[-1], str) or isinstance(reps[-1], str):
                break                            # the run has failed already
        setups += [bench.child(workload, "setup")
                   for _ in range(SETUP_SAMPLES - len(setups))]

    problems = [s for s in setups if isinstance(s, str)]
    failed = len(problems)
    reference, passed = None, []
    for i, rep in enumerate(reps):
        found = check(workload, rep)
        if not found and reference is not None and digests(rep) != reference:
            found = [f"{workload.name}: trace digest of repetition {i} differs "
                     f"from the first passing one for the same seed"]
        if found:
            problems += found
            failed += 1
        else:
            passed.append(rep)
            reference = reference or digests(rep)
    if trace and len(passed) == 3:
        found = trace_problems(workload, passed[::2])
        problems += found
        failed += bool(found)

    metrics = {}
    calibration = [c["calibration_s"] for c in setups if not isinstance(c, str)]
    if trace and len(passed) == 3:
        metrics = per_layer(workload, passed[1], passed[::2])
    elif not trace and passed and calibration:
        scale = CALIBRATION_REF_S / statistics.fmean(calibration)
        print(f"# calibration mean {statistics.fmean(calibration):.6g} s over "
              f"{len(calibration)} samples: times scaled by {scale:.6g}")
        samples = [end_to_end(workload, r) for r in passed]
        for name, (_, unit) in samples[0].items():
            values = [s[name][0] for s in samples]
            if name == "setup_s":
                values += [s["setup_s"] for s in setups if not isinstance(s, str)]
            how, centre = (("mean", statistics.fmean) if name in MEAN_METRICS
                           else ("median", statistics.median))
            raw = centre(values)
            metrics[name] = (raw * scale if unit == "s" else raw, unit)
            print(f"# {name} {metrics[name][0]:.6g} {unit}: {how} {raw:.6g} of "
                  f"{len(values)} samples (min {min(values):.6g}, max {max(values):.6g})")
    for p in problems:
        print("# FAILED " + p)
    if reference:
        for spec, digest in zip(workload.runs, reference):
            print(f"# digest {workload.name}/{spec.label} seed {bench.seed} {digest}")

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload.name}-seed{bench.seed}-trace{int(trace)}.json").write_text(
        json.dumps({"meta": meta, "workload": workload.name, "seconds": seconds,
                    "problems": problems, "setups": setups, "repetitions": reps,
                    "metrics": metrics}))
    return {"correct": not problems and bool(metrics),
            "attempted": len(setups) + len(reps), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    # SystemExit lets subprocess.run kill and reap the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "afemeig" / "__init__.py").is_file():
        sys.exit(f"no afemeig sources under {root / 'src'}; run from the repository root")
    bench = Bench(root, args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        print(f"# workload {name}", flush=True)
        result = measure(bench, WORKLOADS[name], args.seconds, bool(args.trace),
                         root / ".bench_build" / "perfbench")
        print(json.dumps(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
