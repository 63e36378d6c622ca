"""Entry points that the rest of the suite does not run: the experiment
scripts, the benchmark's layer tracer and the public name list."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import afemeig

ROOT = Path(__file__).resolve().parents[1]


def _run(args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


# script -> (extra arguments, files written)
_SCRIPTS = {
    "square_convergence.py": ([], ["square_p1.csv", "square_p1.json", "square_p1.svg",
                                   "square_p2.csv", "square_p2.json", "square_p2.svg"]),
    "lshape_adaptive_vs_uniform.py": ([], ["lshape_dorfler.csv", "lshape_uniform.csv",
                                           "lshape_compare.svg"]),
    "oscillator_first_n.py": (["--gap"], ["oscillator_first3.csv", "oscillator_first3.svg"]),
    "source_convergence.py": ([], ["source_manufactured.csv"]),
}


@pytest.mark.parametrize("script", list(_SCRIPTS))
def test_script_runs(tmp_path, script):
    extra, outputs = _SCRIPTS[script]
    proc = _run([str(ROOT / "scripts" / script), "--max-dof", "600", "--out", str(tmp_path),
                 *extra])
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
    for path in tmp_path.glob("*.json"):   # strict JSON: no NaN or Infinity tokens
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# The benchmark's tracer wraps driver and eigsolve attributes by name and
# reads their arguments; a renamed or re-signed one must fail here too.  It
# patches modules in place, hence the separate process.
_TRACED_RUN = """
import afemeig, tracing
tracer = tracing.Tracer()
tracing.install(tracer, afemeig)
afemeig.run_afem(afemeig.AfemConfig(problem="square", cluster_index=2, multiplicity=2,
                                    max_dof=300))
afemeig.run_afem_first_n(afemeig.AfemConfig(problem="square", first_n=2, max_dof=300,
                                            compute_gap=False))
c = tracer.counts
names = ("mesh.refine.calls", "fem.assemble.calls", "eigsolve.calls",
         "estimator.calls", "marking.calls", "gap.calls")
missing = [n for n in names if c[n] == 0]
assert not missing, missing
print("ok")
"""


def test_benchmark_tracer_installs_and_counts():
    proc = _run(["-c", _TRACED_RUN], cwd=ROOT / "perfbench")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "ok"


def test_public_names():
    assert sorted(afemeig.__all__) == [
        "AfemConfig", "AfemTrace", "ClusterIdentityError", "Coefficients",
        "EigenCluster", "ExactEigenspace", "FeSpace",
        "IndicatorField", "MarkResult", "Mesh", "MeshError", "ProblemSpec",
        "RefineResult", "assemble_mass", "assemble_stiffness", "build_initial",
        "build_space", "detect_cluster", "dorfler_mark", "eigen_indicators",
        "emit_plot", "export_trace", "fit_slope", "gap_energy", "get_problem",
        "harmonic_oscillator", "lshape_laplace", "read_trace", "refine", "run_afem",
        "run_afem_first_n", "run_afem_source", "solve_smallest", "square_laplace",
        "uniform_refine",
    ]
    for name in afemeig.__all__:
        assert hasattr(afemeig, name), name
