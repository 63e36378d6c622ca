"""Entry points that the rest of the suite does not run: `afem reproduce`,
`afem run`'s argument parsing, the benchmark's layer tracer and the public
name list."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import afemeig
from afemeig import AfemConfig, fit_slope, read_trace
from afemeig.cases import CASES, run_cases
from afemeig.cli import main

ROOT = Path(__file__).resolve().parents[1]


_SLOPE_LINE = re.compile(r"^(\S+) (\S+): slope ([+-]\d+\.\d{3}), expected .*: (PASS|FAIL)$")


@pytest.mark.parametrize("names", [[name] for name in CASES] + [[]], ids=[*CASES, "all"])
def test_reproduce(tmp_path, capsys, names):
    assert main(["reproduce", *names, "--max-dof", "600", "--out", str(tmp_path)]) == 0
    ran = names or list(CASES)
    # the overlay of the L-shape pair needs both of its runs
    outputs = [f"{name}.{ext}" for name in ran for ext in ("csv", "json", "svg")]
    outputs += [] if names else ["lshape-p1-adaptive-vs-uniform.svg"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0, name
    for path in tmp_path.glob("*.json"):   # strict JSON: no NaN or Infinity tokens
        json.loads(path.read_text(), parse_constant=_reject_constant)
    # one report line per expected slope, each the fit of the trace as written
    reported = [m.groups() for m in map(_SLOPE_LINE.match, capsys.readouterr().out.splitlines())
                if m]
    assert [(name, series) for name, series, _, _ in reported] == [
        (name, series) for name in ran for series in CASES[name].slopes]
    for name, series, slope, verdict in reported:
        trace = read_trace(tmp_path / f"{name}.csv")
        trace.meta["lambda_refs"] = json.loads(
            (tmp_path / f"{name}.json").read_text())["meta"]["lambda_refs"]
        fitted = fit_slope(trace, series)
        assert slope == f"{fitted:+.3f}", (name, series)
        expected, half_width = CASES[name].slopes[series]
        assert verdict == ("PASS" if abs(fitted - expected) <= half_width else "FAIL")


def test_reproduce_reports_a_run_too_short_for_a_slope(tmp_path, capsys):
    # at 10 dofs square-p1 stops after 2 rows: its files are written and each
    # expected slope reports the short run instead of failing the command
    run_cases(["square-p1"], max_dof=10, out=tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["square-p1: 2 rows to 21 dofs, status max_dof"] + [
        f"square-p1 {series}: too few rows (2) for a slope"
        for series in CASES["square-p1"].slopes]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"square-p1.{ext}" for ext in ("csv", "json", "svg")]
    assert main(["reproduce", "square-p1", "--max-dof", "10", "--out", str(tmp_path)]) == 0


def test_reproduce_unknown_case_exits_1(tmp_path, capsys):
    assert main(["reproduce", "square-p3", "--out", str(tmp_path)]) == 1
    assert "unknown case(s) square-p3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--max-dof", "300.5"],
    ["run", "--max-dof", "nan"],
    ["run", "--max-dof", "inf"],
    ["reproduce", "square-p1", "--max-dof", "300.7"],
], ids=["run-fraction", "run-nan", "run-inf", "reproduce-fraction"])
def test_non_integral_max_dof_exits_1(tmp_path, capsys, argv):
    # the float reaches the config's own check instead of being rounded down
    assert main([*argv, *(["--out", str(tmp_path)] if argv[0] == "reproduce" else [])]) == 1
    assert f"max_dof must be an integer, got {float(argv[-1])!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_run_fractional_vertex_index_exits_1(tmp_path, capsys):
    # the index 2.9 used to be truncated to 2, and the run exited 0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"mesh": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                         "elements": [[0, 1, 2.9], [0, 2, 3]]}}))
    assert main(["run", "--problem", f"file:{spec}", "--max-dof", "300"]) == 1
    assert "triangle vertex indices must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("first_n, message", [
    ("4", "gap2 is NaN: neither closed forms nor reference values cover every cluster "
          "of the tracked window [0, 1, 2, 3]"),
    ("2", "first_n=2 splits a multiplet; extending to 3"),
], ids=["nan-gap", "widened"])
def test_run_prints_a_warning_as_one_line(capsys, first_n, message):
    # not as "cli.py:NN: UserWarning: ..." followed by a source line of cli.py
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        assert main(["run", "--problem", "square", "--first-n", first_n,
                     "--max-dof", "300"]) == 0
    assert not escaped
    assert capsys.readouterr().err.splitlines() == [f"afem: warning: {message}"]


def test_reproduce_bad_max_dof_makes_no_output_directory(tmp_path, capsys):
    out = tmp_path / "new"
    assert main(["reproduce", "square-p1", "--max-dof", "300.5", "--out", str(out)]) == 1
    assert "max_dof must be an integer" in capsys.readouterr().err
    assert not out.exists()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:     # argparse's own exits
        return exc.code


@pytest.mark.parametrize("argv", [
    ["run", "--degree", "3"],
    ["run", "--theta", "x"],
    ["run", "--cluster", "2", "--first-n", "3"],
    ["run", "--bogus"],
], ids=["degree-3", "theta-x", "cluster-and-first-n", "bogus"])
def test_usage_errors_exit_1(capsys, argv):
    # argparse exits 2 on its own, the code that afem keeps for a lost cluster
    assert _exit_code(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_run_help_exits_0(capsys):
    assert _exit_code(["run", "--help"]) == 0
    assert "--first-n" in capsys.readouterr().out


@pytest.mark.parametrize("flags, given", [
    (["--max-dof", "300"], dict(max_dof=300)),
    (["--no-gap", "--uniform", "--b", "2"],
     dict(compute_gap=False, marking="uniform", bisections=2)),
    (["--first-n", "3"], dict(first_n=3)),
    (["--cluster", "2", "--multiplicity", "2", "--degree", "2"],
     dict(cluster_index=2, multiplicity=2, degree=2)),
], ids=["max-dof", "no-gap-uniform-b", "first-n", "cluster-multiplicity-degree"])
def test_run_configures_only_the_flags_given(monkeypatch, flags, given):
    # every flag left out keeps AfemConfig's own default
    seen = []

    def run_afem(config):
        seen.append(dataclasses.asdict(config))
        raise RuntimeError("not run")

    monkeypatch.setattr("afemeig.cli.run_afem", run_afem)
    assert main(["run", *flags]) == 1
    assert seen == [dataclasses.asdict(AfemConfig(**given))]


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
afemeig.run_afem(afemeig.AfemConfig(problem="square", first_n=2, max_dof=300,
                                    compute_gap=False))
c = tracer.counts
names = ("mesh.refine.calls", "fem.assemble.calls", "eigsolve.calls",
         "estimator.calls", "marking.calls", "gap.calls")
missing = [n for n in names if c[n] == 0]
assert not missing, missing
print("ok")
"""


def test_benchmark_tracer_installs_and_counts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN], cwd=ROOT / "perfbench",
                          env=env, capture_output=True, text=True, timeout=120)
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
    # one entry point for every window; the old first-N name is an alias
    assert afemeig.run_afem_first_n is afemeig.run_afem
