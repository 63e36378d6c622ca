"""Golden-trace regression: one small run per loop path against a stored CSV.

Integer columns (iter, n_elements, n_dofs, marked) must match exactly and
float columns to a relative 1e-9; the `seconds` column is not stored.  They
pass with 1 and with 2 BLAS threads.  Dörfler marking takes a class of
indicators that agree to round-off whole (symmetric meshes make such classes),
so a change that only moves round-off, such as another BLAS thread count or
factorization, leaves the meshes as they are; the tests below the golden one
check that with noise on the indicators and with two BLAS thread counts.
Regenerate the files after an intended change of the numbers with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named files (the keys of RUNS, without `.csv`), or all of
them when no name is given, at the shell's BLAS thread count.  A float cell
within the test's tolerance of its stored cell keeps its stored text, so
regenerating an unchanged run rewrites its file byte for byte.
"""

import csv
import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import afemeig.driver
import afemeig.gap
from afemeig import AfemConfig, run_afem
from afemeig.cases import CASES, run_case
from afemeig.driver import trace_to_csv_text
from afemeig.gap import gap_energy
from afemeig.marking import dorfler_mark

from oracles import subdivided_gap_rule

GOLDEN = pathlib.Path(__file__).parent / "golden"
INT_COLUMNS = ("iter", "n_elements", "n_dofs", "marked")
RTOL = 1e-9   # of the float columns, relative to the stored cell


RUNS = {
    "oscillator_cluster2_q2_gap": lambda: run_afem(AfemConfig(
        problem="oscillator", degree=1, cluster_index=2, multiplicity=2,
        max_dof=2000)),
    "square_first3_gap": lambda: run_afem(AfemConfig(
        problem="square", degree=1, first_n=3, max_dof=2000)),
    # two reproduction cases, cut to a few thousand dofs
    "lshape_cluster1_proxy": lambda: run_case(CASES["lshape-p1-adaptive"], max_dof=2000),
    "square_source_manufactured": lambda: run_case(CASES["square-source-p1"], max_dof=3000),
}


def _table(csv_text):
    """Header and rows of a trace CSV without its `seconds` column."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    keep = [i for i, name in enumerate(rows[0]) if name != "seconds"]
    return [rows[0][i] for i in keep], [[r[i] for i in keep] for r in rows[1:]]


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _golden_text(trace):
    header, rows = _table(trace_to_csv_text(trace))
    return _csv_text([header] + rows)


def _merged_text(new_text, stored_text):
    """`new_text` with every float cell that lies within RTOL of the stored
    cell in its place written as stored.  Integer cells, cells outside RTOL
    and rows past the stored ones keep their new text; a stored file with
    another header is replaced whole."""
    header, rows = _table(new_text)
    stored_header, stored = _table(stored_text)
    if stored_header != header:
        return new_text
    for row, old in zip(rows, stored):
        for col, title in enumerate(header):
            if title not in INT_COLUMNS and np.isclose(float(row[col]), float(old[col]),
                                                       rtol=RTOL, atol=0, equal_nan=True):
                row[col] = old[col]
    return _csv_text([header] + rows)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden(name):
    header, expected = _table((GOLDEN / f"{name}.csv").read_text())
    got_header, got = _table(trace_to_csv_text(RUNS[name]()))
    assert got_header == header
    assert len(got) == len(expected)
    for col, title in enumerate(header):
        want = [row[col] for row in expected]
        have = [row[col] for row in got]
        if title in INT_COLUMNS:
            assert have == want, title
        else:
            np.testing.assert_allclose(np.array(have, float), np.array(want, float),
                                       rtol=RTOL, atol=0, err_msg=title)


def test_golden_writer_rewrites_only_the_cells_that_moved():
    stored = ("iter,n_elements,marked,lambda_1,gap2\n"
              "0,16,8,19.7392088021787,nan\n"
              "1,24,16,1e-300,0.25\n")
    new = ("iter,n_elements,marked,lambda_1,gap2\n"
           "0,16,8,19.739208802178713,nan\n"     # within RTOL: stored text kept
           "1,26,16,1.000000002e-300,0.2500000003\n"   # outside RTOL: new text
           "2,40,12,5.0,0.125\n")                  # a row past the stored ones
    assert _merged_text(new, stored) == ("iter,n_elements,marked,lambda_1,gap2\n"
                                         "0,16,8,19.7392088021787,nan\n"
                                         "1,26,16,1.000000002e-300,0.2500000003\n"
                                         "2,40,12,5.0,0.125\n")
    # an integer cell moves even when it would be a float within RTOL
    assert _merged_text(new.replace("0,16,8", "0,17,8"), stored).splitlines()[1] == (
        "0,17,8,19.7392088021787,nan")
    assert _merged_text(stored, stored) == stored
    assert _merged_text(new, stored.replace("gap2", "eta2")) == new
    # the seconds column is dropped, as the golden files store it
    timed = new.replace("gap2\n", "gap2,seconds\n").replace("nan\n", "nan,0.5\n")
    assert _merged_text(timed, stored).splitlines()[0] == "iter,n_elements,marked,lambda_1,gap2"


EIGEN_RUNS = sorted(name for name in RUNS if name != "square_source_manufactured")


def test_noise_on_the_indicators_leaves_the_eigen_runs_bit_identical(monkeypatch):
    # relative noise of 1e-13 stands for round-off of another BLAS or factor;
    # it reorders the members of a tie class but cannot split one
    def noisy_marking(seed):
        rng = np.random.default_rng(seed)
        def mark(indicators, theta):
            eta2 = np.asarray(indicators.eta2)
            return dorfler_mark(eta2 * (1 + 1e-13 * rng.standard_normal(eta2.size)),
                                theta)
        return mark
    for name in EIGEN_RUNS:
        plain = _golden_text(RUNS[name]())
        for seed in (1, 2):
            monkeypatch.setattr(afemeig.driver, "dorfler_mark", noisy_marking(seed))
            assert _golden_text(RUNS[name]()) == plain, (name, seed)
        monkeypatch.undo()


# A tie class adds at most this many elements to one call's minimal prefix
# (measured: 7, one class of 8 congruent elements on a symmetric mesh), and
# whole classes add at most this share to a run's marked total (measured:
# 0.2-0.9 % on the four golden runs).
MAX_EXTRA_PER_CALL = 7
MAX_EXTRA_SHARE = 0.015


@pytest.mark.parametrize("name", sorted(RUNS))
def test_tie_classes_add_few_elements_to_the_minimal_prefix(name, monkeypatch):
    counts = []   # (minimal prefix, marked) per marking call
    def counting(indicators, theta):
        eta2 = np.sort(np.asarray(indicators.eta2))[::-1]
        minimal = int(np.searchsorted(np.cumsum(eta2), theta * eta2.sum())) + 1
        result = dorfler_mark(indicators, theta)
        counts.append((minimal, len(result.marked)))
        return result
    monkeypatch.setattr(afemeig.driver, "dorfler_mark", counting)
    RUNS[name]()
    extra = [marked - minimal for minimal, marked in counts]
    assert min(extra) >= 0
    assert max(extra) <= MAX_EXTRA_PER_CALL
    assert sum(extra) <= MAX_EXTRA_SHARE * sum(minimal for minimal, _ in counts)


# The gap's default rule (degree 2k+4, unsubdivided) against the same degree
# at two subdivisions: the deviation of each row's gap^2, relative.  Rows on
# meshes of fewer than COARSE_ELEMENTS elements are coarse.  The split and
# the bounds, per problem and degree, come from other runs (default seed) and
# are four times the largest deviation measured there, coarse and fine:
# - P1 oscillator clusters 1 and 3 to 6e3 dofs: 9.5e-3 and 8.0e-6, the
#   coarse rows being the last with the Gaussian under-resolved in the far
#   field;
# - P1 square clusters 1 and 2 to 1.2e4 dofs: 1.14e-5 and 1.1e-8;
# - P2 oscillator clusters 1 and 3 to 6e3 dofs: 3.52e-2 and 8.3e-5.
# The degree-4 rule without subdivision deviates by 1e-4 to 2e-4 on the fine
# P1 oscillator rows.
COARSE_ELEMENTS = 300
GAP_RULE_BOUNDS = {("oscillator", 1): (3.8e-2, 3.2e-5), ("square", 1): (4.6e-5, 4.4e-8),
                   ("oscillator", 2): (1.4e-1, 3.3e-4)}
GAP_RULE_RUNS = {
    "oscillator_cluster2_q2_gap": RUNS["oscillator_cluster2_q2_gap"],
    "square_first3_gap": RUNS["square_first3_gap"],
    "oscillator_first3_short": lambda: run_afem(AfemConfig(
        problem="oscillator", degree=1, first_n=3, max_dof=1500)),
    "oscillator_p2_cluster2_q2": lambda: run_afem(AfemConfig(
        problem="oscillator", degree=2, cluster_index=2, multiplicity=2, max_dof=2000)),
}


@pytest.mark.parametrize("name", sorted(GAP_RULE_RUNS))
def test_gap_rule_deviation_from_subdivision_two_is_bounded(name, monkeypatch):
    rows = []   # (elements, gap^2, gap^2 at subdivision 2) per row
    def both(exact, discrete, space, coeffs):
        gaps = gap_energy(exact, discrete, space, coeffs)
        with monkeypatch.context() as patch:
            patch.setattr(afemeig.gap, "gap_rule", subdivided_gap_rule(2))
            finer = gap_energy(exact, discrete, space, coeffs)
        rows.append((space.mesh.n_elements, sum(g * g for g in gaps),
                     sum(g * g for g in finer)))
        return gaps
    monkeypatch.setattr(afemeig.driver, "gap_energy", both)
    trace = GAP_RULE_RUNS[name]()
    elements, gap2, finer = np.array(rows).T
    np.testing.assert_array_equal(gap2, trace.series("gap2"))
    deviation = np.abs(gap2 - finer) / finer
    coarse = elements < COARSE_ELEMENTS
    assert coarse.any() and not coarse.all()
    coarse_bound, fine_bound = GAP_RULE_BOUNDS[trace.meta["problem"], trace.meta["degree"]]
    assert deviation[coarse].max() <= coarse_bound
    assert deviation[~coarse].max() <= fine_bound


def test_integer_columns_do_not_depend_on_the_blas_thread_count():
    # square cluster 2 with P1: with a minimal-prefix rule its row-9 cut fell
    # in a near-tie class and marked 283 elements with one BLAS thread and 284
    # with two, so every later mesh differed
    script = ("from afemeig import AfemConfig, run_afem; "
              "tr = run_afem(AfemConfig(problem='square', degree=1, "
              "cluster_index=2, multiplicity=2, max_dof=2000)); "
              "print([row[:4] for row in tr.rows])")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=path)
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      capture_output=True, text=True,
                                      check=True).stdout)
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"unknown run {', '.join(unknown)}; choose from {', '.join(RUNS)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        path = GOLDEN / f"{name}.csv"
        text = _golden_text(RUNS[name]())
        if path.exists():
            text = _merged_text(text, path.read_text())
        path.write_text(text)
        print("wrote", path)
