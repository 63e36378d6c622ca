"""Golden-trace regression: one small run per loop path against a stored CSV.

Integer columns (iter, n_elements, n_dofs, marked) must match exactly and
float columns to a relative 1e-9; the `seconds` column is not stored.  They
pass with 1 and with 2 BLAS threads, but they are not robust to a change of
factorization or BLAS build: the square run's Dörfler cut splits a class of
eight indicators that agree to round-off at 7 of its 15 rows, and round-off
picks the marked members.  Regenerate them after an intended change of the
numbers with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named files (the keys of RUNS, without `.csv`), or all of
them when no name is given, at the shell's BLAS thread count.
"""

import csv
import io
import pathlib
import sys

import numpy as np
import pytest

from afemeig import AfemConfig, run_afem, run_afem_first_n, run_afem_source
from afemeig.driver import trace_to_csv_text

from conftest import sine_solution, sine_source

GOLDEN = pathlib.Path(__file__).parent / "golden"
INT_COLUMNS = ("iter", "n_elements", "n_dofs", "marked")


def _manufactured_source_run():
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, max_dof=3000)
    return run_afem_source(cfg, [sine_source], exact=[sine_solution])


RUNS = {
    "oscillator_cluster2_q2_gap": lambda: run_afem(AfemConfig(
        problem="oscillator", degree=1, cluster_index=2, multiplicity=2,
        max_dof=2000)),
    "square_first3_gap": lambda: run_afem_first_n(AfemConfig(
        problem="square", degree=1, first_n=3, max_dof=2000)),
    "lshape_cluster1_proxy": lambda: run_afem(AfemConfig(
        problem="lshape", degree=1, cluster_index=1, multiplicity=1,
        max_dof=2000)),
    "square_source_manufactured": _manufactured_source_run,
}


def _table(csv_text):
    """Header and rows of a trace CSV without its `seconds` column."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    keep = [i for i, name in enumerate(rows[0]) if name != "seconds"]
    return [rows[0][i] for i in keep], [[r[i] for i in keep] for r in rows[1:]]


def _golden_text(trace):
    header, rows = _table(trace_to_csv_text(trace))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    return buf.getvalue()


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
                                       rtol=1e-9, atol=0, err_msg=title)


if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"unknown run {', '.join(unknown)}; choose from {', '.join(RUNS)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        (GOLDEN / f"{name}.csv").write_text(_golden_text(RUNS[name]()))
        print("wrote", GOLDEN / f"{name}.csv")
