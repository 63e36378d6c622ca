import math
import re
import warnings

import numpy as np
import pytest

import afemeig.driver
from afemeig import (AfemConfig, ClusterIdentityError, Coefficients, ExactEigenspace,
                     ProblemSpec, run_afem, run_afem_source, solve_smallest)
from afemeig.driver import (emit_plot, export_trace, fit_slope, read_trace,
                            trace_to_csv_text)

from conftest import sine_solution, sine_source


def _strip_seconds(csv_text):
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.strip().splitlines())


@pytest.fixture
def solve_calls(monkeypatch):
    """(free dofs, nev, start) of every solve_smallest call of the driver."""
    from afemeig import driver
    calls = []
    real = driver.solve_smallest

    def spy(K, M, nev, **kw):
        calls.append((K.shape[0], nev, kw.get("start")))
        return real(K, M, nev, **kw)

    monkeypatch.setattr(driver, "solve_smallest", spy)
    return calls


@pytest.fixture(scope="module")
def small_cluster2_trace():
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, cluster_index=2,
                     multiplicity=2, max_dof=2500)
    return run_afem(cfg)


@pytest.fixture(scope="module")
def small_first3_trace():
    # without the gap, so its gap2 column is NaN
    return run_afem(AfemConfig(problem="square", first_n=3, max_dof=600, compute_gap=False))


# -- fit_slope ---------------------------------------------------------------


def test_fit_slope_exact_power():
    x = np.array([10.0, 20, 40, 80, 160, 320])
    assert fit_slope(x, 1.0 / x, window=6) == pytest.approx(-1.0, abs=1e-12)


def test_fit_slope_noisy_two_thirds():
    rng = np.random.default_rng(8)
    x = np.logspace(2, 5, 24)
    y = 3.0 * x ** (-2.0 / 3.0) * (1 + 0.01 * rng.standard_normal(x.size))
    assert fit_slope(x, y, window=24) == pytest.approx(-2.0 / 3.0, abs=0.05)


def test_fit_slope_constant_and_errors():
    x = np.array([1.0, 2, 4, 8])
    assert fit_slope(x, np.full(4, 3.0), window=4) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        fit_slope(x, np.array([1.0, -1.0, 1.0, 1.0]), window=4)
    with pytest.raises(ValueError, match="need at least 3 points"):
        fit_slope(x[:2], x[:2], window=3)
    # a window below 3 or not an integer used to fit every row (0) or all
    # but the first rows (-2)
    for window in (2, 0, -2, 3.0, True, None):
        with pytest.raises(ValueError, match="window must be an integer >= 3"):
            fit_slope(x, x, window=window)
    assert fit_slope(x, x, window=np.int64(3)) == pytest.approx(1.0, abs=1e-12)
    # x and y of unequal lengths used to pair by their last rows
    longer = np.array([0.5, 0.75, 1.0, 2, 4, 8, 16, 32])
    for a, b in ((longer, 1.0 / x), (x, 1.0 / longer)):
        with pytest.raises(ValueError, match="must pair row by row"):
            fit_slope(a, b, window=3)
    # a NaN gap2 row or an overflowed value used to give a nan slope
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="slope fit needs finite positive data"):
            fit_slope(x, np.array([1.0, bad, 1.0, 1.0]), window=4)
        with pytest.raises(ValueError, match="slope fit needs finite positive data"):
            fit_slope(np.array([1.0, 2, bad, 8]), x, window=4)


# -- config validation -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        AfemConfig(theta=1.5)
    with pytest.raises(ValueError):
        AfemConfig(degree=3)
    with pytest.raises(ValueError):
        AfemConfig(multiplicity=0)
    with pytest.raises(ValueError):
        AfemConfig(marking="random")
    with pytest.raises(ValueError):
        AfemConfig(max_iterations=-1)
    with pytest.raises(ValueError, match="bisections"):
        AfemConfig(bisections=0)
    with pytest.raises(ValueError, match="eig_tol"):
        AfemConfig(eig_tol=-1.0)
    # first-N mode names no cluster; a q of 2 used to be ignored silently
    for kw in (dict(cluster_index=2), dict(multiplicity=2)):
        with pytest.raises(ValueError, match="first_n=3 names no cluster"):
            AfemConfig(first_n=3, **kw)
    assert AfemConfig(first_n=3, cluster_index=1, multiplicity=1).first_n == 3
    from afemeig.cli import main
    assert main(["run", "--first-n", "3", "--multiplicity", "2", "--max-dof", "300"]) == 1


@pytest.mark.parametrize("name", ["bisections", "max_dof", "max_iterations",
                                  "cluster_index", "multiplicity", "first_n", "degree",
                                  "seed"])
@pytest.mark.parametrize("value", [2.5, float("nan"), True, "2"])
def test_config_rejects_non_integer_counts(name, value, solve_calls):
    # the field is named before any solve, not at the first refine
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run_afem(AfemConfig(**{"problem": "square", "max_dof": 200, name: value}))
    assert solve_calls == []


@pytest.mark.parametrize("kwargs, message", [
    # a negative seed passed every check and failed at the first Lanczos solve
    (dict(seed=-1), "seed must be >= 0"),
    # a string threshold raised a bare TypeError from the range comparison
    (dict(theta="0.5"), "theta must be a real number"),
    (dict(eig_tol="1e-10"), "eig_tol must be a real number"),
    (dict(theta=True), "theta must be a real number"),
    # the string "no" is truthy and used to run the gap
    (dict(compute_gap="no"), "compute_gap must be True or False"),
    (dict(compute_gap=1), "compute_gap must be True or False"),
])
def test_config_rejects_bad_seed_reals_and_flags(kwargs, message, solve_calls):
    with pytest.raises(ValueError, match=message):
        run_afem(AfemConfig(problem="square", max_dof=3000, **kwargs))
    assert solve_calls == []


def test_config_normalizes_numpy_scalars():
    cfg = AfemConfig(theta=np.float32(0.25), eig_tol=np.int64(0), seed=np.int64(7),
                     compute_gap=np.bool_(False))
    assert [type(v) for v in (cfg.theta, cfg.eig_tol, cfg.seed, cfg.compute_gap)] == \
        [float, float, int, bool]


def test_config_takes_integral_floats_as_ints():
    cfg = AfemConfig(max_dof=5e4, bisections=np.int64(2), degree=2.0)
    assert (cfg.max_dof, cfg.bisections, cfg.degree) == (50_000, 2, 2)
    assert all(type(v) is int for v in (cfg.max_dof, cfg.bisections, cfg.degree))


# -- trace bookkeeping -------------------------------------------------------


def test_trace_monotone_columns(small_cluster2_trace):
    tr = small_cluster2_trace
    ne = tr.series("n_elements")
    assert np.all(np.diff(ne) > 0)
    lam = np.array([list(r) for r in tr.lambdas])
    assert np.all(np.diff(lam, axis=0) <= 1e-10 * lam[:-1])


def test_trace_csv_round_trip(tmp_path, small_cluster2_trace):
    path = tmp_path / "trace.csv"
    export_trace(small_cluster2_trace, path)
    again = read_trace(path)
    assert trace_to_csv_text(again) == path.read_text()
    assert again.lambdas == [tuple(map(float, r)) for r in small_cluster2_trace.lambdas]


def test_read_trace_of_an_empty_file_names_it(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"{path}: empty file, no trace header")):
        read_trace(path)


@pytest.mark.parametrize("name", ["lambda_0", "lambda_3", "lambda_01", "lambda_x",
                                  "lambda_err_0", "lambda_err_3", "lambda_err_",
                                  "iters", "eta2_", "bogus"])
def test_series_rejects_names_outside_the_schema(small_cluster2_trace, name):
    # lambda_0 used to return the last eigenvalue column, lambda_err_0 the
    # last one's error and lambda_3 on a 2-wide trace a bare IndexError
    with pytest.raises(ValueError, match=f"unknown series {name!r}"):
        small_cluster2_trace.series(name)


@pytest.mark.parametrize("i", [1, 2])
def test_series_lambda_columns(small_cluster2_trace, i):
    tr = small_cluster2_trace
    lam = np.array([row[i - 1] for row in tr.lambdas])
    assert np.array_equal(tr.series(f"lambda_{i}"), lam)
    ref = tr.meta["lambda_refs"][i - 1]
    assert ref == 5 * math.pi ** 2
    assert np.array_equal(tr.series(f"lambda_err_{i}"), lam - ref)


_COLUMN_VIEWS = {"iters": "iter", "n_elements": "n_elements", "n_dofs": "n_dofs",
                 "marked": "marked", "eta2": "eta2", "osc2": "osc2", "gap2": "gap2",
                 "seconds": "seconds"}


@pytest.mark.parametrize("fixture", ["small_cluster2_trace", "small_first3_trace"])
def test_column_views_match_the_rows(tmp_path, request, fixture):
    # the benchmark's trace digests and run records read the column attributes
    import csv
    import json
    tr = request.getfixturevalue(fixture)
    header, *body = csv.reader(trace_to_csv_text(tr).splitlines())
    assert header == list(tr.columns)

    def column(name):
        k = header.index(name)
        return [row[k] for row in tr.rows]

    for attr, name in _COLUMN_VIEWS.items():
        view = getattr(tr, attr)
        assert [repr(v) for v in view] == [repr(v) for v in column(name)], attr
        assert [repr(v) for v in view] == [r[header.index(name)] for r in body], attr
    lams = [name for name in header if name.startswith("lambda_")]
    assert len(lams) == tr.n_lambda > 0
    assert tr.lambdas == [tuple(row[header.index(n)] for n in lams) for row in tr.rows]
    path = tmp_path / "trace.json"
    export_trace(tr, path, fmt="json")
    obj = json.loads(path.read_text())
    assert obj["columns"] == header
    assert obj["rows"] == [[None if v != v else v for v in row] for row in tr.rows]


def test_trace_json_mirror(tmp_path, small_cluster2_trace):
    import json
    path = tmp_path / "trace.json"
    export_trace(small_cluster2_trace, path, fmt="json")
    obj = json.loads(path.read_text())
    assert obj["columns"][:4] == ["iter", "n_elements", "n_dofs", "marked"]
    assert len(obj["rows"]) == len(small_cluster2_trace)
    assert obj["meta"]["problem"] == "square"


def test_emit_plot_one_polyline_per_series(tmp_path, small_cluster2_trace):
    path = tmp_path / "plot.svg"
    emit_plot(small_cluster2_trace, path, series=("eta2", "gap2"))
    text = path.read_text()
    assert text.count("<polyline") == 2
    # axes envelope the data points
    rect = re.search(r'<rect class="axes" x="([\d.]+)" y="([\d.]+)" '
                     r'width="([\d.]+)" height="([\d.]+)"', text)
    x0, y0, w, h = map(float, rect.groups())
    for pts in re.findall(r'points="([^"]+)"', text):
        for pair in pts.split():
            px, py = map(float, pair.split(","))
            assert x0 - 0.5 <= px <= x0 + w + 0.5
            assert y0 - 0.5 <= py <= y0 + h + 0.5


def test_plot_text_is_escaped(tmp_path):
    # a problem named "A&B <x>" used to give an SVG that XML parsers reject
    import xml.etree.ElementTree as ET
    from afemeig import plotting
    path = tmp_path / "plot.svg"
    x = np.array([10.0, 100.0, 1000.0])
    plotting.loglog_svg(path, [("a<b", x, 1 / x)], guide_slope=-1.0, xlabel="x&y",
                        ylabel="y>0", title="A&B <x> P1")
    texts = [el.text for el in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "A&B <x> P1"
    assert {"a<b", "x&y", "y>0"} <= set(texts)


def test_tiny_theta_marks_the_top_tie_class():
    cfg = AfemConfig(problem="square", degree=1, theta=1e-9, cluster_index=1,
                     multiplicity=1, max_iterations=1, compute_gap=False)
    tr = run_afem(cfg)
    assert len(tr) == 2
    # the minimal Dörfler prefix is one largest indicator, and the symmetric
    # square's 8 congruent elements tie with it, so the class is marked whole
    assert tr.marked[0] == 8
    assert tr.marked[1] == 0       # final row records no further marking


def test_first_n_one_matches_cluster_one(tmp_path):
    kw = dict(problem="square", degree=1, theta=0.5, max_dof=1200)
    tr_a = run_afem(AfemConfig(cluster_index=1, multiplicity=1, **kw))
    tr_b = run_afem(AfemConfig(first_n=1, **kw))
    assert _strip_seconds(trace_to_csv_text(tr_a)) == \
        _strip_seconds(trace_to_csv_text(tr_b))


def test_first_n_splitting_a_multiplet_extends_the_window(solve_calls):
    # the square's lambda_2 = lambda_3 = 5 pi^2 stays a pair under refinement,
    # so first_n = 2 cannot cut it and is widened to 3
    with pytest.warns(UserWarning, match="splits a multiplet; extending to 3") as record:
        tr = run_afem(AfemConfig(problem="square", first_n=2, max_dof=1500))
    assert record[0].filename == __file__     # the warning points at the caller
    assert tr.n_lambda == 3
    # the lock's solve (N + 2 = 4) is too narrow for the widened window, so
    # the lock solves its pencil again with nev = 3 + 2, and row 0 takes that
    assert [nev for n, nev, _ in solve_calls if n == tr.n_dofs[0]] == [4, 5]


def test_widened_window_that_its_wider_solve_breaks_aborts_on_row_0():
    # the oscillator's levels from 10 up merge into one cluster, the last of
    # the lock's 49 values, which N = 47 cuts; widened to 49, the solve for
    # 49 + 2 values finds that cluster longer still, so no sizes are locked
    with pytest.warns(UserWarning, match="extending to 49"), \
            pytest.raises(ClusterIdentityError, match=r"48\] lost on a 481-dof mesh"):
        run_afem(AfemConfig(problem="oscillator", first_n=47, max_dof=400, compute_gap=False))


@pytest.mark.parametrize("kw", [
    dict(problem="square", cluster_index=2, multiplicity=2),
    dict(problem="oscillator", first_n=3),
], ids=["cluster", "first_n"])
def test_row_0_pencil_is_solved_once(solve_calls, kw):
    tr = run_afem(AfemConfig(max_dof=600, compute_gap=False, **kw))
    assert [n for n, _, _ in solve_calls].count(tr.n_dofs[0]) == 1


def test_cluster_identity_mismatch_aborts():
    # the square's second cluster has multiplicity 2, not 3
    cfg = AfemConfig(problem="square", degree=1, cluster_index=2,
                     multiplicity=3, max_dof=2000, compute_gap=False)
    with pytest.raises(ClusterIdentityError):
        run_afem(cfg)


def test_unresolved_cluster_fails_within_the_lock_bounds(solve_calls):
    # levels 10 and 11 of the oscillator lie within CLUSTER_REL_GAP_TOL, so every
    # level from 10 up merges into one cluster; the lock gives up after 7 meshes
    # without growing nev up to the free dofs
    cfg = AfemConfig(problem="oscillator", cluster_index=10, multiplicity=10,
                     max_dof=4000, compute_gap=False)
    with pytest.raises(ClusterIdentityError, match=r"on 7 meshes .*\(max_dof 4000\)"):
        run_afem(cfg)
    assert len({n for n, _, _ in solve_calls}) <= 7
    assert len(solve_calls) == 20


def test_window_wider_than_max_dof_fails_before_solving(solve_calls):
    # cluster 2 (q = 2) solves for 5 eigenpairs on a mesh with at least 8 free dofs
    cfg = AfemConfig(problem="square", cluster_index=2, multiplicity=2, max_dof=7)
    with pytest.raises(ValueError, match="window needs 8 free dofs, more than max_dof 7"):
        run_afem(cfg)
    assert solve_calls == []


def _rectangle(width, **kw):
    """-Laplace on (0, width) x (0, 1), whose eigenvalues are
    `_rectangle_lambda(width, m, n)`."""
    return ProblemSpec(name=f"rectangle {width}",
                       vertices=np.array([(0, 0), (width, 0), (width, 1), (0, 1)], float),
                       triangles=np.array([(0, 1, 2), (0, 2, 3)]),
                       coefficients=Coefficients(a=1.0, c=0.0), **kw)


def _rectangle_lambda(width, m, n):
    return math.pi ** 2 * (m * m / width ** 2 + n * n)


def _rectangle_mode(width, m, n):
    """The L2-normalized sin(m pi x / width) sin(n pi y) as a closed-form
    function: the (3, k) rows of value, d/dx and d/dy at (k, 2) points."""
    a, b, scale = m * math.pi / width, n * math.pi, 2.0 / math.sqrt(width)

    def fn(p):
        sx, cx = np.sin(a * p[:, 0]), np.cos(a * p[:, 0])
        sy, cy = np.sin(b * p[:, 1]), np.cos(b * p[:, 1])
        return scale * np.stack([sx * sy, a * cx * sy, b * sx * cy])
    return fn


def _merge_pair_with_next(clusters):
    at = next(i for i, c in enumerate(clusters) if 3 in c)
    clusters[at - 1:at + 1] = [clusters[at - 1] + clusters[at]]


def _split_pair(clusters):
    at = next(i for i, c in enumerate(clusters) if 1 in c)
    clusters[at:at + 1] = [[i] for i in clusters[at]]


# the rectangle's lambda_21 and lambda_12 lie 9.8 % apart: one cluster on the
# lock's mesh, two on the next
_WIDE = 1.09
_WIDE_RECTANGLE = _rectangle(_WIDE, reference_values=[
    (1, _rectangle_lambda(_WIDE, 1, 1), "separation of variables"),
    (2, _rectangle_lambda(_WIDE, 2, 1), "separation of variables"),
    (3, _rectangle_lambda(_WIDE, 1, 2), "separation of variables")])


@pytest.mark.parametrize("problem, shift, gap", [
    # positions 2 and 3 reported as one cluster, so N = 3 cuts it
    ("square", _merge_pair_with_next, False),
    # the (1, 2) partition reported as (1, 1, 1): a whole window, but its
    # pair's closed form met a one-member cluster in a GapError
    ("oscillator", _split_pair, True),
    # unpatched: the run used to go on, and to take lambda_21 as the reference
    # value of lambda_12 from a last row that showed the pair as one cluster
    (_WIDE_RECTANGLE, None, True),
], ids=["merge", "split", "rectangle"])
def test_first_n_rows_check_the_window(monkeypatch, problem, shift, gap):
    # from row 1 on (the rows that prolongate a warm start) the detected
    # partition differs from the one that the lock fixed
    from afemeig import driver
    real_detect, real_prolongate = driver.detect_cluster, driver.prolongate
    warm = []

    def prolongate(*args):
        warm.append(True)
        return real_prolongate(*args)

    def detect(values, tol):
        clusters = real_detect(values, tol)
        if warm and shift:
            shift(clusters)
        return clusters

    monkeypatch.setattr(driver, "prolongate", prolongate)
    monkeypatch.setattr(driver, "detect_cluster", detect)
    with pytest.raises(ClusterIdentityError, match=r"window \[0, 1, 2\] lost"):
        run_afem(AfemConfig(problem=problem, first_n=3, max_dof=600, compute_gap=gap))
    assert warm


def test_determinism_small_run(small_cluster2_trace):
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, cluster_index=2,
                     multiplicity=2, max_dof=2500)
    tr2 = run_afem(cfg)
    assert _strip_seconds(trace_to_csv_text(small_cluster2_trace)) == \
        _strip_seconds(trace_to_csv_text(tr2))


def test_loop_solves_after_row_0_are_warm_started(solve_calls):
    tr = run_afem(AfemConfig(problem="lshape", degree=1, max_dof=1500))
    loop = solve_calls[-len(tr):]   # the lock's last solve is row 0's
    assert [n for n, _, _ in loop] == tr.n_dofs
    assert loop[0][2] is None
    sparse = [(n, start) for n, _, start in loop[1:] if n > 260]
    assert len(sparse) >= 3
    assert all(start is not None and start.shape == (n,) for n, start in sparse)


def _record_solves(monkeypatch):
    """(K, M, nev, keywords, values) of every solve_smallest call of the
    driver, and the pole of every shift-invert solve of eigsolve."""
    from afemeig import driver, eigsolve
    calls, poles = [], []
    real, shift_invert = driver.solve_smallest, eigsolve._shift_invert

    def spy(K, M, nev, **kw):
        vals, vecs = real(K, M, nev, **kw)
        calls.append((K, M, nev, kw, vals))
        return vals, vecs

    def spy_shift_invert(*args):
        poles.append(args[-1])
        return shift_invert(*args)

    monkeypatch.setattr(driver, "solve_smallest", spy)
    monkeypatch.setattr(eigsolve, "_shift_invert", spy_shift_invert)
    return calls, poles


def test_warm_pair_solves_shift_invert_below_the_pair_and_keep_both_members(monkeypatch):
    # square P2 cluster 2: the window J = {1, 2} is the 5 pi^2 pair.  The
    # driver's nev = k0 + n + 2 = 5 returns both members, at the pole 0 as at
    # the pole below J.  With nev = 4, the warm solve at the pole 0 returned
    # 2, 5, 8, 10 (x pi^2) at this run's 5,305-dof row, one BLAS thread.
    from afemeig import driver
    calls, poles = _record_solves(monkeypatch)
    run_afem(AfemConfig(problem="square", degree=2, cluster_index=2, multiplicity=2,
                        compute_gap=False, max_dof=6000))
    warm = [c for c in calls if c[3].get("start") is not None]
    assert [nev for _, _, nev, _, _ in calls] == [5] * len(calls)
    assert sum(K.shape[0] > 260 for K, *_ in warm) >= 8
    # each warm pole comes from the row before's values, and is certified:
    # one shift-invert solve each, none at sigma = 0
    for (*_, before), (_, _, _, kw, _) in zip(calls, calls[1:]):
        if kw.get("start") is not None:
            assert kw["pole"] == min(before[0] + driver._POLE_FRACTION * (before[1] - before[0]),
                                     (before[0] + before[-1]) / 2)
    big = [kw["pole"] for K, _, _, kw, _ in warm if K.shape[0] > 260]
    assert poles == big
    for K, M, nev, kw, vals in warm:
        if K.shape[0] <= 260:
            continue
        # the 5th value is either member of the discrete 10 pi^2 pair
        cold, _ = solve_smallest(K, M, nev + 1, tol=kw["tol"], seed=kw["seed"])
        assert np.array_equal(np.round(cold / math.pi ** 2), [2, 5, 5, 8, 10, 10])
        for got in (vals, solve_smallest(K, M, nev, **dict(kw, pole=0.0))[0]):
            np.testing.assert_allclose(got[:4], cold[:4], rtol=1e-9)
            assert np.min(np.abs(got[4] - cold[4:])) <= 1e-9 * cold[4]


@pytest.mark.parametrize("kw", [dict(first_n=3), dict(cluster_index=1)])
def test_windows_from_lambda_1_keep_the_pole_0(monkeypatch, kw):
    calls, poles = _record_solves(monkeypatch)
    run_afem(AfemConfig(problem="square", max_dof=2000, compute_gap=False, **kw))
    assert sum(c[3].get("start") is not None for c in calls) >= 3
    assert all(c[3].get("pole", 0.0) == 0.0 for c in calls)
    assert poles and set(poles) == {0.0}


def test_lshape_gap_column_is_reference_proxy():
    cfg = AfemConfig(problem="lshape", degree=1, cluster_index=1,
                     multiplicity=1, max_dof=1500)
    tr = run_afem(cfg)
    lam_err = tr.series("lambda_err_1")
    assert np.allclose(tr.series("gap2"), np.abs(lam_err), rtol=1e-12)


_SHORT = 1.2
# closed forms [lambda_11] and [lambda_21, lambda_12], where the detected
# clusters are lambda_11, lambda_21 and lambda_12, 19.5 % apart
_PAIRED_WRONG = _rectangle(_SHORT, exact_clusters=[
    ExactEigenspace(_rectangle_lambda(_SHORT, 1, 1), [_rectangle_mode(_SHORT, 1, 1)]),
    ExactEigenspace(_rectangle_lambda(_SHORT, 2, 1),
                    [_rectangle_mode(_SHORT, 2, 1), _rectangle_mode(_SHORT, 1, 2)])])


@pytest.mark.parametrize("entry, kw", [
    ("cluster", dict(problem="square", cluster_index=3)),   # 8 pi^2: past the closed forms
    ("first_n", dict(problem="square", first_n=4)),         # clusters 1-3, the third without one
    # the second closed form has 2 members, the second cluster 1: it used to
    # meet the cluster in a GapError
    ("first_n", dict(problem=_PAIRED_WRONG, first_n=2)),
])
def test_window_past_closed_forms_records_nan_gap(entry, kw):
    # the square has exact eigenspaces and reference values for clusters 1
    # and 2 only; a window that reaches cluster 3 used to crash with
    # "list index out of range" and now takes the reference-value proxy,
    # which is NaN where a reference is missing.  So is a window cluster
    # whose closed form has another number of members.  One warning says so.
    with pytest.warns(UserWarning, match="gap2 is NaN") as record:
        tr = run_afem(AfemConfig(max_dof=300, **kw))
    end = sum(tr.meta["cluster_sizes"])
    assert [str(w.message) for w in record] == [
        "gap2 is NaN: neither closed forms nor reference values cover every cluster "
        f"of the tracked window {list(range(end - tr.n_lambda, end))}"]
    assert record[0].filename == __file__     # the warning points at the caller
    assert tr.meta["mode"].startswith(entry.split("_")[0])
    assert len(tr) >= 2
    assert np.all(np.isnan(tr.series("gap2")))
    assert np.all(np.isfinite(tr.series("eta2")))


def test_window_with_closed_forms_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = run_afem(AfemConfig(problem="square", cluster_index=2, multiplicity=2,
                                 max_dof=300))
    assert np.all(np.isfinite(tr.series("gap2")))


def test_uniform_marking_marks_everything(monkeypatch):
    # refine gets every element id as one sorted array, which it takes as is
    seen = []
    real = afemeig.driver.refine

    def spy(mesh, marked, *args):
        seen.append((mesh.n_elements, marked))
        return real(mesh, marked, *args)

    monkeypatch.setattr(afemeig.driver, "refine", spy)
    cfg = AfemConfig(problem="square", degree=1, cluster_index=1,
                     multiplicity=1, max_dof=800, marking="uniform",
                     compute_gap=False)
    tr = run_afem(cfg)
    assert all(m == ne for m, ne in zip(tr.marked[:-1], tr.n_elements[:-1]))
    assert len(seen) == len(tr) - 1
    for n, marked in seen:
        assert isinstance(marked, np.ndarray)
        np.testing.assert_array_equal(marked, np.arange(n))


# -- source mode -------------------------------------------------------------


@pytest.mark.parametrize("marking", ["dorfler", "uniform"])
def test_zero_source_converges_immediately(marking):
    # a zero estimator stops the loop under either marking rule
    cfg = AfemConfig(problem="square", degree=1, max_dof=4000, marking=marking)
    tr = run_afem_source(cfg, [lambda p: np.zeros(p.shape[0])])
    assert len(tr) == 1
    assert tr.meta["status"] == "converged"
    assert tr.eta2 == [0.0]


def test_source_composite_contraction():
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, max_dof=6000)
    tr = run_afem_source(cfg, [sine_source], exact=[sine_solution])
    assert len(tr) >= 11
    comp = tr.series("gap2") + 1e-3 * tr.series("eta2")  # gap2 = energy error^2
    assert np.all(np.diff(comp) < 0)


def test_source_two_components():
    bump = lambda p: p[:, 0] * (1 - p[:, 0]) * p[:, 1] * (1 - p[:, 1])
    cfg = AfemConfig(problem="square", degree=1, max_dof=900)
    tr = run_afem_source(cfg, [sine_source, lambda p: 10 * bump(p)])
    assert tr.n_lambda == 0
    assert np.all(tr.series("eta2") > 0)


@pytest.mark.parametrize("kw", [
    # the oscillator's 2nd cluster locks on the third mesh it solves
    dict(cluster_index=2, multiplicity=2, max_dof=300),
    # cluster 3 lies past the (1, 2) clusters, so the loop's nev = 3 + 3 + 2
    # exceeds the lock's k - 1 + q + 2 = 7; the lock solves its own K and M
    # again, where row 0 used to assemble the lock's last mesh a second time
    dict(cluster_index=3, multiplicity=3, max_dof=400),
], ids=["cluster-2", "cluster-3"])
def test_each_step_assembles_what_its_solve_needs(monkeypatch, kw):
    from afemeig import driver
    log = []

    def spy(name, real):
        def logged(space, *args, **kwargs):
            log.append((name, space.n_free))
            return real(space, *args, **kwargs)
        return logged

    def solve(K, M, nev, **kwargs):
        log.append(("solve", K.shape[0]))
        return real_solve(K, M, nev, **kwargs)

    real_solve = driver.solve_smallest
    monkeypatch.setattr(driver, "assemble_stiffness", spy("K", driver.assemble_stiffness))
    monkeypatch.setattr(driver, "assemble_mass", spy("M", driver.assemble_mass))
    monkeypatch.setattr(driver, "solve_smallest", solve)
    tr = run_afem(AfemConfig(problem="oscillator", compute_gap=False, **kw))
    # one K and one M per solved mesh; the lock may solve a mesh more than once
    events = [e for i, e in enumerate(log) if i == 0 or e != log[i - 1]]
    meshes = [n for what, n in events if what == "solve"]
    assert events == [(what, n) for n in meshes for what in ("K", "M", "solve")]
    assert len(set(meshes)) == len(meshes)     # no mesh is assembled twice
    # row 0 reuses the lock's last solve; rows 1 and on solve their own mesh
    assert len(meshes) > len(tr) and meshes[-len(tr):] == tr.n_dofs

    log.clear()
    tr = run_afem_source(AfemConfig(problem="square", max_dof=300), [sine_source])
    assert log == [("K", n) for n in tr.n_dofs]


@pytest.mark.parametrize("sources, exact, message", [
    ([sine_source], [], "exact has 0 entries for 1 sources"),
    ([sine_source], [sine_solution, sine_solution], "exact has 2 entries for 1 sources"),
    ([], None, "need at least one source"),
], ids=["exact-empty", "exact-too-long", "no-sources"])
def test_source_count_mismatch_rejected_before_solving(monkeypatch, sources, exact, message):
    # exact=[] used to record gap2 = 0.0, a second exact entry to raise an
    # IndexError after the first solve, and no source numpy's "need at least
    # one array to concatenate"
    from afemeig import driver

    def no_assembly(*args):
        raise AssertionError("assembled before the check")

    monkeypatch.setattr(driver, "assemble_stiffness", no_assembly)
    with pytest.raises(ValueError, match=message):
        run_afem_source(AfemConfig(problem="square", max_dof=300), sources, exact=exact)


# -- one stop/status rule for every entry point -----------------------------


def _run_entry(entry, **kw):
    if entry == "source":
        return run_afem_source(AfemConfig(problem="square", **kw), [sine_source])
    return run_afem(AfemConfig(problem="square", first_n=3 if entry == "first_n" else 0,
                               compute_gap=False, **kw))


@pytest.mark.parametrize("entry", ["cluster", "first_n", "source"])
def test_status_max_iterations(entry):
    tr = _run_entry(entry, max_iterations=0, max_dof=10 ** 6)
    assert (len(tr), tr.marked, tr.meta["status"]) == (1, [0], "max_iterations")
    tr = _run_entry(entry, max_iterations=2, max_dof=10 ** 6)
    assert (len(tr), tr.meta["status"]) == (3, "max_iterations")
    assert tr.marked[0] > 0 and tr.marked[-1] == 0


@pytest.mark.parametrize("entry", ["cluster", "first_n", "source"])
def test_status_max_dof(entry):
    tr = _run_entry(entry, max_dof=120)
    assert tr.meta["status"] == "max_dof"
    assert tr.n_dofs[-1] >= 120 > max(tr.n_dofs[:-1])
    assert tr.marked[-1] == 0


# -- summed gap over first-N clusters ---------------------------------------


def test_first_n_summed_gap_rate():
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, first_n=3,
                     max_dof=15000, compute_gap=True)
    tr = run_afem(cfg)
    assert tr.meta["cluster_sizes"] == [1, 2]
    slope = fit_slope(tr, "gap2", "n_dofs", window=6)
    assert slope == pytest.approx(-1.0, abs=0.15)
    assert tr.meta["lambda_refs"] == [2 * math.pi ** 2, 5 * math.pi ** 2,
                                      5 * math.pi ** 2]


# -- CLI ----------------------------------------------------------------------


def test_cli_run_end_to_end(tmp_path):
    from afemeig.cli import main
    trace = tmp_path / "t.csv"
    plot = tmp_path / "p.svg"
    meshdir = tmp_path / "meshes"
    rc = main(["run", "--problem", "square", "--degree", "1", "--theta", "0.5",
               "--cluster", "1", "--multiplicity", "1", "--max-dof", "1000",
               "--trace", str(trace), "--plot", str(plot),
               "--mesh-out", str(meshdir)])
    assert rc == 0
    assert trace.exists() and plot.exists()
    assert (meshdir / "mesh_final.json").exists()
    assert (meshdir / "mesh_final.vtk").exists()
    tr = read_trace(trace)
    assert tr.n_dofs[-1] >= 1000


def test_cli_cluster_abort_exit_code(capsys):
    from afemeig.cli import main
    rc = main(["run", "--problem", "square", "--cluster", "2",
               "--multiplicity", "3", "--max-dof", "1500", "--no-gap"])
    assert rc == 2
    assert "cluster identity" in capsys.readouterr().err


def test_cli_bad_problem_exit_code(capsys):
    from afemeig.cli import main
    rc = main(["run", "--problem", "bogus"])
    assert rc == 1


def test_cli_bad_config_exits_before_solving(capsys, solve_calls):
    from afemeig.cli import main
    assert main(["run", "--problem", "square", "--b", "0"]) == 1
    assert "bisections must be >= 1" in capsys.readouterr().err
    assert solve_calls == []


def test_large_imported_mesh_is_not_pre_refined_past_max_dof(tmp_path):
    # a 32 x 32 grid of the unit square: 2,048 elements and 31^2 = 961 free P1
    # dofs, already above max_dof, so row 0 is solved on the mesh as read
    import json
    m = 32
    vertices = [[i / m, j / m] for j in range(m + 1) for i in range(m + 1)]
    elements = []
    for j in range(m):
        for i in range(m):
            v = j * (m + 1) + i
            elements += [[v, v + 1, v + m + 2], [v, v + m + 2, v + m + 1]]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"mesh": {"vertices": vertices, "elements": elements}}))
    tr = run_afem(AfemConfig(problem=f"file:{path}", max_dof=500, compute_gap=False))
    assert tr.n_elements == [2048]
    assert tr.n_dofs == [961]
    assert tr.meta["status"] == "max_dof"


def test_spec_reference_values_feed_the_gap_proxy(tmp_path):
    import json
    spec = {"name": "box", "mesh": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                    "elements": [[0, 1, 2], [0, 2, 3]]},
            "reference_values": [[1, 2 * math.pi ** 2, "separation of variables"]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    tr = run_afem(AfemConfig(problem=f"file:{path}", max_dof=300))
    assert tr.meta["lambda_refs"] == [2 * math.pi ** 2]
    assert np.array_equal(tr.series("gap2"), np.abs(tr.series("lambda_err_1")))


@pytest.mark.parametrize("refs, message", [
    ([[1]], "expected [cluster position"),
    ([[1, "abc", "x"]], "expected [cluster position"),
    ([["1", 19.74, "x"]], "expected [cluster position"),
    ([[0, 19.7, "x"]], "expected [cluster position"),
    ([[True, 19.7, "x"]], "expected [cluster position"),
    ([[1.0, 19.7, "x"]], "expected [cluster position"),
    ([[1, -19.7, "x"]], "expected [cluster position"),
    ([[1, float("nan"), "x"]], "expected [cluster position"),
    ([[1, 19.7, 3]], "expected [cluster position"),
    ([[1, 19.7, "x"], [1, 49.3, "y"]], "cluster position 1 is listed twice"),
    ({"1": 19.7}, "expected a list"),
], ids=["short", "value-string", "position-string", "position-0", "position-bool",
        "position-float", "value-negative", "value-nan", "provenance-number",
        "position-twice", "not-a-list"])
def test_cli_bad_reference_values_exit_before_solving(tmp_path, capsys, solve_calls,
                                                      refs, message):
    # [[1]] used to fail after the lock's solves, [[1, "abc", "x"]] mid-run, and
    # a string or zero position was silently ignored (gap2 NaN)
    import json
    from afemeig.cli import main
    spec = {"mesh": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                     "elements": [[0, 1, 2], [0, 2, 3]]},
            "reference_values": refs}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--problem", f"file:{path}", "--max-dof", "300"]) == 1
    err = capsys.readouterr().err
    assert "reference_values" in err and message in err
    assert solve_calls == []
