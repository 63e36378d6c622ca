"""Acceptance experiments at desk scale.

Each criterion prints one [PASS]/[FAIL] line (run with -s to see them) and
asserts at its stated tolerance.  The heavy adaptive runs are shared through
module-scoped fixtures; run this module alone via

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from afemeig import (AfemConfig, assemble_mass, assemble_stiffness, build_space,
                     dorfler_mark, eigen_indicators, run_afem_source, solve_smallest,
                     square_laplace)
from afemeig.cases import CASES, run_case, slope_checks, window
from afemeig.driver import trace_to_csv_text
from afemeig.eigsolve import EigenCluster, m_orthonormalize
from afemeig.gap import _GapWorkspace
from afemeig.mesh import refine, uniform_refine

from conftest import lshape_mesh, square_mesh
from oracles import (brute_force_distance, refined_set, reverse_distance_bound,
                     shape_regularity, validate_mesh)

LAM2 = 5 * math.pi ** 2


def _criterion(number, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs


def _timed(name):
    t0 = time.perf_counter()
    tr = run_case(CASES[name])
    return tr, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_p1():
    return _timed("square-p1")


@pytest.fixture(scope="module")
def run_p1_repeat():
    return run_case(CASES["square-p1"])


@pytest.fixture(scope="module")
def run_p2():
    return _timed("square-p2")


@pytest.fixture(scope="module")
def run_lshape():
    t0 = time.perf_counter()
    adaptive = run_case(CASES["lshape-p1-adaptive"])
    uniform = run_case(CASES["lshape-p1-uniform"])
    return adaptive, uniform, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_oscillator():
    return run_case(CASES["oscillator-first3"])


# ---------------------------------------------------------------------------
# criteria 1-7: convergence experiments


def test_criterion_1_p1_eigenvalue_rate(run_p1):
    tr, elapsed = run_p1
    rel_errors = [(lam - LAM2) / LAM2 for lam in tr.lambdas[-1]]
    positive = all((np.array([r for r in row]) > LAM2).all() for row in tr.lambdas)
    in_window = all(LAM2 < lam < LAM2 + 0.05 for lam in tr.lambdas[-1])
    case = CASES["square-p1"]
    checks = slope_checks(case, tr)
    (s1, ok1), (s2, ok2) = checks["lambda_err_1"], checks["lambda_err_2"]
    ok = positive and in_window and ok1 and ok2 and elapsed < 60.0
    _criterion(1, "square P1 cluster-2 eigenvalue error slope "
                  + window(case, "lambda_err_1"),
               ok, f"slopes {s1:+.3f}/{s2:+.3f}, rel err {rel_errors[0]:.2e}, "
                   f"{elapsed:.0f}s")


def test_criterion_2_p2_eigenvalue_rate(run_p2):
    tr, elapsed = run_p2
    case = CASES["square-p2"]
    checks = slope_checks(case, tr)
    (s1, ok1), (s2, ok2) = checks["lambda_err_1"], checks["lambda_err_2"]
    positive = all(all(v > LAM2 for v in row) for row in tr.lambdas)
    ok = positive and ok1 and ok2 and elapsed < 120.0
    _criterion(2, "square P2 cluster-2 eigenvalue error slope "
                  + window(case, "lambda_err_1"),
               ok, f"slopes {s1:+.3f}/{s2:+.3f}, {elapsed:.0f}s")


def test_criterion_3_estimator_rates(run_p1, run_p2):
    p1, p2 = CASES["square-p1"], CASES["square-p2"]
    s_p1, ok_p1 = slope_checks(p1, run_p1[0])["eta"]
    s_p2, ok_p2 = slope_checks(p2, run_p2[0])["eta"]
    _criterion(3, f"estimator slopes {window(p1, 'eta')} (P1) and "
                  f"{window(p2, 'eta')} (P2)",
               ok_p1 and ok_p2, f"P1 {s_p1:+.3f}, P2 {s_p2:+.3f}")


def test_criterion_4_gap_rate_and_reliability(run_p1):
    tr, _ = run_p1
    case = CASES["square-p1"]
    s, ok_slope = slope_checks(case, tr)["gap2"]
    ratio = tr.series("eta2")[3:] / tr.series("gap2")[3:]
    spread = ratio.max() / ratio.min()
    # efficiency variant: the oscillation-free part obeys the same bound
    eff = (tr.series("eta2") - tr.series("osc2"))[3:] / tr.series("gap2")[3:]
    eff_spread = eff.max() / eff.min()
    ok = ok_slope and spread < 50.0 and eff_spread < 50.0
    _criterion(4, f"gap^2 slope {window(case, 'gap2')} and eta^2/gap^2 spread < 50",
               ok, f"slope {s:+.3f}, spread {spread:.2f}/{eff_spread:.2f}")


def test_criterion_5_lshape_adaptive_vs_uniform(run_lshape):
    adaptive, uniform, elapsed = run_lshape
    ad, un = CASES["lshape-p1-adaptive"], CASES["lshape-p1-uniform"]
    s_ad, ok_ad = slope_checks(ad, adaptive)["lambda_err_1"]
    s_un, ok_un = slope_checks(un, uniform)["lambda_err_1"]
    ok = ok_ad and ok_un and elapsed < 120.0
    _criterion(5, f"L-shape adaptive {window(ad, 'lambda_err_1')} vs uniform "
                  f"{window(un, 'lambda_err_1')}",
               ok, f"adaptive {s_ad:+.3f}, uniform {s_un:+.3f}, {elapsed:.0f}s")


def test_criterion_6_oscillator_first_three(run_oscillator):
    tr = run_oscillator
    final = tr.lambdas[-1]
    errors = (final[0] - 1.0, final[1] - 2.0, final[2] - 2.0)
    above = all(r[0] > 1.0 and r[1] > 2.0 and r[2] > 2.0 for r in tr.lambdas)
    sizes_ok = tr.meta["cluster_sizes"] == [1, 2]
    ok = (above and sizes_ok and tr.n_dofs[-1] >= 50_000
          and max(errors) < 5e-3)
    _criterion(6, "oscillator first-3: values from above, errors < 5e-3, "
                  "cluster sizes (1,2)",
               ok, f"errors {errors[0]:.1e}/{errors[1]:.1e}/{errors[2]:.1e}")


def test_criterion_7_contraction_surrogate(run_p1):
    tr, _ = run_p1
    comp = tr.series("gap2") + 1e-3 * tr.series("eta2")
    decreasing = bool(np.all(np.diff(comp[2:]) < 0))
    _criterion(7, "composite gap^2 + 1e-3 eta^2 strictly decreases after it 2",
               decreasing, f"{len(comp) - 2} steps checked")


# ---------------------------------------------------------------------------
# criterion 8: marking property suite


def test_criterion_8_marking_properties():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        eta = rng.exponential(size=n) * float(rng.choice([1e-5, 1.0, 1e3]))
        theta = float(rng.uniform(0.05, 0.95))
        res = dorfler_mark(eta, theta)
        total = math.fsum(eta)
        marked_sum = math.fsum(eta[i] for i in res.marked)
        ok &= marked_sum >= theta * total * (1 - 1e-12)
        if len(res.marked) > 1:
            smallest = min(res.marked, key=lambda i: (eta[i], -i))
            rest = marked_sum - eta[smallest]
            ok &= rest < theta * total * (1 + 1e-12)
        ok &= set(dorfler_mark(eta, theta * 0.4).marked.tolist()) <= set(res.marked.tolist())
        perm = rng.permutation(n)
        res_p = dorfler_mark(eta[perm], theta)
        ok &= sorted(eta[list(res.marked)]) == pytest.approx(
            sorted(eta[perm[list(res_p.marked)]]))
        if not ok:
            break
    _criterion(8, "Dörfler property / minimality / monotonicity / permutation "
                  "invariance over 1000 trials", bool(ok))


# ---------------------------------------------------------------------------
# criterion 9: mesh property fuzz


def test_criterion_9_mesh_fuzz():
    mesh = lshape_mesh(1)
    level3_gamma = max(shape_regularity(uniform_refine(lshape_mesh(), k))
                       for k in range(4))
    n0 = mesh.n_elements
    rng = np.random.default_rng(909)
    total_marked = 0
    ok = True
    ratios = []
    for _ in range(20):
        k = max(1, mesh.n_elements // 6)
        marked = set(rng.choice(mesh.n_elements, size=k, replace=False).tolist())
        res = refine(mesh, marked)
        try:
            validate_mesh(res.mesh)
        except Exception:
            ok = False
            break
        ok &= marked <= refined_set(res)
        ok &= refined_set(res) <= set(range(mesh.n_elements))
        mesh = res.mesh
        total_marked += len(marked)
        ratios.append((mesh.n_elements - n0) / total_marked)
        ok &= shape_regularity(mesh) <= level3_gamma + 1e-12
    ok = bool(ok and max(ratios) < 6.0 and max(ratios[10:]) <= 1.5 * max(ratios[:10]))
    _criterion(9, "conformity, marked subset of refined, stable refinement "
                  "complexity, bounded shape regularity",
               ok, f"complexity ratio max {max(ratios):.2f}")


# ---------------------------------------------------------------------------
# criterion 10: estimator equivalence under basis recombination


def test_criterion_10_estimator_equivalence():
    prob = square_laplace()
    space = build_space(square_mesh(6), 1)
    co = prob.coefficients
    K = assemble_stiffness(space, co)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 4)
    V = np.column_stack([space.expand(vecs[:, 1]), space.expand(vecs[:, 2])])
    cluster = EigenCluster(vals[1:3], V)
    base = eigen_indicators(space, co, cluster)
    theta = 0.5
    marked = sorted(dorfler_mark(base, theta).marked)
    mask = base.eta2 > 1e-12 * base.eta2.mean()
    rng = np.random.default_rng(1010)
    q = 2
    ok = True
    worst = (1.0, 1.0)
    for _ in range(20):
        th = rng.uniform(0, 2 * math.pi)
        flip = rng.choice([1.0, -1.0])
        Q = np.array([[math.cos(th), -math.sin(th) * flip],
                      [math.sin(th), math.cos(th) * flip]])
        other = eigen_indicators(space, co, EigenCluster(cluster.values, cluster.vectors @ Q))
        ratio = other.eta2[mask] / base.eta2[mask]
        worst = (min(worst[0], ratio.min()), max(worst[1], ratio.max()))
        ok &= 1.0 / (q + 0.1) <= ratio.min() and ratio.max() <= q + 0.1
        frac = other.eta2[marked].sum() / other.total_eta2
        ok &= frac >= 0.99 * theta / q ** 2
    _criterion(10, "cluster-indicator recombination factor within [1/2.1, 2.1] "
                   "and Dörfler-set transfer at 0.99 theta / q^2",
               bool(ok), f"ratio range [{worst[0]:.3f}, {worst[1]:.3f}]")


# ---------------------------------------------------------------------------
# criterion 11: gap oracle


def test_criterion_11_gap_oracle():
    prob = square_laplace()
    space = build_space(square_mesh(9), 1)
    co = prob.coefficients
    K = assemble_stiffness(space, co)
    M = assemble_mass(space)
    vals, vecs = solve_smallest(K, M, 3)
    exact = prob.exact_clusters[1]
    rng = np.random.default_rng(1111)
    ok = True
    worst = 0.0
    for trial in range(10):
        W = vecs[:, 1:3] + 0.05 * rng.standard_normal(vecs[:, 1:3].shape)
        W = m_orthonormalize(W, M)
        V = np.column_stack([space.expand(W[:, 0]), space.expand(W[:, 1])])
        cl = EigenCluster(vals[1:3], V)
        ws = _GapWorkspace([exact], [cl], space, co)
        d = ws.distances[0][0]
        bf = brute_force_distance(exact, cl, space, co, 100_000, seed=trial)
        rel = abs(bf - d) / d
        worst = max(worst, rel)
        ok &= rel <= 1e-3
        rev = ws.distances[0][1]
        ok &= rev <= reverse_distance_bound(d) + 1e-8
    _criterion(11, "directed distance vs 1e5-sample oracle within 1e-3; "
                   "reverse-distance bound holds",
               bool(ok), f"worst rel dev {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 12: source-problem path


def test_criterion_12_source_problem():
    case = CASES["square-source-p1"]
    slope, ok_slope = slope_checks(case, run_case(case))["gap"]
    tr0 = run_afem_source(AfemConfig(**case.config), [lambda p: np.zeros(p.shape[0])])
    ok = ok_slope and len(tr0) == 1 and tr0.meta["status"] == "converged"
    _criterion(12, f"manufactured source converges at slope {window(case, 'gap')}; "
                   "zero source exits converged immediately",
               ok, f"slope {slope:+.3f}")


# ---------------------------------------------------------------------------
# criterion 13: determinism


def test_criterion_13_determinism(run_p1, run_p1_repeat):
    # wall-clock seconds cannot repeat; every algorithmic column must be
    # bit-identical between two full runs of the criterion-1 configuration
    def strip_seconds(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.strip().splitlines())

    a = strip_seconds(trace_to_csv_text(run_p1[0]))
    b = strip_seconds(trace_to_csv_text(run_p1_repeat))
    _criterion(13, "criterion-1 rerun is bit-identical (all columns except "
                   "wall-time seconds)", a == b)
