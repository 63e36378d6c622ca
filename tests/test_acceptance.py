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
                     dorfler_mark, eigen_indicators, run_afem, run_afem_first_n,
                     run_afem_source, solve_smallest, square_laplace)
from afemeig.driver import fit_slope, trace_to_csv_text
from afemeig.eigsolve import EigenCluster, m_orthonormalize
from afemeig.gap import _GapWorkspace
from afemeig.mesh import refine, uniform_refine

from conftest import lshape_mesh, sine_solution, sine_source, square_mesh
from oracles import brute_force_distance, refined_set, reverse_distance_bound, validate_mesh

LAM2 = 5 * math.pi ** 2


def _criterion(number, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs


def _cfg_square(degree, gap):
    return AfemConfig(problem="square", degree=degree, theta=0.5,
                      cluster_index=2, multiplicity=2, max_dof=50_000,
                      compute_gap=gap)


@pytest.fixture(scope="module")
def run_p1():
    t0 = time.perf_counter()
    tr = run_afem(_cfg_square(1, gap=True))
    return tr, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_p1_repeat():
    tr = run_afem(_cfg_square(1, gap=True))
    return tr


@pytest.fixture(scope="module")
def run_p2():
    t0 = time.perf_counter()
    tr = run_afem(_cfg_square(2, gap=False))
    return tr, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_lshape():
    t0 = time.perf_counter()
    kw = dict(problem="lshape", degree=1, theta=0.5, cluster_index=1,
              multiplicity=1, max_dof=40_000)
    adaptive = run_afem(AfemConfig(**kw))
    uniform = run_afem(AfemConfig(marking="uniform", compute_gap=False, **kw))
    return adaptive, uniform, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run_oscillator():
    cfg = AfemConfig(problem="oscillator", degree=1, theta=0.5, first_n=3,
                     max_dof=50_000, compute_gap=False)
    return run_afem_first_n(cfg)


# ---------------------------------------------------------------------------
# criteria 1-7: convergence experiments


def test_criterion_1_p1_eigenvalue_rate(run_p1):
    tr, elapsed = run_p1
    rel_errors = [(lam - LAM2) / LAM2 for lam in tr.lambdas[-1]]
    positive = all((np.array([r for r in row]) > LAM2).all() for row in tr.lambdas)
    in_window = all(LAM2 < lam < LAM2 + 0.05 for lam in tr.lambdas[-1])
    s1 = fit_slope(tr, "lambda_err_1", "n_dofs", window=6)
    s2 = fit_slope(tr, "lambda_err_2", "n_dofs", window=6)
    ok = (positive and in_window and abs(s1 + 1.0) <= 0.15
          and abs(s2 + 1.0) <= 0.15 and elapsed < 60.0)
    _criterion(1, "square P1 cluster-2 eigenvalue error slope -1 +/- 0.15",
               ok, f"slopes {s1:+.3f}/{s2:+.3f}, rel err {rel_errors[0]:.2e}, "
                   f"{elapsed:.0f}s")


def test_criterion_2_p2_eigenvalue_rate(run_p2):
    tr, elapsed = run_p2
    s1 = fit_slope(tr, "lambda_err_1", "n_dofs", window=6)
    s2 = fit_slope(tr, "lambda_err_2", "n_dofs", window=6)
    positive = all(all(v > LAM2 for v in row) for row in tr.lambdas)
    ok = (positive and abs(s1 + 2.0) <= 0.25 and abs(s2 + 2.0) <= 0.25
          and elapsed < 120.0)
    _criterion(2, "square P2 cluster-2 eigenvalue error slope -2 +/- 0.25",
               ok, f"slopes {s1:+.3f}/{s2:+.3f}, {elapsed:.0f}s")


def test_criterion_3_estimator_rates(run_p1, run_p2):
    s_p1 = fit_slope(run_p1[0], "eta", "n_dofs", window=6)
    s_p2 = fit_slope(run_p2[0], "eta", "n_dofs", window=6)
    ok = abs(s_p1 + 0.5) <= 0.1 and abs(s_p2 + 1.0) <= 0.15
    _criterion(3, "estimator slopes -1/2 (P1) and -1 (P2)",
               ok, f"P1 {s_p1:+.3f}, P2 {s_p2:+.3f}")


def test_criterion_4_gap_rate_and_reliability(run_p1):
    tr, _ = run_p1
    s = fit_slope(tr, "gap2", "n_dofs", window=6)
    ratio = tr.series("eta2")[3:] / tr.series("gap2")[3:]
    spread = ratio.max() / ratio.min()
    # efficiency variant: the oscillation-free part obeys the same bound
    eff = (tr.series("eta2") - tr.series("osc2"))[3:] / tr.series("gap2")[3:]
    eff_spread = eff.max() / eff.min()
    ok = abs(s + 1.0) <= 0.15 and spread < 50.0 and eff_spread < 50.0
    _criterion(4, "gap^2 slope -1 +/- 0.15 and eta^2/gap^2 spread < 50",
               ok, f"slope {s:+.3f}, spread {spread:.2f}/{eff_spread:.2f}")


def test_criterion_5_lshape_adaptive_vs_uniform(run_lshape):
    adaptive, uniform, elapsed = run_lshape
    s_ad = fit_slope(adaptive, "lambda_err_1", "n_dofs", window=6)
    s_un = fit_slope(uniform, "lambda_err_1", "n_dofs", window=6)
    ok = (abs(s_ad + 1.0) <= 0.15 and abs(s_un + 2.0 / 3.0) <= 0.1
          and elapsed < 120.0)
    _criterion(5, "L-shape adaptive -1 +/- 0.15 vs uniform -2/3 +/- 0.1",
               ok, f"adaptive {s_ad:+.3f}, uniform {s_un:+.3f}, {elapsed:.0f}s")


def test_criterion_6_oscillator_first_three(run_oscillator):
    tr = run_oscillator
    final = tr.lambdas[-1]
    errors = (final[0] - 1.0, final[1] - 2.0, final[2] - 2.0)
    above = all(r[0] > 1.0 and r[1] > 2.0 and r[2] > 2.0 for r in tr.lambdas)
    sizes_ok = all(tuple(s) == (1, 2) for s in tr.cluster_sizes[1:])
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
        ok &= dorfler_mark(eta, theta * 0.4).marked <= res.marked
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
    level3_gamma = max(uniform_refine(lshape_mesh(), k).shape_regularity()
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
        ok &= mesh.shape_regularity() <= level3_gamma + 1e-12
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
    cfg = AfemConfig(problem="square", degree=1, theta=0.5, max_dof=40_000)
    tr = run_afem_source(cfg, [sine_source], exact=[sine_solution])
    err = np.sqrt(tr.series("gap2"))
    slope = fit_slope(tr.series("n_dofs"), err, window=6)
    tr0 = run_afem_source(cfg, [lambda p: np.zeros(p.shape[0])])
    ok = (abs(slope + 0.5) <= 0.1 and len(tr0) == 1
          and tr0.meta["status"] == "converged")
    _criterion(12, "manufactured source converges at slope -1/2; zero source "
                   "exits converged immediately",
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
