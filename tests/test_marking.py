import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from afemeig import dorfler_mark
from afemeig.marking import TIE_REL_TOL

finite_eta = st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                      min_size=1, max_size=60)
thetas = st.floats(min_value=1e-3, max_value=0.999)


def _check_dorfler(eta2, theta, result):
    total = math.fsum(eta2)
    if total == 0:
        assert result.converged and result.marked.size == 0
        return
    marked_sum = math.fsum(eta2[i] for i in result.marked)
    # theta * total in exact arithmetic: in floats it underflows to 0 for a
    # subnormal total, such as eta2 = [5e-324]
    bound = Fraction(theta) * Fraction(total)
    assert marked_sum >= bound * (1 - Fraction(1, 10 ** 12))
    # minimality up to ties: dropping the smallest marked class, the marked
    # indicators within the tie tolerance of the smallest one, breaks the
    # property, and nothing unmarked ties with the marked ones
    smallest = min(eta2[i] for i in result.marked)
    tie = smallest * (1 + 2 * TIE_REL_TOL)
    rest = math.fsum(eta2[i] for i in result.marked if eta2[i] > tie)
    assert rest < bound * (1 + Fraction(1, 10 ** 12))
    assert all(eta2[i] < smallest for i in range(len(eta2)) if i not in result.marked)
    assert result.achieved_fraction == pytest.approx(marked_sum / total, rel=1e-12)


def test_worked_examples():
    eta = np.array([4.0, 3.0, 2.0, 1.0])
    res = dorfler_mark(eta, 0.5)
    assert res.marked.tolist() == [0, 1]          # 4 alone < 5, 4+3 = 7 >= 5
    assert res.achieved_fraction == pytest.approx(0.7)
    assert dorfler_mark(eta, 0.25).marked.tolist() == [0]
    # theta just below 1 takes everything
    assert dorfler_mark(eta, 1 - 1e-12).marked.tolist() == [0, 1, 2, 3]


def test_a_tie_class_is_marked_whole():
    # the minimal prefix {0, 1} ends inside the class {1, 2, 3}, whose members
    # agree to round-off; the whole class is marked, and the reported fraction
    # is the marked one
    eta = np.array([4.0, 2.0, 2.0 * (1 - 1e-14), 2.0 * (1 + 1e-14), 1.0])
    res = dorfler_mark(eta, 0.5)
    assert res.marked.tolist() == [0, 1, 2, 3]
    assert res.achieved_fraction == pytest.approx(10.0 / 11.0)
    # a relative difference above the tolerance is not a tie
    eta[2] = 2.0 * (1 - 10 * TIE_REL_TOL)
    assert dorfler_mark(eta, 0.5).marked.tolist() == [0, 1, 3]


def test_zero_total_converged():
    res = dorfler_mark(np.zeros(5), 0.5)
    assert res.converged and res.marked.size == 0
    assert res.marked.dtype == np.int64


def test_input_validation():
    with pytest.raises(ValueError):
        dorfler_mark(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        dorfler_mark(np.ones(3), 1.0)
    with pytest.raises(ValueError):
        dorfler_mark(np.array([-1.0, 2.0]), 0.5)


@given(finite_eta, thetas)
@example([5e-324], 0.5)
def test_dorfler_property_and_minimality(eta2, theta):
    res = dorfler_mark(np.array(eta2), theta)
    _check_dorfler(eta2, theta, res)


@given(finite_eta, thetas, thetas)
def test_theta_monotonicity(eta2, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    a = dorfler_mark(np.array(eta2), lo)
    b = dorfler_mark(np.array(eta2), hi)
    assert set(a.marked.tolist()) <= set(b.marked.tolist())


@given(finite_eta, thetas, st.randoms(use_true_random=False))
def test_permutation_invariance_of_marked_values(eta2, theta, rnd):
    base = dorfler_mark(np.array(eta2), theta)
    perm = list(range(len(eta2)))
    rnd.shuffle(perm)
    shuffled = dorfler_mark(np.array([eta2[p] for p in perm]), theta)
    assert sorted(eta2[i] for i in base.marked) == \
        sorted(eta2[perm[i]] for i in shuffled.marked)


def test_determinism_for_fixed_input():
    rng = np.random.default_rng(11)
    eta = rng.exponential(size=500)
    a = dorfler_mark(eta, 0.37)
    b = dorfler_mark(eta.copy(), 0.37)
    np.testing.assert_array_equal(a.marked, b.marked)
    assert (a.achieved_fraction, a.converged) == (b.achieved_fraction, b.converged)
    # the ids come sorted, as refine takes them without a sort of its own
    assert a.marked.dtype == np.int64 and np.all(np.diff(a.marked) > 0)


def test_thousand_trial_suite():
    # seeded bulk suite: property, minimality, monotonicity, permutation
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(1, 80))
        eta = rng.exponential(size=n) * rng.choice([1e-6, 1.0, 1e4])
        theta = float(rng.uniform(0.05, 0.95))
        res = dorfler_mark(eta, theta)
        _check_dorfler(eta.tolist(), theta, res)
        res_lo = dorfler_mark(eta, theta * 0.5)
        assert set(res_lo.marked.tolist()) <= set(res.marked.tolist())
        perm = rng.permutation(n)
        res_p = dorfler_mark(eta[perm], theta)
        assert sorted(eta[list(res.marked)]) == pytest.approx(
            sorted(eta[perm[list(res_p.marked)]]))
