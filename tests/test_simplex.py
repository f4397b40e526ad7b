from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochbellman import simplex
from stochbellman.errors import IterationLimit
from stochbellman.simplex import solve_lp

from helpers import exact_epigraph_min, ref_solve_lp, same_bits


def test_lower_bound_constraint():
    res = solve_lp([1.0], [[-1.0]], [-2.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)


def test_unbounded_detected():
    res = solve_lp([-1.0], [[-1.0]], [0.0])
    assert res.status == "unbounded"


def test_infeasible_detected():
    res = solve_lp([1.0], [[1.0], [-1.0]], [0.0, -1.0])
    assert res.status == "infeasible"


def test_equality_rows():
    # min x + y s.t. x + y = 2, x >= 0, y >= 0
    res = solve_lp([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0],
                   A_eq=[[1.0, 1.0]], b_eq=[2.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_dual_bound_hand_check():
    # min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x, y >= 0
    # dual multipliers y = (1, 0, 1, 0, 0) satisfy A^T y = -c, giving the
    # bound -b.y = -(4 + 2) = -6, attained at the vertex (2, 2)
    res = solve_lp([-1.0, -2.0],
                   [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
                   [4.0, 3.0, 2.0, 0.0, 0.0])
    assert res.status == "optimal"
    dual_value = -(4.0 * 1.0 + 2.0 * 1.0)
    assert res.value == pytest.approx(dual_value, abs=1e-9)
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)
    assert res.x[1] == pytest.approx(2.0, abs=1e-9)


def test_vertex_optimality(rng):
    # optimal points of a bounded LP in 2-D land on polygon vertices
    for _ in range(10):
        c = rng.standard_normal(2)
        A = np.vstack([np.eye(2), -np.eye(2)])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        res = solve_lp(c, A, b)
        assert res.status == "optimal"
        at_bound = np.abs(np.abs(res.x) - 1.0) < 1e-9
        flat = np.abs(c) < 1e-12
        assert np.all(at_bound | flat)


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    A = np.vstack([A, -np.eye(4)])
    b = np.concatenate([b, np.zeros(4)])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.value == pytest.approx(-0.05, abs=1e-9)


@pytest.mark.parametrize("slope", [1e-8, 5e-9])
def test_tiny_slope_epigraph_is_feasible(slope):
    # min tau s.t. slope*x <= tau, 1 - 2.5x <= tau, -2 <= x <= -1: optimum
    # 3.5 at x = -1; a pivot on the tiny entry read this LP as infeasible
    res = solve_lp([0.0, 1.0], [[slope, -1.0], [-2.5, -1.0], [1.0, 0.0], [-1.0, 0.0]],
                   [0.0, -1.0, -1.0, 2.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.5, abs=1e-9)


def test_phase_one_noise_column_is_not_unbounded():
    # min max(0, 1.19e-7 x, 1 - 4.5x) on [0, 1]: phase 1 met a reduced cost
    # of -3e-9 in a column with no pivot row and called the LP infeasible
    res = solve_lp([0.0, 1.0],
                   [[0.0, -1.0], [1.192092896e-07, -1.0], [-4.5, -1.0], [1.0, 0.0], [-1.0, 0.0]],
                   [0.0, 0.0, -1.0, 1.0, 0.0])
    assert res.status == "optimal"
    # the 1.19e-7 x and 1 - 4.5x pieces cross at the minimum
    assert res.value == pytest.approx(1.192092896e-07 / (4.5 + 1.192092896e-07), abs=1e-12)


def test_tiny_pivot_row_is_not_passed_over():
    # min -x s.t. 5e-8 x <= 0 (and x <= 1e6): optimum 0 at x = 0; the row
    # with the tiny entry limits x and must take the pivot
    res = solve_lp([-1.0], [[5e-8]], [0.0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)
    res = solve_lp([-1.0], [[5e-8], [1.0]], [0.0, 1e6])
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)
    res = solve_lp([0.0], A_eq=[[5e-8]], b_eq=[1.0])
    assert res.status == "optimal"
    assert res.x[0] * 5e-8 == pytest.approx(1.0, abs=1e-9)


def test_small_infeasibility_with_large_rhs():
    # x <= 1e6 and x >= 1e6 + 1e-3 cannot both hold
    res = solve_lp([0.0], [[1.0], [-1.0]], [1e6, -1e6 - 1e-3])
    assert res.status == "infeasible"


def _random_lp(rng, kind):
    """(c, A_ub, b_ub, A_eq, b_eq) of a small LP of the given kind."""
    n = int(rng.integers(1, 5))
    m_ub, m_eq = int(rng.integers(0, 10)), int(rng.choice([0, 0, 1, 2]))
    if kind == "epigraph":
        # min max_i (a_i x + b_i) on an interval, with slopes near 1e-8:
        # phase 1 meets reduced costs of rounding size here
        k = int(rng.integers(2, 6))
        a = rng.choice([-4.5, -1.0, 0.0, 1.0, 2.5], k) + rng.choice([0.0, 1e-9, 1.2e-7, -5e-8], k)
        b = rng.integers(-2, 3, k).astype(float)
        lo, hi = sorted(rng.integers(-2, 3, 2).astype(float))
        A = np.vstack([np.column_stack([a, -np.ones(k)]), [[1.0, 0.0], [-1.0, 0.0]]])
        return np.array([0.0, 1.0]), A, np.concatenate([-b, [hi, -lo]]), None, None

    def mat(r, k):
        if kind == "float":
            return rng.standard_normal((r, k))
        M = rng.integers(-2, 3, (r, k)).astype(float)
        if kind == "tiny":  # entries near the pivot tolerances, and -0.0
            M[rng.random((r, k)) < 0.2] = -0.0
            M += (rng.random((r, k)) < 0.15) * rng.choice([1e-8, -3e-9, 5e-8, 1.19e-7], (r, k))
        if kind == "near":  # ratios that tie to within 1e-12
            M += rng.integers(-2, 3, (r, k)) * 1e-13
        return M

    def rhs(r):
        if kind == "float":
            return rng.standard_normal(r)
        b = rng.integers(-1, 3, r).astype(float)  # zeros make degenerate vertices
        return b + (rng.integers(-3, 4, r) * 3e-13 if kind == "near" else 0.0)

    c = mat(1, n)[0]
    A_ub, b_ub = mat(m_ub, n), rhs(m_ub)
    if rng.random() < 0.7:  # a box keeps most of them bounded
        A_ub = np.vstack([A_ub, np.eye(n), -np.eye(n)])
        b_ub = np.concatenate([b_ub, np.full(2 * n, 3.0)])
    A_eq, b_eq = (mat(m_eq, n), rhs(m_eq)) if m_eq else (None, None)
    return c, A_ub, b_ub, A_eq, b_eq


@settings(max_examples=250, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["float", "int", "tiny", "near", "epigraph"]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="tiny", seed=103)  # phase 1 passes over a column
@example(kind="epigraph", seed=126)  # likewise
def test_solve_lp_matches_the_loop_simplex(kind, seed):
    # the vectorized pivot, scan and ratio test take the loop version's
    # pivots, leave its tableau bits after each one, end in its basis and
    # return its bits
    lp = _random_lp(np.random.default_rng(seed), kind)
    want = []
    status, x, value, basis = ref_solve_lp(*lp, pivots=want)
    got, bases = [], []
    real = simplex._pivot

    def spy(T, basis, row, col):
        real(T, basis, row, col)
        got.append((row, col, T.tobytes()))
        bases.append(basis)

    with mock.patch.object(simplex, "_pivot", spy):
        res = simplex.solve_lp(*lp)
    assert res.status == status
    assert got == want
    if bases:
        assert bases[-1] == basis
    if status == "optimal":
        assert np.array_equal(res.x, x) and same_bits(res.x, x)
        assert same_bits(np.float64(res.value), np.float64(value))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["float", "int", "tiny", "near", "epigraph"]),
       seed=st.integers(0, 2**32 - 1))
def test_pivots_counts_every_pivot(kind, seed):
    lp = _random_lp(np.random.default_rng(seed), kind)
    want = []
    ref_solve_lp(*lp, pivots=want)
    assert solve_lp(*lp).pivots == len(want)


def _worst_row(lp, x):
    c, A_ub, b_ub, A_eq, b_eq = lp
    r = A_ub @ x - b_ub if len(A_ub) else np.zeros(0)
    if A_eq is not None:
        r = np.concatenate([r, np.abs(A_eq @ x - b_eq)])
    return r.max(initial=0.0)


@pytest.mark.parametrize("kind", ["float", "int", "near", "epigraph", "tiny"])
def test_slack_start_against_the_all_artificial_start(kind):
    # the slack basis takes another pivot path than an all-artificial start:
    # the same verdicts and values where the arithmetic is benign, closer
    # epigraph optima, and no more "optimal" points off a row by > 1e-7
    # where entries sit near the pivot tolerances
    flips, worst, off = [], [0.0, 0.0], [0, 0]
    for seed in range(1000):
        lp = _random_lp(np.random.default_rng(seed), kind)
        status, x, value, _ = ref_solve_lp(*lp, slack_start=False)
        res = solve_lp(*lp)
        if res.status != status:
            flips.append(seed)
        elif status == "optimal" and kind in ("float", "int", "near"):
            assert abs(res.value - value) <= 1e-9 * max(1.0, abs(value))
        if kind == "epigraph":
            exact = exact_epigraph_min(lp[1], lp[2])
            for k, v in enumerate((value, res.value)):
                worst[k] = max(worst[k], abs(float(Fraction(v) - exact)))
        for k, (verdict, point) in enumerate(((status, x), (res.status, res.x))):
            off[k] += verdict == "optimal" and _worst_row(lp, point) > 1e-7
    assert flips == []
    assert worst[1] <= worst[0]
    assert off[1] <= off[0]


@pytest.mark.parametrize("seed, before, after", [
    (2461, "optimal", "infeasible"),  # the rows miss each other by 3.5e-15
    (4305, "infeasible", "unbounded"),  # a point with margin 1, a ray of descent
])
def test_slack_start_verdicts_that_moved(seed, before, after):
    lp = _random_lp(np.random.default_rng(seed), "tiny")
    assert ref_solve_lp(*lp, slack_start=False)[0] == before
    assert solve_lp(*lp).status == after


@pytest.mark.parametrize("kind, seed", [("epigraph", 4722), ("epigraph", 231), ("tiny", 459)])
def test_final_refine_keeps_the_point_that_violates_less(kind, seed):
    # each run pivots on an entry below 1e-6; the recomputed point is kept
    # at 4722 (the tableau's optimum is 3.5e-8 high, and the recomputed
    # point leaves the box by 4e-16, rounding) and dropped at 231 and 459
    # (it violates a row by 4.5e-10 and 2.3e-8 of the row's largest entry,
    # the tableau's point none)
    lp = _random_lp(np.random.default_rng(seed), kind)
    status, x, value, _ = ref_solve_lp(*lp)
    res = solve_lp(*lp)
    assert res.status == status == "optimal"
    assert same_bits(res.x, x) and same_bits(np.float64(res.value), np.float64(value))
    assert _worst_row(lp, res.x) <= 1e-12
    if seed == 4722:
        assert abs(float(Fraction(res.value) - exact_epigraph_min(lp[1], lp[2]))) < 1e-14


def test_iteration_limit_is_a_module_constant(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITER", 1)
    with pytest.raises(IterationLimit):
        solve_lp([-1.0, -2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [4.0, 3.0, 2.0])
