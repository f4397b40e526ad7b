import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochbellman import bellman, convexfn, treeio
from stochbellman.bellman import StageProblem, solve_be
from stochbellman.convexfn import (EQ_TOL, Inf, Polyhedral, Quadratic, Sampled1D,
                                   _canonical_rows, _canonical_stack,
                                   _null_basis, _polyhedral_cone_checks, _stack,
                                   cond_expect_fn, eval_stack, lineality_space,
                                   partial_min, recession)
from stochbellman.errors import (BackendClash, DimensionMismatch, Infeasible,
                                 NonLinearRecession, ProbabilityMass, Unbounded,
                                 UnboundedBelow, ValidationError)
from stochbellman.extensive import FlatProgram, Term, solve_extensive
from stochbellman.generators import random_tree
from stochbellman.simplex import solve_lp

from helpers import (binary_tree, grid_min, outcome, random_stage_cost, ref_add,
                     ref_canonical_rows, ref_polyhedral_cone_checks,
                     ref_precompose, ref_quadratic_eval,
                     ref_quadratic_partial_min, ref_recession, ref_scale,
                     same_bits, same_fn)


def test_eval_quadratic():
    f = Quadratic([[1.0]], [0.0])
    assert f.eval([2.0]) == pytest.approx(2.0)
    with pytest.raises(DimensionMismatch):
        f.eval([1.0, 2.0])


def test_eval_polyhedral_domain_indicator():
    f = Polyhedral([[1.0], [2.0]], [0.0, 1.0], [[1.0]], [0.0])
    assert f.eval([1.0]) == Inf
    assert f.eval([-1.0]) == pytest.approx(-1.0)


def test_eval_sampled_interpolation():
    f = Sampled1D([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert f.eval(1.5) == pytest.approx(2.5)
    assert f.eval(2.5) == Inf


def test_sampled_eval_takes_one_coordinate():
    # a scalar or a length-1 point; any other length is a DimensionMismatch,
    # as for Quadratic and Polyhedral
    f = Sampled1D([0, 1], [0, 1])
    assert f.eval(0.5) == f.eval([0.5]) == f(np.array([[0.5]])) == 0.5
    for x, k in (([0.5, 7.0], 2), ([], 0), (np.zeros((2, 2)), 4)):
        with pytest.raises(DimensionMismatch, match=f"expected dim 1, got {k}"):
            f.eval(x)


def test_sampled_rejects_nonconvex():
    with pytest.raises(ValidationError):
        Sampled1D([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])


def test_sampled_table_only_evaluates():
    # a knot table is no member of the algebra: it defines its checks and
    # eval, and every operation it lacks raises BackendClash
    f = Sampled1D([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert sorted(k for k in vars(Sampled1D) if callable(vars(Sampled1D)[k])) == \
        ["__init__", "eval"]
    for op, args in [("add", (f,)), ("tilt", (1.0,)), ("scale", (2.0,)),
                     ("precompose", ([[1.0]], [0.0])), ("recession", ()),
                     ("conjugate", (1.0,))]:
        with pytest.raises(BackendClash, match=f"{op} unsupported for Sampled1D"):
            getattr(f, op)(*args)
    with pytest.raises(BackendClash):
        lineality_space(f)
    with pytest.raises(BackendClash):
        cond_expect_fn([(0.5, f), (0.5, f)])


def test_quadratic_psd_validation():
    with pytest.raises(ValidationError):
        Quadratic([[0.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    Quadratic([[0.0, 1.0], [1.0, 1.0]], [0.0, 0.0], check_psd=False)


def test_combine_add_quadratics():
    f = Quadratic([[2.0]], [0.0])             # x^2
    g = Quadratic([[2.0]], [-4.0], 4.0)       # (x-2)^2
    h = f.add(g)
    assert h.Q[0, 0] == pytest.approx(4.0)
    assert h.q[0] == pytest.approx(-4.0)
    assert h.c == pytest.approx(4.0)


def test_scale_zero_keeps_domain_indicator():
    # on [0, 1]: value x becomes the plain indicator after scaling by 0
    f = Polyhedral([[1.0]], [0.0], [[1.0], [-1.0]], [1.0, 0.0])
    z = f.scale(0.0)
    assert z.eval([0.7]) == pytest.approx(0.0)
    assert z.eval([2.0]) == Inf


def test_tilt_point_indicator_absorbs_linear_term():
    f = Quadratic.point_indicator([0.0])
    g = f.tilt([3.0])
    assert g.eval([0.0]) == pytest.approx(0.0)
    assert g.eval([1.0]) == Inf


def test_cond_expect_weighted_sum():
    f = Quadratic([[2.0]], [0.0])
    g = Quadratic([[2.0]], [-4.0], 4.0)
    m = cond_expect_fn([(0.5, f), (0.5, g)])
    assert m.eval([1.0]) == pytest.approx(1.0)
    assert m.Q[0, 0] == pytest.approx(2.0)
    assert m.q[0] == pytest.approx(-2.0)


def test_cond_expect_domain_intersection():
    a = Polyhedral([[0.0]], [0.0], [[1.0], [-1.0]], [1.0, 0.0])   # [0, 1]
    b = Polyhedral([[0.0]], [0.0], [[1.0], [-1.0]], [2.0, -1.0])  # [1, 2]
    m = cond_expect_fn([(0.5, a), (0.5, b)])
    assert m.eval([1.0]) == pytest.approx(0.0)
    assert m.eval([0.5]) == Inf
    assert m.eval([1.5]) == Inf


def test_cond_expect_quadratic_mixture_matrix():
    Q1 = np.array([[2.0, 0.0], [0.0, 1.0]])
    Q2 = np.array([[1.0, 0.5], [0.5, 3.0]])
    m = cond_expect_fn([(0.25, Quadratic(Q1, np.zeros(2))),
                        (0.75, Quadratic(Q2, np.zeros(2)))])
    assert np.allclose(m.Q, 0.25 * Q1 + 0.75 * Q2)


def test_cond_expect_probability_mass_error():
    f = Quadratic([[1.0]], [0.0])
    with pytest.raises(ProbabilityMass):
        cond_expect_fn([(0.5, f), (0.6, f)])


def test_partial_min_stationarity_example():
    # min_u 1/2 u^2 + x u = -x^2/2 at u = -x (not jointly convex: PSD off)
    f = Quadratic([[0.0, 1.0], [1.0, 1.0]], np.zeros(2), check_psd=False)
    pm = partial_min(f, over=1)
    for x in (-2.0, 0.5, 3.0):
        assert pm.fn.eval([x]) == pytest.approx(-0.5 * x * x, abs=1e-10)
        assert pm.selector([x])[0] == pytest.approx(-x, abs=1e-10)
        assert pm.fn.eval([x]) == pytest.approx(grid_min(f, x, -8, 8), abs=1e-8)


def test_partial_min_perfect_tracking():
    f = Quadratic([[1.0, -1.0], [-1.0, 1.0]], np.zeros(2))
    pm = partial_min(f, over=1)
    assert pm.fn.eval([1.7]) == pytest.approx(0.0, abs=1e-12)
    assert pm.selector([1.7])[0] == pytest.approx(1.7)


def test_partial_min_free_coordinate_min_norm():
    f = Quadratic([[1.0, 0.0], [0.0, 0.0]], np.zeros(2))
    pm = partial_min(f, over=1)
    assert pm.fn.eval([2.0]) == pytest.approx(2.0)
    assert pm.selector([2.0])[0] == pytest.approx(0.0, abs=1e-12)
    assert pm.lineality.shape == (1, 1)


def test_partial_min_unbounded():
    # f(x, u) = x^2 + u: linear drift along a flat direction
    f = Quadratic([[2.0, 0.0], [0.0, 0.0]], [0.0, 1.0])
    with pytest.raises(UnboundedBelow):
        partial_min(f, over=1)


def test_partial_min_polyhedral_one_sided_cone():
    # f(x, u) = max(-u, 0): flat for u >= 0 only
    f = Polyhedral([[0.0, -1.0], [0.0, 0.0]], [0.0, 0.0])
    with pytest.raises(NonLinearRecession):
        partial_min(f, over=1)


def test_partial_min_sampled_rejected():
    with pytest.raises(BackendClash):
        partial_min(Sampled1D([0.0, 1.0], [0.0, 1.0]), over=1)


def test_recession_strictly_convex_quadratic():
    r = recession(Quadratic([[1.0]], [1.0]))
    assert r.eval([0.0]) == pytest.approx(0.0)
    assert r.eval([1.0]) == Inf


def test_recession_polyhedral_drops_offsets():
    r = recession(Polyhedral([[1.0], [2.0]], [0.0, 1.0]))
    assert r.eval([3.0]) == pytest.approx(6.0)
    assert r.eval([-3.0]) == pytest.approx(-3.0)


def test_recession_bounded_domain():
    r = recession(Polyhedral([[0.0]], [0.0], [[1.0], [-1.0]], [1.0, 0.0]))
    assert r.eval([0.0]) == pytest.approx(0.0)
    assert r.eval([0.5]) == Inf


def test_lineality_strictly_convex_is_origin():
    ls = lineality_space(recession(Quadratic([[1.0]], [0.0])))
    assert ls.shape[1] == 0


def test_lineality_free_coordinate():
    # |d1| in two variables: second coordinate is flat
    f = Polyhedral([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
    ls = lineality_space(recession(f))
    assert ls.shape[1] == 1
    assert abs(ls[1, 0]) == pytest.approx(1.0)


def test_always_up_gains_trip_nonlinear_recession():
    # shortfall max(-gain, 0) of an always-up one-asset bet: the zero-cost
    # recession cone is the one-sided ray of long positions
    f = cond_expect_fn([
        (0.5, Polyhedral([[0.0, -1.0], [0.0, 0.0]], [0.0, 0.0])),
        (0.5, Polyhedral([[0.0, -2.0], [0.0, 0.0]], [0.0, 0.0])),
    ])
    with pytest.raises(NonLinearRecession):
        partial_min(f, over=1)


def test_monotonicity_of_cond_expect(rng):
    for _ in range(25):
        Q = rng.uniform(0.5, 2.0)
        f1 = Quadratic([[Q]], [float(rng.standard_normal())])
        f2 = Quadratic([[Q * 1.5]], [float(rng.standard_normal())], 1.0)
        g1 = f1.add(Quadratic([[0.2]], [0.0], float(rng.uniform(0, 2))))
        g2 = f2.add(Quadratic([[0.0]], [0.0], float(rng.uniform(0, 2))))
        ef = cond_expect_fn([(0.4, f1), (0.6, f2)])
        eg = cond_expect_fn([(0.4, g1), (0.6, g2)])
        for x in rng.standard_normal(5):
            assert ef.eval([x]) <= eg.eval([x]) + 1e-12


def test_recession_commutes_with_cond_expect(rng):
    # common one-dimensional kernel so the horizon functions are nontrivial
    basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    for _ in range(10):
        fns = []
        for _ in range(2):
            diag = np.diag([float(rng.uniform(0.5, 2.0)), 0.0])
            Q = basis @ diag @ basis.T
            fns.append(Quadratic(Q, rng.standard_normal(2)))
        probs = [0.3, 0.7]
        left = recession(cond_expect_fn(list(zip(probs, fns))))
        right = cond_expect_fn(list(zip(probs, [recession(f) for f in fns])))
        for _ in range(6):
            d = rng.standard_normal(2)
            a, b = left.eval(d), right.eval(d)
            if a == Inf or b == Inf:
                assert a == b
            else:
                assert a == pytest.approx(b, abs=1e-10)


def test_monotone_convergence_by_piece_accretion(rng):
    pieces = [([1.0], 0.0), ([-1.0], 0.0), ([2.0], -1.0), ([0.5], 0.5)]
    seqs = []
    for k in range(1, len(pieces) + 1):
        pa = [p[0] for p in pieces[:k]]
        pb = [p[1] for p in pieces[:k]]
        seqs.append(Polyhedral(pa, pb))
    partner = Polyhedral([[0.0]], [0.0])
    evs = [cond_expect_fn([(0.5, f), (0.5, partner)]) for f in seqs]
    for x in rng.standard_normal(8):
        vals = [e.eval([x]) for e in evs]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
        assert vals[-1] == pytest.approx(
            cond_expect_fn([(0.5, seqs[-1]), (0.5, partner)]).eval([x]), abs=1e-12)


def test_partial_min_matches_grid_on_random_quadratics(rng):
    for _ in range(20):
        L = rng.standard_normal((2, 2))
        Q = L @ L.T + 0.3 * np.eye(2)
        f = Quadratic(Q, rng.standard_normal(2))
        pm = partial_min(f, over=1)
        x = float(rng.standard_normal())
        assert pm.fn.eval([x]) == pytest.approx(grid_min(f, x, -40, 40), abs=1e-8)
        u = pm.selector([x])
        assert f.eval([x, u[0]]) == pytest.approx(pm.fn.eval([x]), abs=1e-8)


def test_partial_min_matches_grid_on_random_polyhedra(rng):
    for _ in range(20):
        k = int(rng.integers(2, 5))
        pa = rng.standard_normal((k, 2))
        pb = rng.standard_normal(k)
        f = Polyhedral(pa, pb, [[0.0, 1.0], [0.0, -1.0]], [5.0, 5.0])
        pm = partial_min(f, over=1)
        x = float(rng.standard_normal())
        assert pm.fn.eval([x]) == pytest.approx(grid_min(f, x, -5.0, 5.0), abs=1e-8)
        u = pm.selector([x])
        assert f.eval([x, u[0]]) == pytest.approx(pm.fn.eval([x]), abs=1e-8)


def test_selector_orthogonal_to_lineality(rng):
    for _ in range(10):
        # one genuinely flat control direction: costs ignore u2
        Q = np.zeros((3, 3))
        Q[:2, :2] = np.eye(2)
        f = Quadratic(Q, np.concatenate([rng.standard_normal(2), [0.0]]))
        pm = partial_min(f, over=2)
        u = pm.selector(rng.standard_normal(1))
        assert pm.lineality.shape[1] == 1
        assert abs(pm.lineality[:, 0] @ u) <= 1e-10


def test_recession_formula_under_partial_min(rng):
    for _ in range(10):
        L = rng.standard_normal((2, 2))
        Q = L @ L.T + 0.2 * np.eye(2)
        f = Quadratic(Q, rng.standard_normal(2))
        pm = partial_min(f, over=1)
        g_rec = recession(pm.fn)
        f_rec = recession(f)
        for x in rng.standard_normal(4):
            direct = g_rec.eval([x])
            scanned = min(f_rec.eval([x, u]) for u in np.linspace(-20, 20, 4001))
            if direct == Inf:
                assert scanned == Inf or scanned > 1e6
            else:
                assert direct == pytest.approx(scanned, abs=1e-6)


def test_conjugates():
    # quadratic: (x^2)* at v is v^2/4
    f = Quadratic([[2.0]], [0.0])
    assert f.conjugate([3.0]) == pytest.approx(2.25, abs=1e-10)
    # polyhedral |x|: conjugate is the indicator of [-1, 1]
    g = Polyhedral([[1.0], [-1.0]], [0.0, 0.0])
    assert g.conjugate([0.5]) == pytest.approx(0.0, abs=1e-10)
    assert g.conjugate([2.0]) == Inf


def test_conjugate_of_a_dual_point_of_the_wrong_length_is_a_dimension_mismatch():
    # as eval: one message for Quadratic, Polyhedral and the stacked kernel
    f = Quadratic(np.eye(2), np.zeros(2))
    g = Polyhedral([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
    for fn in (f, g):
        with pytest.raises(DimensionMismatch, match="expected a dual point of dim 2, got 3"):
            fn.conjugate([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        convexfn._conjugates([f, f, g], [np.zeros(2), np.zeros(3), np.zeros(2)])
    assert convexfn._conjugates([f, g], [np.zeros(2), np.zeros(2)]) == [0.0, 0.0]


def test_precompose_affine():
    f = Quadratic([[2.0]], [0.0])  # x^2
    g = f.precompose([[2.0]], [1.0])  # (2z+1)^2
    assert g.eval([1.0]) == pytest.approx(9.0)
    p = Polyhedral([[1.0], [-1.0]], [0.0, 0.0])  # |x|
    q = p.precompose([[-1.0]], [3.0])  # |3 - z|
    assert q.eval([5.0]) == pytest.approx(2.0)


def test_recession_fn_invariants(rng):
    # horizon functions vanish at zero and are positively homogeneous
    fns = [Quadratic([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.5], check_psd=False),
           Polyhedral([[1.0, -1.0], [0.5, 2.0]], [1.0, -2.0])]
    for fn in fns:
        r = recession(fn)
        zero = np.zeros(r.dim)
        assert r.eval(zero) == pytest.approx(0.0, abs=1e-12)
        for _ in range(5):
            d = rng.standard_normal(r.dim)
            lam = float(rng.uniform(0.5, 3.0))
            a, b = r.eval(lam * d), r.eval(d)
            if b == Inf:
                assert a == Inf
            else:
                assert a == pytest.approx(lam * b, abs=1e-10)


def test_lineality_basis_orthonormal():
    f = Polyhedral([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.0, 0.0])
    B = lineality_space(recession(f))
    assert B.shape[1] == 2
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-10)


def test_polyhedral_add_in_dimension_zero():
    # constants on R^0: the sum's offsets are the pairwise sums
    f = Polyhedral(np.zeros((2, 0)), [1.0, 2.0]).add(Polyhedral(np.zeros((1, 0)), [3.0]))
    assert f.pieces_a.shape == (1, 0)
    assert f.eval(np.zeros(0)) == 5.0


def test_mixed_add_is_rejected():
    q = Quadratic([[2.0]], [0.0])
    p = Polyhedral([[1.0], [-1.0]], [0.0, 0.0])
    with pytest.raises(BackendClash):
        q.add(p)  # x^2 + |x| has no single backend
    with pytest.raises(BackendClash):
        p.add(q)
    with pytest.raises(BackendClash):
        q.add(Sampled1D([0.0, 1.0], [0.0, 1.0]))


@pytest.mark.parametrize("a, b, lo, hi, v, exact", [
    # one pivot on the 1e-8 slope left the tableau's optimum 1.3e-7 off
    ([1.8903293102975152, 1e-8], [-1.0, 0.0], 0.0, 3.0, 2.0, 1.3290120691074545),
    # a phase 1 with tiny pivots read this domain as empty: -inf
    ([-1.267613980499914, -1.7e-08, -0.23611060999383948],
     [-0.17646735987745377, 0.0, 2.9922548129802173],
     -2.305414892747856, 0.2211485938538118, 2.0, -2.49774209587849),
])
def test_polyhedral_conjugate_after_tiny_pivots(a, b, lo, hi, v, exact):
    # exact values by breakpoint enumeration in rationals
    f = Polyhedral(np.reshape(a, (-1, 1)), b, [[1.0], [-1.0]], [hi, -lo])
    assert f.conjugate([v]) == pytest.approx(exact, abs=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pieces=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
                       min_size=1, max_size=5),
       ends=st.tuples(st.floats(-4.0, 4.0), st.floats(0.1, 4.0)),
       v=st.floats(-8.0, 8.0))
def test_polyhedral_conjugate_matches_breakpoint_enumeration(pieces, ends, v):
    # f = max_i (a_i x + b_i) on [lo, hi]; v x - f(x) is concave and
    # piecewise linear, so its maximum sits at an end or a piece crossing
    lo, hi = ends[0], ends[0] + ends[1]
    a = np.array([p[0] for p in pieces])
    b = np.array([p[1] for p in pieces])
    f = Polyhedral(a.reshape(-1, 1), b, [[1.0], [-1.0]], [hi, -lo])
    xs = [lo, hi]
    for i in range(a.size):
        for j in range(i):
            if a[i] != a[j]:
                x = (b[j] - b[i]) / (a[i] - a[j])
                if lo <= x <= hi:
                    xs.append(x)
    exact = max(v * x - np.max(a * x + b) for x in xs)
    assert f.conjugate([v]) == pytest.approx(exact, abs=1e-7)


def raw_kkt_min(Q, q, c, A, b, x):
    """min over z of 1/2 z.Qz + q.z + c on the raw rows Az = b with the
    leading coordinates fixed to x: one lstsq solve of the flat KKT system."""
    d, k = Q.shape[0], len(x)
    C = np.vstack([A, np.eye(d)[:k]])
    n = C.shape[0]
    kkt = np.block([[Q, C.T], [C, np.zeros((n, n))]])
    z = np.linalg.lstsq(kkt, np.concatenate([-q, b, x]), rcond=None)[0][:d]
    return 0.5 * z @ Q @ z + q @ z + c


def round_trip(f):
    return treeio.fn_from_record(json.loads(json.dumps(treeio.fn_to_record(f))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), r=st.integers(0, 4), extra=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1))
def test_canonical_rows_of_redundant_systems(d, r, extra, seed):
    # rows R @ A0 of rank r with a consistent right-hand side b = A x0
    rng = np.random.default_rng(seed)
    r = min(r, d)
    A0 = rng.standard_normal((r, d))
    A = rng.standard_normal((r + extra, r)) @ A0
    x0 = rng.standard_normal(d)
    b = A @ x0
    L = rng.standard_normal((d, d))
    Q, q, c = L @ L.T + 0.3 * np.eye(d), rng.standard_normal(d), float(rng.standard_normal())
    f = Quadratic(Q, q, c, A, b)
    assert f.A.shape[0] == np.linalg.matrix_rank(A) == r
    assert np.allclose(f.A @ f.A.T, np.eye(r), atol=1e-12)

    def raw_member(x):
        return np.max(np.abs(A @ x - b)) <= EQ_TOL * (1.0 + np.max(np.abs(b)))

    null = np.linalg.svd(np.vstack([A0, np.zeros((1, d))]))[2][r:].T
    on = [x0 + null @ rng.standard_normal(d - r) for _ in range(3)]
    off = [x0 + 0.1 * A0.T @ rng.standard_normal(r) for _ in range(3)] if r else []
    for x in on + off:
        assert (f.eval(x) < Inf) == raw_member(x)
    for x in on:
        assert f.eval(x) == pytest.approx(0.5 * x @ Q @ x + q @ x + c, abs=1e-8)

    for keep in range(d):
        pm = partial_min(f, over=d - keep)
        x = on[0][:keep]
        assert pm.fn.eval(x) == pytest.approx(raw_kkt_min(Q, q, c, A, b, x), abs=1e-8)
        assert pm.fn.A.shape[0] <= keep

    back = round_trip(f)
    assert np.array_equal(back.A, f.A) and np.array_equal(back.b, f.b)


def _system(rng, m, d, kind):
    """m equality rows over R^d, with a right-hand side, of the given kind."""
    if kind == "orthonormal" and m <= d:
        return np.linalg.qr(rng.standard_normal((d, d)))[0][:m], rng.standard_normal(m)
    if kind == "deficient":
        r = int(rng.integers(0, min(m, d) + 1))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
        return A, A @ rng.standard_normal(d)
    if kind == "inconsistent":
        return np.tile(rng.standard_normal(d), (m, 1)), rng.standard_normal(m)
    if kind == "rounding":
        return 1e-17 * rng.standard_normal((m, d)), 1e-17 * rng.standard_normal(m)
    if kind == "zero":
        return np.zeros((m, d)), np.zeros(m)
    return rng.standard_normal((m, d)) * 10.0 ** int(rng.integers(-6, 5)), rng.standard_normal(m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(1, 6), d=st.integers(0, 6), seed=st.integers(0, 2**31 - 1),
       kinds=st.lists(st.sampled_from(["orthonormal", "deficient", "inconsistent",
                                       "rounding", "zero", "generic"]), min_size=1, max_size=6))
def test_stacked_canonical_rows_keep_the_bits_of_the_member_formula(m, d, seed, kinds):
    # one stack of systems of one shape (m > d included) takes one SVD: each
    # member gets the bits of the frozen per-member formula, and so does
    # _canonical_rows, a stack of one; the groups have one row count each,
    # first seen first, with their members ascending
    rng = np.random.default_rng(seed)
    systems = [_system(rng, m, d, kind) for kind in kinds]
    n = len(systems)
    A = np.array([a for a, _ in systems]).reshape(n, m, d)
    b = np.array([x for _, x in systems]).reshape(n, m)
    groups, got = _canonical_stack(A, b), {}
    for idx, Ag, bg in groups:
        assert list(idx) == sorted(idx) and Ag.shape[:2] == bg.shape == (len(idx), Ag.shape[1])
        got.update(zip(idx.tolist(), zip(Ag, bg)))
    assert sorted(got) == list(range(n))
    assert [Ag.shape[1] for _, Ag, _ in groups] == list(dict.fromkeys(
        got[i][1].size for i in range(n)))
    for i, (Ai, bi) in enumerate(systems):
        want = ref_canonical_rows(Ai, bi)
        for Ag, bg in (got[i], _canonical_rows(Ai, bi)):
            assert same_bits(Ag, want[0]) and same_bits(bg, want[1])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["empty", "flat", "rows", "split", "poly"]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_recession_problem_keeps_the_bits_of_the_node_formula(kind, seed):
    # the recession costs are built as stacks of one dim and row count (one
    # SVD of the forms, one _derived call per rank): every node's has the
    # bits of the frozen per-node formula, and recession(), a stack of one,
    # gives the same
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 4))
    tree = random_tree(rng, T, 3)
    dims = [int(rng.integers(0, 3)) for _ in range(T + 1)]
    costs = {nid: random_stage_cost(rng, dims[t - 1] if t else 0, dims[t], kind)
             for t in range(T + 1) for nid in tree.stage_nodes[t]}
    got = bellman._recession_problem(StageProblem(tree, dims, node_costs=costs)).node_costs
    assert list(got) == list(costs)
    for nid, f in costs.items():
        want = ref_recession(f)
        assert same_fn(got[nid], want) and same_fn(recession(f), want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), r=st.integers(0, 2), extra=st.integers(1, 3),
       seed=st.integers(0, 2**31 - 1))
def test_inconsistent_rows_are_an_empty_domain(d, r, extra, seed):
    rng = np.random.default_rng(seed)
    r = min(r, d - 1) if d > 1 else 0
    A = rng.standard_normal((r + extra, r)) @ rng.standard_normal((r, d))
    # a right-hand side with a unit component outside the column space of A
    u = np.linalg.svd(A)[0]
    b = A @ rng.standard_normal(d) + u[:, r]
    f = Quadratic(np.eye(d), np.zeros(d), 0.0, A, b)
    assert np.array_equal(f.A, np.zeros((1, d))) and np.array_equal(f.b, [1.0])
    for x in rng.standard_normal((5, d)):
        assert f.eval(x) == Inf
    assert f.add(Quadratic(np.eye(d), np.ones(d))).eval(np.zeros(d)) == Inf
    assert partial_min(f, over=d).fn.eval(np.zeros(0)) == Inf
    # with a linear term along flat directions the empty domain still wins
    flat = Quadratic(np.zeros((d, d)), np.ones(d), 0.0, A, b)
    assert partial_min(flat, over=d).fn.eval(np.zeros(0)) == Inf
    back = round_trip(f)
    assert np.array_equal(back.A, f.A) and np.array_equal(back.b, f.b)

    # a sweep through the empty node cost reports infeasibility at that node
    costs = {"r": Quadratic([[1.0]], [0.0]),
             "a": Quadratic(np.eye(1 + d), np.zeros(1 + d)),
             "b": Quadratic(np.eye(1 + d), np.zeros(1 + d), 0.0,
                            np.hstack([np.zeros((A.shape[0], 1)), A]), b)}
    with pytest.raises(Infeasible) as err:
        solve_be(StageProblem(binary_tree(), [1, d], node_costs=costs))
    assert err.value.node == "b"


def _random_member(rng, d, keep, m, kind):
    """A Quadratic on R^d with m canonical rows, of the given kind:
    pd (positive definite), flat (a zero-curvature minimized direction
    that passes the checks), drift (the same with a linear term along it),
    coupled (an indefinite form, built unchecked, with no curvature in the
    minimized block but a cross term into it), zero (Q = 0 and q = 0) or
    empty (the row 0.x = 1; m must be 1)."""
    L = rng.standard_normal((d, d))
    Q = L @ L.T + 0.1 * np.eye(d)
    q = rng.standard_normal(d)
    if kind in ("flat", "drift"):
        z = np.zeros(d)
        z[keep:] = rng.standard_normal(d - keep)
        z /= np.linalg.norm(z)
        P = np.eye(d) - np.outer(z, z)
        Q = P @ L @ L.T @ P
        q = P @ q + (rng.uniform(0.5, 2.0) * z if kind == "drift" else 0.0)
    elif kind == "coupled":
        Q[keep:, keep:] = 0.0
        Q[keep:, :keep] = Q[:keep, keep:].T
    elif kind == "zero":
        Q, q = np.zeros((d, d)), np.zeros(d)
    if kind == "empty":
        A, b = np.zeros((1, d)), np.ones(1)
    else:
        A, b = rng.standard_normal((m, d)), rng.standard_normal(m)
    return Quadratic(0.5 * (Q + Q.T), q, float(rng.standard_normal()), A, b,
                     check_psd=kind != "coupled")


def _same_quadratic(f, g):
    return (same_bits(f.Q, g.Q) and same_bits(f.q, g.q) and f.c == g.c
            and same_bits(f.A, g.A) and same_bits(f.b, g.b) and f.psd == g.psd)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       kinds=st.sampled_from(["pd", "mixed", "flat", "unbounded", "empty"]))
def test_stacked_partial_min_matches_the_node_by_node_kernel(d, n, seed, kinds):
    # every member gets the F, g, lineality and post-function bits of the
    # frozen per-node kernel; the first failing member raises its error
    rng = np.random.default_rng(seed)
    keep = int(rng.integers(0, d))
    m = 1 if kinds == "empty" else int(rng.integers(0, d + 1))
    pool = {"pd": ["pd"], "mixed": ["pd", "flat", "zero"], "flat": ["flat", "zero"],
            "unbounded": ["pd", "flat", "drift", "coupled"], "empty": ["pd", "flat", "empty"]}
    fs = [_random_member(rng, d, keep, m, rng.choice(pool[kinds])) for _ in range(n)]
    fs = [f for f in fs if f.A.shape[0] == fs[0].A.shape[0]]
    names = [f"n{i}" for i in range(len(fs))]
    want, first = [], None
    for i, f in enumerate(fs):
        try:
            want.append(ref_quadratic_partial_min(f, keep))
        except UnboundedBelow as exc:
            first = (names[i], str(exc))
            break
    if first is not None:
        with pytest.raises(UnboundedBelow) as got:
            convexfn._quadratic_partial_min(convexfn._stack(fs), d - keep, names)
        assert got.value.node == first[0]
        assert str(got.value) == f"{first[1]} (node {first[0]})"
        return
    _, got = convexfn._quadratic_partial_min(convexfn._stack(fs), d - keep, names)
    for f, got, ref in zip(fs, got, want):
        for pm in (got, partial_min(f, d - keep)):
            assert same_bits(pm.selector.F, ref.selector.F)
            assert same_bits(pm.selector.g, ref.selector.g)
            assert same_bits(pm.lineality, ref.lineality)
            assert _same_quadratic(pm.fn, ref.fn)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), k=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["pd", "flat", "zero", "empty"]))
def test_quadratic_algebra_matches_the_node_by_node_formulas(d, k, seed, kind):
    # precompose, scale and add are stacks of one: the per-node bits
    rng = np.random.default_rng(seed)
    m = 1 if kind == "empty" else int(rng.integers(0, d + 1))
    f = _random_member(rng, d, 0, m, kind)
    g = _random_member(rng, d, 0, int(rng.integers(0, d + 1)), "pd")
    M, t = rng.standard_normal((d, k)), rng.standard_normal(d)
    assert _same_quadratic(f.precompose(M, t), ref_precompose(f, M, t))
    for alpha in (0.0, float(rng.uniform(0.1, 3.0))):
        assert _same_quadratic(f.scale(alpha), ref_scale(f, alpha))
    assert _same_quadratic(f.add(g), ref_add(f, g))
    assert _same_quadratic(g.add(f), ref_add(g, f))


def _flat_conjugate(f, v):
    """f*(v) = -min (f - v.x) by the flat solver on the tilted function:
    Inf where it is Unbounded and -Inf where it is Infeasible."""
    try:
        val, _, _ = solve_extensive(FlatProgram(f.dim, [Term(1.0, f.tilt(-v), range(f.dim))]))
    except Unbounded:
        return Inf
    except Infeasible:
        return -Inf
    return -val


def _near(got, want, rtol=1e-9):
    return all(m == w if abs(w) == Inf else abs(m - w) <= rtol * (1.0 + abs(w))
               for m, w in zip(got, want))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(1, 4), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_conjugates_match_the_flat_solver_on_the_tilted_function(d, n, seed):
    # f*(v) for Quadratics of every _random_member kind, of mixed dims and
    # row counts and stacked per group, next to Polyhedral members: half of
    # the dual points random (mostly off dom f* for a flat member), half in
    # dom f* = q + range Q + range A^T
    rng = np.random.default_rng(seed)
    fs, V = [], []
    for _ in range(n):
        dim = int(rng.integers(1, d + 1))
        kind = str(rng.choice(["pd", "flat", "zero", "drift", "coupled", "empty", "poly"]))
        if kind == "poly":
            f = Polyhedral(rng.integers(-2, 3, (2, dim)).astype(float), rng.standard_normal(2),
                           np.vstack([np.eye(dim), -np.eye(dim)]), np.ones(2 * dim))
            v = 2.0 * rng.standard_normal(dim)
        else:
            m = 1 if kind == "empty" else int(rng.integers(0, min(dim, 2) + 1))
            f = _random_member(rng, dim, 0, m, kind)
            v = rng.standard_normal(dim)
            if rng.random() < 0.5:
                v = f.q + f.Q @ v + f.A.T @ rng.standard_normal(f.A.shape[0])
        fs.append(f)
        V.append(v)
    got = convexfn._conjugates(fs, V)
    assert _near(got, [_flat_conjugate(f, v) for f, v in zip(fs, V)])


def test_unbounded_conjugates_take_one_stack_per_group(monkeypatch):
    # a group where every member drifts along a flat direction, a group
    # where most do and a one-row group with empty members ahead of
    # unbounded ones: one stacked minimization per group however many are
    # unbounded, Inf for each of them and the flat solver's value for the
    # rest
    rng = np.random.default_rng(7)
    fs = [_random_member(rng, 3, 0, 0, "drift") for _ in range(200)]
    fs += [_random_member(rng, 2, 0, 0, "pd" if i % 5 == 0 else "drift") for i in range(50)]
    fs += [_random_member(rng, 2, 0, 1, kind)
           for kind in ("empty", "coupled", "pd", "empty", "coupled")]
    sizes = []

    def stacked(S, *args, _orig=convexfn._kkt_minima):
        sizes.append(len(S.c))
        return _orig(S, *args)

    monkeypatch.setattr(convexfn, "_kkt_minima", stacked)
    got = convexfn._conjugates(fs, [np.zeros(f.dim) for f in fs])
    assert sizes == [200, 50, 5]
    assert sum(m == Inf for m in got) == 242
    assert _near(got, [_flat_conjugate(f, np.zeros(f.dim)) for f in fs])


def _cone_case(rng, keep, own, kind):
    """A Polyhedral on R^(keep + own) for the recession-cone check.  Its own
    block is boxed (unit rows both ways on every coordinate), fuzzy (the
    same with off-entries of 1e-14), tiny (unit entries below the simplex's
    pivot tolerance), near (unit entries just above it, in (1e-9, 1e-7)),
    partly boxed (some coordinates both ways, some one way) or free (no unit
    rows).  Integer piece gradients make flat, one-sided and strictly
    negative directions common."""
    d = keep + own
    rows = []
    both = {"partly": int(rng.integers(0, own + 1)), "free": 0}.get(kind, own)
    for j in range(own):
        for sign in (1.0, -1.0):
            if j >= both and not (kind == "partly" and rng.random() < 0.5):
                continue
            row = np.zeros(d)
            row[:keep] = rng.integers(-2, 3, keep)
            if kind == "fuzzy":
                row[keep:] = rng.choice([1e-14, -1e-14, 0.0, -0.0], own)
            elif kind in ("tiny", "near"):
                row[keep:] = rng.choice([1e-14, 0.0], own)
            entry = {"tiny": rng.uniform(2e-13, 9e-10),
                     "near": 10.0 ** rng.uniform(-9.0, -7.0)}.get(kind, rng.uniform(0.5, 3.0))
            row[keep + j] = sign * entry
            rows.append(row)
    rows += list(rng.integers(-2, 3, (int(rng.integers(0, 3)), d)).astype(float))
    C = np.array(rows).reshape(-1, d)[rng.permutation(len(rows))]
    k = int(rng.integers(1, 4))
    pa = rng.integers(-2, 3, (k, d)).astype(float)
    return Polyhedral(pa, rng.standard_normal(k), C, rng.uniform(0.5, 2.0, C.shape[0]))


def _cone_reference(f, keep, kind):
    """The frozen LP check's outcome, except on near cases where it raises.
    There the simplex can return a point off a cone row whose one entry is
    1e-9..1e-7 next to O(1) piece gradients, and report a one-sided cone.
    The boxed cone is {0}, so the check passes with the null basis of the
    nonzero own-block rows."""
    want, err = outcome(ref_polyhedral_cone_checks, f, keep)
    if kind == "near" and err is not None:
        rows = np.vstack([f.C[:, keep:], f.pieces_a[:, keep:]])
        want, err = _null_basis(rows[np.max(np.abs(rows), axis=1) > 1e-13]), None
    return want, err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(keep=st.integers(0, 2), own=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["boxed", "fuzzy", "tiny", "near", "partly", "free"]))
def test_cone_checks_match_the_lp_reference(keep, own, seed, kind):
    # the returned basis bit for bit, or the error's type and message
    f = _cone_case(np.random.default_rng(seed), keep, own, kind)
    got, err = outcome(_polyhedral_cone_checks, f, keep)
    want, want_err = _cone_reference(f, keep, kind)
    if want_err is not None:
        assert type(err) is type(want_err) and str(err) == str(want_err)
    else:
        assert err is None and same_bits(got, want)


def test_boxed_own_block_solves_no_cone_lp(monkeypatch):
    lps = []
    monkeypatch.setattr(convexfn, "solve_lp", lambda *a: lps.append(a) or solve_lp(*a))
    rng = np.random.default_rng(5)
    for kind in ("boxed", "fuzzy", "near", "tiny", "free"):
        lps.clear()
        for _ in range(20):
            f = _cone_case(rng, 1, 2, kind)
            got, err = outcome(_polyhedral_cone_checks, f, 1)
            want, want_err = _cone_reference(f, 1, kind)
            assert (type(err), str(err)) == (type(want_err), str(want_err))
            assert err is not None or same_bits(got, want)
        # the fallback runs one LP, or two when the first finds a negative row
        assert (len(lps) == 0) if kind in ("boxed", "fuzzy", "near") else (len(lps) >= 20)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(0, 4), m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_stacked_eval_matches_eval(d, m, seed):
    # points on the equality rows, off them by 0.5, 0.999, 1.001 and 2 times
    # the EQ_TOL threshold (small right-hand sides, where the 1 + max|b| of
    # the threshold matters), NaN points, and the empty domain: the bits of
    # the frozen Quadratic.eval, member by member and one at a time
    rng = np.random.default_rng(seed)
    m = min(m, d)
    fs, xs = [], []
    for k in range(12):
        L = rng.standard_normal((d, d))
        A = b = None
        if m:
            A, b = rng.standard_normal((m, d)), 10.0 ** rng.uniform(-3, 1) * rng.standard_normal(m)
        f = Quadratic(L @ L.T, rng.standard_normal(d), float(rng.standard_normal()), A, b)
        if k == 11 and d:
            f = Quadratic(L @ L.T, np.zeros(d), 0.0, np.tile(np.ones(d), (2, 1)), [0.0, 1.0])
        x = rng.standard_normal(d)
        if f.A.shape[0] and k < 11:
            x = x - np.linalg.pinv(f.A) @ (f.A @ x - f.b)  # onto the rows
            push = [0.0, 0.5, 0.999, 1.001, 2.0][k % 5] * EQ_TOL * (1.0 + np.abs(f.b).max())
            x = x + push * f.A[0]  # canonical rows are orthonormal
        if k == 10 and d:
            x[0] = np.nan
        fs.append(f)
        xs.append(x)
    groups = {}
    for f, x in zip(fs, xs):
        groups.setdefault(f.A.shape[0], []).append((f, x))
    for members in groups.values():
        got = eval_stack(_stack([f for f, _ in members]),
                         np.array([x for _, x in members]).reshape(len(members), d))
        for g, (f, x) in zip(got, members):
            want = np.float64(ref_quadratic_eval(f, x))
            assert same_bits(g, want) and same_bits(np.float64(f.eval(x)), want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(keep=st.integers(1, 2), own=st.integers(1, 3), flat=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_polyhedral_selection_attains_the_lp_optimum(keep, own, flat, seed):
    # random costs over (x, u), 1-3 own coordinates u_j, each bounded below
    # by a domain row and only sometimes above (a piece 2 u_j bounds it
    # then), random pieces and a coupling row, and with `flat` every own
    # row projected orthogonal to a direction w, which f ignores: the
    # selected u meets the domain rows, attains the LP optimum of the
    # epigraph slice at x, and is orthogonal to the lineality basis
    rng = np.random.default_rng(seed)
    d = keep + own
    k = int(rng.integers(1, 5))
    pa = rng.integers(-3, 4, (k, d)) * rng.choice([1.0, 0.5, 0.25], (k, 1))
    pb = rng.standard_normal(k)
    C, dd = [np.eye(d)[:keep], -np.eye(d)[:keep]], [np.full(2 * keep, 2.0)]
    for j in range(keep, d):
        e = np.eye(d)[j]
        grow = rng.integers(-2, 3, d) * 1.0
        grow[keep:] = 2.0 * e[keep:]
        pa, pb = np.vstack([pa, grow]), np.append(pb, rng.standard_normal())
        C.append(-e[None]), dd.append([rng.uniform(0.5, 2.0)])
        if rng.random() < 0.5:
            C.append(e[None]), dd.append([rng.uniform(0.5, 2.0)])
    C.append(rng.integers(-2, 3, (1, d)) * 1.0), dd.append([rng.uniform(1.0, 3.0)])
    C, dd = np.vstack(C), np.concatenate(dd)
    if flat:
        w = rng.standard_normal(own)
        w /= np.linalg.norm(w)
        P = np.eye(own) - np.outer(w, w)
        pa[:, keep:], C[:, keep:] = pa[:, keep:] @ P, C[:, keep:] @ P
    f = Polyhedral(pa, pb, C, dd)
    pm = partial_min(f, over=own)
    K = pm.lineality
    assert K.shape == (own, int(flat))
    G, h = f.epigraph()
    cost = np.zeros(own + 1)
    cost[-1] = 1.0
    tried = 0
    for x in rng.uniform(-2.0, 2.0, (6, keep)):
        if pm.fn.eval(x) == Inf:
            continue
        tried += 1
        u = pm.selector(x)
        z = np.concatenate([x, u])
        scale = 1.0 + np.abs(C) @ np.abs(z) + np.abs(dd)
        assert np.all(C @ z - dd <= 1e-9 * scale)
        res = solve_lp(cost, G[:, keep:], h - G[:, :keep] @ x)
        assert res.status == "optimal"
        assert np.max(pa @ z + pb) == pytest.approx(res.value, abs=1e-9 * (1.0 + abs(res.value)))
        assert np.abs(K.T @ u).max(initial=0.0) <= 1e-12
    assert tried
