from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochbellman.bellman import StageProblem, build_flat, optimum_value, solve_be
from stochbellman.convexfn import Polyhedral, Quadratic, Sampled1D
from stochbellman.errors import Infeasible, Unbounded
from stochbellman.extensive import FlatProgram, Term, solve_extensive
from stochbellman.generators import (quadratic_lagrange_instance, random_tree,
                                     tracking_stage_problem)
from stochbellman.tree import validate_tree

from helpers import (binary_tree, exact_quadratic_min, outcome, random_stage_cost,
                     ref_flat_kkt, ref_solve_quadratic, same_bits)


def test_flatten_one_node_tree():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    f = Quadratic([[2.0]], [-2.0], 1.0)
    p = StageProblem(tree, [1], node_costs={"r": f})
    fp = build_flat(p)
    assert fp.nvars == 1
    assert fp.eval([3.0]) == pytest.approx(f.eval([3.0]))


def test_flatten_binary_tracking_counts_variables():
    p = tracking_stage_problem()
    fp = build_flat(p)
    assert fp.nvars == 1  # root decision is scalar, leaf decisions are empty
    value, z, _ = solve_extensive(fp)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert z[0] == pytest.approx(1.0, abs=1e-8)


def test_flat_eval_matches_tree_eval_at_adapted_points(rng):
    inst = quadratic_lagrange_instance(3, T=2, d=2)
    sp = inst.as_stage_problem()
    fp = build_flat(sp)
    tree = sp.tree
    for _ in range(100):
        decisions = {nid: rng.standard_normal(2) for nid in tree.nodes}
        # tree objective: sum over nodes of P(n) * cost(parent dec, own dec)
        total = 0.0
        for nid in tree.nodes:
            par = tree.parent(nid)
            prev = decisions[par] if par is not None else np.zeros(0)
            total += tree.prob(nid) * sp.node_costs[nid].eval(
                np.concatenate([prev, decisions[nid]]))
        assert fp.eval(fp.pack(decisions)) == pytest.approx(total, abs=1e-12)


def test_kkt_residual_small(rng):
    for seed in range(5):
        inst = quadratic_lagrange_instance(seed, T=2, d=2)
        fp = build_flat(inst.as_stage_problem())
        value, z, info = solve_extensive(fp)
        assert info["kkt_residual"] <= 1e-10


def test_quadratic_unbounded():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    p = StageProblem(tree, [1], node_costs={"r": Quadratic([[0.0]], [1.0])})
    with pytest.raises(Unbounded):
        solve_extensive(build_flat(p))


def test_quadratic_infeasible():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    f = Quadratic([[2.0]], [0.0], 0.0, [[1.0], [1.0]], [0.0, 1.0])
    p = StageProblem(tree, [1], node_costs={"r": f})
    with pytest.raises(Infeasible):
        solve_extensive(build_flat(p))


def test_single_node_lp():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    f = Polyhedral([[1.0]], [0.0], [[-1.0]], [-2.0])  # min x s.t. x >= 2
    p = StageProblem(tree, [1], node_costs={"r": f})
    value, z, _ = solve_extensive(build_flat(p))
    assert value == pytest.approx(2.0, abs=1e-9)
    assert z[0] == pytest.approx(2.0, abs=1e-9)


def test_embedded_stationarity_value():
    # min over u of 1/2 u^2 + x u with x fixed at 1 gives -1/2
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    f = Quadratic([[0.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0, [[1.0, 0.0]], [1.0],
                  check_psd=False)
    g = Quadratic(np.zeros((2, 2)), [0.0, 0.0], check_psd=False)
    fp = FlatProgram(2, [Term(1.0, f, [0, 1]),
                         Term(1.0, Quadratic([[0.0, 1.0], [1.0, 0.0]],
                                             np.zeros(2), check_psd=False), [0, 1])])
    value, z, _ = solve_extensive(fp)
    assert value == pytest.approx(-0.5, abs=1e-10)


def test_coordinate_descent_sampled_path():
    # two sampled terms in one variable: (x-1)^2 and (x+1)^2 tables
    grid = np.linspace(-3.0, 3.0, 601)
    f = Sampled1D(grid, (grid - 1.0) ** 2)
    g = Sampled1D(grid, (grid + 1.0) ** 2)
    fp = FlatProgram(1, [Term(0.5, f, [0]), Term(0.5, g, [0])])
    value, z, info = solve_extensive(fp)
    assert value == pytest.approx(1.0, abs=1e-4)
    assert z[0] == pytest.approx(0.0, abs=1e-3)


def test_coordinate_descent_affine_composition():
    # term carries an affine map: V(c - x) with V sampled
    grid = np.linspace(-4.0, 4.0, 1601)
    V = Sampled1D(grid, grid ** 2)
    fp = FlatProgram(1, [Term(1.0, V, [0], M=[[-1.0]], t=[1.5])])
    value, z, info = solve_extensive(fp)
    assert value == pytest.approx(0.0, abs=1e-8)
    assert z[0] == pytest.approx(1.5, abs=1e-4)


def test_curved_quadratic_with_polyhedral_takes_coordinate_descent():
    # no Sampled1D anywhere: root |x0| on [-2, 2], children x1^2 + x0/2 - x1.
    # The sweep minimizes x1 out of each child, whose value x0/2 - 1/4 is
    # affine and joins the root's pieces; the flat program keeps the curved
    # child terms next to a Polyhedral one, so it takes coordinate descent
    costs = {"r": Polyhedral([[1.0], [-1.0]], [0.0, 0.0], [[1.0], [-1.0]], [2.0, 2.0])}
    costs.update(dict.fromkeys("ab", Quadratic([[0.0, 0.0], [0.0, 2.0]], [0.5, -1.0])))
    problem = StageProblem(binary_tree(), [1, 1], node_costs=costs)
    sol = solve_be(problem)
    assert sol.value == pytest.approx(-0.25, abs=1e-12)
    value, z, info = solve_extensive(build_flat(problem))
    assert "sweeps" in info
    assert abs(value - sol.value) <= 1e-8


def test_coordinate_descent_unbounded_direction():
    # a sampled term keeps the program off the exact paths; the affine term
    # drifts to -inf along the second variable
    grid = np.linspace(-1.0, 1.0, 3)
    fp = FlatProgram(2, [Term(1.0, Sampled1D(grid, grid ** 2), [0]),
                         Term(1.0, Quadratic([[0.0]], [-1.0]), [1])])
    with pytest.raises(Unbounded):
        solve_extensive(fp)


def test_affine_quadratic_with_polyhedral_takes_the_lp():
    # 0.5 x + max(-x, 2x - 3) on [0, 4]: the affine term joins the epigraph
    # LP as one piece, so the minimum -0.5 at x = 1 is exact
    fp = FlatProgram(1, [Term(1.0, Quadratic([[0.0]], [0.5]), [0]),
                         Term(1.0, Polyhedral([[-1.0], [2.0]], [0.0, -3.0],
                                              [[1.0], [-1.0]], [4.0, 0.0]), [0])])
    value, z, info = solve_extensive(fp)
    assert info == {"lp_vertex": True}
    assert value == pytest.approx(-0.5, abs=1e-15)
    assert z[0] == pytest.approx(1.0, abs=1e-12)


def test_simplex_path_on_tree_lp():
    tree = binary_tree()
    costs = {"r": Polyhedral([[1.0], [-1.0]], [0.0, 0.0]),
             "a": Polyhedral([[0.0, 1.0]], [0.0], [[0.0, -1.0]], [-1.0]),
             "b": Polyhedral([[0.0, 2.0]], [0.0], [[0.0, -1.0]], [-2.0])}
    # note: stage-1 costs are functions of (x0, x1); pieces read (prev, own)
    p = StageProblem(tree, [1, 1], node_costs=costs)
    value, z, _ = solve_extensive(build_flat(p))
    # |x0| + .5 x_a + .5 * 2 x_b with x_a >= 1, x_b >= 2 -> 0 + .5 + 2
    assert value == pytest.approx(2.5, abs=1e-9)


def test_flatten_tracking_with_leaf_decisions_counts_three():
    # per-stage unit dimensions put one variable on every node; the leaf
    # decisions are cost-free and land on zero through the min-norm rule
    tree = tracking_stage_problem().tree
    costs = {"r": Quadratic(np.zeros((1, 1)), np.zeros(1)),
             "a": Quadratic([[2.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 0.0),
             "b": Quadratic([[2.0, 0.0], [0.0, 0.0]], [-4.0, 0.0], 4.0)}
    p = StageProblem(tree, [1, 1], node_costs=costs)
    fp = build_flat(p)
    assert fp.nvars == 3
    value, z, _ = solve_extensive(fp)
    assert value == pytest.approx(1.0, abs=1e-10)


def _solved(fp):
    """outcome(solve_extensive, fp), and whether its flat solve fell back to
    the eigendecomposition."""
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        got = outcome(solve_extensive, fp)
    return got, eigh.called


def _linear_term(fp):
    g = np.zeros(fp.nvars)
    for term in fp.terms:
        fn = term.fn if term.M is None else term.fn.precompose(term.M, term.t)
        np.add.at(g, term.idx, term.weight * fn.q)
    return g


def _matches_pinv_reference(fp, ref):
    """solve_extensive(fp) against ref, the pinv solve: the same error type,
    value within 1e-12 (1 + |v|), point within 1e-10 (1 + |z|_inf) and a
    KKT residual of at most 1e-10 (1 + |g|).  Returns whether the solve
    fell back to the eigendecomposition."""
    ((got, err), fallback), (want, ref_err) = _solved(fp), outcome(ref, fp)
    assert type(err) is type(ref_err)
    if ref_err is None:
        assert abs(got[0] - want[0]) <= 1e-12 * (1.0 + abs(want[0]))
        assert np.max(np.abs(got[1] - want[1]), initial=0.0) <= \
            1e-10 * (1.0 + np.max(np.abs(want[1]), initial=0.0))
        assert got[2]["kkt_residual"] <= 1e-10 * (1.0 + np.linalg.norm(_linear_term(fp)))
    return fallback


def test_rowless_quadratic_program_matches_the_pinv_reference():
    # with no equality rows a positive definite H takes one Cholesky-gated
    # solve, within the contract's tolerances of the pinv reference; the
    # rank-deficient seeds fall back to the eigendecomposition, within the
    # same tolerances, and a program unbounded below raises as it did
    fallbacks = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 5))
        tree = random_tree(rng, T, 3)
        dims = [int(rng.integers(0, 4)) for _ in range(T + 1)]
        costs = {}
        for t in range(T + 1):
            d = (dims[t - 1] if t else 0) + dims[t]
            for nid in tree.stage_nodes[t]:
                L = rng.standard_normal((d, max(d - (seed % 3 == 0), 0)))
                q = L @ rng.standard_normal(L.shape[1]) if seed % 6 else rng.standard_normal(d)
                costs[nid] = Quadratic(L @ L.T, q, float(rng.standard_normal()))
        fp = build_flat(StageProblem(tree, dims, node_costs=costs))
        if fp.nvars:
            fallbacks += _matches_pinv_reference(fp, ref_solve_quadratic)
    assert 0 < fallbacks < 40


def test_rowful_flat_program_matches_the_pinv_reference():
    # on programs with equality rows, tail terms and precomposed (M) terms
    # among them, the reduced Hessian Z'HZ takes the same gate: value, point
    # and residual within the contract's tolerances of the term-by-term pinv
    # reference, and an infeasible or unbounded program raises as it did
    for seed in range(40):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 4))
        tree = random_tree(rng, T, 3)
        dims = [int(rng.integers(1, 4)) for _ in range(T + 1)]
        kind = ("rows", "split", "empty", "flat")[seed % 4]
        costs = {nid: random_stage_cost(rng, dims[t - 1] if t else 0, dims[t], kind)
                 for t in range(T + 1) for nid in tree.stage_nodes[t]}
        problem = StageProblem(tree, dims, node_costs=costs)
        sol, _ = outcome(solve_be, problem)
        t = int(rng.integers(0, T))
        tails = None if sol is None else {nid: sol.records[nid]["tail"]
                                          for nid in tree.stage_nodes[t]}
        fp = build_flat(problem, upto=None if tails is None else t, tails=tails)
        for nid in rng.choice(list(fp.blocks), size=3):
            off, w = fp.blocks[nid]
            k = int(rng.integers(1, 4))
            fp.terms.insert(int(rng.integers(0, len(fp.terms) + 1)), Term(
                rng.random(), random_stage_cost(rng, 0, k, "rows"), range(off, off + w),
                rng.standard_normal((k, w)), rng.standard_normal(k)))
        _matches_pinv_reference(fp, ref_flat_kkt)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-14.0, -6.0), inside=st.booleans())
def test_near_singular_program_keeps_the_pinv_verdict(seed, exponent, inside):
    # H = V diag(lam) V' has its smallest eigenvalues at 1e-14 ... 1e-6 of
    # the largest, and the gradient lies in its range or has a part along
    # the smallest eigenvector.  Where the gradient lies in the range, any
    # answer is the exact optimum of the stored program (rational
    # arithmetic) within the rounding of evaluating the objective there,
    # and so is pinv's when pinv answers; pinv's residual test can fail on
    # such a program, whose exact optimum is then finite.  Elsewhere a
    # solve that falls back to the eigendecomposition gives pinv's verdict
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, n))
    lam = np.concatenate([[1.0], rng.uniform(1e-2, 1.0, n - 1 - k),
                          10.0 ** exponent * rng.uniform(1.0, 3.0, k)])
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    H = (V * lam) @ V.T
    q = H @ rng.standard_normal(n) + (0.0 if inside else rng.uniform(0.1, 1.0) * V[:, -1])
    fn = Quadratic(H, q, float(rng.standard_normal()), check_psd=False)
    fp = FlatProgram(n, [Term(1.0, fn, range(n))])
    ((got, err), fallback), (want, ref_err) = _solved(fp), outcome(ref_solve_quadratic, fp)
    if fallback and not inside:
        assert type(err) is type(ref_err)
        return
    assert err is None
    exact = exact_quadratic_min(fn.Q, fn.q, fn.c)
    assert exact is not None
    z = exact[1]
    tol = 1e-12 * (1.0 + abs(fn.c) + np.linalg.norm(fn.Q, 2) * (z @ z)
                   + np.linalg.norm(fn.q) * np.linalg.norm(z))
    assert abs(got[0] - exact[0]) <= tol
    if ref_err is None:
        assert abs(got[0] - want[0]) <= tol
    else:
        assert isinstance(ref_err, Unbounded)


def test_ill_conditioned_fallback_is_never_unbounded():
    # positive definite Hessians with smallest eigenvalues at 10^U(-14, -6)
    # of the largest and the gradient H w in the range: an explicit
    # pseudo-inverse product rounds by eps |pinv(H)| |g|, and raised
    # Unbounded on 126 of these 300 bounded programs; the eigendecomposition
    # applied to the gradient answers on every one, two thirds of them in
    # the fallback
    fallbacks = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        lam = np.concatenate([[1.0], rng.uniform(1e-2, 1.0, n - 1 - k),
                              10.0 ** rng.uniform(-14.0, -6.0, k)])
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        H = (V * lam) @ V.T
        fn = Quadratic(H, H @ rng.standard_normal(n), check_psd=False)
        (got, err), fallback = _solved(FlatProgram(n, [Term(1.0, fn, range(n))]))
        assert err is None
        fallbacks += fallback
    assert fallbacks >= 100


def test_positive_definite_program_makes_no_eigendecomposition(monkeypatch):
    # every head problem of a strictly convex instance is positive definite:
    # optimum_value factors it and solves once, with no eigh, eigvalsh, svd
    # or pinv; a singular Hessian still reaches one eigh
    calls = dict.fromkeys(("eigh", "eigvalsh", "svd", "pinv"), 0)
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(np.linalg._linalg, name, counted)
    sp = quadratic_lagrange_instance(1, T=4).as_stage_problem()
    sol = solve_be(sp)
    calls.update(dict.fromkeys(calls, 0))
    values = [optimum_value(sol, t) for t in range(sp.tree.T + 1)]
    assert calls == dict.fromkeys(calls, 0)
    assert values == pytest.approx([sol.value] * len(values), rel=1e-10)
    fp = FlatProgram(2, [Term(1.0, Quadratic(np.diag([2.0, 0.0]), [-2.0, 0.0]), [0, 1])])
    value, z, _ = solve_extensive(fp)
    assert (calls["pinv"], calls["eigh"]) == (0, 1)
    assert value == -1.0 and z.tolist() == [1.0, 0.0]
