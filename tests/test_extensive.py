import numpy as np
import pytest

from stochbellman.bellman import StageProblem, solve_be
from stochbellman.convexfn import Polyhedral, Quadratic, Sampled1D
from stochbellman.errors import Infeasible, Unbounded
from stochbellman.extensive import FlatProgram, Term, flatten, solve_extensive
from stochbellman.generators import (quadratic_lagrange_instance, random_tree,
                                     tracking_stage_problem)
from stochbellman.tree import validate_tree

from helpers import (binary_tree, outcome, random_stage_cost, ref_flat_kkt,
                     ref_solve_quadratic, same_bits)


def test_flatten_one_node_tree():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    f = Quadratic([[2.0]], [-2.0], 1.0)
    p = StageProblem(tree, [1], "stage_additive", node_costs={"r": f})
    fp = flatten(p)
    assert fp.nvars == 1
    assert fp.eval([3.0]) == pytest.approx(f.eval([3.0]))


def test_flatten_binary_tracking_counts_variables():
    p = tracking_stage_problem()
    fp = flatten(p)
    assert fp.nvars == 1  # root decision is scalar, leaf decisions are empty
    value, z, _ = solve_extensive(fp)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert z[0] == pytest.approx(1.0, abs=1e-8)


def test_flat_eval_matches_tree_eval_at_adapted_points(rng):
    inst = quadratic_lagrange_instance(3, T=2, d=2)
    sp = inst.as_stage_problem()
    fp = flatten(sp)
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
        fp = flatten(inst.as_stage_problem())
        value, z, info = solve_extensive(fp)
        assert info["kkt_residual"] <= 1e-10


def test_quadratic_unbounded():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    p = StageProblem(tree, [1], "stage_additive",
                     node_costs={"r": Quadratic([[0.0]], [1.0])})
    with pytest.raises(Unbounded):
        solve_extensive(flatten(p))


def test_quadratic_infeasible():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    f = Quadratic([[2.0]], [0.0], 0.0, [[1.0], [1.0]], [0.0, 1.0])
    p = StageProblem(tree, [1], "stage_additive", node_costs={"r": f})
    with pytest.raises(Infeasible):
        solve_extensive(flatten(p))


def test_single_node_lp():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    f = Polyhedral([[1.0]], [0.0], [[-1.0]], [-2.0])  # min x s.t. x >= 2
    p = StageProblem(tree, [1], "stage_additive", node_costs={"r": f})
    value, z, _ = solve_extensive(flatten(p))
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
    p = StageProblem(tree, [1, 1], "stage_additive", node_costs=costs)
    value, z, _ = solve_extensive(flatten(p))
    # |x0| + .5 x_a + .5 * 2 x_b with x_a >= 1, x_b >= 2 -> 0 + .5 + 2
    assert value == pytest.approx(2.5, abs=1e-9)


def test_flatten_tracking_with_leaf_decisions_counts_three():
    # per-stage unit dimensions put one variable on every node; the leaf
    # decisions are cost-free and land on zero through the min-norm rule
    tree = tracking_stage_problem().tree
    costs = {"r": Quadratic(np.zeros((1, 1)), np.zeros(1)),
             "a": Quadratic([[2.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 0.0),
             "b": Quadratic([[2.0, 0.0], [0.0, 0.0]], [-4.0, 0.0], 4.0)}
    p = StageProblem(tree, [1, 1], "stage_additive", node_costs=costs)
    fp = flatten(p)
    assert fp.nvars == 3
    value, z, _ = solve_extensive(fp)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_rowless_quadratic_program_keeps_the_bits_of_the_identity_basis():
    # with no equality rows the KKT solve takes H and g as they are: value,
    # point and residual have the bits of the frozen Z = I path, and a
    # program unbounded below raises as it did
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
        fp = flatten(StageProblem(tree, dims, node_costs=costs))
        if not fp.nvars:
            continue
        (got, err), (want, ref_err) = outcome(solve_extensive, fp), outcome(ref_solve_quadratic, fp)
        assert type(err) is type(ref_err)
        if ref_err is None:
            assert same_bits(np.float64(got[0]), np.float64(want[0]))
            assert same_bits(got[1], want[1]) and got[2] == want[2]


def test_rowful_flat_program_keeps_the_bits_of_the_term_by_term_assembly():
    # H and g are assembled by one np.add.at per run of terms of one width:
    # on programs with equality rows, tail terms and precomposed (M) terms
    # among them, value, point and residual keep the bits of a term-by-term
    # loop, and an infeasible or unbounded program raises as it did
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
        fp = flatten(problem, upto=None if tails is None else t, tails=tails)
        for nid in rng.choice(list(fp.blocks), size=3):
            off, w = fp.blocks[nid]
            k = int(rng.integers(1, 4))
            fp.terms.insert(int(rng.integers(0, len(fp.terms) + 1)), Term(
                rng.random(), random_stage_cost(rng, 0, k, "rows"), range(off, off + w),
                rng.standard_normal((k, w)), rng.standard_normal(k)))
        (got, err), (want, ref_err) = outcome(solve_extensive, fp), outcome(ref_flat_kkt, fp)
        assert type(err) is type(ref_err)
        if ref_err is None:
            assert same_bits(np.float64(got[0]), np.float64(want[0]))
            assert same_bits(got[1], want[1]) and got[2] == want[2]
