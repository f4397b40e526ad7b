from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochbellman.errors import (NotMarkov, OrphanNode, ProbabilityMass,
                                 StageGap, StageOrder, ValidationError)
from stochbellman.generators import random_tree
from stochbellman.tree import (AdaptedProcess, PerpProcess, cond_expect_scalar,
                               expected_pairing, is_markov,
                               markov_witness, martingale_increments,
                               perp_check, validate_tree)

from helpers import binary_tree, chain_tree, two_stage_binary

TOL = 1e-12


def test_minimal_binary_tree_valid():
    tree = binary_tree()
    assert tree.T == 1
    assert tree.prob("a") == 0.5
    assert set(tree.leaves()) == {"a", "b"}


def test_probability_mass_violation():
    with pytest.raises(ProbabilityMass):
        validate_tree([
            {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
            {"id": "a", "parent": "r", "prob": 0.5, "stage": 1},
            {"id": "b", "parent": "r", "prob": 0.6, "stage": 1},
        ])


def test_stage_gap():
    with pytest.raises(StageGap):
        validate_tree([
            {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
            {"id": "a", "parent": "r", "prob": 1.0, "stage": 1},
            {"id": "b", "parent": "a", "prob": 1.0, "stage": 3},
        ])


def test_orphan_node():
    with pytest.raises(OrphanNode):
        validate_tree([
            {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
            {"id": "a", "parent": "ghost", "prob": 1.0, "stage": 1},
        ])


def test_leaf_must_sit_at_horizon():
    with pytest.raises(StageGap):
        validate_tree([
            {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
            {"id": "a", "parent": "r", "prob": 0.5, "stage": 1},
            {"id": "b", "parent": "r", "prob": 0.5, "stage": 1},
            {"id": "aa", "parent": "a", "prob": 1.0, "stage": 2},
        ])


def test_cond_expect_weighted_average():
    tree = binary_tree()
    p = AdaptedProcess(tree, {"a": 2.0, "b": 4.0})
    assert cond_expect_scalar(p, 0)["r"] == pytest.approx(3.0, abs=TOL)


def test_cond_expect_chain_identity():
    tree = chain_tree(3)
    p = AdaptedProcess(tree, {"n3": 7.5})
    for t in range(3):
        assert cond_expect_scalar(p, t)[f"n{t}"] == pytest.approx(7.5, abs=TOL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(T=st.integers(0, 4), exact=st.booleans(), dim=st.sampled_from([None, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_cond_expect_leaf_summation_oracle(T, exact, dim, seed):
    # expect chained from the leaves to stage t equals, at every stage-t
    # node n, the direct sum over the leaves below n of prob(leaf)/prob(n)
    # times the leaf value, on uneven trees in shuffled node order with
    # float or exact Fraction probabilities, and scalar (dim None) or
    # vector values
    rng = np.random.default_rng(seed)
    base = random_tree(rng, T, 3)  # 1 to 3 children per node
    recs = [{"id": n.id, "parent": n.parent, "stage": n.stage,
             "prob": (Fraction(1, len(base.children[n.parent])) if n.parent else Fraction(1))
             if exact else n.prob} for n in base.nodes.values()]
    tree = validate_tree([recs[i] for i in rng.permutation(len(recs))], exact=exact)
    leaves = tree.stage_nodes[T]
    draws = rng.integers(-9, 10, size=(len(leaves),) + ((dim,) if dim else ()))
    if exact:
        vals = np.array([Fraction(int(k), 7) for k in draws.ravel()],
                        dtype=object).reshape(draws.shape)
    else:
        vals = draws / 7.0
    level = vals
    for t in range(T, -1, -1):
        if t < T:
            level = tree.expect(t, level)
        assert level.shape == (len(tree.stage_nodes[t]),) + vals.shape[1:]
        for i, nid in enumerate(tree.stage_nodes[t]):
            oracle = sum(tree.prob(leaf) / tree.prob(nid) * vals[j]
                         for j, leaf in enumerate(leaves) if tree.path(leaf)[t] == nid)
            if exact:
                assert np.all(level[i] == oracle)
            else:
                assert np.allclose(level[i], oracle, rtol=0.0, atol=1e-12)


def test_stage_order_error():
    tree = binary_tree()
    p = AdaptedProcess(tree, {"r": 1.0})
    with pytest.raises(StageOrder):
        cond_expect_scalar(p, 1, source_stage=0)
    with pytest.raises(StageOrder):
        cond_expect_scalar(AdaptedProcess(tree, {"a": 2.0, "b": 4.0}), -1)


def test_perp_entries_must_be_well_formed():
    tree = binary_tree()
    with pytest.raises(ValidationError, match="perp entry 0 .* node 'b'"):
        PerpProcess(tree, {0: (1, {"a": [1.0], "b": [-1.0, -1.0]})})
    with pytest.raises(ValidationError, match="perp entry -1"):
        PerpProcess(tree, {-1: (0, {"r": [1.0]})})


def test_tower_property_exact_fractions():
    tree = validate_tree([
        {"id": "r", "parent": None, "prob": Fraction(1), "stage": 0},
        {"id": "u", "parent": "r", "prob": Fraction(1, 3), "stage": 1},
        {"id": "d", "parent": "r", "prob": Fraction(2, 3), "stage": 1},
        {"id": "uu", "parent": "u", "prob": Fraction(1, 7), "stage": 2},
        {"id": "ud", "parent": "u", "prob": Fraction(6, 7), "stage": 2},
        {"id": "du", "parent": "d", "prob": Fraction(2, 5), "stage": 2},
        {"id": "dd", "parent": "d", "prob": Fraction(3, 5), "stage": 2},
    ], exact=True)
    p = AdaptedProcess(tree, {"uu": Fraction(3, 2), "ud": Fraction(-1, 4),
                              "du": Fraction(5, 9), "dd": Fraction(7, 11)})
    via_mid = cond_expect_scalar(cond_expect_scalar(p, 1), 0)
    direct = cond_expect_scalar(p, 0)
    assert via_mid["r"] == direct["r"]  # exact Fraction equality


def test_tower_property_floats(rng):
    tree = two_stage_binary(((0.3, 0.7), (0.4, 0.6), (0.25, 0.75)))
    vals = {nid: float(rng.standard_normal()) for nid in tree.stage_nodes[2]}
    p = AdaptedProcess(tree, vals)
    via_mid = cond_expect_scalar(cond_expect_scalar(p, 1), 0)["r"]
    assert via_mid == pytest.approx(cond_expect_scalar(p, 0)["r"], abs=TOL)


def test_perp_martingale_increments():
    tree = binary_tree()
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([0.5]),
                              "b": np.array([1.5])})
    assert perp_check(martingale_increments(s))


def test_perp_zero_and_constant():
    tree = binary_tree()
    zero = PerpProcess.zero(tree, 1)
    assert perp_check(zero)
    const = AdaptedProcess(tree, {"r": np.array([1.0])})
    assert not perp_check(const)


def test_perp_drifting_price():
    tree = binary_tree()
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([1.5]),
                              "b": np.array([2.5])})
    assert not perp_check(martingale_increments(s))


def test_constant_price_zero_increments():
    tree = binary_tree()
    s = AdaptedProcess(tree, {nid: np.array([2.0]) for nid in tree.nodes})
    v = martingale_increments(s)
    for t, (stage, per) in v.entries.items():
        for vec in per.values():
            assert np.all(vec == 0.0)


def martingale_price(tree, rng, start=1.0):
    """Random martingale built top-down: each branch layer has zero mean."""
    vals = {tree.root: np.array([start])}
    for t in range(tree.T):
        for nid in tree.stage_nodes[t]:
            kids = tree.children[nid]
            pi = np.array([float(tree.nodes[k].prob) for k in kids])
            jumps = rng.uniform(-0.5, 0.5, size=len(kids))
            jumps -= pi @ jumps  # exact zero conditional mean up to rounding
            for k, j in zip(kids, jumps):
                vals[k] = vals[nid] + np.array([j])
    return AdaptedProcess(tree, vals)


def test_perp_lemma_pairing(rng):
    # adapted x against martingale increments: E[x.v] = 0
    for _ in range(40):
        tree = two_stage_binary(((0.3, 0.7), (0.8, 0.2), (0.45, 0.55)))
        s = martingale_price(tree, rng)
        v = martingale_increments(s)
        assert perp_check(v)
        x = {nid: rng.standard_normal(1) for nid in tree.nodes}
        assert abs(expected_pairing(tree, x, v)) <= 1e-10


def test_is_markov_iid_rewards():
    tree = two_stage_binary()
    # same branch values at every stage-1 node: independent increments
    R = AdaptedProcess(tree, {"r": 0.0, "u": 1.0, "d": 1.0,
                              "uu": 5.0, "ud": -5.0, "du": 5.0, "dd": -5.0})
    assert is_markov(R)


def test_is_markov_recombining_walk():
    tree = two_stage_binary()
    R = AdaptedProcess(tree, {"r": 0.0, "u": 1.0, "d": -1.0,
                              "uu": 2.0, "ud": 0.0, "du": 0.0, "dd": -2.0})
    assert is_markov(R)


def test_is_markov_path_dependent_violation():
    tree = two_stage_binary()
    R = AdaptedProcess(tree, {"r": 0.0, "u": 1.0, "d": 1.0,
                              "uu": 2.0, "ud": 0.0, "du": 9.0, "dd": -9.0})
    assert not is_markov(R)
    assert set(markov_witness(R)) == {"u", "d"}
    with pytest.raises(NotMarkov):
        markov_witness(AdaptedProcess(tree, {nid: 0.0 for nid in tree.nodes}))


def test_conditional_independence_on_product_tree():
    # product structure: stage-2 increment law does not depend on the
    # stage-1 branch, so conditioning on the coarse partition (pooling the
    # two stage-1 nodes) reproduces the stage-1 conditional expectations
    tree = two_stage_binary(((0.4, 0.6), (0.3, 0.7), (0.3, 0.7)))
    w = {"uu": 2.0, "ud": -1.0, "du": 2.0, "dd": -1.0}
    p = AdaptedProcess(tree, w)
    down = cond_expect_scalar(p, 1)
    assert down["u"] == pytest.approx(down["d"], abs=TOL)
    pooled = 0.3 * 2.0 + 0.7 * (-1.0)
    assert down["u"] == pytest.approx(pooled, abs=TOL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(T=st.integers(0, 4), exact=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stage_map_agrees_with_the_children_lists(T, exact, seed):
    # uneven trees in shuffled node order, float or exact Fraction
    # probabilities: the parent position, slot and branch probability of
    # every child at stage t >= 1 read back its children list and its node,
    # and a stage lists each parent's children in slot order
    rng = np.random.default_rng(seed)
    base = random_tree(rng, T, 3)  # 1 to 3 children per node
    recs = [{"id": n.id, "parent": n.parent, "stage": n.stage,
             "prob": (Fraction(1, len(base.children[n.parent])) if n.parent else Fraction(1))
             if exact else n.prob} for n in base.nodes.values()]
    tree = validate_tree([recs[i] for i in rng.permutation(len(recs))], exact=exact)
    assert len(tree.up) == len(tree.slot) == len(tree.branch) == T + 1
    assert tree.up[0] is None and tree.slot[0] is None and tree.branch[0] is None
    for t in range(1, T + 1):
        layer, parents = tree.stage_nodes[t], tree.stage_nodes[t - 1]
        up, slot, branch = tree.up[t], tree.slot[t], tree.branch[t]
        assert up.shape == slot.shape == branch.shape == (len(layer),)
        assert branch.dtype == np.float64
        for j, k in enumerate(layer):
            assert tree.children[parents[up[j]]][slot[j]] == k
            assert branch[j] == float(tree.nodes[k].prob)
        for i, u in enumerate(parents):
            assert [layer[j] for j in np.flatnonzero(up == i)] == tree.children[u]
            assert slot[up == i].tolist() == list(range(len(tree.children[u])))


def test_expect_and_snell_sum_children_in_child_order():
    # 3 and 4 children per node and values of mixed magnitude, so that most
    # parents' float sums change when their children are summed in reverse:
    # expect and snell are the in-order left fold, bit for bit
    from stochbellman.stopping import snell
    rng = np.random.default_rng(7)
    tree = random_tree(rng, 4, branching=4, min_branch=3)  # 67 parents
    sign = lambda n: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-1, 1, n)
    reordered = 0
    for t in range(tree.T):
        V = sign(len(tree.stage_nodes[t + 1]))
        v = dict(zip(tree.stage_nodes[t + 1], V))
        got = tree.expect(t, V)
        for nid, g in zip(tree.stage_nodes[t], got.tolist()):
            terms = [float(tree.nodes[k].prob) * v[k] for k in tree.children[nid]]
            fold = back = 0.0
            for a, b in zip(terms, terms[::-1]):
                fold, back = fold + a, back + b
            assert g == fold and np.signbit(g) == np.signbit(fold)
            reordered += back != fold
    assert reordered >= 20
    R = AdaptedProcess(tree, dict(zip(tree.nodes, sign(len(tree.nodes)))))
    S = snell(R)
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            cont = 0.0
            for k in tree.children[nid]:
                cont = cont + float(tree.nodes[k].prob) * S[k]
            assert S[nid] == max(float(R[nid]), cont)
