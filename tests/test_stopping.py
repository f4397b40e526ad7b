import pytest

from stochbellman.errors import NotMarkov, TreeTooLarge
from stochbellman.generators import (markov_reward_tree,
                                     path_dependent_reward_tree, reward_tree)
from stochbellman.stopping import (StoppingTime, continuation_value,
                                   count_stopping_times,
                                   enumerate_stopping_times, extreme_policy,
                                   is_optimal_rule, markov_check, optimal_stop,
                                   ros_as_bellman, ros_value_fn_probe, snell)
from stochbellman.tree import AdaptedProcess, validate_tree

from helpers import binary_tree, chain_tree, two_stage_binary


def small_instance():
    tree = binary_tree()
    R = AdaptedProcess(tree, {"r": 1.0, "a": 0.0, "b": 3.0})
    return tree, R


def test_snell_constant_positive_reward():
    tree = two_stage_binary()
    R = AdaptedProcess(tree, {nid: 2.5 for nid in tree.nodes})
    S = snell(R)
    assert all(S[nid] == pytest.approx(2.5, abs=1e-14) for nid in tree.nodes)
    st, val = optimal_stop(R, S)
    assert st.stop_nodes == frozenset({"r"})
    assert val == pytest.approx(2.5, abs=1e-14)


def test_snell_nonpositive_reward_never_stops():
    tree = two_stage_binary()
    vals = {"r": -1.0, "u": -0.5, "d": -2.0, "uu": -0.1, "ud": -3.0,
            "du": -0.2, "dd": -1.0}
    R = AdaptedProcess(tree, vals)
    S = snell(R)
    assert all(S[nid] == 0.0 for nid in tree.nodes)
    st, val = optimal_stop(R, S)
    assert st.stop_nodes == frozenset()
    assert val == 0.0
    assert all(t == tree.T + 1 for t in st.tau().values())


def test_snell_two_stage_hand_instance():
    tree, R = small_instance()
    S = snell(R)
    assert S["a"] == 0.0 and S["b"] == 3.0
    assert S["r"] == pytest.approx(1.5, abs=1e-14)
    st, val = optimal_stop(R, S)
    assert "b" in st.stop_nodes and "r" not in st.stop_nodes
    assert val == pytest.approx(1.5, abs=1e-14)
    assert is_optimal_rule(st, R, S)


def test_reward_equals_envelope_at_stop_nodes_exactly():
    for seed in range(8):
        tree, R = reward_tree(seed)
        S = snell(R)
        st, _ = optimal_stop(R, S)
        for nid in st.stop_nodes:
            assert S[nid] == float(R[nid])  # exact: max returns its argument


def test_optimality_membership_rejects_greedy_violation():
    tree, R = small_instance()
    S = snell(R)
    st = StoppingTime(tree, {"r"})  # stopping at 1 forfeits the 1.5
    assert not is_optimal_rule(st, R, S)


def test_enumeration_counts():
    tree0 = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    assert len(list(enumerate_stopping_times(tree0))) == 2
    tree1 = binary_tree()
    rules = list(enumerate_stopping_times(tree1))
    assert len(rules) == 5 == count_stopping_times(tree1)
    assert len({r.stop_nodes for r in rules}) == 5


def test_enumeration_count_formula_on_chains():
    # product rule: N(leaf) = 2, N(node) = 1 + prod N(children)
    for T in range(0, 5):
        tree = chain_tree(T)
        expected = T + 2
        assert count_stopping_times(tree) == expected
        assert len(list(enumerate_stopping_times(tree))) == expected


def test_enumeration_caps():
    deep = chain_tree(70)
    with pytest.raises(TreeTooLarge):
        list(enumerate_stopping_times(deep))
    small = two_stage_binary()
    with pytest.raises(TreeTooLarge):
        list(enumerate_stopping_times(small, rule_cap=3))


def test_enumeration_max_matches_snell():
    for seed in range(6):
        tree, R = reward_tree(seed)
        S = snell(R)
        best = max(r.value(R) for r in enumerate_stopping_times(tree))
        assert best == pytest.approx(S[tree.root], abs=1e-12)


def test_ros_matches_snell_value():
    cases = [reward_tree(seed, T=3) for seed in (0, 1, 2)]
    cases += [markov_reward_tree(3, T=7), markov_reward_tree(3, T=9)]
    for tree, R in cases:
        sol, val = ros_as_bellman(R)
        S = snell(R)
        assert val == pytest.approx(S[tree.root], abs=1e-10)


def test_ros_value_fn_closed_form_probes():
    tree, R = small_instance()
    S = snell(R)
    sol, _ = ros_as_bellman(R)
    rec, closed = ros_value_fn_probe(sol, R, S, "r", [0.25])
    assert rec == pytest.approx(closed, abs=1e-10)
    for leaf, hist in (("a", [0.2, 0.3]), ("b", [0.0, 1.0])):
        rec, closed = ros_value_fn_probe(sol, R, S, leaf, hist)
        assert rec == pytest.approx(closed, abs=1e-10)
    # outside the simplex both sides are infinite
    rec, closed = ros_value_fn_probe(sol, R, S, "a", [0.8, 0.9])
    assert rec == closed == float("inf")


def test_extreme_policy_is_zero_one_and_optimal():
    tree, R = small_instance()
    alloc, st = extreme_policy(R)
    assert set(alloc.values()) <= {0.0, 1.0}
    assert st.value(R) == pytest.approx(1.5, abs=1e-14)
    # nonpositive rewards: all-zero allocation among extreme points
    R2 = AdaptedProcess(tree, {"r": -1.0, "a": -2.0, "b": -0.5})
    alloc2, st2 = extreme_policy(R2)
    assert all(v == 0.0 for v in alloc2.values())


def test_supermartingale_domination_and_minimality(rng):
    for seed in range(6):
        tree, R = reward_tree(seed)
        S = snell(R)
        for nid in tree.nodes:
            cont = continuation_value(R, S, nid)
            assert S[nid] >= cont - 1e-12              # supermartingale
            assert S[nid] >= max(float(R[nid]), 0.0) - 1e-12  # dominates R+
            # the recursion itself, bit for bit: optimal_stop's `>=` test
            # relies on snell and continuation_value summing in one order
            if tree.children[nid]:
                assert S[nid] == max(float(R[nid]), cont)
            else:
                assert S[nid] == max(float(R[nid]), 0.0)
        # randomized candidate repaired to a supermartingale dominating R+
        cand = {}
        for t in range(tree.T, -1, -1):
            for nid in tree.stage_nodes[t]:
                kids = tree.children[nid]
                cont = sum(float(tree.nodes[k].prob) * cand[k] for k in kids)
                cand[nid] = max(float(R[nid]), 0.0, cont) + float(rng.uniform(0, 1))
        for nid in tree.nodes:
            assert cand[nid] >= S[nid] - 1e-12         # minimality


def test_markov_check_tables():
    tree, R = markov_reward_tree(4, T=3, branching=2)
    tables = markov_check(R)
    S = snell(R)
    assert len(tables) == tree.T + 1
    for t, tab in enumerate(tables):
        values = {round(float(R[nid]) / 1e-12) * 1e-12 for nid in tree.stage_nodes[t]}
        assert set(tab) == values
    # recombining walks revisit values, so at least one table is smaller
    # than its stage's node count
    assert any(len(tables[t]) < len(tree.stage_nodes[t]) for t in range(tree.T + 1))


def test_markov_check_rejects_path_dependent():
    tree, R = path_dependent_reward_tree()
    with pytest.raises(NotMarkov):
        markov_check(R)


def test_three_way_agreement_small():
    for seed in range(5):
        tree, R = reward_tree(seed, T=3)
        S = snell(R)
        snell_val = S[tree.root]
        _, ros_val = ros_as_bellman(R)
        enum_val = max(r.value(R) for r in enumerate_stopping_times(tree))
        assert ros_val == pytest.approx(snell_val, abs=1e-10)
        assert enum_val == pytest.approx(snell_val, abs=1e-10)


def test_ros_closed_form_at_interior_stages(rng):
    tree, R = reward_tree(2, T=3)
    S = snell(R)
    sol, _ = ros_as_bellman(R)
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            # random point in the simplex interior of histories x_0..x_t
            raw = rng.uniform(0.0, 1.0, size=t + 1)
            hist = raw / (raw.sum() + 1.0)
            rec, closed = ros_value_fn_probe(sol, R, S, nid, hist)
            assert rec == pytest.approx(closed, abs=1e-10)


def test_relaxation_value_invariance_across_stages():
    from stochbellman.bellman import optimum_value
    tree, R = reward_tree(7, T=3)
    sol, val = ros_as_bellman(R)
    vals = [optimum_value(sol, t) for t in range(tree.T + 1)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-10)
    assert -vals[0] == pytest.approx(val, abs=1e-10)


def test_a_chain_deeper_than_the_recursion_limit():
    # 1,500 stages, past the interpreter's default recursion limit of 1,000:
    # path probabilities, the rule count and the optimality test run a stage
    # at a time, and the leaf's path probability is read before any other
    T = 1500
    tree = chain_tree(T)
    assert tree.prob(f"n{T}") == 1.0
    assert count_stopping_times(tree) == T + 2
    # an all-negative reward: the optimal rule never stops
    R = AdaptedProcess(tree, {nid: -1.0 - tree.stage(nid) for nid in tree.nodes})
    st, value = optimal_stop(R)
    assert st.stop_nodes == frozenset() and value == 0.0
    assert is_optimal_rule(st, R)
