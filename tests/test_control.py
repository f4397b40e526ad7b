import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochbellman import bellman, control, convexfn
from stochbellman.bellman import (Policy, build_flat, extract_policy, solve_be,
                                  verify_optimality)
from stochbellman.control import (ControlSystem, as_stage_problem,
                                  extract_oc_policy, independence_reduction,
                                  lq_costs, q_factors, riccati, riccati_policy,
                                  solve_oc, verify_oc_policy)
from stochbellman.convexfn import Inf, Polyhedral, Quadratic, Sampled1D
from stochbellman.errors import (BackendClash, DimensionMismatch, SingularRiccati,
                                 UnboundedBelow, ValidationError)
from stochbellman.extensive import solve_extensive
from stochbellman.generators import binomial_market, lq_instance, random_tree
from stochbellman.hedging import solve_alm
from stochbellman.tree import StageMap, validate_tree

from helpers import (binary_tree, chain_tree, outcome, random_stage_cost,
                     ref_extract_oc_policy, ref_riccati, ref_riccati_policy,
                     ref_solve_be, ref_solve_oc, ref_verify_oc_policy, same_bits, same_fn,
                     same_outcome, shuffled)


def hand_system():
    tree = chain_tree(1)
    sys_ = ControlSystem(tree, 1, 1, A={"n1": [[0.0]]}, B={"n1": [[1.0]]},
                         W={"n1": [0.0]})
    Qm = {"n0": [[1.0]], "n1": [[1.0]]}
    Rm = {"n0": [[1.0]], "n1": [[1.0]]}
    return sys_, Qm, Rm


def test_zero_costs_zero_value_functions():
    sys_, _, _ = hand_system()
    zero = {nid: Quadratic(np.zeros((2, 2)), np.zeros(2)) for nid in sys_.tree.nodes}
    sol = solve_oc(sys_, zero)
    for x in (-1.0, 0.0, 2.0):
        assert sol.value(x) == pytest.approx(0.0, abs=1e-12)


def test_hand_lq_value_function():
    sys_, Qm, Rm = hand_system()
    sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
    for x in (-2.0, 1.0, 3.0):
        assert sol.value(x) == pytest.approx(0.75 * x * x, abs=1e-10)


def test_riccati_hand_instance():
    sys_, Qm, Rm = hand_system()
    rd = riccati(sys_, Qm, Rm)
    assert rd.K["n0"][0, 0] == pytest.approx(1.5, abs=1e-12)
    assert rd.Lam["n0"][0, 0] == pytest.approx(0.5, abs=1e-12)
    assert "halved" in rd.note


def test_riccati_zero_state_cost():
    sys_, _, _ = hand_system()
    Qm = {nid: [[0.0]] for nid in sys_.tree.nodes}
    Rm = {nid: [[1.0]] for nid in sys_.tree.nodes}
    rd = riccati(sys_, Qm, Rm)
    assert rd.K["n0"][0, 0] == pytest.approx(0.0, abs=1e-12)
    assert rd.Lam["n0"][0, 0] == pytest.approx(0.0, abs=1e-12)


def test_riccati_singular_guard():
    tree = chain_tree(1)
    sys_ = ControlSystem(tree, 1, 1, A={"n1": [[0.0]]}, B={"n1": [[0.0]]},
                         W={"n1": [0.0]})
    with pytest.raises(SingularRiccati) as exc:
        riccati(sys_, {"n0": [[1.0]], "n1": [[1.0]]},
                {"n0": [[0.0]], "n1": [[0.0]]})
    assert exc.value.node == "n0"


def test_q_factors_reproduce_value_functions():
    sys_, Qm, Rm = hand_system()
    sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
    qf = q_factors(sol)
    for nid in sys_.tree.nodes:
        for x in (-1.0, 0.5, 2.0):
            us = np.linspace(-6, 6, 4801)
            qmin = min(qf[nid].eval([x, u]) for u in us)
            assert qmin == pytest.approx(sol.records[nid]["J"].eval([x]), abs=1e-6)


def test_q_factor_argmin_is_policy():
    sys_, Qm, Rm = hand_system()
    sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
    X, U = extract_oc_policy(sys_, sol, [1.0])
    qf = q_factors(sol)
    for nid in sys_.tree.nodes:
        val = qf[nid].eval(np.concatenate([X[nid], U[nid]]))
        best = sol.records[nid]["J"].eval(X[nid])
        assert val == pytest.approx(best, abs=1e-10)


def test_three_way_value_agreement_seeded():
    for seed in range(6):
        sys_, Qm, Rm = lq_instance(seed, T=2, N=2, M=1)
        rd = riccati(sys_, Qm, Rm)
        sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
        x0 = np.array([0.4, -0.7])
        sp = as_stage_problem(sys_, lq_costs(sys_, Qm, Rm), x0=x0)
        ext, _, _ = solve_extensive(build_flat(sp))
        assert rd.value(sys_.tree, x0) == pytest.approx(sol.value(x0), abs=1e-8)
        assert rd.value(sys_.tree, x0) == pytest.approx(ext, abs=1e-8)


def test_feedback_policy_verifies_through_generic_engine():
    sys_, Qm, Rm = lq_instance(5, T=2, N=1, M=1)
    rd = riccati(sys_, Qm, Rm)
    X, U = riccati_policy(sys_, rd, [0.8])
    sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
    assert verify_oc_policy(sys_, sol, X, U)
    sp = as_stage_problem(sys_, lq_costs(sys_, Qm, Rm), x0=[0.8])
    sbe = solve_be(sp)
    fp = build_flat(sp)
    dec = {nid: np.concatenate([X[nid], U[nid]]) for nid in sys_.tree.nodes}
    pol = Policy(sp, dec, {}, fp.eval(fp.pack(dec)))
    assert verify_optimality(pol, sbe)
    assert pol.value == pytest.approx(sbe.value, abs=1e-8)


def test_riccati_psd_propagation():
    for seed in range(5):
        sys_, Qm, Rm = lq_instance(seed, T=3, N=2, M=2)
        rd = riccati(sys_, Qm, Rm)
        for nid, K in rd.K.items():
            assert np.min(np.linalg.eigvalsh(K)) >= -1e-10


def test_state_dimension_reduction_vs_general_mode():
    # a two-stage scalar system is small enough for the full-history mode:
    # the state-space policy must coincide with the generic-engine policy
    sys_, Qm, Rm = lq_instance(9, T=1, N=1, M=1, noisy=False)
    costs = lq_costs(sys_, Qm, Rm)
    sol = solve_oc(sys_, costs)
    x0 = np.array([1.3])
    X, U = extract_oc_policy(sys_, sol, x0)
    sp = as_stage_problem(sys_, costs, x0=x0)
    pol = None
    from stochbellman.bellman import extract_policy
    pol = extract_policy(solve_be(sp))
    for nid in sys_.tree.nodes:
        assert np.allclose(pol.decisions[nid], np.concatenate([X[nid], U[nid]]),
                           atol=1e-8)


def test_no_noise_no_cost_after_t_means_zero_tail():
    tree = chain_tree(2)
    sys_ = ControlSystem(tree, 1, 1,
                         A={"n1": [[0.2]], "n2": [[0.2]]},
                         B={"n1": [[1.0]], "n2": [[1.0]]},
                         W={"n1": [0.0], "n2": [0.0]})
    costs = {"n0": Quadratic(np.diag([1.0, 1.0]), np.zeros(2)),
             "n1": Quadratic(np.zeros((2, 2)), np.zeros(2)),
             "n2": Quadratic(np.zeros((2, 2)), np.zeros(2))}
    sol = solve_oc(sys_, costs)
    for nid in ("n1", "n2"):
        for x in (-1.0, 0.0, 2.0):
            assert sol.records[nid]["J"].eval([x]) == pytest.approx(0.0, abs=1e-12)


def test_independence_iid_shocks_deterministic_values():
    # both stage-1 nodes see the same continuation law: J is deterministic
    tree = binary_tree()
    sys_ = ControlSystem(tree, 1, 1, A={"a": [[0.0]], "b": [[0.0]]},
                         B={"a": [[1.0]], "b": [[1.0]]},
                         W={"a": [0.5], "b": [-0.5]})
    Qm = {nid: [[1.0]] for nid in tree.nodes}
    Rm = {nid: [[1.0]] for nid in tree.nodes}
    rep = independence_reduction(sys_, lq_costs(sys_, Qm, Rm))
    assert rep.ok
    assert rep.deterministic_stages == [0, 1]


def test_independence_witness_on_path_dependent_cost():
    tree = binary_tree()
    sys_ = ControlSystem(tree, 1, 1, A={"a": [[0.0]], "b": [[0.0]]},
                         B={"a": [[1.0]], "b": [[1.0]]},
                         W={"a": [0.0], "b": [0.0]})
    costs = {nid: Quadratic(np.diag([1.0, 1.0]), np.zeros(2)) for nid in tree.nodes}
    costs["a"] = Quadratic(np.diag([9.0, 1.0]), np.zeros(2))  # branch-dependent
    rep = independence_reduction(sys_, costs)
    assert not rep.ok
    stage, nodes, probe = rep.witnesses[0]
    assert stage == 1 and set(nodes) == {"a", "b"}


def test_independence_replicated_subtrees_cellwise_constant():
    # two subtrees with identical data: per-cell constancy of J
    tree = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "u", "parent": "r", "prob": 0.25, "stage": 1},
        {"id": "v", "parent": "r", "prob": 0.35, "stage": 1},
        {"id": "w", "parent": "r", "prob": 0.40, "stage": 1},
    ])
    sys_ = ControlSystem(tree, 1, 1,
                         A={k: [[0.0]] for k in ("u", "v", "w")},
                         B={k: [[1.0]] for k in ("u", "v", "w")},
                         W={"u": [0.3], "v": [0.3], "w": [-0.1]})
    Qm = {nid: [[1.0]] for nid in tree.nodes}
    Rm = {nid: [[1.0]] for nid in tree.nodes}
    rep = independence_reduction(sys_, lq_costs(sys_, Qm, Rm),
                                 partitions={1: [["u", "v"], ["w"]]})
    assert rep.ok


def test_q_factors_zero_costs():
    sys_, _, _ = hand_system()
    zero = {nid: Quadratic(np.zeros((2, 2)), np.zeros(2)) for nid in sys_.tree.nodes}
    qf = q_factors(solve_oc(sys_, zero))
    for fn in qf.values():
        for x in (-1.0, 0.0, 2.0):
            for u in (-1.0, 0.5):
                assert fn.eval([x, u]) == pytest.approx(0.0, abs=1e-12)


def test_polyhedral_control_driver():
    from stochbellman.convexfn import Polyhedral
    tree = chain_tree(1)
    sys_ = ControlSystem(tree, 1, 1, A={"n1": [[0.0]]}, B={"n1": [[1.0]]},
                         W={"n1": [0.0]})
    costs = {"n0": Polyhedral([[0.0, 1.0], [0.0, -1.0]], [0.0, 0.0]),  # |U|
             "n1": Polyhedral([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])}  # |X|
    sol = solve_oc(sys_, costs)
    # min over U of |U| + |X + U| collapses to |X|
    for x in (-2.0, -0.5, 0.0, 1.5):
        assert sol.value(x) == pytest.approx(abs(x), abs=1e-9)
    sp = as_stage_problem(sys_, costs, x0=[1.5])
    ext, _, _ = solve_extensive(build_flat(sp))
    assert ext == pytest.approx(1.5, abs=1e-9)


def test_lq_post_functions_carry_no_residue_rows():
    # minimizing out X_t leaves the step equation with rounding-size rows and
    # right-hand sides; the canonical form drops them instead of rescaling
    sys_, Qm, Rm = lq_instance(0, T=2, N=1, M=1)
    x0 = np.array([0.4])
    sol = solve_be(as_stage_problem(sys_, lq_costs(sys_, Qm, Rm), x0=x0))
    for rec in sol.records.values():
        assert rec["post"].A.shape[0] == 0
    assert abs(sol.value - riccati(sys_, Qm, Rm).value(sys_.tree, x0)) <= 1e-8


def _random_control(rng, kind, shuffle=False):
    T = 1 if kind == "poly" else int(rng.integers(1, 4))
    N, M = (1, 1) if kind == "poly" else (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    tree = random_tree(rng, T, 3)  # 1 to 3 children per node
    if shuffle:  # node order no longer stage order, siblings apart in their stage
        tree = shuffled(rng, tree)
    later = [nid for nid in tree.nodes if tree.stage(nid) >= 1]
    zero_B = kind == "flat" or kind == "singular"
    still = 0.0 if kind == "split" else 1.0  # split: every child's state is its parent's
    sys_ = ControlSystem(
        tree, N, M,
        A={k: 0.3 * still * rng.standard_normal((N, N)) for k in later},
        B={k: (0.0 if zero_B and rng.random() < 0.5 else still) * rng.standard_normal((N, M))
           for k in later},
        W={k: still * rng.standard_normal(N) for k in later})
    return sys_


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["lq", "rows", "flat", "unbounded", "empty", "split", "poly"]),
       seed=st.integers(0, 2**32 - 1))
def test_stage_sweep_matches_the_node_by_node_sweep(kind, seed):
    # uneven trees; equality rows, flat directions, empty domains, stacks
    # whose members change row count apart at the cost addition, and
    # Polyhedral nodes next to Quadratic ones: every record has the bits of
    # the frozen node-by-node sweep, and an error has its type and node
    rng = np.random.default_rng(seed)
    sys_ = _random_control(rng, kind)
    costs = {nid: random_stage_cost(rng, sys_.N, sys_.M, kind) for nid in sys_.tree.nodes}
    got, err = outcome(solve_oc, sys_, costs)
    want, ref_err = outcome(ref_solve_oc, sys_, costs)
    assert type(err) is type(ref_err)
    if ref_err is not None:
        assert str(err) == str(ref_err)
        assert getattr(err, "node", None) == getattr(ref_err, "node", None)
        return
    for nid in sys_.tree.nodes:
        g, w = got.records[nid], want.records[nid]
        assert same_fn(g["Q"], w["Q"]) and same_fn(g["J"], w["J"])
        if isinstance(w["J"], Quadratic):
            assert same_bits(g["selector"].F, w["selector"].F)
            assert same_bits(g["selector"].g, w["selector"].g)
        assert same_bits(g["N"], w["N"])


def test_stage_sweep_builds_objects_a_bounded_number_of_times_per_stage(monkeypatch):
    # a stage's Quadratics stay stacked through the sweep: on all-Quadratic,
    # rowless trees of 4 stages, lq_costs hands over its stage stacks and the
    # records are made when read, so solve_oc stacks no objects and builds
    # none from stacks, whatever the branching and the node count
    counts = {"_stack": 0, "_objects": 0}
    for name in ("_stack", "_objects"):
        def counted(*args, _name=name, _orig=getattr(convexfn, name)):
            counts[_name] += 1
            return _orig(*args)
        for module in (convexfn, bellman):
            monkeypatch.setattr(module, name, counted)
    seen = []
    for branching in (2, 3):
        sys_, Qm, Rm = lq_instance(5, T=3, branching=branching)
        costs = lq_costs(sys_, Qm, Rm)
        counts.update(_stack=0, _objects=0)
        sol = solve_oc(sys_, costs)
        seen.append(dict(counts))
        want = ref_solve_oc(sys_, costs)
        assert all(same_fn(sol.J(nid), want.J(nid)) for nid in sys_.tree.nodes)
    assert seen[0] == seen[1] == {"_stack": 0, "_objects": 0}


@pytest.mark.parametrize("T", [3, 5])
def test_control_steps_make_objects_for_the_root_record_only(monkeypatch, T):
    # the steps of a `control` session keep every per-node table in stage
    # stacks: solve_oc, riccati, riccati_policy, verify_oc_policy and the
    # value at x0 make the root's record only (its pre and post Quadratics,
    # selector and tail read from the stacks), construct no Quadratic, and
    # stack objects into arrays once, for J_root.eval
    counts = dict.fromkeys(("_stack", "_objects", "_member", "Quadratic"), 0)
    for name in ("_stack", "_objects", "_member"):
        def counted(*args, _name=name, _orig=getattr(convexfn, name)):
            counts[_name] += 1
            return _orig(*args)
        for module in (convexfn, bellman, control):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)

    def init(self, *args, _orig=Quadratic.__init__, **kwargs):
        counts["Quadratic"] += 1
        _orig(self, *args, **kwargs)

    monkeypatch.setattr(Quadratic, "__init__", init)
    seen = []
    for branching in (2, 3):
        sys_, Qm, Rm = lq_instance(5, T=T, branching=branching)
        costs, x0 = lq_costs(sys_, Qm, Rm), np.array([0.5, -0.3])
        counts.update(dict.fromkeys(counts, 0))
        sol = solve_oc(sys_, costs)
        rd = riccati(sys_, Qm, Rm)
        X, U = riccati_policy(sys_, rd, x0)
        ok, value = verify_oc_policy(sys_, sol, X, U), sol.value(x0)
        seen.append(dict(counts))
        assert ok and value == pytest.approx(rd.value(sys_.tree, x0), abs=1e-8)
        assert list(sol.records._made) == [sys_.tree.root]
    assert seen == [{"_stack": 1, "_objects": 0, "_member": 4, "Quadratic": 0}] * 2


def test_stage_maps_read_as_the_dicts_they_replace():
    # dynamics, Riccati tables, records and forward-pass states are StageMaps
    # over stage stacks: their keys, order and KeyErrors are those of the
    # dicts filled a stage at a time, and a record is made once
    sys_, Qm, Rm = lq_instance(2, T=3, branching=3)
    tree, root = sys_.tree, sys_.tree.root
    up = [nid for t in range(tree.T + 1) for nid in tree.stage_nodes[t]]
    down = [nid for t in range(tree.T, -1, -1) for nid in tree.stage_nodes[t]]
    for table in (sys_.A, sys_.B, sys_.W):
        assert root not in table and "no such node" not in table and up[1] in table
        assert list(table) == up[1:] and len(table) == len(up) - 1
        for key in (root, "no such node"):
            with pytest.raises(KeyError):
                table[key]
    rd, (K, Lam, offset, _) = riccati(sys_, Qm, Rm), ref_riccati(sys_, Qm, Rm)
    assert [nid for nid, _ in rd.K.items()] == list(K) == down
    assert list(rd.Lam) == list(Lam) and list(rd.offset) == list(offset)
    sol, want = solve_oc(sys_, lq_costs(sys_, Qm, Rm)), ref_solve_oc(sys_, lq_costs(sys_, Qm, Rm))
    assert list(sol.records) == list(want.records) == down
    assert sol.records[up[4]] is sol.records[up[4]]
    X, U = riccati_policy(sys_, rd, [0.5, -0.3])
    assert list(X) == list(U) == up and dict(X).keys() == dict(U).keys()
    X2, U2 = extract_oc_policy(sys_, sol, [0.5, -0.3])
    assert list(X2) == list(U2) == up


def test_riccati_and_lq_costs_share_stage_stacks_of_the_weights():
    # Q and R as StageMaps of stacked arrays, read a stage at a time: riccati
    # sums into a copy, so a second call gives the same K bit for bit, and
    # lq_costs afterwards still reads the input weights
    sys_, Qm, Rm = lq_instance(3, T=3, N=2, M=1, branching=3)
    tree = sys_.tree
    stacks = [StageMap(tree, {t: np.array([W[nid] for nid in nodes], dtype=float)
                              for t, nodes in enumerate(tree.stage_nodes)}) for W in (Qm, Rm)]
    kept = [{t: S.copy() for t, S in W.held.items()} for W in stacks]
    first, second = riccati(sys_, *stacks), riccati(sys_, *stacks)
    for t in range(tree.T + 1):
        assert same_bits(first.K.held[t], second.K.held[t])
    assert all(same_bits(W.held[t], k[t]) for W, k in zip(stacks, kept) for t in k)
    costs, want = lq_costs(sys_, *stacks), lq_costs(sys_, Qm, Rm)
    for nid in tree.nodes:
        assert same_fn(costs[nid], want[nid])
        assert same_bits(costs[nid].Q[:2, :2], np.asarray(Qm[nid], dtype=float))
        assert same_bits(costs[nid].Q[2:, 2:], np.asarray(Rm[nid], dtype=float))
    want_rd = riccati(sys_, Qm, Rm)
    assert all(same_bits(first.K[nid], want_rd.K[nid]) for nid in tree.nodes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["lq", "rows", "flat", "poly"]), seed=st.integers(0, 2**32 - 1))
def test_records_read_after_the_forward_pass_keep_their_bits(kind, seed):
    # records made after extract_oc_policy and verify_oc_policy have read
    # the stage stacks (and after a few were read before) still have the
    # bits of the frozen node-by-node sweep, as do the solve_be records
    # read after extract_policy
    rng = np.random.default_rng(seed)
    sys_ = _random_control(rng, kind, shuffle=True)
    costs = {nid: random_stage_cost(rng, sys_.N, sys_.M, kind) for nid in sys_.tree.nodes}
    sol, err = outcome(solve_oc, sys_, costs)
    if err is not None:
        return
    early = sys_.tree.leaves()[0]
    sol.records[early]
    X, U = extract_oc_policy(sys_, sol, rng.standard_normal(sys_.N))
    verify_oc_policy(sys_, sol, X, U)
    want = ref_solve_oc(sys_, costs)
    for nid in sys_.tree.nodes:
        g, w = sol.records[nid], want.records[nid]
        assert same_fn(g["Q"], w["Q"]) and same_fn(g["J"], w["J"])
        assert type(g["selector"]) is type(w["selector"]) and same_bits(g["N"], w["N"])
        if isinstance(w["J"], Quadratic):
            assert same_bits(g["selector"].F, w["selector"].F)
            assert same_bits(g["selector"].g, w["selector"].g)
    sp = as_stage_problem(sys_, costs, x0=np.zeros(sys_.N))
    got, err = outcome(solve_be, sp)
    if err is None:
        extract_policy(got)
        ref = ref_solve_be(sp)
        for nid in sys_.tree.nodes:
            g, w = got.records[nid], ref.records[nid]
            assert same_fn(g["pre"], w["pre"]) and same_fn(g["post"], w["post"])
            assert same_fn(g["tail"], w["tail"]) if w["tail"] is not None else g["tail"] is None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["lq", "singular"]), shuffle=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stage_riccati_matches_the_node_by_node_recursion(kind, shuffle, seed):
    rng = np.random.default_rng(seed)
    sys_ = _random_control(rng, kind, shuffle)
    N, M = sys_.N, sys_.M
    psd = lambda n: (lambda L: L @ L.T)(rng.standard_normal((n, n)))
    Qm = {nid: psd(N) for nid in sys_.tree.nodes}
    Rm = {nid: (np.zeros((M, M)) if kind == "singular" and rng.random() < 0.5
                else psd(M) + 0.1 * np.eye(M)) for nid in sys_.tree.nodes}
    got, err = outcome(riccati, sys_, Qm, Rm)
    want, ref_err = outcome(ref_riccati, sys_, Qm, Rm)
    assert type(err) is type(ref_err)
    if ref_err is not None:
        assert err.node == ref_err.node and str(err) == str(ref_err)
        return
    K, Lam, offset, diag = want
    for nid in sys_.tree.nodes:
        assert same_bits(got.K[nid], K[nid]) and same_bits(got.Lam[nid], Lam[nid])
        assert same_bits(np.float64(got.offset[nid]), np.float64(offset[nid]))
    assert got.diagnostics == diag


@pytest.mark.parametrize("quad, poly", [("v", "w"), ("w", "v"), ("v", "x")])
def test_unbounded_stage_member_is_named(quad, poly):
    # in stage 1 two nodes are unbounded below: a Quadratic with a linear
    # drift along a control with no curvature, and a Polyhedral falling
    # along that control.  The error names the first of them in stage
    # order, whichever backend it has.
    kids = "uvwx"
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}] + [
        {"id": k, "parent": "r", "prob": 0.25, "stage": 1} for k in kids])
    sys_ = ControlSystem(tree, 1, 1, A={k: [[0.0]] for k in kids},
                         B={k: [[1.0]] for k in kids}, W={k: [0.0] for k in kids})
    costs = {nid: Quadratic(np.eye(2), np.zeros(2)) for nid in tree.nodes}
    costs[quad] = Quadratic(np.diag([1.0, 0.0]), [0.0, 1.0])
    costs[poly] = Polyhedral([[1.0, 1.0], [-1.0, 1.0]], [0.0, 0.0])
    named = min(quad, poly)
    with pytest.raises(UnboundedBelow) as exc:
        solve_oc(sys_, costs)
    assert exc.value.node == named
    with pytest.raises(UnboundedBelow) as ref:
        ref_solve_oc(sys_, costs)
    assert ref.value.node == named and str(exc.value) == str(ref.value)


def test_backend_clash_in_the_sweep_names_its_node():
    # the children's Polyhedral terms meet the root's curved Quadratic cost
    tree = binary_tree()
    sys_ = ControlSystem(tree, 1, 1, A={k: [[0.0]] for k in "ab"},
                         B={k: [[1.0]] for k in "ab"}, W={k: [0.0] for k in "ab"})
    box = Polyhedral([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], np.zeros(4))
    costs = {"r": Quadratic(np.eye(2), np.zeros(2)), "a": box, "b": box}
    msg = "cannot add Polyhedral to Quadratic (node r)"
    for sweep in (solve_oc, ref_solve_oc):
        with pytest.raises(BackendClash) as exc:
            sweep(sys_, costs)
        assert str(exc.value) == msg


@pytest.mark.parametrize("node, cost, exc, message", [
    ("b", Quadratic(np.eye(3), np.zeros(3)), DimensionMismatch, "cost at 'b' has wrong dimension"),
    ("a", Sampled1D([0.0, 1.0], [0.0, 1.0]), BackendClash,
     "a Sampled1D cost cannot be swept; use Quadratic or Polyhedral (node a)"),
])
def test_solve_oc_refuses_a_cost_naming_its_node(node, cost, exc, message):
    # a cost over (X, U) of the wrong dimension, or one that is no sweep
    # backend, stops the sweep at its stage with an error naming the node
    sys_ = ControlSystem(binary_tree(), 1, 1, A={k: [[0.0]] for k in "ab"},
                         B={k: [[1.0]] for k in "ab"}, W={k: [0.0] for k in "ab"})
    costs = {nid: Quadratic(np.eye(2), np.zeros(2)) for nid in "rab"}
    costs[node] = cost
    with pytest.raises(exc) as err:
        solve_oc(sys_, costs)
    assert type(err.value) is exc and str(err.value) == message


def test_solve_oc_refuses_lq_cost_stacks_of_the_wrong_dimension():
    # lq_costs of a system with two controls handed to one with one: the
    # stage stacks are too wide, and the first node of the last stage is named
    wide, Qm, Rm = lq_instance(5, T=2, N=2, M=2)
    narrow, _, _ = lq_instance(5, T=2, N=2, M=1)
    assert list(wide.tree.nodes) == list(narrow.tree.nodes)
    first = narrow.tree.stage_nodes[2][0]
    with pytest.raises(DimensionMismatch, match=rf"^cost at '{first}' has wrong dimension$"):
        solve_oc(narrow, lq_costs(wide, Qm, Rm))


def test_non_psd_cost_names_the_first_failing_node():
    sys_, Qm, Rm = lq_instance(4, T=3, N=2, M=1)
    later = sys_.tree.stage_nodes[2]
    for nid in (later[3], later[1]):
        Rm[nid] = [[-1.0]]
    with pytest.raises(ValidationError, match=rf"not PSD at node '{later[1]}' \(min eig -1.000e\+00\)"):
        lq_costs(sys_, Qm, Rm)


def test_thousand_node_recursion_matches_riccati():
    # scale check on a 1023-node tree: the stage-stacked sweep against the
    # Riccati recursion, and the Riccati feedback against the sweep's records
    for seed in (1, 2):
        sys_, Qm, Rm = lq_instance(seed, T=9)
        assert len(sys_.tree.nodes) == 1023
        rd = riccati(sys_, Qm, Rm)
        sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
        x0 = np.array([0.5, -0.3])
        assert sol.value(x0) == pytest.approx(rd.value(sys_.tree, x0), abs=1e-8)
        X, U = riccati_policy(sys_, rd, x0)
        assert verify_oc_policy(sys_, sol, X, U)


def _same_states(got, want):
    assert sorted(got) == sorted(want)
    assert all(same_bits(got[nid], want[nid]) for nid in want)


def _verdicts_agree(sys_, sol, X, U, rng):
    """verify_oc_policy against the frozen loop on (X, U), with one control
    and one state perturbed, with a NaN control, and with a control of the
    wrong length at a node before or after a perturbed one."""
    nodes = list(sys_.tree.nodes)
    pick = lambda: nodes[int(rng.integers(len(nodes)))]
    bumped = lambda V, nid, d: {**V, nid: V[nid] + d * rng.standard_normal(V[nid].shape)}
    cases = [(X, U), (X, bumped(U, pick(), 10.0 ** rng.uniform(-12, 0))),
             (bumped(X, pick(), 10.0 ** rng.uniform(-12, 0)), U),
             (X, {**U, pick(): np.full(sys_.M, np.nan)})]
    a, b = (nodes[i] for i in rng.choice(len(nodes), 2, replace=False))
    cases += [(X, {**bumped(U, a, 1.0), b: np.zeros(sys_.M + 1)}),
              (X, {**bumped(U, b, 1.0), a: np.zeros(sys_.M + 1)})]
    for Xc, Uc in cases:
        same_outcome(outcome(verify_oc_policy, sys_, sol, Xc, Uc),
                     outcome(ref_verify_oc_policy, sys_, sol, Xc, Uc))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["lq", "rows", "flat", "poly"]), seed=st.integers(0, 2**32 - 1))
def test_forward_pass_matches_the_node_by_node_loops(kind, seed):
    # uneven trees in shuffled node order; equality rows, flat directions
    # and Polyhedral (back-substituted) nodes: states and controls have the bits
    # of the frozen loops, verdicts agree, and an error has its type,
    # message and node
    rng = np.random.default_rng(seed)
    sys_ = _random_control(rng, kind, shuffle=True)
    costs = {nid: random_stage_cost(rng, sys_.N, sys_.M, kind) for nid in sys_.tree.nodes}
    sol, err = outcome(solve_oc, sys_, costs)
    if err is not None:
        return
    x0 = rng.standard_normal(sys_.N)
    got = outcome(extract_oc_policy, sys_, sol, x0)
    want = outcome(ref_extract_oc_policy, sys_, sol, x0)
    same_outcome(got, want, lambda g, w: [_same_states(a, b) for a, b in zip(g, w)])
    if want[1] is None:
        _verdicts_agree(sys_, sol, *want[0], rng)
    # the Riccati feedback on the same system, against an LQ sweep
    N, M = sys_.N, sys_.M
    psd = lambda n: (lambda L: L @ L.T)(rng.standard_normal((n, n)))
    Qm = {nid: psd(N) for nid in sys_.tree.nodes}
    Rm = {nid: psd(M) + 0.1 * np.eye(M) for nid in sys_.tree.nodes}
    rd = riccati(sys_, Qm, Rm)
    X, U = riccati_policy(sys_, rd, x0)
    for g, w in zip((X, U), ref_riccati_policy(sys_, rd, x0)):
        _same_states(g, w)
    _verdicts_agree(sys_, solve_oc(sys_, lq_costs(sys_, Qm, Rm)), X, U, rng)


def _deep_lq():
    sys_, Qm, Rm = lq_instance(3, T=4, N=2, M=1)
    sol = solve_oc(sys_, lq_costs(sys_, Qm, Rm))
    X, U = riccati_policy(sys_, riccati(sys_, Qm, Rm), [0.4, -0.7])
    return sys_, sol, X, U


def test_verify_oc_policy_rejects_a_perturbed_deep_control():
    sys_, sol, X, U = _deep_lq()
    assert verify_oc_policy(sys_, sol, X, U) and ref_verify_oc_policy(sys_, sol, X, U)
    leaf = sys_.tree.leaves()[-1]
    U = {**U, leaf: U[leaf] + 1e-3}
    assert verify_oc_policy(sys_, sol, X, U) is False
    assert ref_verify_oc_policy(sys_, sol, X, U) is False


def test_verify_oc_policy_rejects_a_state_off_the_value_rows():
    # x0 pinned by an equality row at the root: J_root is +inf off x0
    sys_, Qm, Rm = lq_instance(4, T=2, N=2, M=1)
    costs = dict(lq_costs(sys_, Qm, Rm))  # a read-only mapping of stage stacks
    root = sys_.tree.root
    costs[root] = costs[root].add(Quadratic(np.zeros((3, 3)), np.zeros(3), 0.0,
                                            [[1.0, 0.0, 0.0]], [0.25]))
    sol = solve_oc(sys_, costs)
    X, U = extract_oc_policy(sys_, sol, [0.25, 1.0])
    assert verify_oc_policy(sys_, sol, X, U) and ref_verify_oc_policy(sys_, sol, X, U)
    X = {**X, root: np.array([0.5, 1.0])}
    assert sol.J(root).eval(X[root]) == Inf
    assert verify_oc_policy(sys_, sol, X, U) is False
    assert ref_verify_oc_policy(sys_, sol, X, U) is False


def test_verify_oc_policy_rejects_a_nan_gap():
    sys_, sol, X, U = _deep_lq()
    nid = sys_.tree.stage_nodes[2][1]
    U = {**U, nid: np.array([np.nan])}
    assert verify_oc_policy(sys_, sol, X, U) is False
    assert ref_verify_oc_policy(sys_, sol, X, U) is False


def test_wealth_grid_solution_still_verifies():
    # the grid hedge keeps Q = None: every node is skipped, as before
    market = binomial_market(9, T=2)
    res = solve_alm(market, Polyhedral([[1.0], [-1.0]], [0.0, 0.0]), 0.0,
                    grid=np.linspace(-3.0, 3.0, 61))
    sol = res.solution
    assert all(rec["Q"] is None for rec in sol.records.values())
    X, U = extract_oc_policy(sol.sys, sol, [0.0])
    rX, rU = ref_extract_oc_policy(sol.sys, sol, [0.0])
    _same_states(X, rX)
    _same_states(U, rU)
    assert verify_oc_policy(sol.sys, sol, X, U) is True
    assert ref_verify_oc_policy(sol.sys, sol, X, U) is True
