from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochbellman import bellman, convexfn
from stochbellman.bellman import (Policy, StageProblem, build_flat, check_assumptions,
                                  extract_policy, optimum_value, solve_be,
                                  tilt_by_p, verify_optimality)
from stochbellman.convexfn import (AffineSelector, Polyhedral, Quadratic, Sampled1D,
                                   recession)
from stochbellman.errors import (BackendClash, NonLinearRecession, NotPerp,
                                 ValidationError)
from stochbellman.extensive import solve_extensive
from stochbellman.generators import (quadratic_lagrange_instance, random_tree,
                                     tracking_stage_problem)
from stochbellman.tree import (AdaptedProcess, PerpProcess,
                               martingale_increments, perp_check,
                               validate_tree)

import helpers
from helpers import (binary_tree, chain_tree, outcome, random_stage_cost,
                     ref_extract_policy, ref_solve_be, ref_verify_optimality,
                     same_bits, same_fn, same_outcome, shuffled)


def test_solve_be_tracking_instance():
    sol = solve_be(tracking_stage_problem())
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    h0 = sol.records["r"]["pre"]
    # h_0(x) = x^2 - 2x + 2
    for x in (-1.0, 0.0, 1.0, 2.5):
        assert h0.eval([x]) == pytest.approx(x * x - 2 * x + 2, abs=1e-12)


def test_solve_be_deterministic_chain_separable():
    tree = chain_tree(2)
    costs = {"n0": Polyhedral([[1.0], [-1.0]], [1.0, 1.0]),       # |x0| + 1
             "n1": Polyhedral([[0.0, 1.0], [0.0, -1.0]], [2.0, 2.0]),
             "n2": Polyhedral([[0.0, 1.0], [0.0, -1.0]], [3.0, 3.0])}
    p = StageProblem(tree, [1, 1, 1], node_costs=costs)
    sol = solve_be(p)
    assert sol.value == pytest.approx(6.0, abs=1e-10)


def always_up_shortfall_problem():
    tree = binary_tree()
    # shortfall max(-x dS, 0) with dS in {1, 2}: long positions are free money
    costs = {"r": Polyhedral.affine([0.0]),
             "a": Polyhedral([[-1.0], [0.0]], [0.0, 0.0]),
             "b": Polyhedral([[-2.0], [0.0]], [0.0, 0.0])}
    return StageProblem(tree, [1, 0], node_costs=costs)


def test_solve_be_arbitrage_trips_nonlinear_recession():
    with pytest.raises(NonLinearRecession) as err:
        solve_be(always_up_shortfall_problem())
    assert err.value.node == "r"


def test_optimum_value_all_stages():
    sol = solve_be(tracking_stage_problem())
    assert optimum_value(sol, 0) == pytest.approx(1.0, abs=1e-10)
    assert optimum_value(sol, 1) == pytest.approx(1.0, abs=1e-10)


def test_optimum_value_makes_the_tails_only(monkeypatch):
    # the head problems read the records' tails and make no selector
    sol = solve_be(quadratic_lagrange_instance(11, T=3, d=2).as_stage_problem())
    made = []
    monkeypatch.setattr(convexfn, "_selector",
                        lambda *a, _orig=convexfn._selector: made.append(a) or _orig(*a))
    for t in range(4):
        optimum_value(sol, t)
    assert made == []


def test_optimum_value_single_node():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    p = StageProblem(tree, [1], node_costs={"r": Quadratic([[2.0]], [-2.0], 3.0)})
    sol = solve_be(p)
    assert optimum_value(sol, 0) == pytest.approx(2.0, abs=1e-10)
    assert sol.value == pytest.approx(2.0, abs=1e-10)


def test_value_invariance_across_stages():
    inst = quadratic_lagrange_instance(11, T=3, d=2)
    sol = solve_be(inst.as_stage_problem())
    vals = [optimum_value(sol, t) for t in range(4)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-10)


def test_optimum_value_matches_extensive():
    inst = quadratic_lagrange_instance(21, T=2, d=2)
    sp = inst.as_stage_problem()
    sol = solve_be(sp)
    ext, _, _ = solve_extensive(build_flat(sp))
    assert sol.value == pytest.approx(ext, abs=1e-8)


def test_extract_policy_tracking():
    sol = solve_be(tracking_stage_problem())
    pol = extract_policy(sol)
    assert pol.decisions["r"][0] == pytest.approx(1.0, abs=1e-10)
    assert pol.value == pytest.approx(sol.value, abs=1e-8)
    assert pol.residual_max <= 1e-10


def test_extract_policy_free_coordinate_zeroed():
    tree = validate_tree([{"id": "r", "parent": None, "prob": 1.0, "stage": 0}])
    Q = np.zeros((2, 2))
    Q[0, 0] = 2.0
    p = StageProblem(tree, [2], node_costs={"r": Quadratic(Q, [-2.0, 0.0])})
    pol = extract_policy(solve_be(p))
    assert pol.decisions["r"][0] == pytest.approx(1.0, abs=1e-10)
    assert pol.decisions["r"][1] == pytest.approx(0.0, abs=1e-12)


def test_verify_optimality_accepts_and_rejects():
    sol = solve_be(tracking_stage_problem())
    pol = extract_policy(sol)
    assert verify_optimality(pol, sol)
    pol.decisions["r"] = pol.decisions["r"] + 0.1
    assert not verify_optimality(pol, sol)


def test_verified_policy_value_near_optimum():
    # a feasible policy passing the nodewise test at tol has objective
    # within tol * (T + 1) of the optimum
    inst = quadratic_lagrange_instance(31, T=2, d=1)
    sp = inst.as_stage_problem()
    sol = solve_be(sp)
    pol = extract_policy(sol)
    tol = 1e-8
    assert verify_optimality(pol, sol)
    assert abs(pol.value - sol.value) <= tol * (sp.tree.T + 1)


def test_tilt_zero_is_identity():
    sp = tracking_stage_problem()
    v = PerpProcess.zero(sp.tree, [1, 0])
    tilted = tilt_by_p(sp, v)
    s0 = solve_be(sp)
    s1 = solve_be(tilted)
    assert s0.value == pytest.approx(s1.value, abs=1e-12)


def test_tilt_requires_perp():
    sp = tracking_stage_problem()
    bad = AdaptedProcess(sp.tree, {"r": np.array([1.0])})
    with pytest.raises(NotPerp):
        tilt_by_p(sp, bad)


def test_tilt_entry_size_must_match_the_stage_dimension():
    # a perp entry of size 2 on the one-dimensional stage 0: every tilt
    # consumer names the entry instead of failing inside numpy
    sp = tracking_stage_problem()
    v = PerpProcess(sp.tree, {0: (1, {"a": [1.0, -1.0], "b": [-1.0, 1.0]})})
    assert perp_check(v)
    for tilted in (lambda: tilt_by_p(sp, v), lambda: check_assumptions(sp, v=v)):
        with pytest.raises(ValidationError, match="perp entry 0 has size 2"):
            tilted()


def martingale_market_problem():
    # linear gains objective -x0 * dS on a martingale price (pi chosen so
    # E dS = 0); value 0, every x0 optimal
    tree = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": 1.0 / 3.0, "stage": 1},
        {"id": "b", "parent": "r", "prob": 2.0 / 3.0, "stage": 1},
    ])
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([2.0]),
                              "b": np.array([0.5])})
    costs = {"r": Quadratic(np.zeros((1, 1)), np.zeros(1)),
             "a": Quadratic(np.zeros((1, 1)), [-1.0], check_psd=False),
             "b": Quadratic(np.zeros((1, 1)), [0.5], check_psd=False)}
    sp = StageProblem(tree, [1, 0], node_costs=costs)
    return sp, s


def test_tilt_market_objective_lower_bounded():
    sp, s = martingale_market_problem()
    incs = martingale_increments(s)
    # p = -dS is also perp; tilting by it cancels the gains nodewise
    neg = PerpProcess(sp.tree, {t: (stage, {nid: -vec for nid, vec in per.items()})
                                for t, (stage, per) in incs.entries.items()})
    assert perp_check(neg)
    tilted = tilt_by_p(sp, neg)
    for nid, fn in tilted.node_costs.items():
        # nodewise flat: conjugate at zero is finite (lower bounded)
        assert fn.conjugate(np.zeros(fn.dim)) < np.inf
    s0 = solve_be(sp)
    s1 = solve_be(tilted)
    assert s0.value == pytest.approx(0.0, abs=1e-12)
    assert s0.value == pytest.approx(s1.value, abs=1e-8)


def test_tilt_equivalence_same_argmins():
    inst = quadratic_lagrange_instance(41, T=2, d=1)
    sp = inst.as_stage_problem()
    tree = sp.tree
    rng = np.random.default_rng(7)
    vals = {}
    for t in range(tree.T):
        for nid in tree.stage_nodes[t]:
            kids = tree.children[nid]
            pi = np.array([float(tree.nodes[k].prob) for k in kids])
            raw = rng.standard_normal(len(kids))
            raw -= pi @ raw
            for k, r in zip(kids, raw):
                vals[k] = np.array([r])
    entries = {t: (t + 1, {nid: vals[nid] for nid in tree.stage_nodes[t + 1]})
               for t in range(tree.T)}
    entries[tree.T] = (tree.T, {nid: np.zeros(1) for nid in tree.stage_nodes[tree.T]})
    v = PerpProcess(tree, entries)
    assert perp_check(v)
    tilted = tilt_by_p(sp, v)
    s0 = solve_be(sp)
    s1 = solve_be(tilted)
    p0 = extract_policy(s0)
    p1 = extract_policy(s1)
    assert s0.value == pytest.approx(s1.value, abs=1e-8)
    for nid in tree.nodes:
        assert np.allclose(p0.decisions[nid], p1.decisions[nid], atol=1e-8)


def test_check_assumptions_lower_bounded_passes():
    rep = check_assumptions(tracking_stage_problem())
    assert rep.lower_bound_ok and rep.linearity_ok and rep.feasibility_ok
    for per_lambda in rep.certificates.values():
        assert all(np.isfinite(m) for m in per_lambda.values())


def test_check_assumptions_arbitrage_fails_linearity():
    rep = check_assumptions(always_up_shortfall_problem())
    assert not rep.linearity_ok


def test_check_assumptions_strictly_convex_trivial_lineality():
    inst = quadratic_lagrange_instance(51, T=2, d=1)
    sp = inst.as_stage_problem()
    rep = check_assumptions(sp)
    assert rep.linearity_ok
    sol = solve_be(sp)
    for nid in sp.tree.nodes:
        assert sol.records[nid]["N"].shape[1] == 0


def test_recession_sweep_rows_stay_within_dim():
    # the recession sweep stacks every child's rows into its parent; in
    # canonical form no record carries more rows than its dimension
    sp = quadratic_lagrange_instance(7, T=7).as_stage_problem()
    rec = StageProblem(sp.tree, sp.dims,
                       node_costs={nid: recession(fn) for nid, fn in sp.node_costs.items()})
    sol = solve_be(rec)
    assert len(sol.records) == 255
    for r in sol.records.values():
        assert r["pre"].A.shape[0] <= r["pre"].dim
        assert r["post"].A.shape[0] <= r["post"].dim


def test_tower_collapse_of_deterministic_stages():
    # chain with two deterministic stages merged into one keeps the value
    tree3 = chain_tree(2)
    c0 = Quadratic([[2.0]], [0.0])                                # x0^2
    c1 = Quadratic([[2.0, -2.0], [-2.0, 2.0]], [0.0, 0.0])        # (x1 - x0)^2
    c2 = Quadratic([[2.0, -2.0], [-2.0, 2.0]], [2.0, -2.0], 1.0)  # (x2 - x1 - 1)^2
    p3 = StageProblem(tree3, [1, 1, 1], node_costs={"n0": c0, "n1": c1, "n2": c2})
    sol3 = solve_be(p3)
    # merge the two middle costs over the internal point x1: build the sum
    # on the ordering (x0, x2, x1) and minimize the trailing coordinate out
    from stochbellman.convexfn import partial_min
    g12 = c1.precompose(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.zeros(2)) \
            .add(c2.precompose(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), np.zeros(2)))
    merged = partial_min(g12, over=1).fn
    tree2 = chain_tree(1)
    p2 = StageProblem(tree2, [1, 1], node_costs={"n0": c0, "n1": merged})
    sol2 = solve_be(p2)
    assert sol2.value == pytest.approx(sol3.value, abs=1e-10)


def test_solution_records_satisfy_recursion_structure():
    # pre-min at the root (zero own cost) equals the branch-weighted sum of
    # the children's post-min functions
    sol = solve_be(tracking_stage_problem())
    tree = sol.problem.tree
    rec = sol.records["r"]
    for x in (-1.0, 0.3, 2.0):
        expected = sum(float(tree.nodes[k].prob) * sol.records[k]["post"].eval([x])
                       for k in tree.children["r"])
        assert rec["pre"].eval([x]) == pytest.approx(expected, abs=1e-12)
    # leaf pre-min functions are the supplied terminal integrands
    for leaf in tree.leaves():
        fn = sol.problem.node_costs[leaf]
        for x in (-1.0, 0.3, 2.0):
            assert sol.records[leaf]["pre"].eval([x]) == fn.eval([x])


def test_random_polyhedral_instances_match_simplex(rng):
    # box-bounded random max-affine stage costs: sweep value agrees with
    # the epigraph LP on the flat program
    from stochbellman.extensive import solve_extensive as solve_ext
    from helpers import binary_tree
    for trial in range(10):
        tree = binary_tree((0.35, 0.65))
        costs = {}
        for nid in tree.nodes:
            d = 1 if tree.stage(nid) == 0 else 2
            k = int(rng.integers(2, 4))
            pa = rng.standard_normal((k, d))
            pb = rng.standard_normal(k)
            box = np.vstack([np.eye(d), -np.eye(d)])
            costs[nid] = Polyhedral(pa, pb, box, 3.0 * np.ones(2 * d))
        p = StageProblem(tree, [1, 1], node_costs=costs)
        sol = solve_be(p)
        ext, _, _ = solve_ext(build_flat(p))
        assert sol.value == pytest.approx(ext, abs=1e-8)


def test_certificates_require_tilt_for_unbounded_objective():
    # stage costs |x| - 2 dS x with dS = +-1: pathwise unbounded below, so
    # the certificate sweep fails at the zero dual point but passes at the
    # tilt family built from (scaled) martingale increments
    tree = binary_tree()
    costs = {"r": Quadratic(np.zeros((1, 1)), np.zeros(1)),
             "a": Polyhedral([[1.0 - 2.0], [-1.0 - 2.0]], [0.0, 0.0]),
             "b": Polyhedral([[1.0 + 2.0], [-1.0 + 2.0]], [0.0, 0.0])}
    sp = StageProblem(tree, [1, 0], node_costs=costs)
    plain = check_assumptions(sp, v=None)
    assert not plain.lower_bound_ok

    entries = {0: (1, {"a": np.array([-2.0]), "b": np.array([2.0])}),
               1: (1, {"a": np.zeros(0), "b": np.zeros(0)})}
    v = PerpProcess(tree, entries)
    assert perp_check(v)
    tilted_report = check_assumptions(sp, v=v)
    assert tilted_report.lower_bound_ok
    assert tilted_report.linearity_ok
    assert tilted_report.feasibility_ok
    # the tilted costs are |x| nodewise: value 0 for both recursions
    assert solve_be(tilt_by_p(sp, v)).value == pytest.approx(0.0, abs=1e-12)


def test_check_assumptions_conjugates_once_per_untilted_node(monkeypatch):
    # the certificates take one point per untilted node (p = 0 serves every
    # lambda) and three per tilted one, in one stacked conjugate call: one
    # minimization per (dim, row count) group of Quadratic costs, tilted or
    # not, one LP per Polyhedral point, and no PartialMin or selector.  The
    # sweeps are stubbed out, so the mixed backends never meet in a sum
    tree = helpers.two_stage_binary()
    row, box = ([[1.0, -1.0]], [0.5]), np.vstack([np.eye(2), -np.eye(2)])
    costs = {"r": Quadratic([[1.0]], [0.5]), "u": Quadratic(np.eye(2), [1.0, 0.0]),
             "d": Quadratic(np.eye(2), [0.0, 1.0], 0.0, *row),
             "uu": Quadratic(2.0 * np.eye(2), [0.0, 0.5]),
             "ud": Polyhedral([[1.0, 0.0], [-1.0, 1.0]], [0.0, 0.5], box, np.ones(4)),
             "du": Quadratic(np.eye(2), [0.5, 0.5], 1.0, *row),
             "dd": Polyhedral([[0.0, -1.0]], [1.0], box, np.ones(4))}
    sp = StageProblem(tree, [1, 1, 1], node_costs=costs)
    monkeypatch.setattr(bellman, "recession_probe", lambda problem: (True, ""))
    monkeypatch.setattr(bellman, "solve_be", lambda problem: SimpleNamespace(value=0.0))
    sizes, lps, built = [], [], []

    def minima(S, over, _orig=convexfn._kkt_minima):
        sizes.append(len(S.c))
        return _orig(S, over)

    def lp(self, v, _orig=Polyhedral.conjugate):
        lps.append(self)
        return _orig(self, v)

    monkeypatch.setattr(convexfn, "_kkt_minima", minima)
    monkeypatch.setattr(Polyhedral, "conjugate", lp)
    monkeypatch.setattr(convexfn, "PartialMin", lambda *a: built.append(a))
    monkeypatch.setattr(convexfn, "_selector", lambda *a: built.append(a))
    monkeypatch.setattr(AffineSelector, "__init__", lambda self, *a: built.append(a))

    plain = check_assumptions(sp, v=None)
    assert (sizes, len(lps), built) == ([1, 2, 2], 2, [])
    for nid, per_lambda in plain.certificates.items():
        assert list(per_lambda) == [0.9, 1.0, 1.1]
        assert len(set(per_lambda.values())) == 1
        assert per_lambda[1.0] == pytest.approx(costs[nid].conjugate(np.zeros(costs[nid].dim)))

    sizes.clear(), lps.clear()
    zero = check_assumptions(sp, v=PerpProcess.zero(tree, [1, 1, 1]))
    assert (sizes, len(lps), built) == ([3, 6, 6], 6, [])
    assert zero.certificates == plain.certificates
    assert zero.lower_bound_ok and plain.lower_bound_ok


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["quad", "rows", "flat", "unbounded", "empty", "split", "poly"]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="poly", seed=1)  # a RowBlowup in the projection names its node
def test_stage_sweep_matches_the_node_by_node_sweep(kind, seed):
    # uneven trees, stage dims that include 0; equality rows, flat and
    # unbounded directions, empty domains, stacks whose members change row
    # count apart at the cost addition, and Polyhedral nodes next to
    # Quadratic ones: every record has the bits of the frozen node-by-node
    # sweep, and an error has its type, message and node
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 3 if kind == "poly" else 4))
    tree = random_tree(rng, T, 3)  # 1 to 3 children per node
    dims = [int(rng.integers(kind == "split", 3)) for _ in range(T + 1)]
    costs = {nid: random_stage_cost(rng, dims[t - 1] if t else 0, dims[t], kind)
             for t in range(T + 1) for nid in tree.stage_nodes[t]}
    sp = StageProblem(tree, dims, node_costs=costs)
    got, err = outcome(solve_be, sp)
    want, ref_err = outcome(ref_solve_be, sp)
    assert type(err) is type(ref_err)
    if ref_err is not None:
        assert str(err) == str(ref_err)
        assert getattr(err, "node", None) == getattr(ref_err, "node", None)
        return
    assert same_bits(got.value, want.value)
    assert list(got.records) == list(want.records)
    for nid, w in want.records.items():
        g = got.records[nid]
        assert sorted(g) == sorted(w)
        assert same_fn(g["pre"], w["pre"]) and same_fn(g["post"], w["post"])
        assert (g["tail"] is None) == (w["tail"] is None)
        assert w["tail"] is None or same_fn(g["tail"], w["tail"])
        assert type(g["selector"]) is type(w["selector"])
        if isinstance(w["selector"], AffineSelector):
            assert same_bits(g["selector"].F, w["selector"].F)
            assert same_bits(g["selector"].g, w["selector"].g)
        assert same_bits(g["N"], w["N"])


def _same_policy(got, want):
    decisions, residuals, value = want
    assert list(got.decisions) == list(decisions)
    for nid, x in decisions.items():
        assert same_bits(got.decisions[nid], np.asarray(x, dtype=float))
        assert same_bits(np.float64(got.residuals[nid]), np.float64(residuals[nid]))
    assert same_bits(np.float64(got.value), np.float64(value))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["quad", "rows", "flat", "poly"]), seed=st.integers(0, 2**32 - 1))
def test_forward_sweep_matches_the_node_by_node_loops(kind, seed):
    # uneven trees in shuffled node order, stage dims that include 0;
    # equality rows, flat directions and Polyhedral (back-substituted) nodes:
    # decisions and residuals have the bits of the frozen loops, verdicts
    # agree on perturbed, NaN and wrong-length decisions, and an error has
    # its type, message and node
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 3 if kind == "poly" else 4))
    tree = shuffled(rng, random_tree(rng, T, 3))  # 1 to 3 children per node
    dims = [int(rng.integers(0, 3)) for _ in range(T + 1)]
    costs = {nid: random_stage_cost(rng, dims[t - 1] if t else 0, dims[t], kind)
             for t in range(T + 1) for nid in tree.stage_nodes[t]}
    sol, err = outcome(solve_be, StageProblem(tree, dims, node_costs=costs))
    if err is not None:
        return
    got = outcome(extract_policy, sol)
    same_outcome(got, outcome(ref_extract_policy, sol), _same_policy)
    pol, err = got
    if err is not None:
        return
    nodes = [nid for nid in tree.nodes if pol.decisions[nid].size]
    cases = [pol.decisions]
    for scale in (10.0 ** rng.uniform(-12, 0), np.nan):
        for nid in nodes[:1] + nodes[-1:]:
            x = pol.decisions[nid] + scale * rng.standard_normal(pol.decisions[nid].shape)
            cases.append({**pol.decisions, nid: x})
    if len(tree.nodes) > 1:
        a, b = rng.choice(list(tree.nodes), 2, replace=False)
        for u, v in ((a, b), (b, a)):
            cases.append({**pol.decisions, u: pol.decisions[u] + 1.0, v: np.zeros(3)})
    for dec in cases:
        p = Policy(sol.problem, dec, {}, 0.0)
        same_outcome(outcome(verify_optimality, p, sol),
                     outcome(ref_verify_optimality, p, sol))


@settings(max_examples=70, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["quad", "rows", "flat", "unbounded", "empty", "split", "poly"]),
       seed=st.integers(0, 2**32 - 1))
def test_policy_value_is_the_flat_programs_at_its_decisions(kind, seed):
    # the policy's value, each stage's costs evaluated as one layer, is the
    # flat program's objective at the policy's decisions, and extract_policy
    # builds no flat program to get it
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 3 if kind == "poly" else 4))
    tree = shuffled(rng, random_tree(rng, T, 3))
    dims = [int(rng.integers(kind == "split", 3)) for _ in range(T + 1)]
    costs = {nid: random_stage_cost(rng, dims[t - 1] if t else 0, dims[t], kind)
             for t in range(T + 1) for nid in tree.stage_nodes[t]}
    sp = StageProblem(tree, dims, node_costs=costs)
    sol, err = outcome(solve_be, sp)
    if err is not None:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bellman, "build_flat", None)
        pol, err = outcome(extract_policy, sol)
    if err is not None:
        return
    fp = build_flat(sp)
    assert pol.value == pytest.approx(fp.eval(fp.pack(pol.decisions)), rel=1e-12, abs=0.0)


def test_assumption_checks_take_a_bounded_number_of_svds_per_stage(monkeypatch):
    # the diagnostics run as stage stacks: on rowful quadratic problems of 3
    # and 4 stages, check_assumptions makes a bounded number of
    # np.linalg.svd calls per stage and child slot, whatever the node count
    # (up to 40 nodes here; one call per node and operation before)
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, _svd=np.linalg.svd, **k:
                        calls.append(a) or _svd(*a, **k))
    for T in (2, 3):
        for branching in (2, 3):
            rng = np.random.default_rng(T)
            tree = random_tree(rng, T, branching, fixed=True)
            costs = {}
            for t in range(T + 1):
                d = 4 if t else 2
                for nid in tree.stage_nodes[t]:
                    L = rng.standard_normal((d, d))
                    costs[nid] = Quadratic(L @ L.T + 0.1 * np.eye(d), rng.standard_normal(d),
                                           0.0, rng.standard_normal((1, d)), rng.standard_normal(1))
            problem = StageProblem(tree, [2] * (T + 1), node_costs=costs)
            sol = solve_be(problem)
            calls.clear()
            report = check_assumptions(problem, solution=sol)
            assert report.linearity_ok and report.lower_bound_ok
            assert len(calls) <= (3 + 2 * branching) * (T + 1)


@pytest.mark.parametrize("free", [[0.0, 1.0], [1.0, -1.0]])
def test_polyhedral_selector_projects_out_the_lineality_space(free):
    # the children's costs |u.w - x0| and |u.w - x0| + u.w / 2, w orthogonal
    # to `free`, ignore the own direction `free` (an own coordinate, or the
    # difference of the two): the decision is orthogonal to the node's
    # lineality basis, and the policy attains the sweep value
    tree = binary_tree()
    w = np.array([free[1], -free[0]]) / np.linalg.norm(free)
    child = Polyhedral([np.r_[-1.0, w], np.r_[1.0, -w]], [0.0, 0.0])
    costs = {"r": Polyhedral([[1.0], [-1.0]], [-0.5, 0.5], [[1.0], [-1.0]], [1.0, 1.0]),
             "a": child, "b": child.tilt(np.r_[0.0, 0.5 * w])}
    sol = solve_be(StageProblem(tree, [1, 2], node_costs=costs))
    policy = extract_policy(sol)
    for nid in "ab":
        L = sol.records[nid]["N"]
        assert L.shape == (2, 1) and abs(L[:, 0] @ free) == pytest.approx(np.linalg.norm(free))
        assert np.abs(L.T @ policy.decisions[nid]).max() <= 1e-12
    assert policy.value == pytest.approx(sol.value, abs=1e-9)
    assert sol.value == pytest.approx(0.125, abs=1e-9)
    assert policy.residual_max <= 1e-9


def test_polyhedral_selection_off_the_domain_names_the_node():
    # the children's value functions live on x0 in [-1, 1] and [-2, 2]: a
    # record's selector, and the stage's batched selection, raise
    # ValidationError naming the first node whose domain misses its point
    tree = binary_tree()
    box = lambda r: ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [r, r, 3.0, 3.0])
    costs = {"r": Polyhedral([[1.0], [-1.0]], [0.0, 0.0], [[1.0], [-1.0]], [1.0, 1.0]),
             "a": Polyhedral([[0.0, 1.0], [0.0, -1.0]], [0.0, 0.0], *box(1.0)),
             "b": Polyhedral([[1.0, 1.0], [-1.0, -1.0]], [0.0, 0.0], *box(2.0))}
    sol = solve_be(StageProblem(tree, [1, 1], node_costs=costs))
    assert sol.records["b"]["selector"]([1.5])[0] == pytest.approx(-1.5)
    with pytest.raises(ValidationError, match=r"infeasible at given point \(node a\)$") as err:
        sol.records["a"]["selector"]([1.5])
    assert err.value.node == "a"
    sel = sol.records.held[1].sel
    for S, nid in (([[1.5], [2.5]], "a"), ([[0.5], [2.5]], "b")):
        with pytest.raises(ValidationError, match=rf"\(node {nid}\)$") as err:
            bellman._decisions(sel, np.array(S))
        assert err.value.node == nid


_PLAIN = {nid: Quadratic(np.eye(d), np.zeros(d)) for nid, d in (("r", 1), ("a", 2), ("b", 2))}


@pytest.mark.parametrize("edit, kwargs, exc, message", [
    ({}, {"mode": "nodal"}, ValidationError, "unknown mode 'nodal'"),
    ({}, {"dims": [1, 1, 1]}, ValidationError, "need one decision dimension per stage"),
    ({"b": Quadratic(np.eye(3), np.zeros(3))}, {}, ValidationError,
     "cost at node 'b' has dim 3, expected 2"),
    ({"a": None}, {}, ValidationError, "missing stage cost at node 'a'"),
    ({"a": Sampled1D([0.0, 1.0], [0.0, 1.0])}, {}, BackendClash,
     "a Sampled1D cost cannot be swept; use Quadratic or Polyhedral (node a)"),
])
def test_stage_problem_refuses_malformed_data(edit, kwargs, exc, message):
    # each error has its type and its exact message, naming the node where
    # the fault is a node's
    costs = {nid: fn for nid, fn in {**_PLAIN, **edit}.items() if fn is not None}
    with pytest.raises(exc) as err:
        StageProblem(binary_tree(), **{"dims": [1, 1], "node_costs": costs, **kwargs})
    assert type(err.value) is exc and str(err.value) == message


def _affine_or_polyhedral(rng, kind, keep, own):
    """A bounded cost over (kept block, own block): an affine Quadratic
    whose rows fix the own block as an affine map of the kept one, or a
    Polyhedral with random pieces on a box of the own block."""
    d = keep + own
    if kind == "quad":
        A = np.hstack([rng.standard_normal((own, keep)), np.eye(own)])
        return Quadratic(np.zeros((d, d)), rng.standard_normal(d), float(rng.standard_normal()),
                         A, rng.standard_normal(own))
    k = int(rng.integers(1, 3))
    box = np.hstack([np.zeros((2 * own, keep)), np.vstack([np.eye(own), -np.eye(own)])])
    return Polyhedral(rng.standard_normal((k, d)), rng.standard_normal(k), box,
                      rng.uniform(0.5, 2.0, 2 * own))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(first=st.sampled_from(["quad", "poly"]), seed=st.integers(0, 2**32 - 1))
def test_affine_quadratics_join_polyhedral_sums_as_stacks(first, seed):
    # stages alternate affine Quadratic and Polyhedral costs, starting with
    # `first`, and a third of the nodes after a stage's first take the other
    # kind: costs meet tails of the other backend in both orders, and so do
    # the children of one node.  The sweep promotes the affine members as
    # stacks, calling no per-object add or partial_min, and its value is the
    # flat LP's
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 3))
    tree = random_tree(rng, T, 2)
    dims = [int(rng.integers(1, 3)) for _ in range(T + 1)]
    other = {"quad": "poly", "poly": "quad"}
    costs = {}
    for t in range(T + 1):
        for j, nid in enumerate(tree.stage_nodes[t]):
            kind = first if t % 2 == 0 else other[first]
            kind = other[kind] if j and rng.random() < 1 / 3 else kind
            costs[nid] = _affine_or_polyhedral(rng, kind, dims[t - 1] if t else 0, dims[t])
    sp = StageProblem(tree, dims, node_costs=costs)
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((Quadratic, "add"), (Polyhedral, "add"), (convexfn, "partial_min"),
                            (bellman, "partial_min"), (bellman, "_affine_pstack")):
            mp.setattr(owner, name, counted(name, getattr(owner, name)))
        sol = solve_be(sp)
    assert set(calls) == {"_affine_pstack"}
    value, _, info = solve_extensive(build_flat(sp))
    assert info.get("lp_vertex")
    assert abs(sol.value - value) <= 1e-9 * (1 + abs(value))
