"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from stochbellman.bellman import (build_flat, extract_policy, solve_be,
                                  tilt_by_p, verify_optimality)
from stochbellman.control import (as_stage_problem, lq_costs, riccati,
                                  riccati_policy, solve_oc, verify_oc_policy)
from stochbellman.convexfn import Inf, Quadratic, cond_expect_fn, recession
from stochbellman.errors import NotMarkov
from stochbellman.extensive import solve_extensive
from stochbellman.generators import (always_up_market, binomial_market,
                                     gaussian_return_market, lq_instance,
                                     markov_reward_tree,
                                     path_dependent_reward_tree,
                                     quadratic_lagrange_instance, random_tree,
                                     reward_tree)
from stochbellman.hedging import (MarketModel, ae_estimate, exp_utility,
                                  na_check)
from stochbellman.bellman import Policy
from stochbellman.lagrange import solve_lagrange
from stochbellman.stopping import (enumerate_stopping_times, markov_check,
                                   optimal_stop, ros_as_bellman, snell)
from stochbellman.tree import (AdaptedProcess, PerpProcess, cond_expect_scalar,
                               expected_pairing, martingale_increments,
                               perp_check, validate_tree)

from helpers import monotone_root


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(100):
        d = 1 + seed % 3
        inst = quadratic_lagrange_instance(seed, T=3, d=d, branching=2)
        vv = solve_lagrange(inst)
        ext, _, _ = solve_extensive(build_flat(inst.as_stage_problem()))
        worst = max(worst, abs(vv.value - ext))
        assert abs(vv.value - ext) <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(1, f"100 quadratic instances, worst |DP - KKT| = {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_2_stopping_three_way():
    worst = 0.0
    for seed in range(50):
        tree, R = reward_tree(seed, T=4, branching=3, rule_cap=50000)
        S = snell(R)
        snell_val = S[tree.root]
        _, ros_val = ros_as_bellman(R)
        enum_val = max(r.value(R) for r in enumerate_stopping_times(
            tree, rule_cap=50000))
        worst = max(worst, abs(ros_val - snell_val), abs(enum_val - snell_val))
        assert abs(ros_val - snell_val) <= 1e-10
        assert abs(enum_val - snell_val) <= 1e-10
        rule, _ = optimal_stop(R, S)
        for nid in rule.stop_nodes:
            assert S[nid] == float(R[nid])  # exact equality at stop nodes
    report(2, f"50 reward trees, worst three-way gap = {worst:.2e}")


def test_criterion_3_riccati_validation():
    from helpers import chain_tree
    from stochbellman.control import ControlSystem
    tree = chain_tree(1)
    sys_ = ControlSystem(tree, 1, 1, A={"n1": [[0.0]]}, B={"n1": [[1.0]]},
                         W={"n1": [0.0]})
    ones = {"n0": [[1.0]], "n1": [[1.0]]}
    rd = riccati(sys_, ones, ones)
    assert rd.K["n0"][0, 0] == pytest.approx(1.5, abs=1e-12)
    assert rd.Lam["n0"][0, 0] == pytest.approx(0.5, abs=1e-12)
    assert "halved" in rd.note and "1.75" in rd.note  # delta documented

    worst = 0.0
    for seed in range(50):
        N = 1 + seed % 2
        M = 1 + (seed // 2) % 2
        sys_, Qm, Rm = lq_instance(seed, T=2, N=N, M=M)
        rdi = riccati(sys_, Qm, Rm)
        costs = lq_costs(sys_, Qm, Rm)
        sol = solve_oc(sys_, costs)
        x0 = np.linspace(-0.8, 0.8, N)
        sp = as_stage_problem(sys_, costs, x0=x0)
        ext, _, _ = solve_extensive(build_flat(sp))
        v_r, v_o = rdi.value(sys_.tree, x0), sol.value(x0)
        worst = max(worst, abs(v_r - v_o), abs(v_r - ext))
        assert abs(v_r - v_o) <= 1e-8
        assert abs(v_r - ext) <= 1e-8
        X, U = riccati_policy(sys_, rdi, x0)
        assert verify_oc_policy(sys_, sol, X, U)
        sbe = solve_be(sp)
        fp = build_flat(sp)
        dec = {nid: np.concatenate([X[nid], U[nid]]) for nid in sys_.tree.nodes}
        pol = Policy(sp, dec, {}, fp.eval(fp.pack(dec)))
        assert verify_optimality(pol, sbe)
    report(3, f"hand instance K0=1.5, gain 0.5; 50 LQ trees, worst gap = {worst:.2e}")


def test_criterion_4_exponential_utility():
    # wealth independence across a 21-point grid
    market = binomial_market(11, T=1)
    res = exp_utility(market, rho=1.5)
    tree = market.tree
    kids = tree.children[tree.root]
    data = [(float(tree.nodes[k].prob), res.alpha[k], market.returns(k)[0])
            for k in kids]
    ref = res.controls[tree.root][0]
    spread = 0.0
    for X in np.linspace(-5.0, 5.0, 21):
        def slope(U):  # increasing: its root is the minimizer
            return sum(-1.5 * r * p * a * math.exp(-1.5 * (X + r * U))
                       for p, a, r in data)
        u = monotone_root(slope, -50.0, 50.0)
        spread = max(spread, abs(u - ref))
        assert abs(u - ref) <= 1e-12

    # two-point closed form U = ln(p/(1-p)) / (2 r) at unit risk aversion
    e = math.e
    tree2 = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "u", "parent": "r", "prob": e / (1 + e), "stage": 1},
        {"id": "d", "parent": "r", "prob": 1 / (1 + e), "stage": 1},
    ])
    s = AdaptedProcess(tree2, {"r": np.array([1.0]), "u": np.array([1.5]),
                               "d": np.array([0.5])})
    res2 = exp_utility(MarketModel(tree2, s), rho=1.0)
    p, r = e / (1 + e), 0.5
    closed = math.log(p / (1 - p)) / (2 * r)
    assert res2.controls["r"][0] == pytest.approx(closed, abs=1e-8)

    # 101-atom quantile discretization of a normal return
    mu, sigma, rho = 0.05, 0.2, 2.0
    market3 = gaussian_return_market(mu, sigma, atoms=101)
    res3 = exp_utility(market3, rho=rho)
    target = mu / (sigma * sigma * rho)
    got = res3.controls[market3.tree.root][0]
    gap = abs(got - target) / abs(target)
    assert gap <= 0.02
    report(4, f"wealth spread {spread:.1e}; closed form hit; "
              f"gaussian gap {100 * gap:.2f}%")


def test_criterion_5_na_detection():
    verdict = na_check(always_up_market())
    assert not verdict.passed
    assert verdict.direction is not None
    (nid, vec), = verdict.direction.items()
    assert vec[0] > 0  # long position is the arbitrage

    tree = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": 0.25, "stage": 1},
        {"id": "b", "parent": "r", "prob": 0.75, "stage": 1},
    ])
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([0.5]),
                              "b": np.array([2.0])})
    assert na_check(MarketModel(tree, s)).passed  # q = 2/3 prices it

    flips = 0
    for seed in range(20):
        market = binomial_market(seed)
        base = na_check(market)
        rng = np.random.default_rng(10_000 + seed)
        D = {}
        for t in range(market.tree.T):
            for nid in market.tree.stage_nodes[t]:
                D[nid] = (rng.standard_normal((2, market.J)), np.zeros(2))
        tight = na_check(MarketModel(market.tree, market.s, D=D, c=market.c))
        if base.passed and not tight.passed:
            flips += 1
    assert flips == 0
    report(5, "always-up FAIL with direction, martingale PASS, 20 shrink checks")


def _exact_quadratic(rng):
    """1-D quadratic with Fraction coefficients (and its float twin)."""
    a = Fraction(int(rng.integers(0, 5)), int(rng.integers(1, 4)))
    b = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    fn = Quadratic([[2 * float(a)]], [float(b)], float(c))
    return (a, b, c), fn


def _exact_eval(coeffs, x):
    a, b, c = coeffs
    return a * x * x + b * x + c


def _exact_tree(rng, fanout):
    dens = [int(rng.integers(1, 5)) for _ in range(fanout - 1)]
    probs = []
    rem = Fraction(1)
    for k in range(fanout - 1):
        p = rem * Fraction(1, dens[k] + 1)
        probs.append(p)
        rem -= p
    probs.append(rem)
    recs = [{"id": "r", "parent": None, "prob": Fraction(1), "stage": 0}]
    for j, p in enumerate(probs):
        recs.append({"id": f"c{j}", "parent": "r", "prob": p, "stage": 1})
    return validate_tree(recs, exact=True), probs


def test_criterion_6_conditional_expectation_laws():
    rng = np.random.default_rng(606)
    cases = 0
    for trial in range(100):
        fanout = 2 + trial % 2
        tree, probs = _exact_tree(rng, fanout)
        fprobs = [float(p) for p in probs]
        coeffs, fns = zip(*[_exact_quadratic(rng) for _ in range(fanout)])
        coeffs2, fns2 = zip(*[_exact_quadratic(rng) for _ in range(fanout)])
        xq = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        x = float(xq)

        # additivity: E(f + g) = Ef + Eg
        lhs = cond_expect_fn(list(zip(fprobs, [f.add(g) for f, g in zip(fns, fns2)])))
        rhs_f = cond_expect_fn(list(zip(fprobs, fns)))
        rhs_g = cond_expect_fn(list(zip(fprobs, fns2)))
        assert abs(lhs.eval([x]) - rhs_f.eval([x]) - rhs_g.eval([x])) <= 1e-10
        sum_vals = {f"c{j}": _exact_eval(coeffs[j], xq) + _exact_eval(coeffs2[j], xq)
                    for j in range(fanout)}
        fvals = {f"c{j}": _exact_eval(coeffs[j], xq) for j in range(fanout)}
        gvals = {f"c{j}": _exact_eval(coeffs2[j], xq) for j in range(fanout)}
        e_sum = cond_expect_scalar(AdaptedProcess(tree, sum_vals), 0)["r"]
        e_f = cond_expect_scalar(AdaptedProcess(tree, fvals), 0)["r"]
        e_g = cond_expect_scalar(AdaptedProcess(tree, gvals), 0)["r"]
        assert e_sum == e_f + e_g  # exact Fractions
        cases += 1

        # monotonicity: g = f + nonnegative offset
        bump = Fraction(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
        gde = cond_expect_fn(list(zip(fprobs, [f.add(Quadratic([[0.0]], [0.0], float(bump)))
                                               for f in fns])))
        assert rhs_f.eval([x]) <= gde.eval([x]) + 1e-10
        e_bumped = cond_expect_scalar(
            AdaptedProcess(tree, {k: v + bump for k, v in fvals.items()}), 0)["r"]
        assert e_f <= e_bumped
        assert e_bumped - e_f == bump
        cases += 1

        # monotone convergence by nondecreasing shifts f - 1/n
        seq = [cond_expect_fn(list(zip(fprobs,
                                       [f.add(Quadratic([[0.0]], [0.0], -1.0 / n))
                                        for f in fns])))
               for n in (1, 2, 4, 8)]
        vals = [s.eval([x]) for s in seq]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - (rhs_f.eval([x]) - 0.125)) <= 1e-10
        exact_seq = [cond_expect_scalar(
            AdaptedProcess(tree, {k: v - Fraction(1, n) for k, v in fvals.items()}),
            0)["r"] for n in (1, 2, 4, 8)]
        assert all(a <= b for a, b in zip(exact_seq, exact_seq[1:]))
        assert exact_seq[-1] == e_f - Fraction(1, 8)
        cases += 1
    assert cases >= 300

    # tower and recession-commutation on two-stage trees
    for trial in range(100):
        p1 = Fraction(1, int(rng.integers(2, 5)))
        p2 = Fraction(1, int(rng.integers(2, 5)))
        recs = [
            {"id": "r", "parent": None, "prob": Fraction(1), "stage": 0},
            {"id": "u", "parent": "r", "prob": p1, "stage": 1},
            {"id": "d", "parent": "r", "prob": 1 - p1, "stage": 1},
            {"id": "uu", "parent": "u", "prob": p2, "stage": 2},
            {"id": "ud", "parent": "u", "prob": 1 - p2, "stage": 2},
            {"id": "du", "parent": "d", "prob": p2, "stage": 2},
            {"id": "dd", "parent": "d", "prob": 1 - p2, "stage": 2},
        ]
        tree = validate_tree(recs, exact=True)
        leaf_vals = {nid: Fraction(int(rng.integers(-9, 10)),
                                   int(rng.integers(1, 6)))
                     for nid in tree.stage_nodes[2]}
        proc = AdaptedProcess(tree, leaf_vals)
        nested = cond_expect_scalar(cond_expect_scalar(proc, 1), 0)["r"]
        direct = cond_expect_scalar(proc, 0)["r"]
        assert nested == direct  # exact tower
        cases += 1

        # float tower through the function algebra
        fns = {nid: Quadratic([[2.0]], [float(leaf_vals[nid])]) for nid in leaf_vals}
        mid_u = cond_expect_fn([(float(p2), fns["uu"]), (float(1 - p2), fns["ud"])])
        mid_d = cond_expect_fn([(float(p2), fns["du"]), (float(1 - p2), fns["dd"])])
        nested_fn = cond_expect_fn([(float(p1), mid_u), (float(1 - p1), mid_d)])
        direct_fn = cond_expect_fn(
            [(float(tree.prob(nid)), fns[nid]) for nid in tree.stage_nodes[2]])
        for xv in (-1.0, 0.0, 2.0):
            assert abs(nested_fn.eval([xv]) - direct_fn.eval([xv])) <= 1e-10

        # recession commutes with the expectation (shared flat direction)
        basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        qs = []
        for _ in range(2):
            diag = np.diag([float(rng.uniform(0.5, 2.0)), 0.0])
            qs.append(Quadratic(basis @ diag @ basis.T, rng.standard_normal(2)))
        pr = float(p1)
        left = recession(cond_expect_fn([(pr, qs[0]), (1 - pr, qs[1])]))
        right = cond_expect_fn([(pr, recession(qs[0])),
                                (1 - pr, recession(qs[1]))])
        for _ in range(3):
            dvec = rng.standard_normal(2)
            a, b = left.eval(dvec), right.eval(dvec)
            if a == Inf or b == Inf:
                assert a == b
            else:
                assert abs(a - b) <= 1e-10
        cases += 2
    assert cases >= 500
    report(6, f"{cases} randomized law cases, exact rational path + 1e-10 floats")


def test_criterion_7_perp_lemma_and_tilt():
    rng = np.random.default_rng(707)
    worst = 0.0
    pairs = 0
    while pairs < 500:
        T = int(rng.integers(1, 4))
        tree = random_tree(rng, T, branching=2)
        vals = {tree.root: np.array([1.0])}
        for t in range(T):
            for nid in tree.stage_nodes[t]:
                kids = tree.children[nid]
                pi = np.array([float(tree.nodes[k].prob) for k in kids])
                jumps = rng.uniform(-1.0, 1.0, size=len(kids))
                jumps -= pi @ jumps
                for k, j in zip(kids, jumps):
                    vals[k] = vals[nid] + np.array([j])
        s = AdaptedProcess(tree, vals)
        v = martingale_increments(s)
        assert perp_check(v)
        x = {nid: rng.standard_normal(1) for nid in tree.nodes}
        gap = abs(expected_pairing(tree, x, v))
        worst = max(worst, gap)
        assert gap <= 1e-10
        pairs += 1

    argmin_worst = 0.0
    for seed in range(50):
        inst = quadratic_lagrange_instance(seed + 300, T=2, d=1)
        sp = inst.as_stage_problem()
        tree = sp.tree
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
        entries[tree.T] = (tree.T, {nid: np.zeros(1)
                                    for nid in tree.stage_nodes[tree.T]})
        v = PerpProcess(tree, entries)
        tilted = tilt_by_p(sp, v)
        p0 = extract_policy(solve_be(sp))
        p1 = extract_policy(solve_be(tilted))
        for nid in tree.nodes:
            gap = float(np.max(np.abs(p0.decisions[nid] - p1.decisions[nid])))
            argmin_worst = max(argmin_worst, gap)
            assert gap <= 1e-8
    report(7, f"500 pairings, worst |E[x.v]| = {worst:.1e}; "
              f"50 tilt instances, worst argmin gap = {argmin_worst:.1e}")


def test_criterion_8_ae_estimator():
    res_exp = ae_estimate(lambda u: math.exp(u))
    assert res_exp.reasonable and res_exp.ae_plus > 10.0
    res_sq = ae_estimate(lambda u: max(u, 0.0) ** 2)
    assert abs(res_sq.ae_plus - 2.0) <= 0.05
    res_lin = ae_estimate(lambda u: max(u, 0.0))
    assert abs(res_lin.ae_plus - 1.0) <= 1e-6
    assert not res_lin.reasonable
    report(8, f"exp -> {res_exp.ae_plus:.1f} (flag), square hinge -> "
              f"{res_sq.ae_plus:.4f}, hinge -> {res_lin.ae_plus:.8f}")


def test_criterion_9_markov_reduction():
    for seed in range(20):
        tree, R = markov_reward_tree(seed, T=3, branching=2)
        tables = markov_check(R)
        S = snell(R)
        for t, tab in enumerate(tables):
            for nid in tree.stage_nodes[t]:
                key = round(float(R[nid]) / 1e-12) * 1e-12
                assert abs(tab[key] - S[nid]) <= 1e-12
    tree, R = path_dependent_reward_tree()
    with pytest.raises(NotMarkov) as err:
        markov_check(R)
    assert "a" in str(err.value) or "b" in str(err.value)
    report(9, "20 Markov trees reduced; path-dependent witness rejected")
