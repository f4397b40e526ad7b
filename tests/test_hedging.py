import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochbellman.convexfn import Inf, Quadratic, Sampled1D
from stochbellman.errors import (ArbitrageRefusal, NonMonotone, UnboundedExp,
                                 ValidationError)
from stochbellman.generators import (always_up_market, binomial_market,
                                     gaussian_return_market)
from stochbellman.hedging import (MarketModel, _cash_interval, _convexify, _hat_rows, _line_min,
                                  _tabulate, ae_estimate, exp_utility, na_check, solve_alm)
from stochbellman.tree import AdaptedProcess, validate_tree

from helpers import binary_tree, kkt_certificate, monotone_root, two_asset_market


def binomial(prices=(1.0, 0.5, 2.0), probs=(0.5, 0.5), claim=(0.0, 1.5)):
    tree = binary_tree(probs)
    s = AdaptedProcess(tree, {"r": np.array([prices[0]]),
                              "a": np.array([prices[1]]),
                              "b": np.array([prices[2]])})
    return MarketModel(tree, s, c={"a": claim[0], "b": claim[1]})


def test_na_fail_always_up():
    verdict = na_check(always_up_market())
    assert not verdict.passed
    assert verdict.optimum > 1.0 - 1e-9
    (nid, vec), = verdict.direction.items()
    assert vec[0] == pytest.approx(1.0, abs=1e-9)  # long position at the cap


def test_na_pass_binomial():
    # martingale measure q = 2/3 solves 0.5 q + 2 (1 - q) = 1
    verdict = na_check(binomial())
    assert verdict.passed
    assert abs(verdict.optimum) <= 1e-9


def test_na_pass_martingale_under_p():
    tree = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": 2.0 / 3.0, "stage": 1},
        {"id": "b", "parent": "r", "prob": 1.0 / 3.0, "stage": 1},
    ])
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([0.5]),
                              "b": np.array([2.0])})
    from stochbellman.tree import martingale_increments, perp_check
    assert perp_check(martingale_increments(s))
    assert na_check(MarketModel(tree, s)).passed


def test_na_monotone_under_constraint_shrinking():
    for seed in range(20):
        market = binomial_market(seed)
        base = na_check(market)
        rng = np.random.default_rng(seed + 1000)
        D = {}
        for t in range(market.tree.T):
            for nid in market.tree.stage_nodes[t]:
                G = rng.standard_normal((1, market.J))
                D[nid] = (G, np.zeros(1))
        shrunk = MarketModel(market.tree, market.s, D=D, c=market.c)
        tight = na_check(shrunk)
        if base.passed:
            assert tight.passed  # adding rows never creates arbitrage


def test_zero_price_rejected():
    tree = binary_tree()
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([0.0]),
                              "b": np.array([2.0])})
    with pytest.raises(ValidationError):
        MarketModel(tree, s)


def test_alm_quadratic_matches_hand_kkt():
    market = binomial()
    res = solve_alm(market, Quadratic([[2.0]], [0.0]), wealth=0.0)
    # minimize .5 (0.5 U)^2 + .5 (1.5 - U)^2 -> U = 1.2, value 0.225
    assert res.value == pytest.approx(0.225, abs=1e-8)
    assert res.controls["r"][0] == pytest.approx(1.2, abs=1e-8)


def test_alm_nothing_to_hedge():
    market = binomial(claim=(0.0, 0.0))
    # martingale measure exists but P is not it; with V = u^2 and c = 0 the
    # no-trade plan is optimal only on P-martingale markets, so build one
    tree = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": 2.0 / 3.0, "stage": 1},
        {"id": "b", "parent": "r", "prob": 1.0 / 3.0, "stage": 1},
    ])
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([0.5]),
                              "b": np.array([2.0])})
    m = MarketModel(tree, s, c={"a": 0.0, "b": 0.0})
    res = solve_alm(m, Quadratic([[2.0]], [0.0]), wealth=0.0)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert res.controls["r"][0] == pytest.approx(0.0, abs=1e-8)


def test_alm_value_nonincreasing_in_wealth():
    # the quadratic shortfall is not monotone; use a nondecreasing hinge
    # loss and one shared wealth grid so the bias cancels across solves
    market = binomial()
    knots = np.linspace(-8.0, 8.0, 3201)
    hinge = Sampled1D(knots, np.maximum(knots, 0.0))
    grid = np.linspace(-6.0, 6.0, 1201)
    vals = [solve_alm(market, hinge, wealth=w, grid=grid).value
            for w in (-0.5, 0.0, 0.5, 1.0)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


def test_alm_grid_controls_attain_node_tables():
    # every interior node's forward-pass control attains that node's own
    # table value at the wealth the path reaches, not only at the root
    market = binomial_market(4, T=2)
    knots = np.linspace(-8.0, 8.0, 1601)
    res = solve_alm(market, Sampled1D(knots, np.abs(knots)), wealth=0.2)
    tree = market.tree
    X = {tree.root: 0.2}
    for t in range(tree.T):
        for nid in tree.stage_nodes[t]:
            U = float(res.controls[nid][0])
            for k in tree.children[nid]:
                X[k] = X[nid] + float(market.returns(k)[0]) * U
            attained = sum(float(tree.nodes[k].prob) * res.solution.records[k]["J"].eval(X[k])
                           for k in tree.children[nid])
            table = res.solution.records[nid]["J"].eval(X[nid])
            assert attained == pytest.approx(table, abs=1e-9)


def test_alm_refuses_a_grid_hedge_of_two_assets():
    # the wealth grid hedges one asset: a quadratic loss on a two-asset
    # market with position rows would take it, so it is refused before the
    # no-arbitrage LP, naming the asset count (a grid loss: the
    # normal-equations test below)
    market = two_asset_market(D={"r": ([[-1.0, 0.0]], [-0.5])})
    with pytest.raises(ValidationError, match="the market has 2"):
        solve_alm(market, Quadratic([[2.0]], [0.0]))


def test_alm_grid_position_rows_match_flat_lp():
    from stochbellman.convexfn import Polyhedral
    from stochbellman.extensive import FlatProgram, Term, solve_extensive
    # root price 2, so the share bounds -0.25 <= x <= 0.5 are -0.5 <= U <= 1;
    # the unconstrained optimum U = 1.5 is cut off at the upper bound
    market = binomial(prices=(2.0, 1.0, 4.0))
    D = {"r": ([[1.0], [-1.0]], [0.5, 0.25])}
    market = MarketModel(market.tree, market.s, D=D, c=market.c)
    # V(u) = max(-u/4, u, 3u - 2), kinks at 0 and 1; every c - X on the
    # 0.01 wealth grid is a multiple of 0.01, so the tables are exact
    pieces_a, pieces_b = np.array([[-0.25], [1.0], [3.0]]), np.array([0.0, 0.0, -2.0])
    knots = np.linspace(-8.0, 8.0, 33)
    V = Sampled1D(knots, np.max(pieces_a[:, 0] * knots[:, None] + pieces_b, axis=1))
    res = solve_alm(market, V, wealth=0.0, grid=np.linspace(-4.0, 4.0, 801))
    Vpoly = Polyhedral(pieces_a, pieces_b, [[1.0], [-1.0]], [8.0, 8.0])
    G, g = market.D["r"]
    terms = [Term(float(market.tree.prob(leaf)), Vpoly, [0],
                  M=[[-market.returns(leaf)[0]]], t=[market.c[leaf]])
             for leaf in market.tree.leaves()]
    terms.append(Term(1.0, Polyhedral([[0.0]], [0.0], G, g), [0], M=[[0.5]], t=[0.0]))
    value_lp, z, _ = solve_extensive(FlatProgram(1, terms))
    assert value_lp == pytest.approx(0.5, abs=1e-9)
    assert res.value == pytest.approx(value_lp, abs=1e-9)
    assert res.controls["r"][0] == pytest.approx(z[0], abs=1e-9)
    assert res.positions["r"][0] == pytest.approx(0.5, abs=1e-9)


def test_alm_grid_arbitrage_forced_reaches_domain_end():
    # always-up returns 1 and 2: with a loss decreasing in wealth on the
    # whole grid the best cash position is the largest the child tables
    # allow, U = min((2 - X) / 1, (2 - X) / 2) = 1 at X = 0
    market = always_up_market()
    knots = np.linspace(-8.0, 8.0, 161)
    hinge = Sampled1D(knots, np.maximum(knots + 3.0, 0.0))
    res = solve_alm(market, hinge, wealth=0.0, refuse_arbitrage=False)
    assert not res.verdict.passed
    tree = market.tree
    kids = [(float(tree.nodes[k].prob), float(market.returns(k)[0]), res.solution.records[k]["J"])
            for k in tree.children[tree.root]]
    best, u_ref = _brute_one_asset(0.0, kids, [])
    assert res.value == pytest.approx(best, abs=1e-12)
    assert best == pytest.approx(0.5 * 2.0 + 0.5 * 1.0, abs=1e-12)
    assert res.controls[tree.root][0] == pytest.approx(u_ref, abs=1e-12)
    assert u_ref == pytest.approx(1.0, abs=1e-12)


def slack_root_row(market, bound=100.0):
    """The market with the root position row x <= bound, far from every
    optimum here: a Quadratic loss on it takes the wealth grid."""
    return MarketModel(market.tree, market.s, D={market.tree.root: ([[1.0]], [bound])},
                       c=market.c)


def test_alm_grid_scale_gate_31_nodes():
    # ROADMAP scale gate: 31 nodes through the wealth grid, against the
    # exact quadratic driver
    market = binomial_market(9, T=4)
    exact = solve_alm(market, Quadratic([[2.0]], [0.0]), wealth=0.0)
    grid = solve_alm(slack_root_row(market), Quadratic([[2.0]], [0.0]), wealth=0.0)
    assert grid.value == pytest.approx(exact.value, rel=1e-3)


def test_alm_refuses_arbitrage_unless_forced():
    market = always_up_market()
    with pytest.raises(ArbitrageRefusal):
        solve_alm(market, Quadratic([[2.0]], [0.0]))
    res = solve_alm(market, Quadratic([[2.0]], [0.0]), refuse_arbitrage=False)
    assert not res.verdict.passed


def test_alm_grid_driver_close_to_exact():
    market = binomial()
    exact = solve_alm(market, Quadratic([[2.0]], [0.0]), wealth=0.0)
    grid = solve_alm(slack_root_row(market), Quadratic([[2.0]], [0.0]), wealth=0.0)
    assert grid.value == pytest.approx(exact.value, rel=1e-4, abs=1e-6)


def test_alm_grid_vs_breakpoint_enumeration():
    # the wealth grid's root value and control are the exact minimum of its
    # leaf tables over the root's cash position, near the continuous 0.225
    market = binomial()
    knots = np.linspace(-10.0, 10.0, 8001)
    res = solve_alm(market, Sampled1D(knots, knots ** 2), wealth=0.0,
                    grid=np.linspace(-4.0, 4.0, 2001))
    tree = market.tree
    kids = [(float(tree.nodes[k].prob), float(market.returns(k)[0]), res.solution.records[k]["J"])
            for k in tree.children[tree.root]]
    best, u_ref = _brute_one_asset(0.0, kids, [])
    assert res.value == pytest.approx(best, abs=1e-12)
    assert res.controls[tree.root][0] == pytest.approx(u_ref, abs=1e-12)
    assert best == pytest.approx(0.225, abs=1e-4)


def test_alm_per_leaf_losses_take_one_route_in_either_leaf_order():
    # a Quadratic u^2 at one leaf and a knot table of u^2 at the other: the
    # route does not hang on the first leaf's loss, so both orders take the
    # wealth grid, whose knots hold the exact 0.225 at U = 1.2
    market = binomial()
    knots = np.linspace(-10.0, 10.0, 8001)
    quad, table = Quadratic([[2.0]], [0.0]), Sampled1D(knots, knots ** 2)
    grid = np.linspace(-4.0, 4.0, 2001)
    res = [solve_alm(market, {"a": first, "b": second}, wealth=0.0, grid=grid)
           for first, second in ((quad, table), (table, quad))]
    for r in res:
        assert r.value == pytest.approx(0.225, abs=1e-12)
        assert r.controls["r"][0] == pytest.approx(1.2, abs=1e-12)


def test_exp_utility_symmetric_two_point():
    tree = binary_tree()
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([1.3]),
                              "b": np.array([0.7])})
    res = exp_utility(MarketModel(tree, s), rho=2.0)
    assert res.controls["r"][0] == pytest.approx(0.0, abs=1e-8)


def test_exp_utility_two_point_closed_form():
    e = math.e
    tree = binary_tree((e / (1 + e), 1 / (1 + e)))
    s = AdaptedProcess(tree, {"r": np.array([1.0]), "a": np.array([1.5]),
                              "b": np.array([0.5])})
    res = exp_utility(MarketModel(tree, s), rho=1.0)
    p = e / (1 + e)
    closed = math.log(p / (1 - p)) / (2 * 0.5)
    assert res.controls["r"][0] == pytest.approx(closed, abs=1e-8)


def test_exp_utility_wealth_independence_grid():
    # at each wealth the root's control is the root of the objective's
    # increasing derivative in U, bisected to the last float
    market = binomial_market(11, T=1)
    res = exp_utility(market, rho=1.5)
    tree = market.tree
    kids = tree.children[tree.root]
    rets = [market.returns(k) for k in kids]
    probs = [float(tree.nodes[k].prob) for k in kids]
    alphas = [res.alpha[k] for k in kids]
    ref = res.controls[tree.root][0]
    for X in np.linspace(-5.0, 5.0, 21):
        def slope(U):
            return sum(-1.5 * r[0] * p * a * math.exp(-1.5 * (X + r[0] * U))
                       for p, a, r in zip(probs, alphas, rets))
        assert monotone_root(slope, -50.0, 50.0) == pytest.approx(ref, abs=1e-12)


def test_exp_utility_scale_covariance():
    market = binomial(claim=(0.3, 0.9))
    rho = 1.2
    res1 = exp_utility(market, rho=rho)
    doubled = {leaf: 2 * market.c[leaf] for leaf in market.tree.leaves()}
    res2 = exp_utility(market, rho=rho, c=doubled)
    # terminal factors scale by exp(rho * dc) nodewise
    for leaf in market.tree.leaves():
        dc = doubled[leaf] - market.c[leaf]
        assert res2.alpha[leaf] == pytest.approx(
            res1.alpha[leaf] * math.exp(rho * dc), rel=1e-12)


def test_exp_utility_unbounded_on_arbitrage():
    with pytest.raises(UnboundedExp):
        exp_utility(always_up_market(), rho=1.0)


def test_exp_utility_gaussian_discretization():
    mu, sigma, rho = 0.05, 0.2, 2.0
    market = gaussian_return_market(mu, sigma, atoms=101)
    res = exp_utility(market, rho=rho)
    target = mu / (sigma * sigma * rho)
    got = res.controls[market.tree.root][0]
    assert abs(got - target) / abs(target) <= 0.02


def _two_point(probs, prices):
    tree = binary_tree(probs)
    return MarketModel(tree, AdaptedProcess(tree, {nid: np.array([v]) for nid, v in
                                                   zip("rab", prices)}))


def _floored(market, shares=2.0):
    """The market with the root row x >= shares."""
    return MarketModel(market.tree, market.s, c=market.c,
                       D={market.tree.root: ([[-1.0]], [-shares])})


# every exponential-loss input of the tests, as (market, rho)
EXP_CASES = {
    "symmetric": lambda: (_two_point((0.5, 0.5), (1.0, 1.3, 0.7)), 2.0),
    "closed form": lambda: (_two_point((math.e / (1 + math.e), 1 / (1 + math.e)),
                                       (1.0, 1.5, 0.5)), 1.0),
    "binomial 11": lambda: (binomial_market(11, T=1), 1.5),
    "claims": lambda: (binomial(claim=(0.3, 0.9)), 1.2),
    "gaussian": lambda: (gaussian_return_market(0.05, 0.2, atoms=101), 2.0),
    "market 5": lambda: (binomial_market(5), 2.0),
    "market 9 floor": lambda: (_floored(binomial_market(9)), 2.0),
    **{f"two assets T={T}": (lambda T=T: (two_asset_market(T=T), 1.0)) for T in (1, 2, 3)},
}


@pytest.mark.parametrize("case", list(EXP_CASES))
def test_exp_utility_nodes_carry_kkt_certificates(case):
    # at each interior node, with q proportional to p alpha exp(-rho r.U):
    # E_q r vanishes where no row binds (the minimal-entropy martingale
    # measure), and a binding row's multiplier is nonnegative
    market, rho = EXP_CASES[case]()
    res = exp_utility(market, rho=rho)
    tree = market.tree
    bound = set()
    for nid in tree.nodes:
        kids = tree.children[nid]
        if not kids:
            continue
        R = np.array([market.returns(k) for k in kids])
        z = np.array([math.log(tree.nodes[k].prob) + res.log_alpha[k] for k in kids])
        z -= rho * (R @ res.controls[nid])
        q = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        G, h = _hat_rows(market, nid) or (np.zeros((0, market.J)), np.zeros(0))
        residual, least = kkt_certificate(-(q @ R), res.controls[nid], G, h)
        assert residual <= 1e-12 and least >= -1e-12, nid
        if least < Inf:
            bound.add(nid)
    assert bound == ({tree.root} if case.endswith("floor") else set())


def test_ae_exponential():
    res = ae_estimate(lambda u: math.exp(u))
    assert res.reasonable
    assert res.ae_plus > 10.0


def test_ae_squared_hinge():
    res = ae_estimate(lambda u: max(u, 0.0) ** 2)
    assert res.ae_plus == pytest.approx(2.0, abs=0.05)
    assert res.reasonable


def test_ae_linear_hinge():
    res = ae_estimate(lambda u: max(u, 0.0))
    assert res.ae_plus == pytest.approx(1.0, abs=1e-6)
    assert not res.reasonable


def test_ae_rejects_decreasing():
    with pytest.raises(NonMonotone):
        ae_estimate(lambda u: -u)


def test_ae_accepts_sampled_backend():
    grid = np.linspace(-30.0, 30.0, 6001)
    fn = Sampled1D(grid, np.maximum(grid, 0.0) ** 2)
    res = ae_estimate(fn)
    assert res.ae_plus == pytest.approx(2.0, abs=0.05)


def test_support_function_diagnostics():
    from stochbellman.hedging import support_function_diagnostics
    market = binomial()
    y = {"a": 1.0, "b": 1.0}  # plain expectation: drifting market
    vals = support_function_diagnostics(market, y)
    assert vals["r"] == float("inf")  # unconstrained, nonzero moment
    # with the martingale density q = (4/3, 2/3) the moment vanishes
    y_mart = {"a": 4.0 / 3.0, "b": 2.0 / 3.0}
    vals2 = support_function_diagnostics(market, y_mart)
    assert vals2["r"] == pytest.approx(0.0, abs=1e-12)
    # boxed positions give a finite support value
    D = {"r": (np.vstack([np.eye(1), -np.eye(1)]), np.ones(2))}
    boxed = MarketModel(market.tree, market.s, D=D, c=market.c)
    vals3 = support_function_diagnostics(boxed, y)
    assert np.isfinite(vals3["r"]) and vals3["r"] >= 0.0


def test_na_verdict_invariant_to_cap():
    for market in (binomial(), always_up_market()):
        v1 = na_check(market, cap=1.0)
        v2 = na_check(market, cap=7.5)
        assert v1.passed == v2.passed


def test_per_leaf_losses():
    market = binomial()
    per_leaf = {"a": Quadratic([[2.0]], [0.0]), "b": Quadratic([[4.0]], [0.0])}
    res = solve_alm(market, per_leaf, wealth=0.0)
    # stationarity of .5 (.5 U)^2 + .5 * 2 (1.5 - U)^2: U = 12/9... solve:
    # d/dU [.125 U^2 + (1.5 - U)^2] = .25 U - 2(1.5 - U) = 0 -> U = 3/2.25
    U = 3.0 / 2.25
    assert res.controls["r"][0] == pytest.approx(U, abs=1e-8)


def test_alm_two_assets_matches_normal_equations():
    tree = validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": 0.3, "stage": 1},
        {"id": "b", "parent": "r", "prob": 0.3, "stage": 1},
        {"id": "c", "parent": "r", "prob": 0.4, "stage": 1},
    ])
    # increments admit the positive martingale measure (1, 2, 8)/11
    prices = {"r": np.array([1.0, 2.0]), "a": np.array([0.8, 2.6]),
              "b": np.array([1.3, 1.5]), "c": np.array([0.95, 2.05])}
    claims = {"a": 0.5, "b": -0.2, "c": 0.8}
    market = MarketModel(tree, AdaptedProcess(tree, prices), c=claims)
    w = 0.1
    res = solve_alm(market, Quadratic([[2.0]], [0.0]), wealth=w)
    # weighted least squares: minimize sum_k p_k (c_k - w - R_k . U)^2
    R = np.array([market.returns(k) for k in ("a", "b", "c")])
    p = np.array([0.3, 0.3, 0.4])
    rhs = np.array([claims[k] - w for k in ("a", "b", "c")])
    Wm = np.diag(p)
    U = np.linalg.solve(R.T @ Wm @ R, R.T @ Wm @ rhs)
    val = float(p @ (rhs - R @ U) ** 2)
    assert res.value == pytest.approx(val, abs=1e-10)
    assert np.allclose(res.controls["r"], U, atol=1e-8)
    # a sampled quadratic loss would take the wealth grid, which hedges
    # one asset
    knots = np.linspace(-10.0, 10.0, 4001)
    with pytest.raises(ValidationError, match="the market has 2"):
        solve_alm(market, Sampled1D(knots, knots ** 2), wealth=w)


# Dyadic data (quarter-step knots, integer slopes, returns, weights and
# row coefficients that are powers of two) keep every kink, slope sum and
# table value exact, so flat minima are exactly flat.
def _child_table(draw, most=6):
    n = draw(st.integers(1, most))
    k0 = draw(st.integers(-16, 4)) / 4.0
    gaps = [draw(st.integers(1, 8)) / 4.0 for _ in range(n - 1)]
    knots = k0 + np.concatenate([[0.0], np.cumsum(gaps)])
    slopes = np.sort([draw(st.integers(-4, 4)) for _ in range(n - 1)])
    values = draw(st.integers(-8, 8)) / 4.0 + np.concatenate(
        [[0.0], np.cumsum(slopes * np.asarray(gaps))])
    return Sampled1D(knots, values)


@st.composite
def one_asset_nodes(draw, most=6):
    kids = [(draw(st.sampled_from([0.125, 0.25, 0.5, 1.0])),
             draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])),
             _child_table(draw, most))
            for _ in range(draw(st.integers(1, 4)))]
    rows = [(draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])),
             draw(st.integers(-12, 12)) / 4.0)
            for _ in range(draw(st.integers(0, 3)))]
    return kids, rows


def _brute_one_asset(X, kids, rows):
    """Enumerate kinks, domain ends, row ends and 0; keep feasible ones."""
    def feasible(U):
        return (all(G * U <= g for G, g in rows)
                and all(tab.knots[0] <= X + r * U <= tab.knots[-1] for _, r, tab in kids))

    cands = [0.0] + [g / G for G, g in rows]
    for _, r, tab in kids:
        if r != 0.0:
            cands += [(k - X) / r for k in tab.knots]
    cands = [U for U in cands if feasible(U)]
    if not cands:
        return Inf, None
    vals = [sum(p * np.interp(X + r * U, tab.knots, tab.values) for p, r, tab in kids)
            for U in cands]
    best = min(vals)
    near = [U for U, v in zip(cands, vals) if v <= best + 1e-12 * (1.0 + abs(best))]
    return best, float(np.clip(0.0, min(near), max(near)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(node=one_asset_nodes())
def test_one_asset_kernel_matches_breakpoint_enumeration(node):
    kids, rows = node
    X = np.arange(-24, 25) / 4.0
    if rows:
        lo, hi = _cash_interval((np.array([[G] for G, _ in rows]),
                                 np.array([g for _, g in rows])))
    else:
        lo, hi = _cash_interval(None)
    vals, U = _line_min([X] * len(kids), kids, lo, hi)
    _check_one_asset(X, vals, U, kids, rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(node=one_asset_nodes(most=48))
def test_one_asset_kernel_on_long_tables_matches_breakpoint_enumeration(node):
    # tables of up to 48 knots: the line search takes several steps per child
    kids, rows = node
    X = np.arange(-24, 25) / 4.0
    G, g = np.array([[G] for G, _ in rows]).reshape(-1, 1), np.array([g for _, g in rows])
    lo, hi = _cash_interval((G, g) if rows else None)
    vals, U = _line_min([X] * len(kids), kids, lo, hi)
    _check_one_asset(X, vals, U, kids, rows)
    # one point alone reproduces its bits from the whole grid
    for i in range(0, X.size, 8):
        v1, u1 = _line_min([X[i:i + 1]] * len(kids), kids, lo, hi)
        assert v1[0] == vals[i] and np.array_equal(u1, U[i:i + 1], equal_nan=True)


def _check_one_asset(X, vals, U, kids, rows):
    for x, v, u in zip(X, vals, U):
        best, u_ref = _brute_one_asset(x, kids, rows)
        if best == Inf:
            assert v == Inf and np.isnan(u)
            continue
        # on dyadic data the minimum at a kink is computed without rounding
        assert v == best
        # the least-|U| minimizer, and it attains the value
        assert u == pytest.approx(u_ref, rel=1e-12, abs=1e-12)
        attained = sum(p * np.interp(x + r * u, tab.knots, tab.values) for p, r, tab in kids)
        assert attained == pytest.approx(best, rel=1e-12, abs=1e-12)


@st.composite
def raised_tables(draw):
    """Dyadic (knots, values): a convex base with integer slopes on
    quarter-step knots, raised at knots inside its segments by small steps
    (dips in the secant slopes), by a concave bump, or not at all (collinear
    runs).  The base's kinks and ends stay on it, so its exact lower hull
    is the base, with dyadic values."""
    x, v = [draw(st.integers(-8, 8)) / 4.0], [draw(st.integers(-8, 8)) / 4.0]
    for slope in sorted(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))):
        gaps = np.cumsum([draw(st.integers(1, 4)) / 4.0 for _ in range(draw(st.integers(1, 4)))])
        knots = x[-1] + gaps
        kind = draw(st.sampled_from(["collinear", "dips", "concave"]))
        if kind == "dips":
            lift = [draw(st.sampled_from([0.0, 1.0 / 64])) for _ in gaps[:-1]] + [0.0]
        elif kind == "concave":
            lift = draw(st.integers(1, 4)) / 4.0 * (knots - x[-1]) * (knots[-1] - knots)
        else:
            lift = np.zeros(gaps.size)
        v += list(v[-1] + slope * gaps + lift)
        x += list(knots)
    return np.array(x), np.array(v)


def _brute_lower_hull(x, v):
    """Greatest convex minorant at the knots by its definition: each knot's
    least value over the chords of two knots that span it, in exact
    rational arithmetic (O(n^2) chords per knot)."""
    X, V = [Fraction(t) for t in x], [Fraction(t) for t in v]
    return np.array([float(min([V[i]] + [V[a] + (V[b] - V[a]) * (X[i] - X[a]) / (X[b] - X[a])
                                         for a in range(i) for b in range(i + 1, len(X))]))
                     for i in range(len(X))])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=raised_tables())
def test_convexify_is_the_lower_hull(table):
    x, v = table
    hull = _convexify(x, v)
    assert np.array_equal(hull, _brute_lower_hull(x, v))
    assert np.all(hull <= v)
    slopes = np.diff(hull) / np.diff(x)
    assert np.all(np.diff(slopes) >= 0.0)  # convex, exactly on dyadic data


def test_tabulate_quadratic_matches_scalar_eval(rng):
    # the vectorized table must give the bits of one eval per wealth point
    u = np.concatenate([rng.uniform(-3.0, 3.0, 400), [0.5, 0.5 + 1e-9, 0.5 + 1e-6]])
    losses = [Quadratic([[2.0]], [0.0]), Quadratic([[0.0]], [1.0], -0.25)]
    for _ in range(20):
        Q, q, c = rng.uniform(0.0, 3.0), rng.standard_normal(), rng.standard_normal()
        losses.append(Quadratic([[Q]], [q], c))
        losses.append(Quadratic([[Q]], [q], c, [[2.0], [-1.0]], [1.0, -0.5]))
    losses.append(Quadratic([[1.0]], [0.0], 0.0, [[1.0], [1.0]], [0.0, 1.0]))  # empty
    for loss in losses:
        vec = _tabulate(loss, u)
        assert np.array_equal(vec, [loss.eval([v]) for v in u])
    assert np.isfinite(_tabulate(losses[-2], u)).sum() == 2  # u = 0.5 and 0.5 + 1e-9
