"""Seeded random instances for the oracle suites and the gen subcommand.

Every generator takes an integer seed and is deterministic given its
arguments.  Instances are desk-scale by construction and satisfy the
preconditions of their target solver (strict convexity for the quadratic
oracle pairs, straddling price branches for arbitrage-free markets,
conditionally centered noise for the quadratic control recursion).
"""

import numpy as np

from .bellman import StageProblem
from .control import ControlSystem
from .convexfn import Quadratic
from .hedging import MarketModel
from .lagrange import LagrangeInstance
from .stopping import count_stopping_times
from .tree import AdaptedProcess, validate_tree


def random_tree(rng, T, branching=2, fixed=False, min_branch=None):
    """Random tree: each interior node gets 1..branching children (exactly
    `branching` when fixed) with a random positive branch distribution."""
    recs = [{"id": "n0", "parent": None, "prob": 1.0, "stage": 0}]
    frontier = ["n0"]
    counter = 1
    lo = branching if fixed else (min_branch or 1)
    for t in range(1, T + 1):
        nxt = []
        for nid in frontier:
            k = branching if fixed else int(rng.integers(lo, branching + 1))
            w = rng.uniform(0.2, 1.0, size=k)
            w /= w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            for j in range(k):
                cid = f"n{counter}"
                counter += 1
                recs.append({"id": cid, "parent": nid, "prob": float(w[j]), "stage": t})
                nxt.append(cid)
        frontier = nxt
    return validate_tree(recs)


def _random_psd(rng, d, strict=0.3):
    L = rng.standard_normal((d, d))
    return L @ L.T + strict * np.eye(d)


def quadratic_lagrange_instance(seed, T=3, d=2, branching=2):
    """Strictly convex random stage costs over (point, increment)."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, T, branching, fixed=True)
    costs = {}
    for nid in tree.nodes:
        Q = _random_psd(rng, 2 * d)
        q = rng.standard_normal(2 * d)
        c = float(rng.standard_normal())
        costs[nid] = Quadratic(Q, q, c)
    return LagrangeInstance(tree, d, costs)


def lq_instance(seed, T=3, N=2, M=1, branching=2, noisy=True):
    """LQ control data: per-stage deterministic A, B, Q, R and per-node
    noise with zero conditional mean (the regime where the quadratic
    recursion's offsets are exact)."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, T, branching, fixed=True)
    A_stage = [0.3 * rng.standard_normal((N, N)) for _ in range(T + 1)]
    B_stage = [rng.standard_normal((N, M)) for _ in range(T + 1)]
    Q_stage = [_random_psd(rng, N, strict=0.1) for _ in range(T + 1)]
    R_stage = [_random_psd(rng, M, strict=0.5) for _ in range(T + 1)]
    A, B, W = {}, {}, {}
    Qm, Rm = {}, {}
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            Qm[nid] = Q_stage[t]
            Rm[nid] = R_stage[t]
    for t in range(1, tree.T + 1):
        for nid in tree.stage_nodes[t - 1]:
            kids = tree.children[nid]
            if noisy and len(kids) > 1:
                raw = rng.standard_normal((len(kids), N))
                probs = np.array([float(tree.nodes[k].prob) for k in kids])
                raw -= probs @ raw  # zero conditional mean
            else:
                raw = np.zeros((len(kids), N))
            for j, k in enumerate(kids):
                A[k] = A_stage[t]
                B[k] = B_stage[t]
                W[k] = raw[j]
    sys_ = ControlSystem(tree, N, M, A, B, W)
    return sys_, Qm, Rm


def binomial_market(seed, T=2, with_claim=True):
    """Arbitrage-free single-asset market: each branch pair straddles one."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, T, 2, fixed=True)
    prices = {tree.root: np.array([1.0])}
    for t in range(1, T + 1):
        for nid in tree.stage_nodes[t - 1]:
            kids = tree.children[nid]
            down = float(rng.uniform(0.4, 0.95))
            up = float(rng.uniform(1.05, 1.9))
            factors = [down, up] + [float(rng.uniform(0.5, 1.8)) for _ in kids[2:]]
            for k, f in zip(kids, factors):
                prices[k] = prices[nid] * f
    s = AdaptedProcess(tree, prices)
    c = {}
    if with_claim:
        for leaf in tree.leaves():
            c[leaf] = float(np.maximum(prices[leaf][0] - 1.0, 0.0))
    return MarketModel(tree, s, c=c)


def always_up_market(T=1):
    recs = [{"id": "n0", "parent": None, "prob": 1.0, "stage": 0}]
    price = {"n0": np.array([1.0])}
    prev = ["n0"]
    counter = 1
    for t in range(1, T + 1):
        nxt = []
        for nid in prev:
            for j, f in enumerate((2.0, 3.0)):
                cid = f"n{counter}"
                counter += 1
                recs.append({"id": cid, "parent": nid, "prob": 0.5, "stage": t})
                price[cid] = price[nid] * f
                nxt.append(cid)
        prev = nxt
    tree = validate_tree(recs)
    return MarketModel(tree, AdaptedProcess(tree, price))


def reward_tree(seed, T=3, branching=2, rule_cap=200000):
    """Random reward process on a shape whose rule count stays enumerable."""
    rng = np.random.default_rng(seed)
    tree = None
    for _ in range(200):
        cand = random_tree(rng, int(rng.integers(1, T + 1)), branching)
        if count_stopping_times(cand) <= rule_cap and cand.n_nodes() <= 63:
            tree = cand
            break
    if tree is None:
        tree = random_tree(rng, min(T, 4), 1)  # chains always qualify
    values = {nid: float(rng.normal(0.0, 2.0)) for nid in tree.nodes}
    return tree, AdaptedProcess(tree, values)


def markov_reward_tree(seed, T=3, branching=2):
    """Additive-walk rewards: identical per-stage step laws at every node,
    so equal values share their conditional future law."""
    rng = np.random.default_rng(seed)
    steps = []
    for t in range(1, T + 1):
        k = branching
        deltas = np.round(rng.choice([-2.0, -1.0, 1.0, 2.0], size=k, replace=False), 6)
        w = np.round(rng.uniform(0.2, 1.0, size=k), 6)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        steps.append(list(zip(w.tolist(), deltas.tolist())))
    recs = [{"id": "n0", "parent": None, "prob": 1.0, "stage": 0}]
    vals = {"n0": 0.0}
    frontier = ["n0"]
    counter = 1
    for t in range(1, T + 1):
        nxt = []
        for nid in frontier:
            for p, dlt in steps[t - 1]:
                cid = f"n{counter}"
                counter += 1
                recs.append({"id": cid, "parent": nid, "prob": float(p), "stage": t})
                vals[cid] = vals[nid] + dlt
                nxt.append(cid)
        frontier = nxt
    tree = validate_tree(recs)
    return tree, AdaptedProcess(tree, vals)


def path_dependent_reward_tree():
    """Two same-value stage-1 nodes with different continuation laws."""
    recs = [
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": 0.5, "stage": 1},
        {"id": "b", "parent": "r", "prob": 0.5, "stage": 1},
        {"id": "a1", "parent": "a", "prob": 0.5, "stage": 2},
        {"id": "a2", "parent": "a", "prob": 0.5, "stage": 2},
        {"id": "b1", "parent": "b", "prob": 0.5, "stage": 2},
        {"id": "b2", "parent": "b", "prob": 0.5, "stage": 2},
    ]
    tree = validate_tree(recs)
    R = AdaptedProcess(tree, {"r": 0.0, "a": 1.0, "b": 1.0,
                              "a1": 3.0, "a2": -3.0, "b1": 9.0, "b2": -9.0})
    return tree, R


def tracking_stage_problem(tree=None):
    """The two-leaf tracking instance: terminal (x - xi)^2, xi in {0, 2}."""
    if tree is None:
        tree = validate_tree([
            {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
            {"id": "a", "parent": "r", "prob": 0.5, "stage": 1},
            {"id": "b", "parent": "r", "prob": 0.5, "stage": 1},
        ])
    costs = {"r": Quadratic(np.zeros((1, 1)), np.zeros(1)),
             "a": Quadratic([[2.0]], [0.0], 0.0),
             "b": Quadratic([[2.0]], [-4.0], 4.0)}
    return StageProblem(tree, [1, 0], node_costs=costs)


def gaussian_return_market(mu, sigma, atoms=101):
    """Single-period market whose return is an equiprobable quantile
    discretization of a normal law."""
    from statistics import NormalDist
    nd = NormalDist(mu, sigma)
    qs = [(k + 0.5) / atoms for k in range(atoms)]
    rets = [nd.inv_cdf(q) for q in qs]
    recs = [{"id": "r", "parent": None, "prob": 1.0, "stage": 0}]
    prices = {"r": np.array([1.0])}
    for j, ret in enumerate(rets):
        cid = f"c{j}"
        recs.append({"id": cid, "parent": "r", "prob": 1.0 / atoms, "stage": 1})
        prices[cid] = np.array([1.0 + ret])
    tree = validate_tree(recs)
    return MarketModel(tree, AdaptedProcess(tree, prices))
