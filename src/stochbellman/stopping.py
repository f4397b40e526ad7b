"""Optimal stopping on scenario trees.

The value recursion folds the never-stop convention (reward 0 after the
horizon) into the terminal layer, so the envelope dominates the positive
part of the reward.  The relaxation route runs the generic backward engine
on stage-additive polyhedral costs of the cumulative stopped mass and must
reproduce the same value; rule enumeration is the brute-force oracle.
"""

import numpy as np

from .bellman import StageProblem, solve_be
from .convexfn import Polyhedral
from .errors import NotMarkov, TreeTooLarge, ValidationError
from .tree import AdaptedProcess, _quantize, is_markov

ENUM_NODE_CAP = 63
ENUM_RULE_CAP = 300000


class StoppingTime:
    """Consistent stop rule: an antichain of nodes, one stop per path at most.

    tau maps each leaf to the stage of the stop node on its path, or T + 1
    when the path never stops.
    """

    def __init__(self, tree, stop_nodes):
        self.tree = tree
        self.stop_nodes = frozenset(stop_nodes)
        for nid in self.stop_nodes:
            anc = tree.parent(nid)
            while anc is not None:
                if anc in self.stop_nodes:
                    raise ValidationError(
                        f"stop set is inconsistent: {anc!r} precedes {nid!r}")
                anc = tree.parent(anc)

    def tau(self):
        out = {}
        for leaf in self.tree.leaves():
            out[leaf] = self.tree.T + 1
            for nid in self.tree.path(leaf):
                if nid in self.stop_nodes:
                    out[leaf] = self.tree.stage(nid)
                    break
        return out

    def value(self, R):
        """E R_tau; never stopping contributes the zero convention.  The sum
        runs in tree order, so the result does not depend on string hashing."""
        return float(sum(float(self.tree.prob(nid)) * float(R[nid])
                         for nid in self.tree.nodes if nid in self.stop_nodes))


def snell(R):
    """Smallest supermartingale dominating the positive part of the reward."""
    tree = R.tree
    S, cont = {}, 0.0
    for t in range(tree.T, -1, -1):
        layer = tree.stage_nodes[t]
        St = np.maximum([float(R[nid]) for nid in layer], cont)
        S.update(zip(layer, St.tolist()))
        if t:
            cont = tree.expect(t - 1, St)
    return AdaptedProcess(tree, S)


def continuation_value(R, S, nid):
    tree = R.tree
    kids = tree.children[nid]
    return sum(float(tree.nodes[k].prob) * S[k] for k in kids) if kids else 0.0


def optimal_stop(R, S=None):
    """Earliest optimal rule: stop at the first node where reward meets the
    envelope.  Returns (StoppingTime, value)."""
    if S is None:
        S = snell(R)
    tree = R.tree
    # depth first in child order, as a loop: a recursive closure would be a
    # reference cycle left for the cyclic collector
    stops, stack = [], [tree.root]
    while stack:
        nid = stack.pop()
        if float(R[nid]) >= continuation_value(R, S, nid):
            stops.append(nid)
        else:
            stack += reversed(tree.children[nid])
    st = StoppingTime(tree, stops)
    return st, st.value(R)


def is_optimal_rule(st, R, S=None, tol=1e-12):
    """Membership test for the optimal set: reward equals the envelope at
    stop nodes, and the envelope is its own continuation wherever the rule
    keeps going."""
    if S is None:
        S = snell(R)
    tree = R.tree

    def walk(nid):
        if nid in st.stop_nodes:
            return abs(float(R[nid]) - S[nid]) <= tol
        if abs(S[nid] - continuation_value(R, S, nid)) > tol:
            return False
        return all(walk(k) for k in tree.children[nid])

    return walk(tree.root)


def count_stopping_times(tree):
    """Exact number of consistent rules (stop-at-node or recurse product)."""

    def count(nid):
        kids = tree.children[nid]
        if not kids:
            return 2
        prod = 1
        for k in kids:
            prod *= count(k)
        return 1 + prod

    return count(tree.root)


def enumerate_stopping_times(tree, node_cap=ENUM_NODE_CAP, rule_cap=ENUM_RULE_CAP):
    """Yield every consistent stopping rule exactly once."""
    if tree.n_nodes() > node_cap:
        raise TreeTooLarge(f"{tree.n_nodes()} nodes exceeds cap {node_cap}")
    total = count_stopping_times(tree)
    if total > rule_cap:
        raise TreeTooLarge(f"{total} rules exceeds enumeration cap {rule_cap}")

    def antichains(nid):
        kids = tree.children[nid]
        if not kids:
            yield frozenset()
            yield frozenset([nid])
            return
        yield frozenset([nid])

        def product(i):
            if i == len(kids):
                yield frozenset()
                return
            for rest in product(i + 1):
                for own in antichains(kids[i]):
                    yield own | rest

        yield from product(0)

    for stops in antichains(tree.root):
        yield StoppingTime(tree, stops)


def ros_as_bellman(R):
    """Run the generic engine on the relaxed stopping problem.

    The decision at a stage-t node is the cumulative mass y_t stopped by
    stage t.  The root costs -R_0 y_0 on 0 <= y_0 <= 1; every later node
    costs -R_t (y_t - y_{t-1}) on y_{t-1} <= y_t <= 1.  Returns
    (BellmanSolution, value) with value on the maximization scale.
    """
    tree = R.tree
    costs = {}
    for nid in tree.nodes:
        r = float(R[nid])
        if tree.parent(nid) is None:
            costs[nid] = Polyhedral([[-r]], [0.0], [[-1.0], [1.0]], [0.0, 1.0])
        else:
            costs[nid] = Polyhedral([[r, -r]], [0.0], [[1.0, -1.0], [0.0, 1.0]], [0.0, 1.0])
    problem = StageProblem(tree, [1] * (tree.T + 1), node_costs=costs)
    sol = solve_be(problem)
    return sol, -sol.value


def ros_value_fn_probe(sol, R, S, nid, x_hist):
    """Closed-form value of the recorded stage function at a history point.

    With y the cumulative sums of the masses x_hist = (x_0..x_t), the
    recorded function at a stage-t node should equal
    -R_t (y_t - y_{t-1}) - E_t[S_{t+1}] (1 - y_t) on y_{t-1} <= y_t <= 1
    (y_{-1} = 0 at the root), and +inf elsewhere.
    Returns (recorded, closed_form).
    """
    y = np.cumsum(np.asarray(x_hist, dtype=float))
    prev = y[-2] if y.size > 1 else 0.0
    if prev <= y[-1] <= 1.0:
        closed = -float(R[nid]) * (y[-1] - prev)
        closed -= continuation_value(R, S, nid) * (1.0 - y[-1])
    else:
        closed = float("inf")
    recorded = sol.records[nid]["pre"].eval(y[-2:])
    return recorded, closed


def extreme_policy(R, S=None):
    """A 0/1 allocation that is optimal for the relaxation.

    Greedy: put the whole remaining mass on the first node where the reward
    is at least the continuation value (the argmax always contains one of
    the endpoints 0 or the remaining mass).
    """
    st, _ = optimal_stop(R, S)
    tree = R.tree
    alloc = {}
    for nid in tree.nodes:
        alloc[nid] = 1.0 if nid in st.stop_nodes else 0.0
    return alloc, st


def markov_check(R, tol=1e-12):
    """Per-stage value tables keyed by reward value for a Markov reward.

    Verifies the envelope is constant on every (stage, reward value) class
    and returns the tables; raises NotMarkov with a witness pair otherwise.
    """
    ok, pair = is_markov(R, tol=tol, witness=True)
    if not ok:
        raise NotMarkov(f"future laws differ at same-value nodes {pair[0]!r}, {pair[1]!r}")
    return _envelope_tables(R, snell(R), tol)


def _envelope_tables(R, S, tol=1e-12):
    """markov_check's tables from the envelope S of a reward already known
    to be Markov; NotMarkov if S is not constant on a class."""
    tree = R.tree
    tables = []
    for t in range(tree.T + 1):
        classes = {}
        for nid in tree.stage_nodes[t]:
            classes.setdefault(_quantize(R[nid], tol), []).append(nid)
        table = {}
        for key, members in classes.items():
            vals = [S[m] for m in members]
            if max(vals) - min(vals) > tol:
                raise NotMarkov(
                    f"envelope not constant on stage-{t} class {key}: nodes {members}")
            table[key] = vals[0]
        tables.append(table)
    return tables
