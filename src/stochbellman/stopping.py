"""Optimal stopping on scenario trees.

The value recursion folds the never-stop convention (reward 0 after the
horizon) into the terminal layer, so the envelope dominates the positive
part of the reward.  The relaxation route runs the generic backward engine
on stage-additive polyhedral costs of the cumulative stopped mass and must
reproduce the same value; rule enumeration is the brute-force oracle.
Continuations come from `ScenarioTree.expect`, and rules and their count
are stage passes, so a deep tree costs no recursion.
"""

import math

import numpy as np

from .bellman import StageProblem, solve_be
from .convexfn import Polyhedral
from .errors import NotMarkov, TreeTooLarge, ValidationError
from .tree import CLASS_TOL, AdaptedProcess, _markov_pair, _quantize

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
    S = {}
    for t in range(tree.T, -1, -1):
        layer = tree.stage_nodes[t]
        St = np.maximum([float(R[nid]) for nid in layer], _continuations(tree, S, t))
        S.update(zip(layer, St.tolist()))
    return AdaptedProcess(tree, S)


def _continuations(tree, S, t):
    """E_t S_{t+1} at the stage-t nodes (stage_nodes order), by
    ScenarioTree.expect; 0 at the horizon, where the never-stop reward is."""
    if t == tree.T:
        return np.zeros(len(tree.stage_nodes[t]))
    return tree.expect(t, [S[k] for k in tree.stage_nodes[t + 1]])


def continuation_value(R, S, nid):
    """E_t S_{t+1} at the stage-t node nid."""
    t, i = R.tree.index[nid]
    return float(_continuations(R.tree, S, t)[i])


def _walk(tree, S, stops):
    """(node, c, stops(node, c)) with c = E_t S_{t+1} at the node, for each
    node a rule reaches, a stage at a time from the root: the rule goes on
    below the nodes where stops is false."""
    reached, t = [tree.root], 0
    while reached:
        cont, below = _continuations(tree, S, t), []
        for nid in reached:
            c = cont[tree.index[nid][1]]
            stop = stops(nid, c)
            yield nid, c, stop
            below += [] if stop else tree.children[nid]
        reached, t = below, t + 1


def optimal_stop(R, S=None):
    """Earliest optimal rule: stop at the first node where reward meets the
    envelope.  Returns (StoppingTime, value)."""
    if S is None:
        S = snell(R)
    st = StoppingTime(R.tree, [nid for nid, _, stop in _walk(
        R.tree, S, lambda nid, c: float(R[nid]) >= c) if stop])
    return st, st.value(R)


def is_optimal_rule(st, R, S=None):
    """Membership test for the optimal set: reward equals the envelope at
    stop nodes, and the envelope is its own continuation wherever the rule
    keeps going, both to 1e-12."""
    if S is None:
        S = snell(R)
    for nid, c, stop in _walk(R.tree, S, lambda nid, c: nid in st.stop_nodes):
        if stop and not abs(float(R[nid]) - S[nid]) <= 1e-12:
            return False
        if not stop and abs(S[nid] - c) > 1e-12:
            return False
    return True


def count_stopping_times(tree):
    """Exact number of consistent rules (stop at a node, or the product of its
    children's counts), a stage at a time from the horizon up."""
    count = dict.fromkeys(tree.stage_nodes[tree.T], 2)
    for layer in reversed(tree.stage_nodes[:-1]):
        for nid in layer:
            count[nid] = 1 + math.prod(count[k] for k in tree.children[nid])
    return count[tree.root]


def enumerate_stopping_times(tree, rule_cap=ENUM_RULE_CAP):
    """Yield every consistent stopping rule exactly once (at most 63 nodes)."""
    if tree.n_nodes() > 63:
        raise TreeTooLarge(f"{tree.n_nodes()} nodes exceeds cap 63")
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


def markov_check(R):
    """Per-stage value tables keyed by reward value for a Markov reward.

    Verifies the envelope is constant (to 1e-12) on every (stage, reward value)
    class and returns the tables; raises NotMarkov with a witness pair otherwise.
    """
    pair = _markov_pair(R)
    if pair is not None:
        raise NotMarkov(f"future laws differ at same-value nodes {pair[0]!r}, {pair[1]!r}")
    return _envelope_tables(R, snell(R))


def _envelope_tables(R, S):
    """markov_check's tables from the envelope S of a reward already known
    to be Markov; NotMarkov if S is not constant on a class."""
    tree = R.tree
    tables = []
    for t in range(tree.T + 1):
        classes = {}
        for nid in tree.stage_nodes[t]:
            classes.setdefault(_quantize(R[nid]), []).append(nid)
        table = {}
        for key, members in classes.items():
            vals = [S[m] for m in members]
            if max(vals) - min(vals) > CLASS_TOL:
                raise NotMarkov(
                    f"envelope not constant on stage-{t} class {key}: nodes {members}")
            table[key] = vals[0]
        tables.append(table)
    return tables
