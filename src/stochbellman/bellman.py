"""Backward recursion on scenario trees.

Costs are stage-additive: each node at stage t carries a cost
g_t(x_{t-1}, x_t), and the sweep computes per-node value functions of the
previous decision.

backward_sweep, the one backward recursion, runs a stage at a time over
the tree's stage map, every layer a stack of Quadratics (convexfn._Stack,
one per row count) or of Polyhedrals (_PStack) from the children's value
functions to the records; an affine Quadratic that meets a Polyhedral in
a sum joins it as one piece, a stage's at once (_affine_pstack).  It
returns the records as a tree.StageMap of stage stacks; a node's record
is made when it is read.  Its mirror forward_sweep, over the same
map, applies the recorded minimizers (affine maps, or back-substitution
through the Polyhedral nodes' Fourier-Motzkin systems, no LP) and
evaluates the nodewise optimality gaps, also a stage at a time, on the
records' stacks (the only form of a solution's records it reads), and
returns its states and decisions as stage stacks too.  Both are held to
the README's Numerical contract: bit-identical across runs, and within
stated tolerances of independent oracles (the tests also hold every node
to the bits of frozen node-by-node loops).

At every node the sweep records the pre-minimization function, the value
function after minimizing the node's own block, the minimizer map, and the
lineality basis of the flat directions.  Unbounded or one-sided recession
cones abort the sweep with the offending node attached, as does any other
solver error of a node's minimization and a continuation that no single
backend can add to the node's cost (BackendClash); the error is the first
failing node's in stage order.
"""

from collections import namedtuple
from operator import getitem

import numpy as np

# partial_min: the bench tracer (perfbench/tracer.py) finds its span through this import
from .convexfn import (Inf, PartialMin, Polyhedral, Quadratic, _add, _affine_pstack,
                       _conjugates, _kkt_minima, _member, _objects, _poly_minima,
                       _precompose, _pstack, _recessions, _scale, _settled, _Stack, _stack,
                       _take, eval_stack, partial_min)
from .errors import (BackendClash, DimensionMismatch, Infeasible,
                     NonLinearRecession, NotPerp, SolverError,
                     StochBellmanError, UnboundedBelow, ValidationError)
from .extensive import FlatProgram, Term, solve_extensive
from .polyhedra import _padd, _pcat, _peval, _pick, _Picks, _pprecompose, _pscale, _PStack
from .tree import StageMap, perp_check

CERT_EPS = 0.1  # the lower-bound certificates' lambda: 1 - CERT_EPS, 1, 1 + CERT_EPS


class StageProblem:
    """Problem data bound to a tree: stage costs plus per-stage decision dims.

    Every cost is a Quadratic or a Polyhedral, the backends the sweep can
    minimize; any other raises BackendClash naming the node.  `mode` is
    kept for callers that still pass "stage_additive", the one problem
    mode; no caller in the package does.
    """

    def __init__(self, tree, dims, mode="stage_additive", node_costs=None):
        if mode != "stage_additive":
            raise ValidationError(f"unknown mode {mode!r}")
        self.tree = tree
        self.dims = list(dims)
        if len(self.dims) != tree.T + 1:
            raise ValidationError("need one decision dimension per stage")
        self.node_costs = dict(node_costs)
        for nid, fn in self.node_costs.items():
            if not isinstance(fn, (Quadratic, Polyhedral)):
                raise _unsweepable(fn, nid)
            t = tree.stage(nid)
            want = self._prev_dim(t) + self.dims[t]
            if fn.dim != want:
                raise ValidationError(
                    f"cost at node {nid!r} has dim {fn.dim}, expected {want}")
        for t in range(tree.T + 1):
            for nid in tree.stage_nodes[t]:
                if nid not in self.node_costs:
                    raise ValidationError(f"missing stage cost at node {nid!r}")

    def _prev_dim(self, t):
        return self.dims[t - 1] if t > 0 else 0


class BellmanSolution:
    def __init__(self, problem, records, value):
        self.problem = problem
        self.records = records  # node id -> record dict: a StageMap of _Swept stages
        self.value = value


class Policy:
    def __init__(self, problem, decisions, residuals, value):
        self.problem = problem
        self.decisions = {nid: np.asarray(x, dtype=float) for nid, x in decisions.items()}
        self.residuals = dict(residuals)
        self.value = value

    @property
    def residual_max(self):
        return max(self.residuals.values()) if self.residuals else 0.0


def _unsweepable(fn, nid):
    return BackendClash(f"a {type(fn).__name__} cost cannot be swept; "
                        f"use Quadratic or Polyhedral (node {nid})")


def _grouped(pieces):
    """(positions, F) pieces as a layer, a stage's functions by position:
    F a _Stack of Quadratics, one per row count, or a _PStack of
    Polyhedrals, positions ascending; a position in no group holds None."""
    out = {}
    for idx, F in pieces:
        out.setdefault(F.A.shape[1] if isinstance(F, _Stack) else "poly", []).append((idx, F))
    for key, ps in out.items():
        if len(ps) > 1:  # a stack's piece has its positions in order
            idx = np.concatenate([i for i, _ in ps])
            F = _pcat([F for _, F in ps]) if key == "poly" else _Stack(
                *map(np.concatenate, zip(*(F for _, F in ps))))
            order = np.argsort(idx, kind="stable")
            ps = [(idx[order], _take(F, order))]
        out[key] = ps[0]
    return list(out.values())


def _named(exc, nid):
    """A solver error that names no node, named nid; others as they are."""
    if isinstance(exc, SolverError) and exc.node is None:
        return type(exc)(str(exc), node=nid)
    return exc


def _mapped(layer, p=None, M=None, W=None):
    """p_i f_i(M_i x + W_i) by position; no factor if p is None, no map if M is None."""
    out = []
    for idx, F in layer:
        if isinstance(F, _Stack):
            S = F if M is None else _precompose(F, M[idx], W[idx])
            S = S if p is None else _scale(S, p[idx])
            out += [(idx[j], T) for j, T in _settled(S, new_rows=M is not None)]
        else:
            S = F if M is None else _pprecompose(F, M[idx], W[idx])
            out.append((idx, S if p is None else _pscale(S, p[idx])))
    return _grouped(out)


def _summed(acc, other, nodes, failed, dst=None):
    """acc + other by position, one side's function where the other holds
    none; other's position i is dst[i] if given, and left out if dst[i] < 0.
    One stacked add per pair of groups: _add for two _Stacks, _padd
    otherwise, the affine members of a _Stack joining a _PStack as one
    piece each (_affine_pstack) and its curved members clashing.  A node's
    error is recorded in failed."""
    n, k = len(nodes), len(other) + 1
    (ga, ra), (go, ro) = loc = [(np.full(n, -1), np.zeros(n, dtype=int)) for _ in "ao"]
    for (g, r), side, to in zip(loc, (acc, other), (None, dst)):  # group number and member
        for j, (idx, _) in enumerate(side):
            pos = idx if to is None else to[idx]
            g[pos[pos >= 0]], r[pos[pos >= 0]] = j, np.flatnonzero(pos >= 0)
    pair, pieces = (ga + 1) * k + go + 1, []
    for key in dict.fromkeys(pair[pair > 0].tolist()):
        P, (a, b) = np.flatnonzero(pair == key), divmod(key, k)
        F, G = acc[a - 1][1] if a else None, other[b - 1][1] if b else None
        if F is None or G is None:
            pieces.append((P, _take(G, ro[P]) if F is None else _take(F, ra[P])))
        elif isinstance(F, _Stack) and isinstance(G, _Stack):
            pieces += [(P[j], T) for j, T in _settled(_add(_take(F, ra[P]), _take(G, ro[P])))]
        else:
            X, Y = _take(F, ra[P]), _take(G, ro[P])
            S, clash = (X, "Polyhedral to Quadratic") if isinstance(X, _Stack) else (
                Y, "Quadratic to Polyhedral")
            if isinstance(S, _Stack):
                curved = S.Q.any(axis=(1, 2))
                for i in P[curved].tolist():
                    failed.setdefault(i, BackendClash(f"cannot add {clash} (node {nodes[i]})"))
                flat = np.flatnonzero(~curved)
                P, X, Y = P[flat], *(_affine_pstack(_take(Z, flat)) if Z is S else _take(
                    Z, flat) for Z in (X, Y))
            if len(P):
                bad = {}
                pieces.append((P, _padd(X, Y, bad)))
                failed.update((int(P[j]), _named(exc, nodes[P[j]])) for j, exc in bad.items())
    return _grouped(pieces)


def _minimized(layer, over, width, nodes, failed):
    """Minimize out the trailing `over` of `width` coordinates before the
    first failure: the value functions and the minimizer maps as layers, and
    the lineality bases by position.  One _kkt_minima per _Stack, its maps
    x -> F x + g kept as one (F, g) stack; one _poly_minima per _PStack,
    its minimizers selected by its _Picks.  A node's error is recorded in
    failed."""
    n, lim = len(nodes), min(failed, default=len(nodes))
    if not over:  # partial_min(f, 0) keeps f
        return layer, [(np.arange(n), (np.zeros((n, 0, width)), np.zeros((n, 0))))], \
            [np.zeros((0, 0))] * n
    F, g, lin = np.zeros((n, over, width - over)), np.zeros((n, over)), [None] * n
    post, aff, picked = [], [], []
    for idx, G in layer:
        idx = idx[:np.searchsorted(idx, lim)]
        if not len(idx):
            continue
        if isinstance(G, _PStack):
            bad = {}
            P, picks, K = _poly_minima(G if len(idx) == G.n else _take(
                G, np.arange(len(idx))), over, bad, [nodes[i] for i in idx.tolist()])
            failed.update((int(idx[j]), _named(exc, nodes[idx[j]])) for j, exc in bad.items())
            post.append((idx, P))
            picked.append((idx, picks))
            for i, Ki in zip(idx.tolist(), K):
                lin[i] = Ki
        else:
            groups, F[idx], g[idx], K, unbounded = _kkt_minima(
                G if len(idx) == len(G.c) else _take(G, np.arange(len(idx))), over)
            if unbounded:
                j, why = next(iter(unbounded.items()))
                failed[idx[j]] = UnboundedBelow(why, node=nodes[idx[j]])
                continue
            post += [(idx[j], T) for j, T in groups]
            aff.append(idx)
            for i, Ki in zip(idx.tolist(), K):
                lin[i] = Ki
    aff = np.sort(np.concatenate(aff)) if aff else np.zeros(0, dtype=int)
    sel = [(aff, (F, g) if len(aff) == n else (F[aff], g[aff])), *picked]
    return _grouped(post), sel, lin


def _cost_layer(costs, t, nodes, width):
    """Stage t's costs as a layer, and {position: error} of the costs that
    are no Quadratic or Polyhedral (BackendClash) or not of dimension
    `width` (DimensionMismatch); the layer ends before the first of them.
    Costs held as _Stack layers (lq_costs) give their own groups; the
    others make a _Stack per row count and one _PStack."""
    if isinstance(costs, StageMap) and costs.member is _member:
        failed = {i: _wrong_dim(nodes[i]) for idx, S in costs.held[t]
                  if S.q.shape[1] != width for i in idx.tolist()}
        return [(idx, S) for idx, S in costs.held[t] if S.q.shape[1] == width], failed
    fns = [costs[nid] for nid in nodes]
    failed = {i: _wrong_dim(nid) if isinstance(f, (Quadratic, Polyhedral)) else _unsweepable(f, nid)
              for i, (nid, f) in enumerate(zip(nodes, fns))
              if not isinstance(f, (Quadratic, Polyhedral)) or f.dim != width}
    groups = {}
    for i, f in enumerate(fns[:min(failed, default=len(fns))]):
        groups.setdefault(f.A.shape[0] if isinstance(f, Quadratic) else "poly", []).append(i)
    return [(np.array(g), (_pstack if key == "poly" else _stack)([fns[i] for i in g]))
            for key, g in groups.items()], failed


def _wrong_dim(nid):
    return DimensionMismatch(f"cost at {nid!r} has wrong dimension")


# A stage of a sweep's records by position: the pre, post and tail functions
# (no tails unless kept) and the selectors as layers, and the lineality bases.
_Swept = namedtuple("_Swept", "pre post sel lin tails")


def backward_sweep(tree, costs, keep, over, record, maps=None, empty_raises=False,
                   with_tails=False):
    """The backward recursion: node id -> record(pre, PartialMin, tail), a
    StageMap that holds each stage as a _Swept and makes a node's record
    when it is read.

    A stage-t cost takes a kept block of width keep[t], then the own block
    of width over[t].  A node's tail sums p_k V_k(m_k(.)) over its children
    slot by slot in child order (the tree's stage map), m_k the child's
    step map from maps(t) = (M, W) stacked in stage order.  Without maps
    each V_k is a function of the own block, and the tail is lifted to both
    blocks.  The cost is added once, an empty Quadratic raises Infeasible
    if empty_raises, and the own block is minimized out.  The error raised
    is the first failing node's.  Quadratics and Polyhedrals stay stacks
    throughout (see _grouped); tails are kept only with_tails."""
    held, post = {}, None
    for t in range(tree.T, -1, -1):
        nodes, n = tree.stage_nodes[t], len(tree.stage_nodes[t])
        pre, failed = _cost_layer(costs, t, nodes, keep[t] + over[t])
        tails = []
        if t < tree.T:
            up, slot = tree.up[t + 1], tree.slot[t + 1]
            I = _mapped(post, tree.branch[t + 1], *(maps(t + 1) if maps else ()))
            for s in range(slot.max() + 1):
                tails = _summed(tails, I, nodes, failed, np.where(slot == s, up, -1))
            L = np.eye(keep[t] + over[t])[keep[t]:]
            pre = _summed(pre, _mapped(tails, M=np.broadcast_to(L, (n,) + L.shape),
                                       W=np.zeros((n, over[t]))) if maps is None else tails,
                          nodes, failed)
        if empty_raises:  # the row 0.x = 1
            lim = min(failed, default=n)
            empty = [i for idx, S in pre if isinstance(S, _Stack) and S.A.shape[1] == 1
                     for i in idx[~S.A.any(axis=(1, 2))].tolist() if i < lim]
            if empty:
                failed[min(empty)] = Infeasible("problem is infeasible", node=nodes[min(empty)])
        post, sel, lin = _minimized(pre, over[t], keep[t] + over[t], nodes, failed)
        if failed:
            raise failed[min(failed)]
        held[t] = _Swept(pre, post, sel, lin, tails if with_tails else [])
    return StageMap(tree, held, lambda s, i: record(
        _member(s.pre, i), PartialMin(_member(s.post, i), _member(s.sel, i), s.lin[i]),
        _member(s.tails, i)))


def solve_be(problem):
    """Backward sweep; returns a BellmanSolution with per-node records."""
    return _swept(problem, with_tails=True)


def _swept(problem, with_tails):
    """solve_be, with the records' tails None unless with_tails."""
    tree = problem.tree
    keep = [problem._prev_dim(t) for t in range(tree.T + 1)]
    records = backward_sweep(tree, problem.node_costs, keep, problem.dims, lambda pre, pm, tail: {
        "pre": pre, "post": pm.fn, "selector": pm.selector, "N": pm.lineality, "tail": tail},
        empty_raises=True, with_tails=with_tails)
    value = records[tree.root]["post"].eval(np.zeros(0))
    if value == Inf:
        raise Infeasible("problem is infeasible", node=tree.root)
    return BellmanSolution(problem, records, float(value))


def build_flat(problem, upto=None, tails=None):
    """FlatProgram for stages 0..upto, with optional frontier tail terms."""
    tree = problem.tree
    T = tree.T if upto is None else upto
    blocks = {}
    off = 0
    for t in range(T + 1):
        for nid in tree.stage_nodes[t]:
            blocks[nid] = (off, problem.dims[t])
            off += problem.dims[t]
    terms = []
    for t in range(T + 1):
        for nid in tree.stage_nodes[t]:
            idx = []
            if t > 0:
                poff, pw = blocks[tree.parent(nid)]
                idx.extend(range(poff, poff + pw))
            o, w = blocks[nid]
            idx.extend(range(o, o + w))
            terms.append(Term(float(tree.prob(nid)), problem.node_costs[nid], idx))
    if tails:
        for nid, fn in tails.items():
            o, w = blocks[nid]
            terms.append(Term(float(tree.prob(nid)), fn, list(range(o, o + w))))
    return FlatProgram(off, terms, blocks)


def optimum_value(sol, t):
    """Optimal value of the stage-t head problem, solved extensively.

    Independent of the sweep arithmetic: the frontier carries the recorded
    continuation functions and the head is handed to the flat solver, so
    equality across t is a genuine cross-check, not an identity.
    """
    problem = sol.problem
    tree = problem.tree
    if t == tree.T:
        fp = build_flat(problem)
    else:
        tails = _objects(sol.records.held[t].tails, len(tree.stage_nodes[t]))
        fp = build_flat(problem, upto=t, tails=dict(zip(tree.stage_nodes[t], tails)))
    value, _, _ = solve_extensive(fp)
    return value


def _stacked(vs):
    """Vectors of one length as one (n, k) float array, else the list."""
    try:
        arr = np.asarray(vs, dtype=float)
    except (TypeError, ValueError):
        return vs
    return arr if arr.ndim == 2 else vs


def _stage_values(values, tree, t):
    """The values of stage t's nodes in stage order: a StageMap of its
    stages' values hands over its stage's data."""
    if isinstance(values, StageMap) and values.member is getitem and t in values.held:
        return values.held[t]
    return [values[nid] for nid in tree.stage_nodes[t]]


def _decisions(sel, S):
    """A stage's decisions at the states S (n, k) from its selector layer:
    an (F, g) stack as one F x + g and a _Picks as one back-substitution
    (_pick).  States of another width than the selectors' raise
    DimensionMismatch."""
    out = [None] * len(S)
    for idx, G in sel:
        width = G.post.a.shape[1] if isinstance(G, _Picks) else G[0].shape[2]
        if S.shape[1] != width:
            raise DimensionMismatch(f"expected dim {width}, got {S.shape[1]}")
        vals = _pick(G, S[idx]) if isinstance(G, _Picks) else np.matvec(G[0], S[idx]) + G[1]
        for i, d in zip(idx.tolist(), vals):
            out[i] = d
    return out


def _evals(layer, xs, failed):
    """f_i(xs[i]) by position for the functions of a layer: each _Stack or
    _PStack of the points' width as one eval_stack or _peval, others one
    by one where node i has not failed.  A node's error is recorded in
    failed."""
    out = np.zeros(len(xs))
    width = xs.shape[1] if isinstance(xs, np.ndarray) else None
    for idx, G in layer:
        if isinstance(G, _Stack) and G.q.shape[1] == width:
            out[idx] = eval_stack(G, xs[idx])
            continue
        if isinstance(G, _PStack) and G.a.shape[1] == width:
            out[idx] = _peval(G, xs[idx])
            continue
        for i, f in zip(idx.tolist(), _objects([(np.arange(len(idx)), G)], len(idx))):
            if i in failed:
                continue
            try:
                out[i] = f.eval(xs[i])
            except StochBellmanError as exc:
                failed[i] = exc
    return out


def _joined(S, D):
    """The (state, decision) points of a stage: one stack if both are stacked."""
    if isinstance(S, np.ndarray) and isinstance(D, np.ndarray):
        return np.concatenate([S, D], axis=1)
    return [np.concatenate(z) for z in zip(S, D)]


def forward_sweep(tree, decide, x0=(), maps=None, states=None, check=None):
    """The forward pass, one stage at a time: (X, U, gaps, failed), the
    states and decisions as StageMaps of their stage stacks, and dicts by
    node id of the gaps and errors.

    The root's state is x0, a child's is its parent's decision, or m_k of
    the parent's (state, decision) with m_k the child's step map from
    maps(t) = (M, W) stacked in stage order; states (node id -> state)
    replace them when given.  decide(t, S) gives the stage-t decisions at
    the states S, stacked when they have one length.  With check(t) the
    _Swept of stage t, a node's gap is pre(state, decision) - post(state),
    None where either raised, and the error is kept in failed, in stage
    order.
    """
    X, U, gaps, failed = {}, {}, {}, {}
    S = [np.atleast_1d(x0)]
    for t in range(tree.T + 1):
        nodes, bad = tree.stage_nodes[t], {}
        S = X[t] = _stacked(S if states is None else _stage_values(states, tree, t))
        D = U[t] = _stacked(decide(t, S))
        Z = _joined(S, D)
        if check is not None:
            s = check(t)
            vals = zip(_evals(s.pre, Z, bad).tolist(), _evals(s.post, S, bad).tolist())
            gaps.update((nid, None if i in bad else a - b)
                        for i, (nid, (a, b)) in enumerate(zip(nodes, vals)))
            failed.update((nodes[i], bad[i]) for i in sorted(bad))
        if t < tree.T and states is None:
            up = tree.up[t + 1]
            if maps is None:
                S = [D[i] for i in up.tolist()]
            else:
                M, W = maps(t + 1)
                S = np.matvec(M, Z[up]) + W
    return StageMap(tree, X), StageMap(tree, U), gaps, failed


def _verdict(order, gaps, failed):
    """False at the first node of order whose gap is not finite or above
    1e-8, True when there is none; an error of a node before it is raised."""
    for nid in order:
        if nid in failed:
            raise failed[nid]
        if not -Inf < gaps[nid] <= 1e-8:
            return False
    return True


def extract_policy(sol):
    """Forward sweep through the recorded minimizer maps.  The policy's value
    is the flat program's at its decisions: each stage's costs evaluated as
    one layer at the stage's (state, decision) stack, weighted by the nodes'
    path probabilities, and summed in the flat program's term order."""
    problem, recs = sol.problem, sol.records
    tree = problem.tree
    states, decisions, gaps, failed = forward_sweep(
        tree, lambda t, S: _decisions(recs.held[t].sel, S), check=recs.held.get)
    if failed:
        raise next(iter(failed.values()))
    value = 0.0
    for t, nodes in enumerate(tree.stage_nodes):
        width = problem._prev_dim(t) + problem.dims[t]
        layer, bad = _cost_layer(problem.node_costs, t, nodes, width)
        vals = _evals(layer, _joined(states.held[t], decisions.held[t]), bad)
        if bad:
            raise bad[min(bad)]
        for nid, v in zip(nodes, vals.tolist()):
            value += float(tree.prob(nid)) * v
    residuals = {nid: max(g, 0.0) for nid, g in gaps.items()}
    return Policy(problem, decisions, residuals, float(value))


def verify_optimality(policy, sol):
    """Nodewise argmin test of a policy against a solved recursion (gaps to 1e-8)."""
    tree = sol.problem.tree
    _, _, gaps, failed = forward_sweep(
        tree, lambda t, S: _stage_values(policy.decisions, tree, t), check=sol.records.held.get)
    return _verdict(gaps, gaps, failed)


def _tilt_vectors(tree, dims, v):
    """The dual point p of each node's cost folded from a perp family v, on
    the cost's (previous decision, own decision) blocks: node -> p or None.
    An entry v_t at stage t lands on the own block of its node, one at
    stage t + 1 on the previous-decision block.  An entry's size must be
    its stage's dimension, unless the entry is zero (as the horizon padding
    of `martingale_increments` is): then it tilts nothing."""
    tilts = dict.fromkeys(tree.nodes)
    for t, (stage, per_node) in v.entries.items():
        size = next(iter(per_node.values())).size
        if size != dims[t]:
            if not any(vec.any() for vec in per_node.values()):
                continue
            raise ValidationError(f"perp entry {t} has size {size}, stage {t} has dimension {dims[t]}")
        prev = dims[stage - 1] if stage else 0
        at = slice(prev, prev + dims[t]) if stage == t else slice(dims[t])
        for nid in tree.stage_nodes[stage]:
            p = np.zeros(prev + dims[stage])
            p[at] = per_node[nid]
            tilts[nid] = p if tilts[nid] is None else tilts[nid] + p
    return tilts


def tilt_by_p(problem, v):
    """Stage costs tilted by -x_t . v_t for a family with E_t v_t = 0 (perp_check)."""
    if not perp_check(v):
        raise NotPerp("tilt process fails E_t[v_t] = 0")
    tilts = _tilt_vectors(problem.tree, problem.dims, v)
    costs = {nid: fn if tilts[nid] is None else fn.tilt(-tilts[nid])
             for nid, fn in problem.node_costs.items()}
    return StageProblem(problem.tree, problem.dims, node_costs=costs)


class AssumptionReport:
    def __init__(self, certificates, lower_bound_ok, linearity_ok, linearity_detail,
                 feasibility_ok, feasibility_detail):
        self.certificates = certificates
        self.lower_bound_ok = lower_bound_ok
        self.linearity_ok = linearity_ok
        self.linearity_detail = linearity_detail
        self.feasibility_ok = feasibility_ok
        self.feasibility_detail = feasibility_detail

    def summary(self):
        return {"lower_bound": "PASS" if self.lower_bound_ok else "FAIL",
                "linearity": "PASS" if self.linearity_ok else f"FAIL: {self.linearity_detail}",
                "feasibility": "PASS" if self.feasibility_ok else f"FAIL: {self.feasibility_detail}"}


def _recession_problem(problem):
    costs = problem.node_costs
    return StageProblem(problem.tree, problem.dims,
                        node_costs=zip(costs, _recessions(list(costs.values()))))


def recession_probe(problem):
    """Linearity verdict (ok, detail) from a sweep of recession costs."""
    try:
        _swept(problem, with_tails=False)
    except (UnboundedBelow, NonLinearRecession) as exc:
        return False, f"{type(exc).__name__}: {exc}"
    except SolverError as exc:
        return True, f"recession probe inconclusive: {exc}"
    return True, ""


def check_assumptions(problem, v=None, solution=None):
    """Diagnostics, never gates: lower-bound certificates, a linearity
    verdict from the recession recursion, and a solve probe.  A node's
    certificates are m = f*(lambda p) for lambda in (0.9, 1, 1.1) (CERT_EPS),
    p its dual point from the perp family v: one stacked conjugate call
    over every (node, lambda) point, one point for a node without a tilt
    (p = 0 serves every lambda).  With no tilt, a solution already swept
    from `problem` is the solve probe's result when it is given.
    """
    base = problem if v is None else tilt_by_p(problem, v)
    tilts = {} if v is None else _tilt_vectors(problem.tree, problem.dims, v)
    lams = (1.0 - CERT_EPS, 1.0, 1.0 + CERT_EPS)
    points = [(nid, lam) for nid in problem.node_costs
              for lam in ((None,) if tilts.get(nid) is None else lams)]
    fns = [problem.node_costs[nid] for nid, _ in points]
    ms = _conjugates(fns, [np.zeros(f.dim) if lam is None else lam * tilts[nid]
                           for f, (nid, lam) in zip(fns, points)])
    certificates = {nid: {} for nid in problem.node_costs}
    for (nid, lam), m in zip(points, ms):
        certificates[nid].update(dict.fromkeys(lams, m) if lam is None else {lam: m})
    lower_ok = Inf not in ms

    linearity_ok, linearity_detail = recession_probe(_recession_problem(base))

    feas_ok, feas_detail = True, ""
    try:
        sol = solution if v is None and solution is not None else solve_be(base)
        feas_detail = f"value {sol.value:.12g}"
    except SolverError as exc:
        feas_ok, feas_detail = False, f"{type(exc).__name__}: {exc}"

    return AssumptionReport(certificates, lower_ok, linearity_ok, linearity_detail,
                            feas_ok, feas_detail)
