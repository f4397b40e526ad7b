"""Backward recursion on scenario trees.

Costs are stage-additive: each node at stage t carries a cost
g_t(x_{t-1}, x_t), and the sweep computes per-node value functions of the
previous decision.

backward_sweep, the one backward recursion, runs a stage at a time: its
Quadratic nodes stay stacks from the children's value functions to the
records.  Its mirror forward_sweep applies the recorded minimizers and
evaluates the nodewise optimality gaps, also a stage at a time.  Both are
held to the README's Numerical contract: bit-identical across runs, and
within stated tolerances of independent oracles (the tests also hold
every node to the bits of frozen node-by-node loops).

At every node the sweep records the pre-minimization function, the value
function after minimizing the node's own block, the minimizer map, and the
lineality basis of the flat directions.  Unbounded or one-sided recession
cones abort the sweep with the offending node attached, as does any other
solver error of a node's minimization and a continuation that no single
backend can add to the node's cost (BackendClash); the error is the first
failing node's in stage order.
"""

import numpy as np

from .convexfn import (AffineSelector, Inf, Polyhedral, Quadratic, _add, _conjugates,
                       _is_empty, _objects, _precompose, _quadratic_partial_min,
                       _recessions, _scale, _settled, _Stack, _stack, _take,
                       eval_stack, partial_min)
from .errors import (BackendClash, DimensionMismatch, Infeasible,
                     NonLinearRecession, NotPerp, SolverError,
                     StochBellmanError, UnboundedBelow, ValidationError)
from .extensive import FlatProgram, Term, solve_extensive
from .tree import perp_check


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
                raise BackendClash(f"a {type(fn).__name__} cost cannot be swept; "
                                   f"use Quadratic or Polyhedral (node {nid})")
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
        self.records = records  # node id -> dict(pre, post, selector, N, tail)
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


def _split(keys):
    """Positions grouped by key in first-seen order, and the positions whose
    key is None."""
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    rest = groups.pop(None, [])
    return groups.values(), rest


def _grouped(pieces):
    """(positions, F) pieces as a layer, a stage's functions by position:
    F a _Stack of Quadratics, one per row count, or a list of the others,
    positions ascending; a position in no group holds None."""
    out = {}
    for idx, F in pieces:
        out.setdefault(F.A.shape[1] if isinstance(F, _Stack) else None, []).append((idx, F))
    for key, ps in out.items():
        if len(ps) > 1 or key is None:  # a stack's piece has its positions in order
            idx = np.concatenate([i for i, _ in ps])
            F = [f for _, F in ps for f in F] if key is None else _Stack(
                *map(np.concatenate, zip(*(F for _, F in ps))))
            order = np.argsort(idx, kind="stable")
            ps = [(idx[order], _take(F, order))]
        out[key] = ps[0]
    return list(out.values())


def _mapped(layer, p=None, M=None, W=None):
    """p_i f_i(M_i x + W_i) by position; no factor if p is None, no map if M is None."""
    out = []
    for idx, F in layer:
        if isinstance(F, _Stack):
            S = F if M is None else _precompose(F, M[idx], W[idx])
            S = S if p is None else _scale(S, p[idx])
            out += [(idx[j], T) for j, T in _settled(S, new_rows=M is not None)]
        else:
            fs = F if M is None else [f.precompose(M[i], W[i]) for i, f in zip(idx, F)]
            out.append((idx, fs if p is None else [f.scale(p[i]) for i, f in zip(idx, fs)]))
    return _grouped(out)


def _summed(acc, other, nodes, failed, dst=None):
    """acc + other by position, one side's function where the other holds
    none; other's position i is dst[i] if given, and left out if dst[i] < 0.
    One stacked add per pair of _Stacks, others node by node before the
    first failure; a node's error is recorded in failed."""
    n, lim, k = len(nodes), min(failed, default=len(nodes)), len(other) + 1
    (ga, ra), (go, ro) = loc = [(np.full(n, -1), np.zeros(n, dtype=int)) for _ in "ao"]
    for (g, r), side, to in zip(loc, (acc, other), (None, dst)):  # group number and member
        for j, (idx, _) in enumerate(side):
            pos = idx if to is None else to[idx]
            g[pos[pos >= 0]], r[pos[pos >= 0]] = j, np.flatnonzero(pos >= 0)
    pair, pieces, sums = (ga + 1) * k + go + 1, [], {}
    for key in dict.fromkeys(pair[pair > 0].tolist()):
        P, (a, b) = np.flatnonzero(pair == key), divmod(key, k)
        F, G = acc[a - 1][1] if a else None, other[b - 1][1] if b else None
        if F is None or G is None:
            pieces.append((P, _take(G, ro[P]) if F is None else _take(F, ra[P])))
        elif isinstance(F, _Stack) and isinstance(G, _Stack):
            pieces += [(P[j], T) for j, T in _settled(_add(_take(F, ra[P]), _take(G, ro[P])))]
        else:  # a list on one side at least: node by node, before the first failure
            P = P[P < lim]
            fs, gs = (_objects([(np.arange(len(P)), _take(X, r[P]))], len(P)) for X, r in
                      ((F, ra), (G, ro)))
            for i, f, g in zip(P.tolist(), fs, gs):
                try:
                    sums[i] = f.add(g)
                except BackendClash as exc:
                    failed[i] = BackendClash(f"{exc} (node {nodes[i]})")
                except StochBellmanError as exc:
                    failed[i] = exc
    return _grouped(pieces + [(np.array(list(sums), dtype=int), list(sums.values()))])


def _minimized(layer, fns, over, nodes, failed):
    """partial_min over the trailing `over` coordinates before the first
    failure: the value functions as a layer and the PartialMins by position.
    One stacked call per _Stack, others node by node; a node's error is
    recorded in failed."""
    lim, pms, post, objs = min(failed, default=len(fns)), {}, [], {}
    if not over:  # partial_min(f, 0) keeps f
        return layer, {i: partial_min(f, 0) for i, f in enumerate(fns[:lim])}
    for idx, F in layer:
        idx = idx[:np.searchsorted(idx, lim)]
        if not isinstance(F, _Stack):
            for i in idx.tolist():
                try:
                    pms[i] = objs[i] = partial_min(fns[i], over)
                except SolverError as exc:
                    failed[i] = exc if exc.node is not None else type(exc)(str(exc), node=nodes[i])
                except StochBellmanError as exc:
                    failed[i] = exc
        elif len(idx):
            names = [nodes[i] for i in idx.tolist()]
            try:
                groups, got = _quadratic_partial_min(_take(F, np.arange(len(idx))), over, names)
            except SolverError as exc:
                failed[idx[names.index(exc.node)]] = exc
                continue
            post += [(idx[j], T) for j, T in groups]
            pms.update(zip(idx.tolist(), got))
    rest = [(np.array(list(objs), dtype=int), [pm.fn for pm in objs.values()])]
    return _grouped(post + rest), pms


def backward_sweep(tree, costs, keep, over, record, maps=None, empty_raises=False,
                   with_tails=False):
    """The backward recursion: node id -> record(pre, PartialMin, tail).

    A stage-t cost takes a kept block of width keep[t], then the own block
    of width over[t].  A node's tail sums p_k V_k(m_k(.)) over its children
    slot by slot in child order, m_k the child's step map from maps(t) =
    (M, W) stacked in stage order.  Without maps each V_k is a function of
    the own block, and the tail is lifted to both blocks.  The cost is
    added once, an empty Quadratic raises Infeasible if empty_raises, and
    the own block is minimized out.  The error raised is the first failing
    node's.  Objects are made once a stage for the records (see _grouped),
    tails only with_tails."""
    records, post = {}, None
    for t in range(tree.T, -1, -1):
        nodes, n = tree.stage_nodes[t], len(tree.stage_nodes[t])
        fns, tails = [costs[nid] for nid in nodes], []
        failed = {i: DimensionMismatch(f"cost at {nid!r} has wrong dimension")
                  for i, (nid, f) in enumerate(zip(nodes, fns)) if f.dim != keep[t] + over[t]}
        groups, rest = _split([f.A.shape[0] if isinstance(f, Quadratic) else None
                               for f in fns[:min(failed, default=n)]])
        pre = _grouped([(np.array(idx), _stack([fns[i] for i in idx])) for idx in groups]
                       + [(np.array(rest, dtype=int), [fns[i] for i in rest])])
        if t < tree.T:
            kids = tree.stage_nodes[t + 1]
            p = np.array([float(tree.nodes[k].prob) for k in kids])
            I = _mapped(post, p, *(maps(t + 1) if maps else ()))
            up = {nid: i for i, nid in enumerate(nodes)}  # a child's parent and slot:
            par, slot = np.array([(up[u], tree.children[u].index(k))
                                  for k in kids for u in [tree.nodes[k].parent]]).T
            for s in range(slot.max() + 1):
                tails = _summed(tails, I, nodes, failed, np.where(slot == s, par, -1))
            L = np.eye(keep[t] + over[t])[keep[t]:]
            pre = _summed(pre, _mapped(tails, M=np.broadcast_to(L, (n,) + L.shape),
                                       W=np.zeros((n, over[t]))) if maps is None else tails,
                          nodes, failed)
        fns = _objects(pre, n)
        empty = [i for i in range(min(failed, default=n)) if empty_raises
                 and isinstance(fns[i], Quadratic) and _is_empty(fns[i])]
        if empty:
            failed[empty[0]] = Infeasible("problem is infeasible", node=nodes[empty[0]])
        post, pms = _minimized(pre, fns, over[t], nodes, failed)
        if failed:
            raise failed[min(failed)]
        tails = _objects(tails, n) if with_tails else [None] * n
        records.update((nid, record(fns[i], pms[i], tail))
                       for i, (nid, tail) in enumerate(zip(nodes, tails)))
    return records


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
        tails = {nid: sol.records[nid]["tail"] for nid in tree.stage_nodes[t]}
        fp = build_flat(problem, upto=t, tails=tails)
    value, _, _ = solve_extensive(fp)
    return value


def _stacked(vs):
    """Vectors of one length as one (n, k) float array, else the list."""
    try:
        arr = np.asarray(vs, dtype=float)
    except (TypeError, ValueError):
        return vs
    return arr if arr.ndim == 2 else vs


def apply_selectors(sels, S):
    """sels[i](S[i]) for each selector, in order: AffineSelectors as one
    F x + g stack per shape of F, others one by one."""
    out = [None] * len(sels)
    groups, rest = _split([s.F.shape if isinstance(s, AffineSelector) and isinstance(S, np.ndarray)
                           and s.F.shape[1] == S.shape[1] else None for s in sels])
    for idx in groups:
        F, g = np.array([sels[i].F for i in idx]), np.array([sels[i].g for i in idx])
        for i, d in zip(idx, np.matvec(F, S[idx]) + g):
            out[i] = d
    for i in rest:
        out[i] = np.atleast_1d(sels[i](S[i]))
    return out


def _evals(fns, xs, failed):
    """fns[i](xs[i]) where fns[i] is given and node i has not failed, 0.0
    elsewhere: Quadratics as one eval_stack per row count, others one by
    one.  A node's error is recorded in failed."""
    out = np.zeros(len(fns))
    width = xs.shape[1] if isinstance(xs, np.ndarray) else None
    groups, rest = _split([f.A.shape[0] if isinstance(f, Quadratic) and f.dim == width else None
                           for f in fns])
    for idx in groups:
        out[idx] = eval_stack([fns[i] for i in idx], xs[idx])
    for i in (i for i in rest if fns[i] is not None and i not in failed):
        try:
            out[i] = fns[i].eval(xs[i])
        except StochBellmanError as exc:
            failed[i] = exc
    return out


def forward_sweep(tree, decide, x0=(), maps=None, states=None, check=None):
    """The forward pass, one stage at a time: (X, U, gaps, failed), dicts by
    node id of the states, decisions, gaps and errors.

    The root's state is x0, a child's is its parent's decision, or m_k of
    the parent's (state, decision) with m_k the child's step map from
    maps(t) = (M, W) stacked in stage order; states (node id -> state)
    replace them when given.  decide(t, S) gives the stage-t decisions at
    the states S, stacked when they have one length.  With check(nid) =
    (pre, post), a node's gap is pre(state, decision) - post(state), None
    without pre, and an error of either is kept in failed, in stage order.
    """
    X, U, gaps, failed = {}, {}, {}, {}
    S = [np.atleast_1d(x0)]
    for t in range(tree.T + 1):
        nodes, bad = tree.stage_nodes[t], {}
        S = _stacked(S if states is None else [states[nid] for nid in nodes])
        D = _stacked(decide(t, S))
        stacked = isinstance(S, np.ndarray) and isinstance(D, np.ndarray)
        Z = np.concatenate([S, D], axis=1) if stacked else [np.concatenate(z) for z in zip(S, D)]
        X.update(zip(nodes, S))
        U.update(zip(nodes, D))
        if check is not None:
            pre, post = zip(*map(check, nodes))
            vals = zip(_evals(pre, Z, bad).tolist(), _evals(
                [g if f is not None else None for f, g in zip(pre, post)], S, bad).tolist())
            gaps.update((nid, None if f is None or i in bad else a - b)
                        for i, (nid, f, (a, b)) in enumerate(zip(nodes, pre, vals)))
            failed.update((nodes[i], bad[i]) for i in sorted(bad))
        if t < tree.T and states is None:
            slot = {nid: i for i, nid in enumerate(nodes)}
            up = [slot[tree.nodes[k].parent] for k in tree.stage_nodes[t + 1]]
            if maps is None:
                S = [D[i] for i in up]
            else:
                M, W = maps(t + 1)
                S = np.matvec(M, Z[up]) + W
    return X, U, gaps, failed


def _verdict(order, gaps, failed, tol):
    """False at the first node of order whose gap is not finite or above
    tol, True when there is none; an error of a node before it is raised."""
    for nid in order:
        if nid in failed:
            raise failed[nid]
        if gaps[nid] is not None and not -Inf < gaps[nid] <= tol:
            return False
    return True


def extract_policy(sol):
    """Forward sweep through the recorded minimizer maps."""
    problem, recs = sol.problem, sol.records
    stages = problem.tree.stage_nodes
    _, decisions, gaps, failed = forward_sweep(problem.tree, lambda t, S: apply_selectors(
        [recs[nid]["selector"] for nid in stages[t]], S),
        check=lambda nid: (recs[nid]["pre"], recs[nid]["post"]))
    if failed:
        raise next(iter(failed.values()))
    fp = build_flat(problem)
    value = fp.eval(fp.pack(decisions))
    residuals = {nid: max(g, 0.0) for nid, g in gaps.items()}
    return Policy(problem, decisions, residuals, float(value))


def verify_optimality(policy, sol, tol=1e-8):
    """Nodewise argmin test of a policy against a solved recursion."""
    tree, recs = sol.problem.tree, sol.records
    _, _, gaps, failed = forward_sweep(
        tree, lambda t, S: [policy.decisions[nid] for nid in tree.stage_nodes[t]],
        check=lambda nid: (recs[nid]["pre"], recs[nid]["post"]))
    return _verdict(gaps, gaps, failed, tol)


def _tilt_vectors(tree, dims, v):
    """The dual point p of each node's cost folded from a perp family v, on
    the cost's (previous decision, own decision) blocks: node -> p or None.
    An entry v_t at stage t lands on the own block of its node, one at
    stage t + 1 on the previous-decision block."""
    tilts = dict.fromkeys(tree.nodes)
    for t, (stage, per_node) in v.entries.items():
        prev = dims[stage - 1] if stage else 0
        at = slice(prev, prev + dims[t]) if stage == t else slice(dims[t])
        for nid in tree.stage_nodes[stage]:
            p = np.zeros(prev + dims[stage])
            p[at] = per_node[nid]
            tilts[nid] = p if tilts[nid] is None else tilts[nid] + p
    return tilts


def tilt_by_p(problem, v, tol=1e-12):
    """Stage costs tilted by -x_t . v_t for a family with E_t v_t = 0."""
    if not perp_check(v, tol=tol):
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


def check_assumptions(problem, v=None, eps=0.1, solution=None):
    """Diagnostics, never gates: lower-bound certificates, a linearity
    verdict from the recession recursion, and a solve probe.  A node's
    certificates are m = f*(lambda p) for lambda in (1 - eps, 1, 1 + eps),
    p its dual point from the perp family v: one stacked conjugate call
    over every (node, lambda) point, one point for a node without a tilt
    (p = 0 serves every lambda).  With no tilt, a solution already swept
    from `problem` is the solve probe's result when it is given.
    """
    base = problem if v is None else tilt_by_p(problem, v)
    tilts = {} if v is None else _tilt_vectors(problem.tree, problem.dims, v)
    lams = (1.0 - eps, 1.0, 1.0 + eps)
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
