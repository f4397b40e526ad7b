"""Backward recursion on scenario trees.

Costs are stage-additive: each node at stage t carries a cost
g_t(x_{t-1}, x_t), and the sweep computes per-node value functions of the
previous decision.

backward_sweep, the one backward recursion, runs a stage at a time with
the Quadratic nodes as stacks; every node gets the node-by-node bits.

At every node the sweep records the pre-minimization function, the value
function after minimizing the node's own block, the minimizer map, and the
lineality basis of the flat directions.  Unbounded or one-sided recession
cones abort the sweep with the offending node attached, and so does a
continuation that no single backend can add to the node's cost
(BackendClash); the error is the first failing node's in stage order.
"""

import numpy as np

from .convexfn import (Inf, Quadratic, _is_empty, add_stack, partial_min,
                       partial_min_stack, precompose_stack, recession,
                       scale_stack)
from .errors import (BackendClash, DimensionMismatch, Infeasible,
                     NonLinearRecession, NotPerp, SolverError,
                     StochBellmanError, UnboundedBelow, ValidationError)
from .extensive import FlatProgram, Term, solve_extensive
from .tree import perp_check


class StageProblem:
    """Problem data bound to a tree: stage costs plus per-stage decision dims.

    `mode` must be "stage_additive", the only problem mode.
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


def _rows(f):
    """Row count of a Quadratic, its stacking key; None for anything else."""
    return f.A.shape[0] if isinstance(f, Quadratic) else None


def _split(keys):
    """Positions grouped by key in first-seen order, and the positions whose
    key is None."""
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    rest = groups.pop(None, [])
    return groups.values(), rest


def _map(fns, p=None, M=None, W=None):
    """p_i f_i(M_i x + W_i) for each given f_i (no factor when p is None, no
    map when M is None), None kept as None: Quadratics as one stack per row
    count, others one by one."""
    out = list(fns)
    groups, rest = _split([_rows(f) for f in fns])
    for idx in groups:
        fs, pi = [fns[i] for i in idx], None if p is None else p[idx]
        res = scale_stack(fs, pi) if M is None else precompose_stack(fs, M[idx], W[idx], pi)
        for i, f in zip(idx, res):
            out[i] = f
    for i in (i for i in rest if fns[i] is not None):
        f = fns[i] if M is None else fns[i].precompose(M[i], W[i])
        out[i] = f if p is None else f.scale(p[i])
    return out


def _add(acc, other, nodes, failed):
    """acc[i] += other[i] (acc[i] = other[i] from None) where other[i] is
    given, for the nodes before the first failure: Quadratic pairs as one
    stack per pair of row counts, others node by node.  A node's error is
    recorded in failed."""
    live = [i for i in range(min(failed, default=len(acc))) if other[i] is not None]
    keys = [(_rows(acc[i]), _rows(other[i])) for i in live]
    groups, rest = _split([None if None in k else k for k in keys])
    for g in groups:
        idx = [live[k] for k in g]
        for i, f in zip(idx, add_stack([acc[i] for i in idx], [other[i] for i in idx])):
            acc[i] = f
    for i in (live[k] for k in rest):
        try:
            acc[i] = other[i] if acc[i] is None else acc[i].add(other[i])
        except BackendClash as exc:
            failed[i] = BackendClash(f"{exc} (node {nodes[i]})")
        except StochBellmanError as exc:
            failed[i] = exc


def _minimize(fns, over, nodes, failed):
    """partial_min of each fns[i] over its trailing `over` coordinates, for
    the nodes before the first failure: one stacked call per Quadratic row
    count, node by node otherwise.  A node's error is recorded in failed."""
    pms = [None] * len(fns)
    live = fns[:min(failed, default=len(fns))]
    groups, rest = _split([_rows(f) if over else None for f in live])
    for idx in groups:
        names = [nodes[i] for i in idx]
        try:
            res = partial_min_stack([fns[i] for i in idx], over, names)
        except SolverError as exc:
            failed[idx[names.index(exc.node)]] = exc
            continue
        for i, pm in zip(idx, res):
            pms[i] = pm
    for i in rest:
        try:
            pms[i] = partial_min(fns[i], over)
        except (UnboundedBelow, NonLinearRecession) as exc:
            failed[i] = type(exc)(str(exc), node=nodes[i])
        except StochBellmanError as exc:
            failed[i] = exc
    return pms


def backward_sweep(tree, costs, keep, over, record, maps=None, empty_raises=False):
    """The backward recursion: node id -> record(pre, PartialMin, tail).

    A stage-t cost takes a kept block of width keep[t], then the own block
    of width over[t].  A node's tail sums p_k V_k(m_k(.)) over its children
    slot by slot in child order, m_k the child's step map from maps(t) =
    (M, W) stacked in stage order.  Without maps each V_k is a function of
    the own block, and the tail is lifted to both blocks.  The cost is
    added once, an empty Quadratic raises Infeasible if empty_raises, and
    the own block is minimized out.  The error raised is the first failing
    node's."""
    records, post = {}, []
    for t in range(tree.T, -1, -1):
        nodes, n = tree.stage_nodes[t], len(tree.stage_nodes[t])
        fns = [costs[nid] for nid in nodes]
        failed = {i: DimensionMismatch(f"cost at {nid!r} has wrong dimension")
                  for i, (nid, f) in enumerate(zip(nodes, fns)) if f.dim != keep[t] + over[t]}
        tails = [None] * n
        if t < tree.T:
            kids = tree.stage_nodes[t + 1]
            p = np.array([float(tree.nodes[k].prob) for k in kids])
            I = _map(post, p, *(maps(t + 1) if maps else ()))
            slot = {k: j for j, k in enumerate(kids)}
            for s in range(max(len(tree.children[nid]) for nid in nodes)):
                _add(tails, [I[slot[ch[s]]] if len(ch) > s else None
                             for ch in (tree.children[nid] for nid in nodes)], nodes, failed)
            L = np.eye(keep[t] + over[t])[keep[t]:]
            _add(fns, _map(tails, M=np.broadcast_to(L, (n,) + L.shape),
                           W=np.zeros((n, over[t]))) if maps is None else tails, nodes, failed)
        empty = [i for i in range(min(failed, default=n)) if empty_raises
                 and isinstance(fns[i], Quadratic) and _is_empty(fns[i])]
        if empty:
            failed[empty[0]] = Infeasible("problem is infeasible", node=nodes[empty[0]])
        pms = _minimize(fns, over[t], nodes, failed)
        if failed:
            raise failed[min(failed)]
        records.update((nid, record(fns[i], pms[i], tails[i])) for i, nid in enumerate(nodes))
        post = [pm.fn for pm in pms]
    return records


def solve_be(problem):
    """Backward sweep; returns a BellmanSolution with per-node records."""
    tree = problem.tree
    keep = [problem._prev_dim(t) for t in range(tree.T + 1)]
    records = backward_sweep(tree, problem.node_costs, keep, problem.dims, lambda pre, pm, tail: {
        "pre": pre, "post": pm.fn, "selector": pm.selector, "N": pm.lineality, "tail": tail},
        empty_raises=True)
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


def extract_policy(sol):
    """Forward sweep through the recorded minimizer maps."""
    problem = sol.problem
    tree = problem.tree
    decisions = {}
    residuals = {}

    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            rec = sol.records[nid]
            par = tree.parent(nid)
            pre = decisions[par] if par is not None else np.zeros(0)
            x = rec["selector"](pre)
            decisions[nid] = x
            full = np.concatenate([pre, x])
            residuals[nid] = max(rec["pre"].eval(full) - rec["post"].eval(pre), 0.0)
    fp = build_flat(problem)
    value = fp.eval(fp.pack(decisions))
    return Policy(problem, decisions, residuals, float(value))


def verify_optimality(policy, sol, tol=1e-8):
    """Nodewise argmin test of a policy against a solved recursion."""
    tree = sol.problem.tree
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            rec = sol.records[nid]
            par = tree.parent(nid)
            pre = policy.decisions[par] if par is not None else np.zeros(0)
            full = np.concatenate([pre, policy.decisions[nid]])
            gap = rec["pre"].eval(full) - rec["post"].eval(pre)
            if not np.isfinite(gap) or gap > tol:
                return False
    return True


def _tilt_vectors(problem, v):
    """Per-node tilt folded from a perp family: node -> vector or None."""
    tree = problem.tree
    tilts = {nid: None for nid in tree.nodes}

    def bump(nid, vec):
        cur = tilts[nid]
        tilts[nid] = vec if cur is None else cur + vec

    for t, (stage, per_node) in v.entries.items():
        nt = problem.dims[t]
        for nid in tree.stage_nodes[stage]:
            val = per_node[nid]
            prev = problem._prev_dim(stage)
            own = problem.dims[stage]
            w = np.zeros(prev + own)
            if stage == t:
                w[prev:prev + nt] = -val
            else:  # stage == t + 1: v_t multiplies the parent-slot block
                w[:nt] = -val
            bump(nid, w)
    return tilts


def tilt_by_p(problem, v, tol=1e-12):
    """Stage costs tilted by -x_t . v_t for a family with E_t v_t = 0."""
    if not perp_check(v, tol=tol):
        raise NotPerp("tilt process fails E_t[v_t] = 0")
    tilts = _tilt_vectors(problem, v)
    costs = {}
    for nid, fn in problem.node_costs.items():
        w = tilts[nid]
        costs[nid] = fn if w is None else fn.tilt(w)
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
    costs = {nid: recession(fn) for nid, fn in problem.node_costs.items()}
    return StageProblem(problem.tree, problem.dims, node_costs=costs)


def recession_probe(problem):
    """Linearity verdict (ok, detail) from a sweep of recession costs."""
    try:
        solve_be(problem)
    except (UnboundedBelow, NonLinearRecession) as exc:
        return False, f"{type(exc).__name__}: {exc}"
    except SolverError as exc:
        return True, f"recession probe inconclusive: {exc}"
    return True, ""


def _conjugates_at_zero(fns):
    """f*(0) = -min f for each function, with the bits of f.conjugate(0).

    Quadratics of one dim and row count run as one partial_min_stack over
    all coordinates; a member unbounded below gets Inf, as
    Quadratic.conjugate gives it.  Other functions take conjugate.
    """
    out = [None] * len(fns)
    groups, rest = _split([(f.dim, _rows(f)) if isinstance(f, Quadratic) and f.dim else None
                           for f in fns])
    for idx in groups:
        pms = partial_min_stack([fns[i] for i in idx], fns[idx[0]].dim, skip_unbounded=True)
        for i, pm in zip(idx, pms):
            # -inf when the domain is empty
            out[i] = Inf if pm is None else -pm.fn.eval(np.zeros(0))
    for i in rest:
        out[i] = fns[i].conjugate(np.zeros(fns[i].dim))
    return out


def check_assumptions(problem, v=None, eps=0.1, solution=None):
    """Diagnostics, never gates: lower-bound certificates via per-node
    conjugates at the tilt point, a linearity verdict from the recession
    recursion, and a solve probe.  With no tilt, a solution already swept
    from `problem` is the solve probe's result when it is given.
    """
    tree = problem.tree
    base = problem if v is None else tilt_by_p(problem, v)
    tilts = (_tilt_vectors(problem, v) if v is not None else
             {nid: None for nid in tree.nodes})

    certificates = {}
    lower_ok = True
    plain = [nid for nid in problem.node_costs if tilts[nid] is None]
    at_zero = dict(zip(plain, _conjugates_at_zero([problem.node_costs[nid] for nid in plain])))
    for nid, fn in problem.node_costs.items():
        w = tilts[nid]
        # tilt vectors store -p; the certificate is m >= f*(lambda p)
        lams = (1.0 - eps, 1.0, 1.0 + eps)
        if w is None:  # p = 0: one conjugate serves every lambda
            per_lambda = dict.fromkeys(lams, at_zero[nid])
        else:
            per_lambda = {lam: fn.conjugate(lam * -w) for lam in lams}
        if any(m == Inf for m in per_lambda.values()):
            lower_ok = False
        certificates[nid] = per_lambda

    linearity_ok, linearity_detail = recession_probe(_recession_problem(base))

    feas_ok, feas_detail = True, ""
    try:
        sol = solution if v is None and solution is not None else solve_be(base)
        feas_detail = f"value {sol.value:.12g}"
    except SolverError as exc:
        feas_ok, feas_detail = False, f"{type(exc).__name__}: {exc}"

    return AssumptionReport(certificates, lower_ok, linearity_ok, linearity_detail,
                            feas_ok, feas_detail)
