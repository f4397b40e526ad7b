"""Backward recursion on scenario trees.

Costs are stage-additive: each node at stage t carries a cost
g_t(x_{t-1}, x_t), and the sweep computes per-node value functions of the
previous decision.

At every node the sweep records the pre-minimization function, the value
function after minimizing the node's own block, the minimizer map, and the
lineality basis of the flat directions.  Unbounded or one-sided recession
cones abort the sweep with the offending node attached, and so does a
continuation that no single backend can add to the node's cost
(BackendClash).
"""

import numpy as np

from .convexfn import (Inf, Quadratic, _is_empty, cond_expect_fn, partial_min,
                       recession)
from .errors import (BackendClash, Infeasible, NonLinearRecession, NotPerp,
                     SolverError, UnboundedBelow, ValidationError)
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


def _minimize_block(fn, over, nid):
    try:
        return partial_min(fn, over=over)
    except (UnboundedBelow, NonLinearRecession) as exc:
        raise type(exc)(str(exc), node=nid) from exc


def solve_be(problem):
    """Backward sweep; returns a BellmanSolution with per-node records."""
    tree = problem.tree
    records = {}
    for t in range(tree.T, -1, -1):
        prev = problem._prev_dim(t)
        own = problem.dims[t]
        lift = np.zeros((own, prev + own))
        lift[:, prev:] = np.eye(own)
        for nid in tree.stage_nodes[t]:
            fn = problem.node_costs[nid]
            kids = tree.children[nid]
            tail = None
            if kids:
                try:
                    tail = cond_expect_fn(
                        [(float(tree.nodes[k].prob), records[k]["post"]) for k in kids])
                    fn = fn.add(tail.precompose(lift, np.zeros(own)))
                except BackendClash as exc:
                    raise BackendClash(f"{exc} (node {nid})") from exc
            if isinstance(fn, Quadratic) and _is_empty(fn):
                raise Infeasible("problem is infeasible", node=nid)
            pm = _minimize_block(fn, own, nid)
            records[nid] = {"pre": fn, "post": pm.fn, "selector": pm.selector,
                            "N": pm.lineality, "tail": tail, "stage": t}
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
        tails = {}
        for nid in tree.stage_nodes[t]:
            kids = tree.children[nid]
            tails[nid] = cond_expect_fn(
                [(float(tree.nodes[k].prob), sol.records[k]["post"]) for k in kids])
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


def check_assumptions(problem, v=None, eps=0.1):
    """Diagnostics, never gates: lower-bound certificates via per-node
    conjugates at the tilt point, a linearity verdict from the recession
    recursion, and a solve probe.
    """
    tree = problem.tree
    base = problem if v is None else tilt_by_p(problem, v)
    tilts = (_tilt_vectors(problem, v) if v is not None else
             {nid: None for nid in tree.nodes})

    certificates = {}
    lower_ok = True
    for nid, fn in problem.node_costs.items():
        w = tilts[nid]
        # tilt vectors store -p; the certificate is m >= f*(lambda p)
        lams = (1.0 - eps, 1.0, 1.0 + eps)
        if w is None:  # p = 0: one conjugate serves every lambda
            m = fn.conjugate(np.zeros(fn.dim))
            per_lambda = dict.fromkeys(lams, m)
        else:
            per_lambda = {lam: fn.conjugate(lam * -w) for lam in lams}
        if any(m == Inf for m in per_lambda.values()):
            lower_ok = False
        certificates[nid] = per_lambda

    linearity_ok, linearity_detail = True, ""
    try:
        solve_be(_recession_problem(base))
    except (UnboundedBelow, NonLinearRecession) as exc:
        linearity_ok, linearity_detail = False, f"{type(exc).__name__}: {exc}"
    except SolverError as exc:
        linearity_detail = f"recession probe inconclusive: {exc}"

    feas_ok, feas_detail = True, ""
    try:
        sol = solve_be(base)
        feas_detail = f"value {sol.value:.12g}"
    except SolverError as exc:
        feas_ok, feas_detail = False, f"{type(exc).__name__}: {exc}"

    return AssumptionReport(certificates, lower_ok, linearity_ok, linearity_detail,
                            feas_ok, feas_detail)
