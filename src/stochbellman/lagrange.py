"""Recursion over stage costs of the current point and its increment.

Each stage-t node carries a cost K_t(x_t, x_t - x_{t-1}) of fixed dimension
d, with x_{-1} = 0.  The sweep reduces to the generic machinery by
precomposing each node cost with the map (x_{t-1}, x_t) -> (x_t, dx) and
minimizing the trailing block; the per-node lineality test then lands
exactly on the set {x : K^inf(x, x) + V^inf(x) <= 0}.

The block-diagonal LP specialization builds polyhedral node costs from
(T, W, b, c, cone) data and runs the same sweep via epigraph projection.
"""

import numpy as np

from .bellman import StageProblem, recession_probe, solve_be
from .convexfn import Inf, Polyhedral, _recessions
from .errors import Infeasible, NotPerp, StochBellmanError, ValidationError
from .polyhedra import cone_from_generators, is_infeasible_marker
from .simplex import solve_lp
from .tree import perp_check


class LagrangeInstance:
    def __init__(self, tree, d, costs):
        self.tree = tree
        self.d = int(d)
        self.costs = dict(costs)
        for nid in tree.nodes:
            if nid not in self.costs:
                raise ValidationError(f"missing cost at node {nid!r}")
            if self.costs[nid].dim != 2 * self.d:
                raise ValidationError(f"cost at {nid!r} must have dimension {2 * self.d}")

    def pair_map(self):
        """(x_{t-1}, x_t) -> (x_t, x_t - x_{t-1}) as an affine map."""
        d = self.d
        M = np.zeros((2 * d, 2 * d))
        M[:d, d:] = np.eye(d)
        M[d:, d:] = np.eye(d)
        M[d:, :d] = -np.eye(d)
        return M, np.zeros(2 * d)

    def as_stage_problem(self):
        M, t = self.pair_map()
        node_costs = {}
        for nid, fn in self.costs.items():
            if self.tree.stage(nid) == 0:
                # x_{-1} = 0: keep only the x_0 columns
                sub = M[:, self.d:]
                node_costs[nid] = fn.precompose(sub, t)
            else:
                node_costs[nid] = fn.precompose(M, t)
        return StageProblem(self.tree, [self.d] * (self.tree.T + 1),
                            "stage_additive", node_costs=node_costs)


class ValueV:
    """Per-node value functions of the incoming point, plus the solved base."""

    def __init__(self, instance, solution):
        self.instance = instance
        self.solution = solution

    @property
    def value(self):
        return self.solution.value

    def V(self, nid):
        """Continuation value at a node: expectation of children's tables."""
        rec = self.solution.records[nid]
        return rec["tail"]

    def pre(self, nid):
        return self.solution.records[nid]["pre"]

    def post(self, nid):
        return self.solution.records[nid]["post"]


def solve_lagrange(instance):
    """Backward sweep; raises with the offending node on unbounded or
    one-sided recession cones."""
    sp = instance.as_stage_problem()
    sol = solve_be(sp)
    return ValueV(instance, sol)


def lagrange_policy(vv):
    from .bellman import extract_policy
    return extract_policy(vv.solution)


def _cone_rows(cone):
    """Inequality rows G with cone = {y : G y <= 0} from either form."""
    if cone is None:
        return None
    if isinstance(cone, dict):
        if "rows" in cone:
            return np.atleast_2d(np.asarray(cone["rows"], dtype=float))
        if "generators" in cone:
            G, h = cone_from_generators(cone["generators"])
            return G
        raise ValidationError("cone needs 'rows' or 'generators'")
    return np.atleast_2d(np.asarray(cone, dtype=float))


def lp_costs(tree, d, data):
    """Polyhedral node costs c.x + indicator(T dx + W x - b in C).

    data maps node -> dict with entries T, W, b, c and optional C
    (inequality rows or {"generators": [...]}).  The cone inequality
    G(T dx + W x - b) <= 0 lands on the (x, dx) block pair.
    """
    costs = {}
    for nid in tree.nodes:
        rec = data[nid]
        Tm = np.atleast_2d(np.asarray(rec["T"], dtype=float))
        Wm = np.atleast_2d(np.asarray(rec["W"], dtype=float))
        b = np.atleast_1d(np.asarray(rec["b"], dtype=float))
        c = np.atleast_1d(np.asarray(rec["c"], dtype=float))
        G = _cone_rows(rec.get("C"))
        if G is None:
            G = -np.eye(b.size)  # default cone: componentwise >= 0
        piece = np.concatenate([c, np.zeros(d)])
        rows = np.hstack([G @ Wm, G @ Tm])
        rhs = G @ b
        costs[nid] = Polyhedral(piece.reshape(1, -1), [0.0], rows, rhs)
    return costs


def lp_recursion(tree, d, data):
    """Linear stochastic program in block form; returns the solved ValueV.

    Runs the backward sweep (solve_be).  Only when it fails are the nodes'
    stage constraints checked for emptiness, in stage order: the error is
    Infeasible with the first empty node, or else the sweep's own
    (Infeasible at the root when only the joint system fails, Unbounded or
    NonLinearRecession).
    """
    instance = LagrangeInstance(tree, d, lp_costs(tree, d, data))
    sp = instance.as_stage_problem()
    try:
        sol = solve_be(sp)
    except StochBellmanError:
        for t in range(tree.T + 1):
            for nid in tree.stage_nodes[t]:
                if _empty_polyhedron(sp.node_costs[nid]):
                    raise Infeasible("stage constraints are empty", node=nid) from None
        raise
    return ValueV(instance, sol)


def _empty_polyhedron(fn):
    if is_infeasible_marker(fn.C, fn.d):
        return True
    if fn.C.shape[0] == 0:
        return False
    res = solve_lp(np.zeros(fn.dim), fn.C, fn.d)
    return res.status == "infeasible"


class LagrangeBoundsReport:
    def __init__(self, certificates, lower_bound_ok, linearity_ok, linearity_detail):
        self.certificates = certificates
        self.lower_bound_ok = lower_bound_ok
        self.linearity_ok = linearity_ok
        self.linearity_detail = linearity_detail


def check_lagrange_bounds(instance, v=None, y=None, eps=0.1):
    """Certificates K_t(x, dx) >= x.(lambda p + dy) + dx.y - m, nodewise.

    v is a perp family supplying p (zero when omitted); y is an adapted
    R^d process (zero when omitted).  Certificates are conjugate values of
    each node cost at the dual point, one per (node, child, lambda); the
    linearity verdict reruns the sweep on the recession costs.
    """
    tree = instance.tree
    d = instance.d
    if v is not None and not perp_check(v):
        raise NotPerp("supplied tilt family fails E_t[v_t] = 0")

    def p_at(t, nid_stage_t, child):
        if v is None or t not in v.entries:
            return np.zeros(d)
        stage, per = v.entries[t]
        if stage == t:
            return per[nid_stage_t]
        return per[child]

    def y_at(nid):
        if y is None:
            return np.zeros(d)
        return np.atleast_1d(np.asarray(y[nid], dtype=float))

    certificates = {}
    ok = True
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            kids = tree.children[nid] or [None]
            rows = {}
            for k in kids:
                ynext = y_at(k) if k is not None else np.zeros(d)
                dy = ynext - y_at(nid)
                for lam in (1.0 - eps, 1.0 + eps):
                    p = p_at(t, nid, k)
                    dual = np.concatenate([lam * p + dy, y_at(nid)])
                    m = instance.costs[nid].conjugate(dual)
                    rows[(k, lam)] = m
                    if m == Inf:
                        ok = False
            certificates[nid] = rows
    rec_costs = dict(zip(instance.costs, _recessions(list(instance.costs.values()))))
    lin_ok, detail = recession_probe(LagrangeInstance(tree, d, rec_costs).as_stage_problem())
    return LagrangeBoundsReport(certificates, ok, lin_ok, detail)
