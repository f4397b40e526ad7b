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

from . import treeio
from .bellman import (CERT_EPS, StageProblem, _tilt_vectors, extract_policy, recession_probe,
                      solve_be)
from .convexfn import Inf, Polyhedral, _conjugates, _recessions
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
        return StageProblem(self.tree, [self.d] * (self.tree.T + 1), node_costs=node_costs)


def solve_lagrange(instance):
    """Backward sweep of the instance's stage problem; returns its
    BellmanSolution.

    Only when the sweep fails are the Polyhedral stage constraints checked
    for emptiness, in stage order: the error is Infeasible with the first
    empty node, or else the sweep's own (Infeasible at the root when only
    the joint system fails, Unbounded or NonLinearRecession).
    """
    sp = instance.as_stage_problem()
    try:
        return solve_be(sp)
    except StochBellmanError:
        for t in range(instance.tree.T + 1):
            for nid in instance.tree.stage_nodes[t]:
                fn = sp.node_costs[nid]
                if isinstance(fn, Polyhedral) and _empty_polyhedron(fn):
                    raise Infeasible("stage constraints are empty", node=nid) from None
        raise


def lagrange_policy(sol):
    return extract_policy(sol)


def _cone_rows(cone, nid):
    """Inequality rows G with cone = {y : G y <= 0} from either form; a
    cone that is not numeric raises ValidationError naming the node."""
    if cone is None:
        return None
    if isinstance(cone, dict):
        if "generators" in cone and "rows" not in cone:
            rays = treeio._numeric(cone["generators"], f"cone generators at {nid!r}")
            return cone_from_generators(rays)[0]
        if "rows" not in cone:
            raise ValidationError(f"cone at {nid!r} needs 'rows' or 'generators'")
        cone = cone["rows"]
    return np.atleast_2d(treeio._numeric(cone, f"cone C at {nid!r}"))


def lp_costs(tree, d, data):
    """Polyhedral node costs c.x + indicator(T dx + W x - b in C).

    data maps node -> dict with entries T, W, b, c and optional C
    (inequality rows or {"generators": [...]}).  The cone inequality
    G(T dx + W x - b) <= 0 lands on the (x, dx) block pair.  T and W must
    be len(b) x d, c of length d and C of width len(b).  The nodes are read
    by treeio.node_entry in stage order, so an error names the first faulty
    node.
    """
    costs = dict.fromkeys(tree.nodes)
    for nid in (nid for nodes in tree.stage_nodes for nid in nodes):
        rec = data[nid]
        if not {"T", "W", "b", "c"} <= rec.keys():
            raise ValidationError(f"node {nid!r} is missing LP entries")
        b = treeio.node_entry(rec["b"], "b", nid, (None,))
        Tm, Wm = (treeio.node_entry(rec[k], k, nid, (b.size, d)) for k in "TW")
        c = treeio.node_entry(rec["c"], "c", nid, (d,))
        G = _cone_rows(rec.get("C"), nid)
        if G is None:
            G = -np.eye(b.size)  # default cone: componentwise >= 0
        G = treeio.node_entry(G, "cone C", nid, (len(G), b.size))
        piece = np.concatenate([c, np.zeros(d)])
        rows = np.hstack([G @ Wm, G @ Tm])
        rhs = G @ b
        costs[nid] = Polyhedral(piece.reshape(1, -1), [0.0], rows, rhs)
    return costs


def lp_recursion(tree, d, data):
    """Linear stochastic program in block form: solve_lagrange of the
    lp_costs instance, so it returns the BellmanSolution and raises as
    solve_lagrange does."""
    return solve_lagrange(LagrangeInstance(tree, d, lp_costs(tree, d, data)))


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


def check_lagrange_bounds(instance, v=None, y=None):
    """Certificates K_t(x, dx) >= x.(lambda p + dy) + dx.y - m, nodewise.

    v is a perp family supplying p (zero when omitted), read as
    check_assumptions reads it: an entry at stage t is the node's own, one
    at stage t + 1 the child's.  y is an adapted R^d process (zero when
    omitted), and dy = y_k - y_n, with y_k = 0 past a leaf.  The
    certificate m of (node n, child k, lambda in {0.9, 1.1}) is K_n*(lambda
    p + dy, y_n), from one stacked conjugate call over all of them; the
    linearity verdict reruns the sweep on the recession costs.
    """
    tree, d = instance.tree, instance.d
    if v is not None and not perp_check(v):
        raise NotPerp("supplied tilt family fails E_t[v_t] = 0")
    zero = np.zeros(d)
    # own block of a node's dual point, and the previous-decision block of
    # its child's, as the stage problem's costs on (x_{t-1}, x_t) hold them
    tilts = {} if v is None else _tilt_vectors(tree, [d] * (tree.T + 1), v)
    own = {nid: zero if p is None else p[-d:] for nid, p in tilts.items()}
    slot = {nid: zero if p is None else p[:d] for nid, p in tilts.items()}
    Y = {nid: zero if y is None else np.atleast_1d(np.asarray(y[nid], dtype=float))
         for nid in tree.nodes}
    keys, duals = [], []
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            for k in tree.children[nid] or [None]:
                p = own.get(nid, zero) + slot.get(k, zero)
                dy = Y.get(k, zero) - Y[nid]
                for lam in (1.0 - CERT_EPS, 1.0 + CERT_EPS):
                    keys.append((nid, k, lam))
                    duals.append(np.concatenate([lam * p + dy, Y[nid]]))
    ms = _conjugates([instance.costs[nid] for nid, _, _ in keys], duals)
    certificates = {}
    for (nid, k, lam), m in zip(keys, ms):
        certificates.setdefault(nid, {})[(k, lam)] = m
    rec_costs = dict(zip(instance.costs, _recessions(list(instance.costs.values()))))
    lin_ok, detail = recession_probe(LagrangeInstance(tree, d, rec_costs).as_stage_problem())
    return LagrangeBoundsReport(certificates, Inf not in ms, lin_ok, detail)
