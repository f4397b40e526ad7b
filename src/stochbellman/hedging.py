"""Hedging a terminal claim by trading on a scenario-tree market.

The market is an adapted price process with optional polyhedral position
constraints per node; all positions close at the horizon.  Solving goes
through the wealth-state control reduction: state = wealth, controls =
cash invested per asset, per-child returns from price ratios.  The
wealth grid hedges one asset: one exact line search per node serves the
whole grid.  It bisects over each child table's knot indices in turn,
about ceil(log2 m) slope steps per child of m knots, and each node's
table is then replaced by its greatest convex minorant in one pass over
its knots.  Several assets take the exact quadratic recursion or the
exponential-loss recursion (damped Newton per node, each step one
extensive._qp).  The no-arbitrage test is a single LP over node
positions: maximize expected terminal gains subject to nonnegative
pathwise gains, recession-feasible positions and a sup-norm cap; the
verdict is cap-invariant because the arbitrage cone is positively
homogeneous.
"""

import math

import numpy as np

from .bellman import forward_sweep
from .control import ControlSolution, ControlSystem, extract_oc_policy, solve_oc
from .convexfn import Inf, Quadratic, Sampled1D, _stack, eval_stack
from .errors import (ArbitrageRefusal, Infeasible, IterationLimit, NonMonotone, SolverError,
                     UnboundedExp, ValidationError)
from .extensive import _qp
from .simplex import solve_lp
from .treeio import node_entry

MAX_NEWTON_STEPS = 100


class MarketModel:
    """Price process, per-node position constraints, terminal claim.

    s is an adapted R^J process with componentwise nonzero prices (the
    wealth reduction divides by them).  D maps a node at stage < T to
    inequality rows (G, g) describing {x : Gx <= g}, G of J columns and g
    one entry per row (treeio.node_entry converts and checks both, naming
    the node); positions at the horizon are fixed to zero, so stage-T
    entries are rejected.
    """

    def __init__(self, tree, s, D=None, c=None):
        self.tree = tree
        self.s = s
        self.J = np.atleast_1d(np.asarray(s[tree.root], dtype=float)).size
        self.D = {}
        for nid, (G, g) in (D or {}).items():
            if tree.stage(nid) >= tree.T:
                raise ValidationError(f"position rows `D` at {nid!r}: terminal "
                                      "positions are fixed to zero")
            G = node_entry(G, "`D`'s `G`", nid, (None, self.J))
            self.D[nid] = (G, node_entry(g, "`D`'s `g`", nid, (len(G),)))
        self.c = {leaf: float((c or {}).get(leaf, 0.0)) for leaf in tree.leaves()}
        for nid in tree.nodes:
            price = np.atleast_1d(np.asarray(s[nid], dtype=float))
            if price.size != self.J:
                raise ValidationError(f"price at {nid!r} has wrong dimension")
            if np.any(np.abs(price) < 1e-12):
                raise ValidationError(f"zero price at node {nid!r}")

    def price(self, nid):
        return np.atleast_1d(np.asarray(self.s[nid], dtype=float))

    def increment(self, child):
        return self.price(child) - self.price(self.tree.parent(child))

    def returns(self, child):
        """Per-asset rate of return over the branch into `child`."""
        return self.increment(child) / self.price(self.tree.parent(child))


class NAVerdict:
    def __init__(self, passed, optimum, direction):
        self.passed = passed
        self.optimum = optimum
        self.direction = direction

    def __bool__(self):
        return self.passed


def na_check(market, cap=1.0):
    """No-arbitrage LP (PASS: gain <= 1e-9); FAIL returns the optimal positions as the witness."""
    tree = market.tree
    J = market.J
    trade_nodes = [nid for t in range(tree.T) for nid in tree.stage_nodes[t]]
    offs = {nid: i * J for i, nid in enumerate(trade_nodes)}
    n = J * len(trade_nodes)
    leaves = tree.leaves()

    def gain_row(leaf):
        row = np.zeros(n)
        path = tree.path(leaf)
        for t in range(tree.T):
            inc = market.price(path[t + 1]) - market.price(path[t])
            row[offs[path[t]]:offs[path[t]] + J] += inc
        return row

    A_ub, b_ub = [], []
    cost = np.zeros(n)
    for leaf in leaves:
        row = gain_row(leaf)
        A_ub.append(-row)
        b_ub.append(0.0)
        cost -= float(tree.prob(leaf)) * row
    for nid in trade_nodes:
        if nid in market.D:
            G, _ = market.D[nid]
            for grow in G:
                row = np.zeros(n)
                row[offs[nid]:offs[nid] + J] = grow
                A_ub.append(row)
                b_ub.append(0.0)
    eye = np.eye(n)
    A_ub.extend(eye)
    b_ub.extend([cap] * n)
    A_ub.extend(-eye)
    b_ub.extend([cap] * n)
    res = solve_lp(cost, A_ub, b_ub)
    if res.status != "optimal":
        raise ValidationError(f"arbitrage LP came back {res.status}")
    gain = -res.value
    if gain <= 1e-9:
        return NAVerdict(True, gain, None)
    direction = {nid: res.x[offs[nid]:offs[nid] + J].copy() for nid in trade_nodes}
    return NAVerdict(False, gain, direction)


class ALMResult:
    def __init__(self, value, positions, controls, verdict, solution):
        self.value = value
        self.positions = positions
        self.controls = controls
        self.verdict = verdict
        self.solution = solution


def _hat_rows(market, nid):
    """Position constraints mapped to cash coordinates U^j = s^j x^j."""
    if nid not in market.D:
        return None
    G, g = market.D[nid]
    s = market.price(nid)
    return G / s, g


def _feasible_start(rows, J, nid):
    """A cash position on the rows G U <= g: 0 when they allow it, else a
    vertex of the zero-cost LP; Infeasible (naming the node) if none."""
    if rows is None or np.all(rows[1] >= 0.0):
        return np.zeros(J)
    res = solve_lp(np.zeros(J), *rows)
    if res.status != "optimal":
        raise Infeasible("no cash position satisfies the position rows", node=nid)
    return res.x


def _cash_interval(rows):
    """Bounds (lo, hi) of one asset's cash position on the rows G U <= g
    (unbounded without rows); lo > hi when no position satisfies them."""
    if rows is None:
        return -Inf, Inf
    G, g = rows
    a = G[:, 0]
    if np.any(g[a == 0.0] < 0.0):
        return Inf, -Inf
    return (np.max(g[a < 0.0] / a[a < 0.0], initial=-Inf),
            np.min(g[a > 0.0] / a[a > 0.0], initial=Inf))


def _line_min(base, kids, lo, hi):
    """Exact min over u in [lo, hi] of sum_k p_k J_k(base_k + r_k u), per point.

    base holds one array per child (entry i belongs to point i); kids lists
    (p_k, r_k, J_k) with a scalar return and a Sampled1D table; lo and hi
    bound every point's u.  The objective is convex piecewise linear in u,
    so a minimizer is a child kink (kappa_kj - base_k) / r_k or an end of
    the feasible interval.  Each moving child in turn narrows a bracket
    [a, b] around the least-|u| point where the right slope turns
    nonnegative: a bisection over its knot indices inside the bracket,
    vectorized over the points, about ceil(log2 m) steps for m knots, each
    reading the right slope at one kink of the child (one searchsorted per
    other child).  The objective is then evaluated at a, b, both interval
    ends and u = 0 clipped into the interval.  Ties go to the least |u|
    (the minimum-norm convention).  Returns (values, controls): +inf and
    nan where no u is feasible.
    """
    L = np.full(base[0].shape, lo, dtype=float)
    H = np.full(base[0].shape, hi, dtype=float)
    ok = np.ones(L.shape, dtype=bool)
    moving = []
    for x, (p, r, tab) in zip(base, kids):
        kn = tab.knots
        if r == 0.0:
            ok &= (kn[0] <= x) & (x <= kn[-1])
            continue
        first, last = (kn[0] - x) / r, (kn[-1] - x) / r
        L = np.maximum(L, first if r > 0 else last)
        H = np.minimum(H, last if r > 0 else first)
        slopes = np.diff(tab.values) / np.diff(kn) if kn.size > 1 else np.zeros(1)
        # searched as J(-y) on the negated knots when r < 0, so that the
        # kinks increase with the index: the kinks and slope terms are the
        # same numbers
        moving.append((p, r, x, kn, slopes) if r > 0 else
                      (p, -r, -x, -kn[::-1], -slopes[::-1]))
    ok &= L <= H
    L = np.where(ok, L, 0.0)
    H = np.where(ok, H, 0.0)
    a, b = L, H
    for k, (p, r, x, kn, slopes) in enumerate(moving):
        i = np.searchsorted(kn, x + r * a) - 1  # last knot left of a
        j = np.searchsorted(kn, x + r * b, side="right")  # first right of b
        while (wide := j - i > 1).any():
            mid = (i + j) // 2
            u = (np.take(kn, mid, mode="clip") - x) / r
            slope = 0.0
            for c, (pc, rc, xc, knc, sc) in enumerate(moving):
                # the right slope at u: child k's own segment from its index
                seg = mid if c == k else np.searchsorted(knc, xc + rc * u, side="right") - 1
                slope = slope + pc * rc * np.take(sc, seg, mode="clip")
            right = (slope > 0.0) | ((slope == 0.0) & (u >= 0.0))
            j = np.where(wide & right, mid, j)
            i = np.where(wide & ~right, mid, i)
        a = np.where(i >= 0, np.maximum(a, (np.take(kn, i, mode="clip") - x) / r), a)
        b = np.where(j < kn.size, np.minimum(b, (np.take(kn, j, mode="clip") - x) / r), b)
    cands = [np.clip(0.0, L, H)] + ([b, a, L, H] if moving else [])
    U = np.clip(np.stack(cands, axis=1), L[:, None], H[:, None])
    vals = np.zeros(U.shape)
    for x, (p, r, tab) in zip(base, kids):
        vals += p * np.interp(x[:, None] + r * U, tab.knots, tab.values)
    best = vals.min(axis=1)
    pick = np.argmin(np.where(vals == best[:, None], np.abs(U), Inf), axis=1)
    U = U[np.arange(U.shape[0]), pick]
    return np.where(ok, best, Inf), np.where(ok, U, np.nan)


def _tabulate(loss, u):
    """loss at each point of u, +inf outside its domain."""
    if isinstance(loss, Sampled1D):
        kn = loss.knots
        inside = (u >= kn[0] - 1e-12) & (u <= kn[-1] + 1e-12)
        return np.where(inside, np.interp(u, kn, loss.values), Inf)
    if isinstance(loss, Quadratic):
        return eval_stack(_stack([loss]), u[:, None])
    return np.array([loss.eval([v]) for v in u])


def _convexify(knots, values):
    """Greatest convex minorant at the knots (repairs rounding-level dips):
    one monotone-chain pass over the knots, each popped at most once."""
    x = np.asarray(knots, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return v
    # the monotone chain on Python floats: the IEEE arithmetic of numpy's
    # scalars without their indexing cost
    xs, vs = x.tolist(), v.tolist()
    hull = [0]
    for i in range(1, len(vs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # keep b only if it lies below the chord a -> i
            if (vs[b] - vs[a]) * (xs[i] - xs[a]) <= (vs[i] - vs[a]) * (xs[b] - xs[a]):
                break
            hull.pop()
        hull.append(i)
    return np.interp(x, x[hull], v[hull])


def _grid_sweep(market, sys_, loss_at, grid):
    """Value tables on the wealth grid of a one-asset market, from the
    leaves to the root.

    A leaf tabulates loss(c - X).  An interior node minimizes, over cash
    positions U in its rows' interval, the expected child table value at
    X + r_k U: one exact _line_min over the whole grid, and one more per
    selector call on its one point.  A point's result does not depend on
    the other points in the call, so the selector reproduces the table
    bits.  Tables keep the finite grid points, replaced by their greatest
    convex minorant.
    """
    tree = market.tree
    records = {}
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            kids = [(float(tree.nodes[k].prob), float(market.returns(k)[0]), records[k]["J"])
                    for k in tree.children[nid]]
            if not kids:
                vals = _tabulate(loss_at(nid), market.c[nid] - grid)

                def selector(X):
                    return np.zeros(1)
            else:
                lo, hi = _cash_interval(_hat_rows(market, nid))
                if lo > hi:
                    raise Infeasible("no cash position satisfies the position rows", node=nid)
                vals, _ = _line_min([grid] * len(kids), kids, lo, hi)

                def selector(X, kids=kids, lo=lo, hi=hi):
                    X = np.asarray(X, dtype=float)[:1]
                    return _line_min([X] * len(kids), kids, lo, hi)[1]
            finite = np.isfinite(vals)
            if not finite.any():
                raise SolverError("no feasible wealth level on the grid", node=nid)
            knots = grid[finite]
            records[nid] = {"J": Sampled1D(knots, _convexify(knots, vals[finite])),
                            "selector": selector}
    return ControlSolution(sys_, records)


def solve_alm(market, loss, wealth=0.0, grid=None, refuse_arbitrage=True):
    """Best hedge of the terminal claim under a loss on the shortfall.

    loss is a 1-D ConvexFn (Quadratic, Polyhedral or Sampled1D), or a dict
    mapping leaves to per-scenario losses.  A Quadratic loss at every
    leaf, on a market without position rows, takes the exact quadratic
    recursion (solve_oc) and its forward pass (extract_oc_policy); anything
    else goes through the wealth grid (default: 2001 points around
    `wealth`), whose forward pass (bellman.forward_sweep) calls each node's
    table selector.  There every node carries a value table on the grid,
    the exact minimum at its knots; only interpolation between knots (and
    outside the grid, +inf) approximates.  The grid hedges one asset: on a market with several, a
    grid hedge raises ValidationError before the no-arbitrage LP.  An
    arbitrage market is refused by default with the verdict attached; pass
    refuse_arbitrage=False to force the solve.
    """
    tree = market.tree
    J = market.J
    loss_at = loss.__getitem__ if isinstance(loss, dict) else (lambda leaf: loss)
    exact = not market.D and all(isinstance(loss_at(leaf), Quadratic) for leaf in tree.leaves())
    if not exact and J > 1:
        raise ValidationError(f"the wealth grid hedges one asset, and the market has {J} "
                              "(a quadratic loss without position rows, or the "
                              "exponential loss, hedges several)")
    verdict = na_check(market)
    if not verdict.passed and refuse_arbitrage:
        raise ArbitrageRefusal(f"market admits arbitrage (gain {verdict.optimum:.3g})")
    # wealth X_k = X + r_k.U for every node k after the root
    later = [nid for t in range(1, tree.T + 1) for nid in tree.stage_nodes[t]]
    sys_ = ControlSystem(tree, 1, J, dict.fromkeys(later, np.zeros((1, 1))),
                         {nid: market.returns(nid).reshape(1, J) for nid in later},
                         dict.fromkeys(later, np.zeros(1)))
    if exact:
        costs = {}
        for nid in tree.nodes:
            if tree.stage(nid) == tree.T:
                M = np.zeros((1, 1 + J))
                M[0, 0] = -1.0
                costs[nid] = loss_at(nid).precompose(M, [market.c[nid]])
            elif nid == tree.root:
                pin = np.zeros((1, 1 + J))
                pin[0, 0] = 1.0
                costs[nid] = Quadratic(np.zeros((1 + J, 1 + J)), np.zeros(1 + J),
                                       0.0, pin, [wealth])
            else:
                costs[nid] = Quadratic(np.zeros((1 + J, 1 + J)), np.zeros(1 + J))
        sol = solve_oc(sys_, costs)
        value = sol.value(wealth)
        _, controls = extract_oc_policy(sys_, sol, [wealth])
    else:
        if grid is None:
            span = 2.0 + 2.0 * (max(abs(v) for v in market.c.values()) + abs(wealth))
            grid = np.linspace(wealth - span, wealth + span, 2001)
        sol = _grid_sweep(market, sys_, loss_at, np.asarray(grid, dtype=float))
        value = sol.records[tree.root]["J"].eval(wealth)
        _, controls, _, _ = forward_sweep(tree, lambda t, S: [
            sol.control(nid, x) for nid, x in zip(tree.stage_nodes[t], S)], [wealth],
            sys_.stage_maps)
    positions = {nid: U / market.price(nid) for nid, U in controls.items()}
    return ALMResult(float(value), positions, controls, verdict, sol)


class ExpUtilityResult:
    def __init__(self, log_alpha, controls, rho):
        self.log_alpha = log_alpha
        with np.errstate(over="ignore"):  # +inf past the float range
            self.alpha = {nid: float(np.exp(v)) for nid, v in log_alpha.items()}
        self.controls = controls
        self.rho = rho

    def value(self, tree, wealth):
        return self.J(tree.root, wealth)

    def J(self, nid, X):
        """alpha exp(-rho X) / rho from log alpha; SolverError past the float range."""
        try:
            return math.exp(self.log_alpha[nid] - self.rho * X - math.log(self.rho))
        except OverflowError:
            raise SolverError("the exponential-loss value exceeds the float range",
                              node=nid) from None


def _log_factor(logw, R, rho, U):
    """phi(U) = log sum_k exp(logw_k - rho r_k.U), its gradient and Hessian,
    and the weights q = softmax(logw - rho R U)."""
    z = logw - rho * (R @ U)
    e = np.exp(z - z.max())
    q = e / e.sum()
    m = q @ R
    return z.max() + math.log(e.sum()), -rho * m, rho * rho * ((R.T * q) @ R - np.outer(m, m)), q


def _exp_node(logw, R, rho, rows, nid):
    """(phi, U): the minimum of phi(U) = log sum_k p_k alpha_k exp(-rho r_k.U)
    over the node's rows G U <= g, and its minimizer.

    An LP first looks for an arbitrage, R d >= 0 with R d != 0, G d <= 0 and
    |d| <= 1, and raises UnboundedExp on one.  Damped Newton (Boyd &
    Vandenberghe 2004, 9.5) then starts from _feasible_start.  Each step is
    one _qp of the quadratic model on the rows and the trust rows
    |rho r_k.d| <= reach (5, doubled after each full step up to 512), which
    bound the model where a weight has underflowed.  A step is halved until
    phi drops by a quarter of the Newton decrement of the representable
    move (expm1 and log1p), and the search stops when that decrement is at
    the rounding level of its terms: weights of exponents of phi's size.
    """
    K, J = R.shape
    G, h = rows if rows is not None else (np.zeros((0, J)), np.zeros(0))
    lp = solve_lp(-R.sum(axis=0), np.vstack([-R, G, np.eye(J), -np.eye(J)]),
                  np.concatenate([np.zeros(K + G.shape[0]), np.ones(2 * J)]))
    if -lp.value > 1e-9:  # the box bounds the LP, and d = 0 is feasible
        raise UnboundedExp("exponential factor has no minimizer: the returns admit an "
                           "arbitrage", node=nid)
    U, reach = _feasible_start(rows, J, nid), 5.0
    phi, grad, hess, q = _log_factor(logw, R, rho, U)
    for _ in range(MAX_NEWTON_STEPS):
        at = rho * (R @ U)
        d = _qp(hess, grad - hess @ U, G[:0], h[:0], np.vstack([G, rho * R, -rho * R]),
                np.concatenate([h, reach + at, reach - at]), U)[0] - U
        t = 1.0
        while True:
            move = (U + t * d) - U
            x = -rho * (R @ move)
            dec = -(q @ x)  # -(grad @ move)
            if not dec > 1e-14 * (1.0 + abs(phi)) * (q @ np.abs(x)):
                return phi, U
            if (v := q @ np.expm1(x)) <= -1.0 or math.log1p(v) <= -0.25 * dec:
                break
            t *= 0.5
        reach = min(2.0 * reach, 512.0) if t == 1.0 else reach
        U = U + move
        phi, grad, hess, q = _log_factor(logw, R, rho, U)
    raise IterationLimit("Newton's method hit its step limit", node=nid)


def exp_utility(market, rho, c=None):
    """Wealth-free recursion for the exponential loss exp(rho u)/rho.

    At each node the factor is the minimized expectation of the children's
    factors damped by exp(-rho R.U); the minimizing cash positions do not
    depend on wealth.  Factors are kept as logarithms, so none overflows;
    each node is one _exp_node.  A vanishing infimum (an arbitrage on the
    node's rows) raises UnboundedExp.
    """
    if rho <= 0:
        raise ValidationError("rho must be positive")
    tree = market.tree
    J = market.J
    claims = market.c if c is None else {leaf: float(c[leaf]) for leaf in tree.leaves()}
    log_alpha = {}
    controls = {}
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            if t == tree.T:
                log_alpha[nid] = rho * claims[nid]
                controls[nid] = np.zeros(J)
                continue
            kids = tree.children[nid]
            logw = np.array([math.log(tree.nodes[k].prob) + log_alpha[k] for k in kids])
            R = np.array([market.returns(k) for k in kids])
            log_alpha[nid], controls[nid] = _exp_node(logw, R, rho, _hat_rows(market, nid), nid)
    return ExpUtilityResult(log_alpha, controls, rho)


def support_function_diagnostics(market, y):
    """Per-node support values sup{x . E_t[y ds_{t+1}] : x in D_t}.

    y maps nodes at stages 1..T to scalars (a candidate density factor).
    Integrability of these terms is automatic on a finite tree; the values
    are surfaced for inspection only.  Unconstrained nodes report 0.0 when
    the conditional moment vanishes and +inf otherwise.
    """
    tree = market.tree
    out = {}
    for t in range(tree.T):
        moments = tree.expect(t, [float(y[k]) * market.increment(k)
                                  for k in tree.stage_nodes[t + 1]])
        for nid, m in zip(tree.stage_nodes[t], moments.astype(float)):
            if nid not in market.D:
                out[nid] = 0.0 if np.max(np.abs(m), initial=0.0) <= 1e-12 else Inf
                continue
            G, g = market.D[nid]
            res = solve_lp(-m, G, g)
            out[nid] = Inf if res.status == "unbounded" else -res.value
    return out


class AEResult:
    def __init__(self, ae_minus, ae_plus, reasonable):
        self.ae_minus = ae_minus
        self.ae_plus = ae_plus
        self.reasonable = reasonable


def ae_estimate(loss):
    """Asymptotic-elasticity probes u V'(u) / V(u) at the grid extremes.

    loss may be a 1-D ConvexFn or a plain callable, probed at 25 geometric
    points in 0.1..30 on each side of zero by one-sided difference quotients
    (step 1e-6 |u|); probes where V or V' vanish are skipped.  The flag is
    advisory: on when the left estimate is below one or the right above one.
    """
    V = loss.eval if hasattr(loss, "eval") else loss
    pos = np.geomspace(0.1, 30.0, 25)

    def ratio(u):
        h = abs(u) * 1e-6
        v0 = V(u)
        if not np.isfinite(v0):
            return None
        v1 = V(u + h)
        if np.isfinite(v1):
            dv = (v1 - v0) / h
        else:
            v1 = V(u - h)  # domain edge: fall back to the other side
            if not np.isfinite(v1):
                return None
            dv = (v0 - v1) / h
        if dv < -1e-9 * (1.0 + abs(v0)):
            raise NonMonotone(f"loss decreases at u = {u:.6g}")
        if abs(v0) < 1e-300 or abs(dv) < 1e-300:
            return None
        return u * dv / v0

    for u in np.concatenate([np.sort(-pos), pos]):
        ratio(u)  # monotonicity sweep raises on violation
    ae_plus = ratio(pos[-1])
    ae_minus = ratio(-pos[-1])
    # guard band: the probes are numeric, a borderline ratio must not flip
    # the advisory flag
    band = 1e-9
    flag = (ae_minus is not None and ae_minus < 1.0 - band) or \
           (ae_plus is not None and ae_plus > 1.0 + band)
    return AEResult(ae_minus, ae_plus, flag)
