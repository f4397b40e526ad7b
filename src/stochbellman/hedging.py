"""Hedging a terminal claim by trading on a scenario-tree market.

The market is an adapted price process with optional polyhedral position
constraints per node; all positions close at the horizon.  Solving goes
through the wealth-state control reduction: state = wealth, controls =
cash invested per asset, per-child returns from price ratios.  On the
wealth grid one exact line search serves every node: a single call for
one asset, cyclic coordinate sweeps of it for several.  It bisects over
each child table's knot indices in turn, about ceil(log2 m) slope steps
per child of m knots, and each node's table is then replaced by its
greatest convex minorant in one pass over its knots.  The
no-arbitrage test is a single LP over node positions: maximize expected
terminal gains subject to nonnegative pathwise gains, recession-feasible
positions and a sup-norm cap; the verdict is cap-invariant because the
arbitrage cone is positively homogeneous.
"""

import numpy as np

from .bellman import forward_sweep
from .control import ControlSolution, ControlSystem, extract_oc_policy, solve_oc
from .convexfn import Inf, Quadratic, Sampled1D, _stack, eval_stack
from .errors import (ArbitrageRefusal, Infeasible, IterationLimit, NonMonotone,
                     SolverError, Unbounded, UnboundedExp, ValidationError)
from .numeric import MAX_SWEEPS, VALUE_TOL, coordinate_descent
from .simplex import solve_lp


class MarketModel:
    """Price process, per-node position constraints, terminal claim.

    s is an adapted R^J process with componentwise nonzero prices (the
    wealth reduction divides by them).  D maps a node at stage < T to
    inequality rows (G, g) describing {x : Gx <= g}; positions at the
    horizon are fixed to zero, so stage-T entries are rejected.
    """

    def __init__(self, tree, s, D=None, c=None):
        self.tree = tree
        self.s = s
        self.J = np.atleast_1d(np.asarray(s[tree.root], dtype=float)).size
        self.D = {}
        for nid, rows in (D or {}).items():
            if tree.stage(nid) >= tree.T:
                raise ValidationError("terminal positions are fixed to zero")
            G, g = rows
            self.D[nid] = (np.atleast_2d(np.asarray(G, dtype=float)),
                           np.atleast_1d(np.asarray(g, dtype=float)))
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


def _position_interval(rows, U, j):
    """Per-point bounds (lo, hi) of coordinate j on the cash rows G U <= g,
    the other coordinates held at U (one row per point); lo > hi if empty.

    Rows without coordinate j are left out: every iterate satisfies them
    (the sweeps start on the rows) and a step along j does not move them.
    """
    if rows is None:
        return np.full(U.shape[0], -Inf), np.full(U.shape[0], Inf)
    G, g = rows
    rhs = np.broadcast_to(g, (U.shape[0], g.size))
    for i in range(U.shape[1]):
        if i != j:
            rhs = rhs - U[:, i:i + 1] * G[:, i]
    a = G[:, j]
    lo = np.max(rhs[:, a < 0.0] / a[a < 0.0], axis=1, initial=-Inf)
    hi = np.min(rhs[:, a > 0.0] / a[a > 0.0], axis=1, initial=Inf)
    return lo, hi


def _line_min(base, kids, lo, hi):
    """Exact min over u in [lo, hi] of sum_k p_k J_k(base_k + r_k u), per point.

    base holds one array per child (entry i belongs to point i); kids lists
    (p_k, r_k, J_k) with a scalar return and a Sampled1D table; lo and hi
    are per-point arrays.  The objective is convex piecewise linear in u,
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
    L = np.array(lo, dtype=float)
    H = np.array(hi, dtype=float)
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


def _grid_min(X, kids, rows, nid):
    """Min over cash positions U on the rows of sum_k p_k J_k(X + r_k . U), per X.

    kids lists (p_k, r_k, J_k) with a return vector per child.  Cyclic
    sweeps from a start on the rows (_feasible_start): each step is one
    _line_min over the live points for one coordinate, the others held; a
    point with no feasible u on the line keeps its position.  One asset is
    a single step.  A point stops, frozen, once a sweep lowers its value by
    at most VALUE_TOL (relative) or leaves it infeasible.  Child arguments
    are elementwise sums, so a point's result does not depend on the other
    points in the call, and the selector reproduces the table bits.
    Coordinate descent can stop short of the minimum on these nonsmooth,
    nonseparable objectives (Tseng 2001).  Returns (values, controls):
    +inf and a nan row where no U was found.
    """
    X = np.asarray(X, dtype=float)
    J = kids[0][1].size
    U = np.tile(_feasible_start(rows, J, nid), (X.size, 1))
    vals = np.full(X.size, Inf)
    live = np.arange(X.size)
    for _ in range(MAX_SWEEPS):
        prev = vals[live]
        for j in range(J):
            held = U[live]
            base = [X[live] + sum(r[i] * held[:, i] for i in range(J) if i != j)
                    for _, r, _ in kids]
            lo, hi = _position_interval(rows, held, j)
            v, u = _line_min(base, [(p, r[j], tab) for p, r, tab in kids], lo, hi)
            found = np.isfinite(v)
            U[live[found], j] = u[found]
            vals[live[found]] = v[found]
        if J == 1:
            break
        cur = vals[live]
        with np.errstate(invalid="ignore"):  # inf - inf: never feasible
            live = live[prev - cur > VALUE_TOL * (1.0 + np.abs(cur))]
        if not live.size:
            break
    else:
        raise IterationLimit("wealth-grid coordinate descent hit the sweep limit", node=nid)
    U[~np.isfinite(vals)] = np.nan
    return vals, U


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
    """Greatest convex minorant at the knots (repairs rounding-level dips;
    with several assets it also covers coordinate-descent stalls): one
    monotone-chain pass over the knots, each popped at most once."""
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
    """Value tables on the wealth grid, from the leaves to the root.

    A leaf tabulates loss(c - X).  An interior node minimizes, over cash
    positions U on its position rows, the expected child table value at
    X + r_k . U (_grid_min: exact for one asset, coordinate descent of the
    same exact line search for several).  Tables keep the finite grid
    points, replaced by their greatest convex minorant.
    """
    tree = market.tree
    J = market.J
    records = {}
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            kids = [(float(tree.nodes[k].prob), market.returns(k), records[k]["J"])
                    for k in tree.children[nid]]
            rows = _hat_rows(market, nid)
            if not kids:
                vals = _tabulate(loss_at(nid), market.c[nid] - grid)

                def selector(X):
                    return np.zeros(J)
            else:
                vals, _ = _grid_min(grid, kids, rows, nid)

                def selector(X, kids=kids, rows=rows, nid=nid):
                    return _grid_min(np.asarray(X, dtype=float)[:1], kids, rows, nid)[1][0]
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
    mapping leaves to per-scenario losses.  A Quadratic loss on a market
    without position rows takes the exact quadratic recursion (solve_oc)
    and its forward pass (extract_oc_policy); anything else goes through
    the wealth grid (default: 2001 points around `wealth`), whose forward
    pass (bellman.forward_sweep) calls each node's table selector.  There
    every node carries a value table on the grid.  With one asset each
    table is the exact minimum at its knots, and only interpolation between
    knots (and outside the grid, +inf) approximates; with several assets
    cyclic coordinate steps of the same exact line search find it, and can
    stop short of it.  An arbitrage market is refused by default with the
    verdict attached; pass refuse_arbitrage=False to force the solve.
    """
    verdict = na_check(market)
    if not verdict.passed and refuse_arbitrage:
        raise ArbitrageRefusal(f"market admits arbitrage (gain {verdict.optimum:.3g})")
    tree = market.tree
    J = market.J
    loss_at = loss.__getitem__ if isinstance(loss, dict) else (lambda leaf: loss)
    # wealth X_k = X + r_k.U for every node k after the root
    later = [nid for t in range(1, tree.T + 1) for nid in tree.stage_nodes[t]]
    sys_ = ControlSystem(tree, 1, J, dict.fromkeys(later, np.zeros((1, 1))),
                         {nid: market.returns(nid).reshape(1, J) for nid in later},
                         dict.fromkeys(later, np.zeros(1)))
    if isinstance(loss_at(tree.leaves()[0]), Quadratic) and not market.D:
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
    def __init__(self, alpha, controls, rho):
        self.alpha = alpha
        self.controls = controls
        self.rho = rho

    def value(self, tree, wealth):
        return self.alpha[tree.root] * np.exp(-self.rho * wealth) / self.rho

    def J(self, nid, X):
        return self.alpha[nid] * np.exp(-self.rho * X) / self.rho


def exp_utility(market, rho, c=None):
    """Wealth-free recursion for the exponential loss exp(rho u)/rho.

    At each node the factor is the minimized expectation of the children's
    factors damped by exp(-rho R.U); the minimizing cash positions do not
    depend on wealth.  Coordinate descent starts on the position rows
    (at 0 when they allow it).  A vanishing infimum (positions running
    away) raises UnboundedExp, which signals an arbitrage.
    """
    if rho <= 0:
        raise ValidationError("rho must be positive")
    tree = market.tree
    J = market.J
    claims = market.c if c is None else {leaf: float(c[leaf]) for leaf in tree.leaves()}
    alpha = {}
    controls = {}
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            if t == tree.T:
                alpha[nid] = float(np.exp(rho * claims[nid]))
                controls[nid] = np.zeros(J)
                continue
            kids = tree.children[nid]
            rets = [market.returns(k) for k in kids]
            probs = [float(tree.nodes[k].prob) for k in kids]
            avals = [alpha[k] for k in kids]
            rows = _hat_rows(market, nid)

            def f(U):
                U = np.asarray(U, dtype=float)
                if rows is not None:
                    # the slack admits an LP start's rounding; the search
                    # stops within it of a binding row
                    G, g = rows
                    if np.max(G @ U - g) > 1e-12 * (1.0 + np.max(np.abs(g), initial=0.0)):
                        return Inf
                with np.errstate(over="ignore"):
                    acc = 0.0
                    for p, a, r in zip(probs, avals, rets):
                        acc += p * a * float(np.exp(-rho * float(r @ U)))
                return acc

            try:
                U, val, _ = coordinate_descent(f, _feasible_start(rows, J, nid))
            except Unbounded:
                raise UnboundedExp("exponential factor has no minimizer", node=nid)
            alpha[nid] = float(val)
            controls[nid] = U
    return ExpUtilityResult(alpha, controls, rho)


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
