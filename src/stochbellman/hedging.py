"""Hedging a terminal claim by trading on a scenario-tree market.

The market is an adapted price process with optional polyhedral position
constraints per node; all positions close at the horizon.  Solving goes
through the wealth-state control reduction: state = wealth, controls =
cash invested per asset, per-child returns from price ratios.  The
no-arbitrage test is a single LP over node positions: maximize expected
terminal gains subject to nonnegative pathwise gains, recession-feasible
positions and a sup-norm cap; the verdict is cap-invariant because the
arbitrage cone is positively homogeneous.
"""

import numpy as np

from .control import ControlSolution, ControlSystem, solve_oc
from .convexfn import Inf, Quadratic, Sampled1D
from .errors import (ArbitrageRefusal, NonMonotone, SolverError, UnboundedExp,
                     ValidationError)
from .numeric import coordinate_descent
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


def na_check(market, cap=1.0, tol=1e-9):
    """No-arbitrage LP; FAIL returns the optimal positions as the witness."""
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
    if gain <= tol:
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


def _position_interval(rows):
    """Bounds (lo, hi) of one-asset cash rows G U <= g; lo > hi if empty."""
    if rows is None:
        return -Inf, Inf
    G, g = rows
    G = G[:, 0]
    if np.any(g[G == 0.0] < 0.0):
        return Inf, -Inf
    lo = np.max(g[G < 0.0] / G[G < 0.0], initial=-Inf)
    hi = np.min(g[G > 0.0] / G[G > 0.0], initial=Inf)
    return float(lo), float(hi)


# Halvings of the feasible interval: 64 take any interval under 1e3 wide
# below 1e-16, so the bracket sits within one knot gap of every child.
_BISECTIONS = 64


def _one_asset_min(X, kids, lo, hi):
    """Exact min over U in [lo, hi] of sum_k p_k J_k(X + r_k U), per X.

    X is a 1-D array of wealth levels; kids lists (p_k, r_k, J_k) with a
    scalar return and a Sampled1D table.  The objective is convex piecewise
    linear in U, so a minimizer is a child kink (kappa_kj - X) / r_k or an
    end of the feasible interval.  A bisection vectorized over X finds the
    least-|U| point where the right slope turns nonnegative, with one
    searchsorted per child per step; the objective is then evaluated there,
    at the kinks next to it, at both interval ends and at U = 0 clipped
    into the interval.  Ties go to the least |U| (the minimum-norm
    convention).  Returns (values, controls): +inf and nan where no U is
    feasible.
    """
    X = np.asarray(X, dtype=float)
    L = np.full(X.shape, float(lo))
    H = np.full(X.shape, float(hi))
    ok = np.ones(X.shape, dtype=bool)
    moving = []
    for p, r, tab in kids:
        kn = tab.knots
        if r == 0.0:
            ok &= (kn[0] <= X) & (X <= kn[-1])
            continue
        first, last = (kn[0] - X) / r, (kn[-1] - X) / r
        L = np.maximum(L, first if r > 0 else last)
        H = np.minimum(H, last if r > 0 else first)
        slopes = np.diff(tab.values) / np.diff(kn) if kn.size > 1 else np.zeros(1)
        moving.append((p, r, kn, slopes))
    ok &= L <= H
    L = np.where(ok, L, 0.0)
    H = np.where(ok, H, 0.0)
    cands = [np.clip(0.0, L, H)]
    if moving:
        a, b = L, H
        for _ in range(_BISECTIONS):
            m = 0.5 * (a + b)
            slope = 0.0
            for p, r, kn, slopes in moving:
                # at a kink this reads one of the two one-sided slopes; both
                # lead the bisection to the same point
                i = np.searchsorted(kn, X + r * m) - 1
                slope = slope + p * r * slopes[np.clip(i, 0, slopes.size - 1)]
            left = (slope < 0.0) | ((slope == 0.0) & (m < 0.0))
            a = np.where(left, m, a)
            b = np.where(left, b, m)
        cands += [b, L, H]
        for _, r, kn, _ in moving:
            i = np.searchsorted(kn, X + r * b)
            for j in (i - 1, i):
                cands.append((kn[np.clip(j, 0, kn.size - 1)] - X) / r)
    U = np.clip(np.stack(cands, axis=1), L[:, None], H[:, None])
    vals = np.zeros(U.shape)
    for p, r, tab in kids:
        vals += p * np.interp(X[:, None] + r * U, tab.knots, tab.values)
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
    return np.array([loss.eval([v]) for v in u])


def _convexify(knots, values):
    """Greatest convex minorant at the knots (repairs rounding-level dips)."""
    x = np.asarray(knots, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        return v
    hull = [0]
    for i in range(1, v.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # keep b only if it lies below the chord a -> i
            if (v[b] - v[a]) * (x[i] - x[a]) <= (v[i] - v[a]) * (x[b] - x[a]):
                break
            hull.pop()
        hull.append(i)
    return np.interp(x, x[hull], v[hull])


def _several_asset_min(grid, kids, rows, nid):
    """Table values and selector by coordinate descent over J > 1 assets."""
    J = kids[0][1].size

    def objective(X, U):
        if rows is not None:
            G, g = rows
            if np.max(G @ U - g) > 1e-9 * (1.0 + np.max(np.abs(g), initial=0.0)):
                return Inf
        total = 0.0
        for p, r, tab in kids:
            v = tab.eval(X + r @ U)
            if v == Inf:
                return Inf
            total += p * v
        return total

    vals = np.empty(grid.size)
    for i, X in enumerate(grid):
        def f(U, X=X):
            return objective(X, U)
        if f(np.zeros(J)) == Inf:
            vals[i] = Inf
            continue
        try:
            # table values need far less argmin precision than the selector
            # path (value error is quadratic in it)
            _, vals[i] = coordinate_descent(f, np.zeros(J), span=1.0,
                                            width_tol=1e-9, refine=False)
        except SolverError as exc:
            raise type(exc)(str(exc), node=nid) from exc

    def selector(X):
        X = float(X[0])
        return coordinate_descent(lambda U: objective(X, U), np.zeros(J), span=1.0)[0]

    return vals, selector


def _grid_sweep(market, sys_, loss_at, grid):
    """Value tables on the wealth grid, from the leaves to the root.

    A leaf tabulates loss(c - X).  An interior node minimizes, over cash
    positions U on its position rows, the expected child table value at
    X + r_k . U: exactly for one asset, by coordinate descent for several.
    Tables keep the finite grid points, convexified against rounding.
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
            elif J == 1:
                kids = [(p, float(r[0]), tab) for p, r, tab in kids]
                lo, hi = _position_interval(rows)
                vals, _ = _one_asset_min(grid, kids, lo, hi)

                def selector(X, kids=kids, lo=lo, hi=hi):
                    return _one_asset_min(np.asarray(X, dtype=float)[:1], kids, lo, hi)[1]
            else:
                vals, selector = _several_asset_min(grid, kids, rows, nid)
            finite = np.isfinite(vals)
            if not finite.any():
                raise SolverError("no feasible wealth level on the grid", node=nid)
            knots = grid[finite]
            records[nid] = {"Q": None, "J": Sampled1D(knots, _convexify(knots, vals[finite])),
                            "selector": selector}
    return ControlSolution(sys_, records)


def solve_alm(market, loss, wealth=0.0, driver="auto", grid=None,
              refuse_arbitrage=True):
    """Best hedge of the terminal claim under a loss on the shortfall.

    loss is a 1-D ConvexFn (Quadratic or Sampled1D), or a dict mapping
    leaves to per-scenario losses.  The quadratic driver needs an
    unconstrained market; anything else goes through the wealth grid
    (default: 2001 points around `wealth`).  There every node carries a
    value table on the grid.  With one asset each table is the exact
    minimum at its knots, and only interpolation between knots (and
    outside the grid, +inf) approximates; with several assets the minimum
    is found by coordinate descent.  An arbitrage market is refused by
    default with the verdict attached; pass refuse_arbitrage=False to
    force the solve.
    """
    verdict = na_check(market)
    if not verdict.passed and refuse_arbitrage:
        raise ArbitrageRefusal(f"market admits arbitrage (gain {verdict.optimum:.3g})")
    tree = market.tree
    J = market.J
    loss_at = loss.__getitem__ if isinstance(loss, dict) else (lambda leaf: loss)
    probe = loss_at(tree.leaves()[0])
    sysmats = {}
    A = {}
    B = {}
    W = {}
    for t in range(1, tree.T + 1):
        for nid in tree.stage_nodes[t]:
            A[nid] = np.zeros((1, 1))
            B[nid] = market.returns(nid).reshape(1, J)
            W[nid] = np.zeros(1)
    sys_ = ControlSystem(tree, 1, J, A, B, W)
    if driver == "auto":
        driver = "quadratic" if isinstance(probe, Quadratic) and not market.D else "grid"

    if driver == "quadratic":
        if market.D:
            raise ValidationError("quadratic driver requires an unconstrained market")
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
    else:
        if grid is None:
            span = 2.0 + 2.0 * (max(abs(v) for v in market.c.values()) + abs(wealth))
            grid = np.linspace(wealth - span, wealth + span, 2001)
        sol = _grid_sweep(market, sys_, loss_at, np.asarray(grid, dtype=float))
        value = sol.records[tree.root]["J"].eval(wealth)

    X = {tree.root: np.array([wealth])}
    controls = {}
    positions = {}
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            if t == tree.T:
                controls[nid] = np.zeros(J)
                positions[nid] = np.zeros(J)
                continue
            U = np.atleast_1d(sol.control(nid, X[nid]))
            controls[nid] = U
            positions[nid] = U / market.price(nid)
            for k in tree.children[nid]:
                X[k] = np.array([X[nid][0] + float(market.returns(k) @ U)])
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


def exp_utility(market, rho, c=None, span=1.0):
    """Wealth-free recursion for the exponential loss exp(rho u)/rho.

    At each node the factor is the minimized expectation of the children's
    factors damped by exp(-rho R.U); the minimizing cash positions do not
    depend on wealth.  A vanishing infimum (positions running away) raises
    UnboundedExp, which signals an arbitrage.
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
                    G, g = rows
                    if np.max(G @ U - g) > 1e-9 * (1.0 + np.max(np.abs(g), initial=0.0)):
                        return Inf
                with np.errstate(over="ignore"):
                    acc = 0.0
                    for p, a, r in zip(probs, avals, rets):
                        acc += p * a * float(np.exp(-rho * float(r @ U)))
                return acc

            try:
                U, val = coordinate_descent(f, np.zeros(J), span=span)
            except UnboundedExp:
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
        for nid in tree.stage_nodes[t]:
            kids = tree.children[nid]
            m = sum(float(tree.nodes[k].prob) * float(y[k]) * market.increment(k)
                    for k in kids)
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


def ae_estimate(loss, lo=-30.0, hi=30.0, n=25, delta=1e-6):
    """Asymptotic-elasticity probes u V'(u) / V(u) at the grid extremes.

    loss may be a 1-D ConvexFn or a plain callable.  One-sided difference
    quotients approximate V'; probes where V or V' vanish are skipped.
    The flag is advisory: on when the left estimate is below one or the
    right estimate exceeds one.
    """
    V = loss.eval if hasattr(loss, "eval") else loss
    pos = np.geomspace(max(hi, 1e-3) / 300.0, max(hi, 1e-3), n)
    neg = -np.geomspace(max(-lo, 1e-3) / 300.0, max(-lo, 1e-3), n)

    def ratio(u):
        h = abs(u) * delta
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

    for u in np.concatenate([np.sort(neg), pos]):
        ratio(u)  # monotonicity sweep raises on violation
    ae_plus = ratio(pos[-1])
    ae_minus = ratio(neg[-1])
    # guard band: the probes are numeric, a borderline ratio must not flip
    # the advisory flag
    band = 1e-9
    flag = (ae_minus is not None and ae_minus < 1.0 - band) or \
           (ae_plus is not None and ae_plus > 1.0 + band)
    return AEResult(ae_minus, ae_plus, flag)
