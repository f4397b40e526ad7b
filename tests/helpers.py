"""Shared builders for the test suite."""

from fractions import Fraction

import numpy as np

from stochbellman.bellman import BellmanSolution, build_flat, solve_be
from stochbellman.control import ControlSolution
from stochbellman.convexfn import (_LIN_TOL, EQ_TOL, AffineSelector, Inf,
                                   PartialMin, Polyhedral, Quadratic, _at,
                                   _is_empty, _null_basis,
                                   cond_expect_fn, partial_min)
from stochbellman.errors import (BackendClash, DimensionMismatch, Infeasible,
                                 IterationLimit, NonLinearRecession, RowBlowup,
                                 SingularRiccati, SolverError, StochBellmanError,
                                 Unbounded, UnboundedBelow, ValidationError)
from stochbellman.generators import random_tree
from stochbellman.hedging import MarketModel
from stochbellman.lagrange import (LagrangeInstance, _empty_polyhedron,
                                   lp_costs)
from stochbellman.polyhedra import _starts, first_minimal
from stochbellman.simplex import LPResult, solve_lp
from stochbellman.tree import AdaptedProcess, validate_tree


def binary_tree(probs=(0.5, 0.5)):
    return validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": probs[0], "stage": 1},
        {"id": "b", "parent": "r", "prob": probs[1], "stage": 1},
    ])


def two_asset_market(T=1, D=None, c=None):
    """A two-asset market whose every node branches like the one-period
    market of the normal-equations hedging test, so each admits the
    martingale measure (1, 2, 8)/11; the claim defaults to S^1_T - 1."""
    recs = [{"id": "r", "parent": None, "prob": 1.0, "stage": 0}]
    prices = {"r": np.array([1.0, 2.0])}
    factors = {"a": (0.3, [0.8, 1.3]), "b": (0.3, [1.3, 0.75]), "c": (0.4, [0.95, 1.025])}
    frontier = ["r"]
    for t in range(1, T + 1):
        nxt = []
        for nid in frontier:
            for tag, (prob, f) in factors.items():
                kid = tag if nid == "r" else nid + tag
                recs.append({"id": kid, "parent": nid, "prob": prob, "stage": t})
                prices[kid] = prices[nid] * np.array(f)
                nxt.append(kid)
        frontier = nxt
    tree = validate_tree(recs)
    if c is None:
        c = {leaf: float(prices[leaf][0] - 1.0) for leaf in tree.leaves()}
    return MarketModel(tree, AdaptedProcess(tree, prices), D=D, c=c)


def inventory_lp(seed, T):
    """(tree, d, data) of a two-product inventory LP on a binary tree of
    horizon T, in the `lagrange` file form: demand floors near (1.0, 0.8),
    capacity 4, joint capacity 3 and ramp limits |dx| <= 1.25 (4 at the
    root), as T dx + W x - b >= 0, so unit rows box every decision."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, T, 2, fixed=True)
    eye, zero, ones = np.eye(2), np.zeros((2, 2)), np.ones((1, 2))
    W = np.vstack([eye, -eye, -ones, zero, zero]).tolist()
    Tm = np.vstack([zero, zero, np.zeros((1, 2)), eye, -eye]).tolist()
    data = {}
    for nid in tree.nodes:
        dem = np.array([1.0, 0.8]) + rng.uniform(-0.05, 0.05, 2)
        r = 4.0 if tree.stage(nid) == 0 else 1.25
        b = np.concatenate([dem, [-4.0, -4.0, -3.0], -r * np.ones(4)])
        data[nid] = {"T": Tm, "W": W, "b": b.tolist(), "c": rng.uniform(0.2, 1.0, 2).tolist()}
    return tree, 2, data


def chain_tree(T):
    recs = [{"id": "n0", "parent": None, "prob": 1.0, "stage": 0}]
    for t in range(1, T + 1):
        recs.append({"id": f"n{t}", "parent": f"n{t-1}", "prob": 1.0, "stage": t})
    return validate_tree(recs)


def two_stage_binary(probs=((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))):
    (p0, q0), (p1, q1), (p2, q2) = probs
    return validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "u", "parent": "r", "prob": p0, "stage": 1},
        {"id": "d", "parent": "r", "prob": q0, "stage": 1},
        {"id": "uu", "parent": "u", "prob": p1, "stage": 2},
        {"id": "ud", "parent": "u", "prob": q1, "stage": 2},
        {"id": "du", "parent": "d", "prob": p2, "stage": 2},
        {"id": "dd", "parent": "d", "prob": q2, "stage": 2},
    ])


def process(tree, mapping):
    return AdaptedProcess(tree, mapping)


def grid_min(fn, keep_point, lo=-6.0, hi=6.0, n=1601, zooms=4):
    """Zoomed dense scan over the trailing coordinate of a 2-D function."""
    x = np.atleast_1d(keep_point)
    lo0, hi0 = lo, hi
    best_u, best = lo, np.inf
    for _ in range(zooms):
        us = np.linspace(lo, hi, n)
        vals = [fn.eval(np.concatenate([x, [u]])) for u in us]
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_u = vals[i], us[i]
        h = us[1] - us[0]
        lo, hi = max(lo0, best_u - 2 * h), min(hi0, best_u + 2 * h)
    return best


# Frozen loop versions of the simplex and of the row and piece pruning, kept
# as references: the vectorized code must take the same pivots and return
# the same bits.  `pivots`, when given, collects (row, col, tableau bytes)
# after every pivot.

def ref_pivot(T, basis, row, col, pivots=None):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 1e-14:
            T[i] -= T[i, col] * T[row]
    basis[row] = col
    if pivots is not None:
        pivots.append((row, col, T.tobytes()))


def ref_bland_solve(T, basis, ncols, max_iter, bounded=False, pivots=None):
    """(status, tiny): tiny when a pivot entry was below 1e-6."""
    m = T.shape[0] - 1
    status, tiny = "optimal", False
    for _ in range(max_iter):
        for col in range(ncols):
            if T[m, col] >= -1e-9:
                continue
            row, best = -1, np.inf
            for i in range(m):
                a = T[i, col]
                if a > 1e-9:
                    ratio = T[i, -1] / a
                    if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and (row < 0 or basis[i] < basis[row])):
                        best, row = ratio, i
            if row >= 0:
                break
            if not bounded:
                return "unbounded", tiny
            status = "passed"
        else:
            return status, tiny
        tiny = tiny or T[row, col] < 1e-6
        ref_pivot(T, basis, row, col, pivots)
    raise IterationLimit("simplex iteration limit reached")


def _ref_refine(T, B, b):
    try:
        T[:-1, -1] = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return False
    return True


def ref_solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, max_iter=20000, pivots=None,
                 slack_start=True):
    """Loop simplex; returns (status, x, value, basis), basis None when no
    tableau was built.

    Phase 1 starts from the slack basis, and a run with a pivot entry below
    1e-6 ends with one guarded refine of the basic values.  With
    slack_start=False it is the earlier simplex: every row starts with an
    artificial basic, and no final refine."""
    c = np.asarray(c, dtype=float)
    n = c.size
    rows, rhs, kinds = [], [], []
    if A_ub is not None and len(A_ub):
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        for i in range(A_ub.shape[0]):
            rows.append(A_ub[i])
            rhs.append(b_ub[i])
            kinds.append("ub")
    if A_eq is not None and len(A_eq):
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        for i in range(A_eq.shape[0]):
            rows.append(A_eq[i])
            rhs.append(b_eq[i])
            kinds.append("eq")
    m = len(rows)
    if m == 0:
        if np.any(np.abs(c) > 0):
            return "unbounded", None, None, None
        return "optimal", np.zeros(n), 0.0, None
    nslack = sum(1 for k in kinds if k == "ub")
    ncore = 2 * n + nslack
    A = np.zeros((m, ncore))
    b = np.zeros(m)
    si = 0
    for i, (row, r, kind) in enumerate(zip(rows, rhs, kinds)):
        A[i, :n] = row
        A[i, n:2 * n] = -row
        if kind == "ub":
            A[i, 2 * n + si] = 1.0
            si += 1
        b[i] = r
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    # the rows that start with an artificial basic, and the others' slacks
    art = [i for i in range(m) if not slack_start or neg[i] or kinds[i] == "eq"]
    T = np.zeros((m + 1, ncore + len(art) + 1))
    T[:m, :ncore] = A
    T[:m, -1] = b
    basis = [2 * n + i for i in range(m)]
    for j, i in enumerate(art):
        T[i, ncore + j] = 1.0
        T[m, ncore + j] = 1.0
        basis[i] = ncore + j
    for i in art:
        T[m] -= T[i]
    status, tiny = ref_bland_solve(T, basis, ncore + len(art), max_iter, bounded=True, pivots=pivots)
    AI = np.hstack([A, np.eye(m)[:, art]])
    refined = status != "optimal" or T[m, -1] < -1e-8
    if refined:
        if not _ref_refine(T, AI[:, basis], b):
            return "infeasible", None, None, basis
        T[m, -1] = -sum(abs(v) if k >= ncore else max(-v, 0.0) for k, v in zip(basis, T[:m, -1]))
        if T[m, -1] < -1e-8:
            return "infeasible", None, None, basis
    for i in range(m):
        if basis[i] >= ncore:
            for j in range(ncore):
                if abs(T[i, j]) > 1e-9:
                    tiny = tiny or abs(T[i, j]) < 1e-6
                    ref_pivot(T, basis, i, j, pivots)
                    break
    T2 = np.delete(T, np.s_[ncore:ncore + len(art)], axis=1)
    cost = np.zeros(ncore + 1)
    cost[:n] = c
    cost[n:2 * n] = -c
    T2[m] = cost
    for i in range(m):
        if basis[i] < ncore and abs(cost[basis[i]]) > 0:
            T2[m] -= cost[basis[i]] * T2[i]
    status, tiny2 = ref_bland_solve(T2, basis, ncore, max_iter, pivots=pivots)
    if refined and status == "optimal":
        _ref_refine(T2, AI[:, basis], b)
    if status == "unbounded":
        return "unbounded", None, None, basis

    def point():
        full = np.zeros(ncore)
        for i in range(m):
            if basis[i] < ncore:
                full[basis[i]] = T2[i, -1]
        return full[:n] - full[n:2 * n]

    def violation(x):
        R = np.array(rows)
        r = (R @ x - np.array(rhs)) / [max(abs(a) for a in row) or 1.0 for row in R]
        v = max([r[i] if kinds[i] == "ub" else abs(r[i]) for i in range(m)] + [0.0])
        return v if v > 1e-12 else 0.0

    x = point()
    if slack_start and (tiny or tiny2) and not refined and _ref_refine(T2, AI[:, basis], b):
        xr = point()
        if violation(xr) <= violation(x):
            x = xr
    return "optimal", x, float(c @ x), basis


def ref_lp(slack_start, pivots):
    """solve_lp through ref_solve_lp; appends each LP's pivot count to
    pivots."""
    def solve(*lp):
        taken = []
        status, x, value, _ = ref_solve_lp(*lp, pivots=taken, slack_start=slack_start)
        pivots.append(len(taken))
        return LPResult(x, value, status, len(taken))
    return solve


def exact_epigraph_min(A, b):
    """min tau over A (x, tau) <= b, for rows (a_i, -1) <= -b_i closed by x <=
    hi and -x <= -lo as the last two: max_i (a_i x + b_i) minimized over [lo,
    hi], exactly, by enumerating the breakpoints as Fractions."""
    k = A.shape[0] - 2
    a = [Fraction(v) for v in A[:k, 0]]
    c = [Fraction(-v) for v in b[:k]]
    lo, hi = Fraction(-b[k + 1]), Fraction(b[k])
    xs = [lo, hi] + [(c[j] - c[i]) / (a[i] - a[j]) for i in range(k)
                     for j in range(i + 1, k) if a[i] != a[j]]
    return min(max(ai * x + ci for ai, ci in zip(a, c)) for x in xs if lo <= x <= hi)


def ref_lp_recursion(tree, d, data):
    """lp_recursion with the emptiness check of every node before the sweep,
    as it ran before the sweep came first."""
    instance = LagrangeInstance(tree, d, lp_costs(tree, d, data))
    sp = instance.as_stage_problem()
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            if _empty_polyhedron(sp.node_costs[nid]):
                raise Infeasible("stage constraints are empty", node=nid)
    return solve_be(sp)


def ref_normalize_rows(G, h):
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    if G.shape[1] == 0:
        if np.any(h < -1e-12):
            return np.zeros((1, 0)), np.array([-1.0])
        return np.zeros((0, 0)), np.zeros(0)
    if G.size == 0:
        return G.reshape(0, G.shape[1]), h[:0]
    out_G, out_h = [], []
    for row, rhs in zip(G, h):
        s = np.max(np.abs(row))
        if s <= 1e-12:
            if rhs < -1e-12:
                out_G.append(np.zeros_like(row))
                out_h.append(-1.0)
            continue
        out_G.append(row / s)
        out_h.append(rhs / s)
    if not out_G:
        return np.zeros((0, G.shape[1])), np.zeros(0)
    return np.array(out_G), np.array(out_h)


def ref_prune_rows(G, h):
    G, h = ref_normalize_rows(G, h)
    if G.shape[0] <= 1:
        return G, h
    keyed = {}
    for row, rhs in zip(G, h):
        key = tuple(np.round(row, 12))
        if key not in keyed or rhs < keyed[key][1]:
            keyed[key] = (row, rhs)
    rows = list(keyed.values())
    return np.array([r for r, _ in rows]), np.array([v for _, v in rows])


def ref_eliminate_one(G, h, j, row_cap=10000):
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    col = G[:, j] if G.size else np.zeros(0)
    pos = np.where(col > 1e-12)[0]
    neg = np.where(col < -1e-12)[0]
    zero = np.where(np.abs(col) <= 1e-12)[0]
    rows = [np.delete(G[i], j) for i in zero]
    rhs = [h[i] for i in zero]
    if len(pos) * len(neg) + len(rows) > row_cap:
        raise RowBlowup(f"projection exceeded {row_cap} intermediate rows")
    for p in pos:
        gp, hp = G[p] / col[p], h[p] / col[p]
        for q in neg:
            gq, hq = G[q] / (-col[q]), h[q] / (-col[q])
            rows.append(np.delete(gp + gq, j))
            rhs.append(hp + hq)
    if not rows:
        return np.zeros((0, G.shape[1] - 1)), np.zeros(0)
    return ref_prune_rows(np.array(rows), np.array(rhs))


def ref_polyhedral_cone_checks(f, keep):
    """The recession-cone check with both LPs at every call."""
    d2 = f.dim - keep
    rows = np.vstack([f.C[:, keep:], f.pieces_a[:, keep:]])
    rows = rows[np.max(np.abs(rows), axis=1) > 1e-13] if rows.size else rows
    if rows.size == 0:
        return np.eye(d2)
    box = np.vstack([np.eye(d2), -np.eye(d2)])
    A_ub = np.vstack([rows, box])
    b_ub = np.concatenate([np.zeros(rows.shape[0]), np.ones(2 * d2)])
    res = solve_lp(rows.sum(axis=0), A_ub, b_ub)
    if res.status == "optimal" and res.value < -_LIN_TOL:
        G = f.epigraph()[0][:, keep:]
        A2 = np.vstack([G, np.hstack([box, np.zeros((2 * d2, 1))])])
        b2 = np.concatenate([np.zeros(G.shape[0]), np.ones(2 * d2)])
        cost = np.zeros(d2 + 1)
        cost[-1] = 1.0
        res2 = solve_lp(cost, A2, b2)
        if res2.status == "optimal" and res2.value < -_LIN_TOL:
            raise UnboundedBelow("strictly negative recession direction in minimized block")
        raise NonLinearRecession("zero-cost recession directions form a one-sided cone")
    return _null_basis(rows)


def ref_cone_bases(P, keep, failed):
    """convexfn._cone_bases with every member's cone check run by
    ref_polyhedral_cone_checks, both LPs at every member."""
    d2 = P.a.shape[1] - keep
    lin = [np.zeros((d2, 0))] * P.n
    for i in range(P.n):
        try:
            K = ref_polyhedral_cone_checks(_at(P, i), keep)
        except (UnboundedBelow, NonLinearRecession) as exc:
            failed[i] = exc
            continue
        if K.size:
            lin[i] = K
    return lin


def ref_lp_select(f, keep, lineality, x):
    """The polyhedral minimizer at the kept point x as the LP selector chose
    it: min tau over the epigraph slice of f at x, then the lineality
    component projected out."""
    G, h = f.epigraph()
    cost = np.zeros(G.shape[1] - keep)
    cost[-1] = 1.0
    res = solve_lp(cost, G[:, keep:], h - G[:, :keep] @ x)
    if res.status == "unbounded":
        raise UnboundedBelow("selector LP unbounded")
    if res.status == "infeasible":
        raise ValidationError("selector LP infeasible at given point")
    u = res.x[:-1]
    if lineality.size:
        u = u - lineality @ (lineality.T @ u)
    return u


def ref_lp_decisions(sol):
    """Decisions of the node-by-node forward pass, with ref_lp_select at
    every node whose pre-minimization function is Polyhedral."""
    tree, out = sol.problem.tree, {}
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            rec, par = sol.records[nid], tree.parent(nid)
            x = out[par] if par is not None else np.zeros(0)
            out[nid] = (ref_lp_select(rec["pre"], x.size, rec["N"], x)
                        if isinstance(rec["pre"], Polyhedral) else rec["selector"](x))
    return out


def ref_prune_pieces(pa, pb, C, d):
    keyed = {}
    for a, b in zip(pa, pb):
        key = tuple(np.round(a, 12))
        if key not in keyed or b > keyed[key][1]:
            keyed[key] = (a, b)
    pa = np.array([a for a, _ in keyed.values()])
    pb = np.array([b for _, b in keyed.values()])
    if pa.shape[0] <= 1:
        return pa, pb
    lo = np.full(pa.shape[1], -np.inf)
    hi = np.full(pa.shape[1], np.inf)
    for row, rhs in zip(C, d):
        nz = np.nonzero(np.abs(row) > 1e-13)[0]
        if nz.size != 1:
            continue
        j = nz[0]
        if row[j] > 0:
            hi[j] = min(hi[j], rhs / row[j])
        else:
            lo[j] = max(lo[j], rhs / row[j])
    if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(hi)):
        return pa, pb
    center = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo)
    keep = np.ones(pa.shape[0], dtype=bool)
    for j in np.argsort(-(pa @ center + pb)):
        if not keep[j]:
            continue
        cand = np.nonzero(keep)[0]
        cand = cand[cand != j]
        if cand.size == 0:
            break
        da = pa[cand] - pa[j][None, :]
        db = pb[cand] - pb[j]
        worst = np.abs(da) @ radius + da @ center + db
        keep[cand[worst <= 0.0]] = False
    return pa[keep], pb[keep]


def ref_gated_prune_index(P):
    """polyhedra._prune_index as it was while the box test ran only on
    members with more than 32 pieces, one dominator per member a round."""
    keep = first_minimal(P.a, -P.b, P.pm)
    big = np.bincount(P.pm[keep], minlength=P.n) > 32
    if not big.any():
        return keep
    d = P.a.shape[1]
    nz = np.abs(P.C) > 1e-13
    r = np.flatnonzero((nz.sum(axis=1) == 1) & big[P.cm])
    j = nz[r].argmax(axis=1)
    bound, up = P.d[r] / P.C[r, j], P.C[r, j] > 0
    lo, hi = np.full((P.n, d), -np.inf), np.full((P.n, d), np.inf)
    np.minimum.at(hi, (P.cm[r][up], j[up]), bound[up])
    np.maximum.at(lo, (P.cm[r][~up], j[~up]), bound[~up])
    boxed = big & np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    lo[~boxed], hi[~boxed] = 0.0, 0.0
    center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = keep[boxed[P.pm[keep]]]
    t = t[np.lexsort((-(np.vecdot(P.a[t], center[P.pm[t]]) + P.b[t]), P.pm[t]))]
    a, b, m = P.a[t], P.b[t], P.pm[t]
    alive, todo = np.ones(t.size, dtype=bool), np.ones(t.size, dtype=bool)
    while todo.any():
        top = np.flatnonzero(todo)
        top = top[_starts(m[top])]
        by = np.full(P.n, -1)
        by[m[top]] = top
        c = np.flatnonzero(alive & (by[m] >= 0))
        c = c[c != by[m[c]]]
        k, mc = by[m[c]], m[c]
        da = a[c]
        da -= a[k]
        tilt = np.vecdot(da, center[mc])
        worst = np.vecdot(np.abs(da, out=da), radius[mc])
        worst += tilt
        worst += b[c] - b[k]
        alive[c[worst <= -1e-12]] = False
        todo[top] = False
        todo &= alive
    out = np.ones(P.b.size, dtype=bool)
    out[t[~alive]] = False
    return keep[out[keep]]


def lp_active(pa, pb, C, d, margin=1e-9):
    """Which pieces of max_i (pa_i.x + pb_i) on {Cx <= d} exceed every other
    piece by more than `margin` at some point of the domain, each found by
    the LP max s s.t. pa_i.x + pb_i >= pa_j.x + pb_j + s (j != i), s <= 1."""
    k, dim = pa.shape
    out = np.zeros(k, dtype=bool)
    for i in range(k):
        other = np.arange(k) != i
        A = np.vstack([np.hstack([pa[other] - pa[i], np.ones((k - 1, 1))]),
                       np.hstack([C, np.zeros((C.shape[0], 1))]),
                       np.eye(1, dim + 1, dim)])
        rhs = np.concatenate([pb[i] - pb[other], d, [1.0]])
        res = solve_lp(-np.eye(1, dim + 1, dim)[0], A, rhs)
        out[i] = res.status == "optimal" and -res.value > margin
    return out


def same_bits(x, y):
    """Equal shapes and equal bytes: -0.0 and 0.0 differ, as does any last bit."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def random_stage_cost(rng, keep, own, kind):
    """A random cost over (kept block, own block) for the sweep property
    tests; kind picks plain, equality-row, flat, unbounded, empty, split or
    Polyhedral/Quadratic costs (poly, or mixed for more curved Quadratics
    that the sweep accepts next to Polyhedral nodes).  A split cost has the
    row x_j = 0 on the first kept or the first own coordinate: where a
    node's tail brings the same row, the cost addition drops one, so
    members of one stack end with different row counts."""
    d = keep + own
    L = rng.standard_normal((d, d))
    Q, q = L @ L.T + 0.1 * np.eye(d), rng.standard_normal(d)
    A = b = None
    if kind in ("poly", "mixed"):
        # zero and curved Quadratics next to Polyhedral nodes; a curved one
        # that meets a Polyhedral sum is a BackendClash.  A mixed one is
        # curved in the own block only, so its minimum over that block is
        # affine and joins a Polyhedral parent's sum
        u = rng.random()
        if kind == "mixed" and u < 0.4:
            Q[:keep, :], Q[:, :keep] = 0.0, 0.0
            return Quadratic(Q, q)
        if u < 0.15:
            return Quadratic(Q, q)
        if u < 0.5:
            return Quadratic(np.zeros((d, d)), np.zeros(d))
        if d == 0:
            return Polyhedral(np.zeros((1, 0)), [rng.standard_normal()])
        G = np.vstack([np.eye(d), -np.eye(d)]) * rng.uniform(0.5, 2.0, size=(2 * d, 1))
        return Polyhedral(G, rng.standard_normal(2 * d))
    if kind in ("flat", "unbounded") and rng.random() < 0.5:
        # no curvature in the own block; a drift along it is unbounded
        Q[keep:, :], Q[:, keep:] = 0.0, 0.0
        q[keep:] = rng.standard_normal(own) if kind == "unbounded" else 0.0
    if kind == "rows" and d and rng.random() < 0.5:
        m = int(rng.integers(1, d + 1))
        A, b = rng.standard_normal((m, d)), rng.standard_normal(m)
    if kind == "split" and d:
        A, b = np.eye(d)[[int(rng.choice([0, keep] if keep and own else [0]))]], np.zeros(1)
    if kind == "empty" and d and rng.random() < 0.3:
        A, b = np.tile(rng.standard_normal(d), (2, 1)), np.array([0.0, 1.0])
    return Quadratic(Q, q, float(rng.standard_normal()), A, b)


def outcome(fn, *args):
    """(result, None), or (None, error) for a StochBellmanError."""
    try:
        return fn(*args), None
    except StochBellmanError as exc:
        return None, exc


def same_outcome(got, want, same=None):
    """Two outcome() pairs agree: errors by type, message and node, results
    by same(got, want), which asserts, or else by ==."""
    (g, err), (w, ref_err) = got, want
    assert type(err) is type(ref_err)
    if ref_err is not None:
        assert str(err) == str(ref_err)
        assert getattr(err, "node", None) == getattr(ref_err, "node", None)
    elif same is None:
        assert g == w
    else:
        same(g, w)


def shuffled(rng, tree):
    """The same tree with its nodes given in a random order."""
    recs = [{"id": n.id, "parent": n.parent, "prob": n.prob, "stage": n.stage}
            for n in tree.nodes.values()]
    return validate_tree([recs[i] for i in rng.permutation(len(recs))])


def same_fn(f, g):
    """Same backend and the same bits in every array and constant."""
    if isinstance(f, Quadratic):
        return isinstance(g, Quadratic) and all(
            same_bits(getattr(f, a), getattr(g, a)) for a in ("Q", "q", "A", "b")) \
            and same_bits(f.c, g.c)
    return type(f) is type(g) and all(same_bits(getattr(f, a), getattr(g, a))
                                      for a in ("pieces_a", "pieces_b", "C", "d"))


def _minimize_block(fn, over, nid):
    try:
        return partial_min(fn, over=over)
    except SolverError as exc:
        if exc.node is not None:
            raise
        raise type(exc)(str(exc), node=nid) from exc


# Frozen node-by-node versions of the Quadratic algebra, of the two
# backward sweeps and of the Riccati recursion, kept as references: the
# stage-stacked code must give every node the same bits and raise the same
# error at the same node.

def ref_derived(Q, q, c, A, b):
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-8 * (1.0 + np.max(np.abs(Q), initial=0.0)):
        raise ValidationError("Q must be symmetric")
    out = Quadratic.__new__(Quadratic)
    out.Q = 0.5 * (Q + Q.T)
    out.q = np.asarray(q, dtype=float).ravel()
    out.dim, out.c = out.q.size, float(c)
    if len(A) == 0:
        out.A, out.b = np.zeros((0, out.dim)), np.zeros(0)
    else:
        out.A, out.b = ref_canonical_rows(np.atleast_2d(A), np.asarray(b, dtype=float).ravel())
    return out


def ref_canonical_rows(A, b):
    """The canonical rows of one system (A, b), frozen as the per-member
    formula: orthonormal rows kept, else one SVD and the rows over the rank."""
    m, d = A.shape
    if m <= d and np.max(np.abs(A @ A.T - np.eye(m))) <= 1e-12:
        return A, b
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 0.0)))
    coef = u[:, :rank].T @ b
    if np.max(np.abs(b - u[:, :rank] @ coef)) > EQ_TOL * (1.0 + np.max(np.abs(b))):
        return np.zeros((1, d)), np.ones(1)
    return vt[:rank], coef / s[:rank]


def ref_recession(f):
    """The horizon function of one node's cost, frozen as the per-node
    formula: rows [A; V^T] with V the range basis of Q, or the empty row."""
    if not isinstance(f, Quadratic):
        return f.recession()
    if _is_empty(f):
        rows, rhs = f.A, f.b
    else:
        V = np.zeros((f.dim, 0))
        if f.dim:
            u, s, vt = np.linalg.svd(f.Q)
            V = vt[:int(np.sum(s > 1e-10 * f.dim * s[0]))].T
        rows = np.vstack([f.A, V.T]) if V.size else f.A
        rhs = np.zeros(rows.shape[0])
    return ref_derived(np.zeros((f.dim, f.dim)), f.q, 0.0, rows, rhs)


def ref_quadratic_eval(f, x):
    x = np.asarray(x, dtype=float).ravel()
    if f.A.shape[0]:
        if np.max(np.abs(f.A @ x - f.b)) > EQ_TOL * (1.0 + np.max(np.abs(f.b))):
            return Inf
    return float(0.5 * x @ f.Q @ x + f.q @ x + f.c)


def ref_null_basis(A, rcond=1e-10):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    if A.size == 0 or not np.any(np.abs(A) > 0):
        return np.eye(n)
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > rcond * max(A.shape) * (s[0] if s.size else 1.0)))
    return vt[rank:].T


def ref_precompose(f, M, t):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    t = np.asarray(t, dtype=float).ravel()
    Q2 = M.T @ f.Q @ M
    q2 = M.T @ (f.Q @ t + f.q)
    c2 = f.c + f.q @ t + 0.5 * t @ f.Q @ t
    A2 = f.A @ M
    b2 = f.b - f.A @ t
    return ref_derived(Q2, q2, float(c2), A2, b2)


def ref_scale(f, alpha):
    if alpha == 0:
        return ref_derived(np.zeros_like(f.Q), np.zeros_like(f.q), 0.0, f.A, f.b)
    return ref_derived(alpha * f.Q, alpha * f.q, alpha * f.c, f.A, f.b)


def ref_add(f, g):
    return ref_derived(f.Q + g.Q, f.q + g.q, f.c + g.c,
                       np.vstack([f.A, g.A]), np.concatenate([f.b, g.b]))


def ref_quadratic_partial_min(f, keep):
    d1, d2 = keep, f.dim - keep
    if _is_empty(f):
        F = np.zeros((d2, d1))
        out = ref_precompose(f, np.vstack([np.eye(d1), F]), np.zeros(f.dim))
        return PartialMin(out, AffineSelector(F, np.zeros(d2)), np.zeros((d2, 0)))
    Q, q, A, b = f.Q, f.q, f.A, f.b
    Qxu = Q[:d1, d1:]
    Quu = Q[d1:, d1:]
    Qux = Q[d1:, :d1]
    qu = q[d1:]
    Au = A[:, d1:]
    Ax = A[:, :d1]
    K = ref_null_basis(np.vstack([Quu, Au]))
    if K.size:
        if np.max(np.abs(Qxu @ K), initial=0.0) > _LIN_TOL * (1.0 + np.max(np.abs(Qxu), initial=0.0)):
            raise UnboundedBelow("free direction couples to kept coordinates")
        proj = K.T @ qu
        if np.max(np.abs(proj), initial=0.0) > _LIN_TOL * (1.0 + np.linalg.norm(qu)):
            raise UnboundedBelow("linear drift along a zero-curvature direction")
    m = A.shape[0]
    M = np.zeros((d2 + m, d2 + m))
    M[:d2, :d2] = Quu
    M[:d2, d2:] = Au.T
    M[d2:, :d2] = Au
    P = np.linalg.pinv(M, rcond=1e-12)
    R = np.vstack([-Qux, -Ax])
    r0 = np.concatenate([-qu, b])
    F = (P @ R)[:d2]
    g = (P @ r0)[:d2]
    if K.size:
        F = F - K @ (K.T @ F)
        g = g - K @ (K.T @ g)
    sub_M = np.vstack([np.eye(d1), F])
    sub_t = np.concatenate([np.zeros(d1), g])
    out = ref_precompose(f, sub_M, sub_t)
    return PartialMin(out, AffineSelector(F, g), K if K.size else np.zeros((d2, 0)))


def ref_solve_be(problem):
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
                            "N": pm.lineality, "tail": tail}
    value = records[tree.root]["post"].eval(np.zeros(0))
    if value == Inf:
        raise Infeasible("problem is infeasible", node=tree.root)
    return BellmanSolution(problem, records, float(value))


def ref_solve_oc(sys, costs):
    # the children's terms are summed first, then added to the cost once
    tree = sys.tree
    quad = lambda *fs: all(isinstance(f, Quadratic) for f in fs)
    records = {}
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            q = costs[nid]
            if q.dim != sys.N + sys.M:
                raise DimensionMismatch(f"cost at {nid!r} has wrong dimension")
            terms = []
            for k in tree.children[nid]:
                Mmat = np.hstack([np.eye(sys.N) + sys.A[k], sys.B[k]])
                off = sys.W[k]
                J = records[k]["J"]
                p = float(tree.nodes[k].prob)
                terms.append(ref_scale(ref_precompose(J, Mmat, off), p) if quad(J)
                             else J.precompose(Mmat, off).scale(p))
            if terms:
                try:
                    tail = terms[0]
                    for I_k in terms[1:]:
                        tail = ref_add(tail, I_k) if quad(tail, I_k) else tail.add(I_k)
                    q = ref_add(q, tail) if quad(q, tail) else q.add(tail)
                except BackendClash as exc:
                    raise BackendClash(f"{exc} (node {nid})") from exc
            if quad(q):
                try:
                    pm = ref_quadratic_partial_min(q, q.dim - sys.M)
                except (UnboundedBelow, NonLinearRecession) as exc:
                    raise type(exc)(str(exc), node=nid) from exc
            else:
                pm = _minimize_block(q, sys.M, nid)
            records[nid] = {"Q": q, "J": pm.fn, "selector": pm.selector,
                            "N": pm.lineality}
    return ControlSolution(sys, records)


def ref_riccati(sys, Qmats, Rmats, sv_tol=1e-10):
    """(K, Lam, offset, diagnostics) of the node-by-node recursion."""
    tree = sys.tree
    N, M = sys.N, sys.M
    K, Lam, offset = {}, {}, {}
    diag = {"cross_norm": 0.0, "w_mean_norm": 0.0}
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            Q = np.atleast_2d(np.asarray(Qmats[nid], dtype=float))
            kids = tree.children[nid]
            if not kids:
                K[nid] = Q
                Lam[nid] = np.zeros((M, N))
                offset[nid] = 0.0
                continue
            R = np.atleast_2d(np.asarray(Rmats[nid], dtype=float))
            S1 = Q.copy()
            S2 = np.zeros((N, M))
            S3 = R.copy()
            off = 0.0
            wmean = np.zeros(N)
            cross = np.zeros(N)
            for k in kids:
                pi = float(tree.nodes[k].prob)
                IA = np.eye(N) + sys.A[k]
                Bk = sys.B[k]
                Wk = sys.W[k]
                S1 += pi * IA.T @ K[k] @ IA
                S2 += pi * IA.T @ K[k] @ Bk
                S3 += pi * Bk.T @ K[k] @ Bk
                off += pi * (offset[k] + 0.5 * Wk @ K[k] @ Wk)
                wmean += pi * Wk
                cross += pi * IA.T @ K[k] @ Wk
            sv = np.linalg.svd(S3, compute_uv=False)
            if sv[-1] < sv_tol * max(1.0, sv[0]):
                raise SingularRiccati("control curvature matrix is singular", node=nid)
            S3inv = np.linalg.inv(S3)
            K[nid] = S1 - S2 @ S3inv @ S2.T
            Lam[nid] = S3inv @ S2.T
            offset[nid] = off
            diag["w_mean_norm"] = max(diag["w_mean_norm"], float(np.linalg.norm(wmean)))
            diag["cross_norm"] = max(diag["cross_norm"], float(np.linalg.norm(cross)))
    return K, Lam, offset, diag


# Frozen node-by-node versions of the five forward loops, kept as
# references: the stage-stacked forward sweep must give every node the same
# bits, the same verdict, and raise the same error at the same node.

def ref_step(sys, nid, X, U):
    # ControlSystem.step, with its map [I + A | B], W from the per-node dynamics
    Mmat, t = np.hstack([np.eye(sys.N) + sys.A[nid], sys.B[nid]]), sys.W[nid]
    return Mmat @ np.concatenate([np.atleast_1d(X), np.atleast_1d(U)]) + t


def ref_extract_policy(sol):
    """(decisions, residuals, value) of the node-by-node forward sweep."""
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
    return decisions, residuals, float(value)


def ref_verify_optimality(policy, sol, tol=1e-8):
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


def ref_extract_oc_policy(sys, solution, x0):
    tree = sys.tree
    X = {tree.root: np.atleast_1d(np.asarray(x0, dtype=float))}
    U = {}
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            U[nid] = np.atleast_1d(solution.control(nid, X[nid]))
            for k in tree.children[nid]:
                X[k] = np.atleast_1d(ref_step(sys, k, X[nid], U[nid]))
    return X, U


def ref_verify_oc_policy(sys, solution, X, U, tol=1e-8):
    tree = sys.tree
    for nid in tree.nodes:
        rec = solution.records[nid]
        if rec["Q"] is not None:
            val = rec["Q"].eval(np.concatenate([X[nid], U[nid]]))
            best = rec["J"].eval(X[nid])
            if not np.isfinite(val - best) or val - best > tol:
                return False
    return True


def ref_riccati_policy(sys, rd, x0):
    tree = sys.tree
    X = {tree.root: np.atleast_1d(np.asarray(x0, dtype=float))}
    U = {}
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            U[nid] = -rd.Lam[nid] @ X[nid]
            for k in tree.children[nid]:
                X[k] = ref_step(sys, k, X[nid], U[nid])
    return X, U


def ref_solve_quadratic(fp):
    """The flat KKT solve of a rowless all-Quadratic program, frozen as it
    ran through the null-space basis Z = I."""
    n = fp.nvars
    H, g, const = np.zeros((n, n)), np.zeros(n), 0.0
    for term in fp.terms:
        fn = term.fn if term.M is None else term.fn.precompose(term.M, term.t)
        H[np.ix_(term.idx, term.idx)] += term.weight * fn.Q
        g[term.idx] += term.weight * fn.q
        const += term.weight * fn.c
    z0, Z = np.zeros(n), np.eye(n)
    Hred = Z.T @ H @ Z
    gred = Z.T @ (H @ z0 + g)
    y = -np.linalg.pinv(Hred, rcond=1e-12, hermitian=True) @ gred
    if np.linalg.norm(Hred @ y + gred) > 1e-8 * (1.0 + np.linalg.norm(gred)):
        raise Unbounded("objective decreases along a feasible null direction")
    z = z0 + Z @ y
    value = float(0.5 * z @ H @ z + g @ z + const)
    return value, z, {"kkt_residual": float(np.linalg.norm(H @ z + g))}


def ref_flat_kkt(fp):
    """The flat KKT solve of an all-Quadratic program, frozen as it ran
    with a term-by-term assembly of H, g and the equality rows."""
    n = fp.nvars
    H, g, const = np.zeros((n, n)), np.zeros(n), 0.0
    eq_rows, eq_rhs = [], []
    for term in fp.terms:
        fn = term.fn if term.M is None else term.fn.precompose(term.M, term.t)
        idx = term.idx
        H[np.ix_(idx, idx)] += term.weight * fn.Q
        g[idx] += term.weight * fn.q
        const += term.weight * fn.c
        for row, rhs in zip(fn.A, fn.b):
            grow = np.zeros(n)
            grow[idx] = row
            eq_rows.append(grow)
            eq_rhs.append(rhs)
    A, Z, Hred, gred = np.zeros((0, n)), None, H, g
    if eq_rows:
        A, b = np.array(eq_rows), np.array(eq_rhs)
        z0 = np.linalg.lstsq(A, b, rcond=None)[0]
        if np.linalg.norm(A @ z0 - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
            raise Infeasible("equality constraints are inconsistent")
        u, s, vt = np.linalg.svd(A)
        Z = vt[int(np.sum(s > 1e-10 * max(A.shape) * (s[0] if s.size else 1.0))):].T
        Hred, gred = Z.T @ H @ Z, Z.T @ (H @ z0 + g)
    y = -np.linalg.pinv(Hred, rcond=1e-12, hermitian=True) @ gred
    if np.linalg.norm(Hred @ y + gred) > 1e-8 * (1.0 + np.linalg.norm(gred)):
        raise Unbounded("objective decreases along a feasible null direction")
    z = y if Z is None else z0 + Z @ y
    value = float(0.5 * z @ H @ z + g @ z + const)
    grad = H @ z + g
    lam = np.linalg.lstsq(A.T, -grad, rcond=None)[0]
    return value, z, {"kkt_residual": float(np.linalg.norm(grad + A.T @ lam))}


def exact_quadratic_min(Q, q, c):
    """min 1/2 z.Qz + q.z + c of the stored floats in rational arithmetic:
    (value, minimizer) rounded once to floats, or None when Q is not
    positive definite (a pivot of the elimination is not positive)."""
    n = len(q)
    M = [[Fraction(x) for x in row] + [Fraction(-v)] for row, v in zip(Q.tolist(), q.tolist())]
    for j in range(n):
        if M[j][j] <= 0:
            return None
        for i in range(j + 1, n):
            f = M[i][j] / M[j][j]
            M[i] = [a - f * b for a, b in zip(M[i], M[j])]
    z = [Fraction(0)] * n
    for j in reversed(range(n)):
        z[j] = (M[j][n] - sum(M[j][k] * z[k] for k in range(j + 1, n))) / M[j][j]
    value = Fraction(c) + sum(Fraction(v) * zj for v, zj in zip(q.tolist(), z)) / 2
    return float(value), np.array([float(zj) for zj in z])


def kkt_certificate(grad, x, G, h, A=None, binding=1e-9):
    """(residual, least multiplier) of the KKT conditions at x of a convex
    problem min f over {A y = b, G y <= h}, grad the gradient of f at x.
    The rows of G within `binding` of h bind; least squares gives the
    multipliers lam, mu of grad + A'lam + G_B'mu = 0, and the residual is
    that equation's norm.  The least multiplier is +inf when no row binds."""
    B = h - G @ x <= binding * (1.0 + np.abs(h))
    C = np.vstack([np.zeros((0, x.size)) if A is None else A, G[B]])
    y = np.linalg.lstsq(C.T, -grad, rcond=None)[0] if C.shape[0] else np.zeros(0)
    mu = y[C.shape[0] - int(B.sum()):]
    return float(np.linalg.norm(grad + C.T @ y)), float(mu.min(initial=np.inf))


def monotone_root(f, lo, hi):
    """The sign change of an increasing f with f(lo) < 0 < f(hi), bisected
    until no float lies between the bracket's ends."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return mid
