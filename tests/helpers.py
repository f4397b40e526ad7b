"""Shared builders for the test suite."""

import numpy as np

from stochbellman.errors import IterationLimit, RowBlowup
from stochbellman.tree import AdaptedProcess, validate_tree


def binary_tree(probs=(0.5, 0.5)):
    return validate_tree([
        {"id": "r", "parent": None, "prob": 1.0, "stage": 0},
        {"id": "a", "parent": "r", "prob": probs[0], "stage": 1},
        {"id": "b", "parent": "r", "prob": probs[1], "stage": 1},
    ])


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
    m = T.shape[0] - 1
    status = "optimal"
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
                return "unbounded"
            status = "passed"
        else:
            return status
        ref_pivot(T, basis, row, col, pivots)
    raise IterationLimit("simplex iteration limit reached")


def _ref_refine(T, B, b):
    try:
        T[:-1, -1] = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return False
    return True


def ref_solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, max_iter=20000, pivots=None):
    """Loop simplex; returns (status, x, value, basis), basis None when no
    tableau was built."""
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
    T = np.zeros((m + 1, ncore + m + 1))
    T[:m, :ncore] = A
    T[:m, ncore:ncore + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(ncore, ncore + m))
    T[m, ncore:ncore + m] = 1.0
    for i in range(m):
        T[m] -= T[i]
    status = ref_bland_solve(T, basis, ncore + m, max_iter, bounded=True, pivots=pivots)
    refined = status != "optimal" or T[m, -1] < -1e-8
    if refined:
        AI = np.hstack([A, np.eye(m)])
        if not _ref_refine(T, AI[:, basis], b):
            return "infeasible", None, None, basis
        T[m, -1] = -sum(abs(v) if k >= ncore else max(-v, 0.0) for k, v in zip(basis, T[:m, -1]))
        if T[m, -1] < -1e-8:
            return "infeasible", None, None, basis
    for i in range(m):
        if basis[i] >= ncore:
            for j in range(ncore):
                if abs(T[i, j]) > 1e-9:
                    ref_pivot(T, basis, i, j, pivots)
                    break
    T2 = np.delete(T, np.s_[ncore:ncore + m], axis=1)
    cost = np.zeros(ncore + 1)
    cost[:n] = c
    cost[n:2 * n] = -c
    T2[m] = cost
    for i in range(m):
        if basis[i] < ncore and abs(cost[basis[i]]) > 0:
            T2[m] -= cost[basis[i]] * T2[i]
    status = ref_bland_solve(T2, basis, ncore, max_iter, pivots=pivots)
    if refined and status == "optimal":
        _ref_refine(T2, AI[:, basis], b)
    if status == "unbounded":
        return "unbounded", None, None, basis
    full = np.zeros(ncore)
    for i in range(m):
        if basis[i] < ncore:
            full[basis[i]] = T2[i, -1]
    x = full[:n] - full[n:2 * n]
    return "optimal", x, float(c @ x), basis


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


def ref_prune_pieces(pa, pb, C, d):
    keyed = {}
    for a, b in zip(pa, pb):
        key = tuple(np.round(a, 12))
        if key not in keyed or b > keyed[key][1]:
            keyed[key] = (a, b)
    pa = np.array([a for a, _ in keyed.values()])
    pb = np.array([b for _, b in keyed.values()])
    if pa.shape[0] <= 32:
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
        keep[cand[worst <= -1e-12]] = False
    return pa[keep], pb[keep]


def same_bits(x, y):
    """Equal shapes and equal bytes: -0.0 and 0.0 differ, as does any last bit."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
