"""Shared builders for the test suite."""

import numpy as np

from stochbellman.bellman import BellmanSolution
from stochbellman.control import ControlSolution
from stochbellman.convexfn import (_LIN_TOL, AffineSelector, Inf, PartialMin,
                                   Polyhedral, Quadratic, _canonical_rows,
                                   _is_empty, _null_basis, cond_expect_fn,
                                   partial_min)
from stochbellman.errors import (BackendClash, DimensionMismatch, Infeasible,
                                 IterationLimit, NonLinearRecession, RowBlowup,
                                 SingularRiccati, StochBellmanError,
                                 UnboundedBelow, ValidationError)
from stochbellman.simplex import solve_lp
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


def random_stage_cost(rng, keep, own, kind):
    """A random cost over (kept block, own block) for the sweep property
    tests; kind picks plain, equality-row, flat, unbounded, empty or mixed
    Polyhedral/Quadratic costs."""
    d = keep + own
    L = rng.standard_normal((d, d))
    Q, q = L @ L.T + 0.1 * np.eye(d), rng.standard_normal(d)
    A = b = None
    if kind == "poly":
        # zero and curved Quadratics next to Polyhedral nodes; a curved one
        # that meets a Polyhedral sum is a BackendClash
        u = rng.random()
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
    if kind == "empty" and d and rng.random() < 0.3:
        A, b = np.tile(rng.standard_normal(d), (2, 1)), np.array([0.0, 1.0])
    return Quadratic(Q, q, float(rng.standard_normal()), A, b)


def outcome(fn, *args):
    """(result, None), or (None, error) for a StochBellmanError."""
    try:
        return fn(*args), None
    except StochBellmanError as exc:
        return None, exc


def same_fn(f, g):
    """Same backend and the same bits in every array and constant."""
    if isinstance(f, Quadratic):
        return isinstance(g, Quadratic) and all(
            same_bits(getattr(f, a), getattr(g, a)) for a in ("Q", "q", "A", "b")) \
            and same_bits(f.c, g.c) and f.psd == g.psd
    return type(f) is type(g) and all(same_bits(getattr(f, a), getattr(g, a))
                                      for a in ("pieces_a", "pieces_b", "C", "d"))


def _minimize_block(fn, over, nid):
    try:
        return partial_min(fn, over=over)
    except (UnboundedBelow, NonLinearRecession) as exc:
        raise type(exc)(str(exc), node=nid) from exc


# Frozen node-by-node versions of the Quadratic algebra, of the two
# backward sweeps and of the Riccati recursion, kept as references: the
# stage-stacked code must give every node the same bits and raise the same
# error at the same node.

def ref_derived(psd, Q, q, c, A, b):
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-8 * (1.0 + np.max(np.abs(Q), initial=0.0)):
        raise ValidationError("Q must be symmetric")
    out = Quadratic.__new__(Quadratic)
    out.Q = 0.5 * (Q + Q.T)
    out.q = np.asarray(q, dtype=float).ravel()
    out.dim, out.c, out.psd = out.q.size, float(c), psd
    if len(A) == 0:
        out.A, out.b = np.zeros((0, out.dim)), np.zeros(0)
    else:
        out.A, out.b = _canonical_rows(np.atleast_2d(A), np.asarray(b, dtype=float).ravel())
    return out


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
    return ref_derived(f.psd, Q2, q2, float(c2), A2, b2)


def ref_scale(f, alpha):
    if alpha == 0:
        return ref_derived(True, np.zeros_like(f.Q), np.zeros_like(f.q), 0.0, f.A, f.b)
    return ref_derived(f.psd, alpha * f.Q, alpha * f.q, alpha * f.c, f.A, f.b)


def ref_add(f, g):
    return ref_derived(f.psd and g.psd, f.Q + g.Q, f.q + g.q, f.c + g.c,
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
