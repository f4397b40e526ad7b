"""Dense two-phase simplex with Bland's rule.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x free,
by splitting free variables into positive parts and running the standard
tableau method.  Instances here are desk-scale (a few hundred variables);
the dense tableau is deliberate, no sparsity, no external solver.
"""

import numpy as np

from .errors import IterationLimit

_PIVOT_EPS = 1e-9
_FEAS_EPS = 1e-8


class LPResult:
    __slots__ = ("x", "value", "status")

    def __init__(self, x, value, status):
        self.x = x
        self.value = value
        self.status = status


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 1e-14:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _bland_solve(T, basis, ncols, max_iter, bounded=False):
    """Run phase iterations on tableau T (last row = objective, last col = rhs).

    With `bounded` (phase 1, whose objective cannot drop below zero) a
    candidate column without a pivot row is passed over rather than reported
    as unbounded, since its reduced cost is rounding noise; the phase then
    ends with status "passed" instead of "optimal".
    """
    m = T.shape[0] - 1
    status = "optimal"
    for _ in range(max_iter):
        # entering: smallest index with reduced cost < -eps (minimization tableau)
        for col in range(ncols):
            if T[m, col] >= -_PIVOT_EPS:
                continue
            # ratio test, Bland tie-break on basis index
            row, best = -1, np.inf
            for i in range(m):
                a = T[i, col]
                if a > _PIVOT_EPS:
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
        _pivot(T, basis, row, col)
    raise IterationLimit("simplex iteration limit reached")


def _refine(T, B, b):
    """Recompute the basic values T[:-1, -1] = B^-1 b from the original rows.

    Returns False, leaving T as it is, when the basis matrix is singular.
    """
    try:
        T[:-1, -1] = np.linalg.solve(B, b)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, max_iter=20000):
    """Minimize c.x over free x subject to A_ub x <= b_ub and A_eq x = b_eq.

    Returns LPResult with status in {"optimal", "unbounded", "infeasible"};
    x and value are populated only for "optimal".
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    kinds = []  # "ub" rows get a slack, "eq" rows do not
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
            return LPResult(None, None, "unbounded")
        return LPResult(np.zeros(n), 0.0, "optimal")

    # x = u - w with u, w >= 0; slacks for ub rows; artificials everywhere needed.
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

    # phase 1: artificial basis
    T = np.zeros((m + 1, ncore + m + 1))
    T[:m, :ncore] = A
    T[:m, ncore:ncore + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(ncore, ncore + m))
    T[m, ncore:ncore + m] = 1.0
    for i in range(m):
        T[m] -= T[i]
    status = _bland_solve(T, basis, ncore + m, max_iter, bounded=True)
    refined = status != "optimal" or T[m, -1] < -_FEAS_EPS
    if refined:
        # The tableau's verdict is infeasible, but pivots on entries near
        # 1e-8 leave rounding error of 1e-8 and more: judge again on basic
        # values recomputed from the original rows, counting artificials and
        # values below zero.
        AI = np.hstack([A, np.eye(m)])
        if not _refine(T, AI[:, basis], b):
            return LPResult(None, None, "infeasible")
        T[m, -1] = -sum(abs(v) if k >= ncore else max(-v, 0.0) for k, v in zip(basis, T[:m, -1]))
        if T[m, -1] < -_FEAS_EPS:
            return LPResult(None, None, "infeasible")

    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= ncore:
            for j in range(ncore):
                if abs(T[i, j]) > _PIVOT_EPS:
                    _pivot(T, basis, i, j)
                    break

    # phase 2
    T2 = np.delete(T, np.s_[ncore:ncore + m], axis=1)
    cost = np.zeros(ncore + 1)
    cost[:n] = c
    cost[n:2 * n] = -c
    T2[m] = cost
    for i in range(m):
        if basis[i] < ncore and abs(cost[basis[i]]) > 0:
            T2[m] -= cost[basis[i]] * T2[i]
    status = _bland_solve(T2, basis, ncore, max_iter)
    if refined and status == "optimal":
        _refine(T2, AI[:, basis], b)
    if status == "unbounded":
        return LPResult(None, None, "unbounded")

    full = np.zeros(ncore)
    for i in range(m):
        if basis[i] < ncore:
            full[basis[i]] = T2[i, -1]
    x = full[:n] - full[n:2 * n]
    return LPResult(x, float(c @ x), "optimal")
