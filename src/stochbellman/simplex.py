"""Dense two-phase simplex with Bland's rule.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x free,
by splitting free variables into positive parts and running the standard
tableau method.  Instances here are desk-scale (a few hundred variables);
the dense tableau is deliberate, no sparsity, no external solver.

Each pivot is one masked rank-1 update of the rows with a nonzero entry in
the pivot column, and the entering-column scan and the ratio test are numpy
expressions.  Bland's rule fixes which pivot is taken, and every update does
the same floating-point operations as an element-by-element loop, so the
pivot sequence and the output bits do not depend on the vectorization.
"""

import numpy as np

from .errors import IterationLimit

_PIVOT_EPS = 1e-9
_FEAS_EPS = 1e-8
_TIE = 1e-12  # ratios this close count as tied; Bland's tie-break decides
_TIE_GAP = 1e-11  # a gap this wide above the tied ratios ends the tie chain
MAX_ITER = 20000  # pivots per phase before IterationLimit


class LPResult:
    __slots__ = ("x", "value", "status")

    def __init__(self, x, value, status):
        self.x = x
        self.value = value
        self.status = status


def _pivot(T, basis, row, col):
    p = T[row]
    p /= p[col]
    f = T[:, col]
    # one rank-1 update of the rows with a nonzero factor; a zero factor
    # would make 0 * x = -0.0 and turn a -0.0 entry into 0.0
    keep = abs(f) > 1e-14
    keep[row] = False
    rows = keep.nonzero()[0]
    T[rows] -= np.multiply.outer(f[rows], p)
    basis[row] = col


def _ratio_row(T, basis, col):
    """Leaving row for entering column `col`, or -1 when no row limits it.

    Bland's ratio test is a sequential chain over the rows whose entry
    exceeds _PIVOT_EPS: a ratio more than _TIE below the running best
    replaces it, and one within _TIE replaces it when its basic variable has
    the smaller index.  Grow a cluster from the minimum ratio by taking in
    every ratio within _TIE_GAP of its largest; a row outside the final
    cluster lies more than _TIE_GAP above all of it, so it can neither win
    nor change the chain, and the chain runs over the cluster alone.  A
    minimum with no other ratio within _TIE_GAP wins outright.  With an
    infinite or NaN minimum the chain runs over every row.
    """
    a = T[:-1, col]
    rows = (a > _PIVOT_EPS).nonzero()[0]
    if not rows.size:
        return -1
    ratios = T[rows, -1] / a[rows]
    k = ratios.argmin()
    r0 = ratios[k]
    if -np.inf < r0 < np.inf:
        near = ratios <= r0 + _TIE_GAP
        if np.count_nonzero(near) == 1:
            return int(rows[k])
        count = 1
        while np.count_nonzero(near) > count:  # widen until a gap follows
            count = np.count_nonzero(near)
            near = ratios <= ratios[near].max() + _TIE_GAP
        rows, ratios = rows[near], ratios[near]
    row, best = -1, np.inf
    for i, ratio in zip(rows.tolist(), ratios):
        if ratio < best - _TIE or (abs(ratio - best) <= _TIE and (row < 0 or basis[i] < basis[row])):
            best, row = ratio, i
    return row


def _bland_solve(T, basis, ncols, bounded=False):
    """Run phase iterations on tableau T (last row = objective, last col = rhs).

    With `bounded` (phase 1, whose objective cannot drop below zero) a
    candidate column without a pivot row is passed over rather than reported
    as unbounded, since its reduced cost is rounding noise; the phase then
    ends with status "passed" instead of "optimal".
    """
    status = "optimal"
    reduced = T[-1, :ncols]
    for _ in range(MAX_ITER):
        # entering: smallest index with reduced cost < -eps (minimization tableau)
        for col in (~(reduced >= -_PIVOT_EPS)).nonzero()[0].tolist():
            row = _ratio_row(T, basis, col)
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


def _rows(A, b, n):
    """(A, b) as a float matrix and vector, with no rows for a missing A."""
    if A is None or not len(A):
        return np.zeros((0, n)), np.zeros(0)
    return np.atleast_2d(np.asarray(A, dtype=float)), np.asarray(b, dtype=float).ravel()


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Minimize c.x over free x subject to A_ub x <= b_ub and A_eq x = b_eq.

    Returns LPResult with status in {"optimal", "unbounded", "infeasible"};
    x and value are populated only for "optimal".  Raises IterationLimit
    after MAX_ITER pivots in one phase.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub, b_ub = _rows(A_ub, b_ub, n)
    A_eq, b_eq = _rows(A_eq, b_eq, n)
    rows = np.vstack([A_ub, A_eq])
    b = np.concatenate([b_ub, b_eq])
    m = rows.shape[0]
    if m == 0:
        if np.any(np.abs(c) > 0):
            return LPResult(None, None, "unbounded")
        return LPResult(np.zeros(n), 0.0, "optimal")

    # x = u - w with u, w >= 0; a slack for each ub row (they come first);
    # artificials everywhere needed.
    nslack = A_ub.shape[0]
    ncore = 2 * n + nslack
    A = np.zeros((m, ncore))
    A[:, :n] = rows
    A[:, n:2 * n] = -rows
    A[np.arange(nslack), 2 * n + np.arange(nslack)] = 1.0
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis; the objective row subtracts the rows in order
    T = np.zeros((m + 1, ncore + m + 1))
    T[:m, :ncore] = A
    T[:m, ncore:ncore + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(ncore, ncore + m))
    T[m, ncore:ncore + m] = 1.0
    T[m] = np.subtract.reduce(T[np.r_[m, :m]], axis=0)
    status = _bland_solve(T, basis, ncore + m, bounded=True)
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
            big = np.flatnonzero(np.abs(T[i, :ncore]) > _PIVOT_EPS)
            if big.size:
                _pivot(T, basis, i, int(big[0]))

    # phase 2
    T2 = np.delete(T, np.s_[ncore:ncore + m], axis=1)
    cost = np.zeros(ncore + 1)
    cost[:n] = c
    cost[n:2 * n] = -c
    T2[m] = cost
    for i in range(m):
        if basis[i] < ncore and abs(cost[basis[i]]) > 0:
            T2[m] -= cost[basis[i]] * T2[i]
    status = _bland_solve(T2, basis, ncore)
    if refined and status == "optimal":
        _refine(T2, AI[:, basis], b)
    if status == "unbounded":
        return LPResult(None, None, "unbounded")

    full = np.zeros(ncore)
    bas = np.array(basis)
    core = bas < ncore
    full[bas[core]] = T2[:m, -1][core]
    x = full[:n] - full[n:2 * n]
    return LPResult(x, float(c @ x), "optimal")
