"""Dense two-phase simplex with Bland's rule.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x free,
by splitting free variables into positive parts and running the standard
tableau method.  Instances here are desk-scale (a few hundred variables);
the dense tableau is deliberate, no sparsity, no external solver.

Phase 1 starts from the slack basis (Bixby 1992, "Implementing the simplex
method: the initial basis", ORSA J. Comput. 4): an inequality row with a
nonnegative right-hand side starts with its slack basic, and only the
negated inequality rows and the equality rows get an artificial.  When a
pivot of the run was on an entry below _TINY_PIVOT, the basic values of the
final basis are recomputed once from the original rows, and the recomputed
point is kept unless it violates a row by more than the tableau's point
(each row measured in units of its largest entry, and a violation below
_ROUNDING counting as none).

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
_ROUNDING = 1e-12  # violations below this, in units of the row's largest entry, are rounding
_TINY_PIVOT = 1e-6  # a pivot on a smaller entry triggers the final refine
MAX_ITER = 20000  # pivots per phase before IterationLimit


class LPResult:
    """status, and x and value for "optimal"; pivots counts every pivot of
    both phases."""
    __slots__ = ("x", "value", "status", "pivots")

    def __init__(self, x, value, status, pivots=0):
        self.x = x
        self.value = value
        self.status = status
        self.pivots = pivots


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
    ends with status "passed" instead of "optimal".  Returns (status,
    pivots, tiny): the pivots taken, and whether one of them was on an entry
    below _TINY_PIVOT.
    """
    status, tiny = "optimal", False
    reduced = T[-1, :ncols]
    for k in range(MAX_ITER):
        # entering: smallest index with reduced cost < -eps (minimization tableau)
        for col in (~(reduced >= -_PIVOT_EPS)).nonzero()[0].tolist():
            row = _ratio_row(T, basis, col)
            if row >= 0:
                break
            if not bounded:
                return "unbounded", k, tiny
            status = "passed"
        else:
            return status, k, tiny
        tiny |= T[row, col] < _TINY_PIVOT
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


def _basic_columns(A, art, basis):
    """The basis matrix: columns of A, and a unit column per artificial."""
    return np.hstack([A, np.eye(A.shape[0])[:, art]])[:, basis]


def _violation(rows, b, nslack, x):
    """Largest violation of rows x <= b (the first nslack) and rows x = b
    (the rest) at x, each row in units of its largest entry; 0 below
    _ROUNDING."""
    scale = np.abs(rows).max(axis=1)
    r = (rows @ x - b) / np.where(scale > 0, scale, 1.0)
    v = max(r[:nslack].max(initial=0.0), np.abs(r[nslack:]).max(initial=0.0))
    return v if v > _ROUNDING else 0.0


def _point(v, basis, n, ncore):
    """x = u - w from the basic values v of the core columns."""
    full = np.zeros(ncore)
    bas = np.array(basis)
    core = bas < ncore
    full[bas[core]] = v[core]
    return full[:n] - full[n:2 * n]


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

    # x = u - w with u, w >= 0; a slack for each ub row (they come first)
    nslack = A_ub.shape[0]
    ncore = 2 * n + nslack
    A = np.zeros((m, ncore))
    A[:, :n] = rows
    A[:, n:2 * n] = -rows
    A[np.arange(nslack), 2 * n + np.arange(nslack)] = 1.0
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1 from the slack basis: artificials only on the negated ub rows
    # and the eq rows; the objective row subtracts those rows in order
    art = np.flatnonzero(neg | (np.arange(m) >= nslack))
    nart = art.size
    T = np.zeros((m + 1, ncore + nart + 1))
    T[:m, :ncore] = A
    T[art, ncore + np.arange(nart)] = 1.0
    T[:m, -1] = b
    basis = (2 * n + np.arange(m)).tolist()
    for j, i in enumerate(art.tolist()):
        basis[i] = ncore + j
    T[m, ncore:ncore + nart] = 1.0
    T[m] = np.subtract.reduce(T[np.r_[m, art]], axis=0)
    status, pivots, tiny = _bland_solve(T, basis, ncore + nart, bounded=True)
    refined = status != "optimal" or T[m, -1] < -_FEAS_EPS
    if refined:
        # The tableau's verdict is infeasible, but pivots on entries near
        # 1e-8 leave rounding error of 1e-8 and more: judge again on basic
        # values recomputed from the original rows, counting artificials and
        # values below zero.
        if not _refine(T, _basic_columns(A, art, basis), b):
            return LPResult(None, None, "infeasible", pivots)
        T[m, -1] = -sum(abs(v) if k >= ncore else max(-v, 0.0) for k, v in zip(basis, T[:m, -1]))
        if T[m, -1] < -_FEAS_EPS:
            return LPResult(None, None, "infeasible", pivots)

    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= ncore:
            big = np.flatnonzero(np.abs(T[i, :ncore]) > _PIVOT_EPS)
            if big.size:
                tiny |= abs(T[i, big[0]]) < _TINY_PIVOT
                _pivot(T, basis, i, int(big[0]))
                pivots += 1

    # phase 2
    T2 = np.delete(T, np.s_[ncore:ncore + nart], axis=1)
    cost = np.zeros(ncore + 1)
    cost[:n] = c
    cost[n:2 * n] = -c
    T2[m] = cost
    for i in range(m):
        if basis[i] < ncore and abs(cost[basis[i]]) > 0:
            T2[m] -= cost[basis[i]] * T2[i]
    status, more, tiny2 = _bland_solve(T2, basis, ncore)
    pivots += more
    if status == "unbounded":
        return LPResult(None, None, "unbounded", pivots)
    if refined:
        _refine(T2, _basic_columns(A, art, basis), b)
    x = _point(T2[:m, -1], basis, n, ncore)
    if (tiny or tiny2) and not refined and _refine(T2, _basic_columns(A, art, basis), b):
        # a tiny pivot leaves rounding that the basis itself does not have:
        # keep the recomputed point unless it violates a row by more
        xr = _point(T2[:m, -1], basis, n, ncore)
        b0 = np.concatenate([b_ub, b_eq])
        if _violation(rows, b0, nslack, xr) <= _violation(rows, b0, nslack, x):
            x = xr
    return LPResult(x, float(c @ x), "optimal", pivots)
