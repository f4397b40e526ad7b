"""Inequality systems and Fourier-Motzkin projection.

A system is the pair (G, h) meaning {z : G z <= h}.  Projection eliminates
trailing coordinates one at a time, forming all positive/negative row pairs
in one broadcast sum.  Redundancy pruning is LP-free: rows are scaled to
unit max-abs coefficient, and of rows with the same normal (equal after
rounding to 12 decimals, grouped by one stable sort) only the one with
the least right-hand side stays.  So it never changes the feasible set, only
the row count.  Every step keeps the row order and the bits of an
element-by-element loop.
"""

import numpy as np

from .errors import RowBlowup

_ZERO = 1e-12
DEFAULT_ROW_CAP = 10000


def normalize_rows(G, h):
    """Scale each row to unit max-abs coefficient; canonicalize zero rows."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    if G.shape[1] == 0:
        # width-zero rows: keep one canonical contradiction if present
        if np.any(h < -_ZERO):
            return np.zeros((1, 0)), np.array([-1.0])
        return np.zeros((0, 0)), np.zeros(0)
    if G.size == 0:
        return G.reshape(0, G.shape[1]), h[:0]
    s = np.max(np.abs(G), axis=1)
    zero = s <= _ZERO
    s[zero] = 1.0
    G, h = G / s[:, None], h / s
    # a zero row with h < 0 is the infeasibility marker 0 <= -1; with h >= 0
    # it is vacuous and dropped
    keep = ~zero | (h < -_ZERO)
    G[zero] = 0.0
    h[zero] = -1.0
    return G[keep], h[keep]


def first_minimal(G, h):
    """Indices of one row per distinct normal, in first-occurrence order.

    Normals are equal when they agree after rounding to 12 decimals.  Of
    equal normals the row with the least h is kept, the first among ties.
    """
    # one stable sort by the rounded columns, then h: each group of equal
    # keys (compared as floats, so -0.0 == 0.0) is a run, led by its least
    # h and, among ties, its first row
    K = np.round(G, 12)
    order = np.lexsort((h,) + tuple(K.T[::-1]))
    start = np.ones(order.size, dtype=bool)
    start[1:] = (K[order[1:]] != K[order[:-1]]).any(axis=1)
    runs = np.flatnonzero(start)
    return order[runs][np.argsort(np.minimum.reduceat(order, runs))]


def prune_rows(G, h):
    """Drop duplicate rows and rows dominated by an identical-normal row."""
    G, h = normalize_rows(G, h)
    if G.shape[0] <= 1:
        return G, h
    keep = first_minimal(G, h)
    return G[keep], h[keep]


def eliminate_one(G, h, j, row_cap=DEFAULT_ROW_CAP):
    """Fourier-Motzkin elimination of coordinate j from G z <= h.

    Before pruning, the rows without coordinate j come first, then the sums
    of a row with a positive and a row with a negative entry in column j,
    scaled to entries +1 and -1, ordered by the positive row, then by the
    negative one.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    col = G[:, j] if G.size else np.zeros(0)
    pos = col > _ZERO
    neg = col < -_ZERO
    zero = np.abs(col) <= _ZERO
    npos, nneg, nzero = (np.count_nonzero(m) for m in (pos, neg, zero))
    if npos * nneg + nzero > row_cap:
        raise RowBlowup(f"projection exceeded {row_cap} intermediate rows")
    if npos * nneg + nzero == 0:
        return np.zeros((0, G.shape[1] - 1)), np.zeros(0)
    cp, cq = col[pos], -col[neg]
    pairs = G[pos][:, None, :] / cp[:, None, None] + G[neg][None, :, :] / cq[None, :, None]
    rows = np.vstack([G[zero], pairs.reshape(-1, G.shape[1])])
    rhs = np.concatenate([h[zero], (h[pos] / cp)[:, None] + (h[neg] / cq)[None, :]], axis=None)
    return prune_rows(np.delete(rows, j, axis=1), rhs)


def fm_project(G, h, n_eliminate, row_cap=DEFAULT_ROW_CAP):
    """Project {z : G z <= h} onto its first (dim - n_eliminate) coordinates.

    Eliminates the trailing n_eliminate coordinates.  Raises RowBlowup if an
    intermediate system exceeds row_cap rows.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    if G.size == 0:
        dim = G.shape[1] if G.ndim == 2 and G.shape[1] else 0
        return np.zeros((0, max(dim - n_eliminate, 0))), np.zeros(0)
    G, h = prune_rows(G, h)
    for _ in range(n_eliminate):
        G, h = eliminate_one(G, h, G.shape[1] - 1, row_cap=row_cap)
    return G, h


def is_infeasible_marker(G, h):
    """True when the system contains a row 0 <= negative."""
    if G.shape[0] == 0:
        return False
    zero = np.max(np.abs(G), axis=1) <= _ZERO if G.shape[1] else np.ones(G.shape[0], bool)
    return bool(np.any(h[zero] < -_ZERO))


def cone_from_generators(rays, row_cap=DEFAULT_ROW_CAP):
    """Inequality description of cone{sum lambda_i r_i : lambda >= 0}.

    Builds {(y, lam) : y - R lam = 0, -lam <= 0} and projects out lam.
    """
    R = np.atleast_2d(np.asarray(rays, dtype=float)).T  # d x k
    d, k = R.shape
    G = np.zeros((2 * d + k, d + k))
    h = np.zeros(2 * d + k)
    G[:d, :d] = np.eye(d)
    G[:d, d:] = -R
    G[d:2 * d, :d] = -np.eye(d)
    G[d:2 * d, d:] = R
    G[2 * d:, d:] = -np.eye(k)
    return fm_project(G, h, k, row_cap=row_cap)
