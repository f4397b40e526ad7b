"""Inequality systems and Fourier-Motzkin projection.

A system is the pair (G, h) meaning {z : G z <= h}.  Projection eliminates
trailing coordinates one at a time, forming all positive/negative row pairs
in one broadcast sum.  Redundancy pruning is LP-free: rows are scaled to
unit max-abs coefficient, and of rows with the same normal (equal after
rounding to 12 decimals, grouped by one stable sort) only the one with
the least right-hand side stays.  So it never changes the feasible set, only
the row count.  Every step keeps the row order and the bits of an
element-by-element loop.

Each function also takes a stack of systems: `member`, the ascending member
index of each row, makes every member its own system, and one call does
the work of a loop over the members with the same bits.  A single system is
a stack of one.

The stacks of polyhedral functions max_i (a_i.x + b_i) on {Cx <= d} that
convexfn's Polyhedral algebra runs on are ragged stacks of such rows
(_PStack), with their evaluation, precomposition, scaling, addition, piece
pruning (duplicate gradients, then, on any member boxed by unit rows,
pieces below another on the whole box) and partial minimization, the last
by one projection of the members' epigraphs.  The projection's
intermediate systems select the minimizers by back-substitution (_Picks,
_pick), with no LP.
"""

from collections import namedtuple

import numpy as np

from .errors import RowBlowup, ValidationError

_ZERO = 1e-12
DEFAULT_ROW_CAP = 10000
EQ_TOL = 1e-8  # a point is in a domain when no row is off by more than EQ_TOL (1 + max |rhs|)


def _members(member, rows):
    return np.zeros(rows, dtype=int) if member is None else np.asarray(member)


def normalize_rows(G, h, member=None):
    """Scale each row to unit max-abs coefficient; canonicalize zero rows.

    With `member`, returns (G, h, member): width-zero rows keep one
    contradiction per member that has one."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    m = _members(member, h.size)
    if G.shape[1] == 0:
        # width-zero rows: keep one canonical contradiction if present
        m = np.flatnonzero(np.bincount(m[h < -_ZERO], minlength=m[-1] + 1 if m.size else 0))
        G, h = np.zeros((m.size, 0)), np.full(m.size, -1.0)
    elif G.size == 0:
        G, h = G.reshape(0, G.shape[1]), h[:0]
    else:
        s = np.max(np.abs(G), axis=1)
        zero = s <= _ZERO
        s[zero] = 1.0
        G, h = G / s[:, None], h / s
        # a zero row with h < 0 is the infeasibility marker 0 <= -1; with
        # h >= 0 it is vacuous and dropped
        keep = ~zero | (h < -_ZERO)
        G[zero] = 0.0
        h[zero] = -1.0
        G, h, m = G[keep], h[keep], m[keep]
    return (G, h) if member is None else (G, h, m)


def first_minimal(G, h, member=None):
    """Indices of one row per distinct normal, in first-occurrence order.

    Normals are equal when they agree after rounding to 12 decimals.  Of
    equal normals the row with the least h is kept, the first among ties.
    With `member`, rows of different members never count as equal.
    """
    # one stable sort by the member, the rounded columns, then h: each group
    # of equal keys (compared as floats, so -0.0 == 0.0) is a run, led by
    # its least h and, among ties, its first row
    m = _members(member, len(h))
    K = np.round(G, 12)
    order = np.lexsort((h,) + tuple(K.T[::-1]) + (m,))
    K, m = K[order], m[order]
    start = np.ones(order.size, dtype=bool)
    start[1:] = (K[1:] != K[:-1]).any(axis=1) | (m[1:] != m[:-1])
    runs = np.flatnonzero(start)
    return order[runs][np.argsort(np.minimum.reduceat(order, runs))]


def prune_rows(G, h, member=None):
    """Drop duplicate rows and rows dominated by an identical-normal row."""
    G, h, m = normalize_rows(G, h, _members(member, np.size(h)))
    if G.shape[0] > 1:
        keep = first_minimal(G, h, m)
        G, h, m = G[keep], h[keep], m[keep]
    return (G, h) if member is None else (G, h, m)


def _pairs(mi, mj):
    """(i, j) of every pair of rows with mi[i] == mj[j], mi and mj ascending,
    ordered by i, then by j."""
    n = max(mi[-1] if mi.size else -1, mj[-1] if mj.size else -1) + 1
    count = np.bincount(mj, minlength=n)
    rep = count[mi]
    i = np.repeat(np.arange(mi.size), rep)
    # j runs from the start of its member's rows in mj
    first = np.cumsum(count) - count
    j = np.arange(rep.sum()) + np.repeat(first[mi] - (np.cumsum(rep) - rep), rep)
    return i, j


def eliminate_one(G, h, j, row_cap=DEFAULT_ROW_CAP, member=None, failed=None):
    """Fourier-Motzkin elimination of coordinate j from G z <= h.

    Before pruning, the rows without coordinate j come first, then the sums
    of a row with a positive and a row with a negative entry in column j,
    scaled to entries +1 and -1, ordered by the positive row, then by the
    negative one.  More than row_cap such rows raise RowBlowup.

    With `member`, pairs form within each member, each member's rows come
    in the order above, and the cap holds per member: a member past it
    loses its rows and failed[member] is its RowBlowup.  Returns (G, h,
    member) then.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    m = _members(member, h.size)
    col = G[:, j] if G.size else np.zeros(0)
    pos = col > _ZERO
    neg = col < -_ZERO
    zero = np.abs(col) <= _ZERO
    n = m[-1] + 1 if m.size else 0
    npos, nneg, nzero = (np.bincount(m[s], minlength=n) for s in (pos, neg, zero))
    over = np.flatnonzero(npos * nneg + nzero > row_cap)
    if over.size:
        if member is None:
            raise RowBlowup(f"projection exceeded {row_cap} intermediate rows")
        for k in over.tolist():
            failed[k] = RowBlowup(f"projection exceeded {row_cap} intermediate rows")
        live = np.ones(n, dtype=bool)
        live[over] = False
        pos, neg, zero = (s & live[m] for s in (pos, neg, zero))
    P, N = np.flatnonzero(pos), np.flatnonzero(neg)
    pi, ni = _pairs(m[P], m[N])
    if pi.size + np.count_nonzero(zero) == 0:
        G, h, m = np.zeros((0, G.shape[1] - 1)), np.zeros(0), m[:0]
        return (G, h) if member is None else (G, h, m)
    cp, cq = col[P], -col[N]
    rows = np.vstack([G[zero], (G[P] / cp[:, None])[pi] + (G[N] / cq[:, None])[ni]])
    rhs = np.concatenate([h[zero], (h[P] / cp)[pi] + (h[N] / cq)[ni]])
    # each member's rows without column j, then its pairs
    mem = np.concatenate([m[zero], m[P][pi]])
    order = np.argsort(mem, kind="stable")
    return prune_rows(np.delete(rows[order], j, axis=1), rhs[order],
                      None if member is None else mem[order])


def fm_project(G, h, n_eliminate, row_cap=DEFAULT_ROW_CAP, member=None, failed=None):
    """Project {z : G z <= h} onto its first (dim - n_eliminate) coordinates.

    Eliminates the trailing n_eliminate coordinates.  Raises RowBlowup if an
    intermediate system exceeds row_cap rows.

    With `member` (see eliminate_one, whose failed it fills), returns (G, h,
    member, steps): steps are the systems (G, h, member) that each
    elimination starts from, the pruned input first.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float).ravel()
    if G.size == 0 and member is None:
        dim = G.shape[1] if G.ndim == 2 and G.shape[1] else 0
        return np.zeros((0, max(dim - n_eliminate, 0))), np.zeros(0)
    one = member is None
    failed = {} if one else failed
    S = prune_rows(G, h, _members(member, h.size))
    steps = []
    for _ in range(n_eliminate):
        steps.append(S)
        S = eliminate_one(S[0], S[1], S[0].shape[1] - 1, row_cap, S[2], failed)
        if one and failed:
            raise failed[0]
    return S[:2] if one else (*S, steps)


# Polyhedrals of one dim as a ragged stack of n members: pieces a (P, d),
# b (P,) and domain rows C (R, d), d (R,), each tagged with its member in
# pm (P,) and cm (R,), ascending; every member has at least one piece.
_PStack = namedtuple("_PStack", "a b pm C d cm n")


def _ptake(P, rows):
    """The members `rows` (an index array) of a _PStack, in that order."""
    rows = np.asarray(rows, dtype=int)
    out = []
    for m in (P.pm, P.cm):
        count = np.bincount(m, minlength=P.n)
        c = count[rows]
        start = (np.cumsum(count) - count)[rows]
        out += [np.arange(c.sum()) + np.repeat(start - (np.cumsum(c) - c), c),
                np.repeat(np.arange(rows.size), c)]
    ia, pm, ic, cm = out
    return _PStack(P.a[ia], P.b[ia], pm, P.C[ic], P.d[ic], cm, rows.size)


def _pcat(Ps):
    """_PStacks of one dim as one, members in order."""
    off = np.cumsum([0] + [P.n for P in Ps])
    return _PStack(*(np.concatenate(x) for x in (
        [P.a for P in Ps], [P.b for P in Ps], [P.pm + o for P, o in zip(Ps, off)],
        [P.C for P in Ps], [P.d for P in Ps], [P.cm + o for P, o in zip(Ps, off)])),
        int(off[-1]))


def _starts(m):
    """Where each run of equal entries of m begins, as a mask."""
    return np.concatenate(([True], m[1:] != m[:-1]))


def _runmax(v, m, n):
    """The largest v of each member's rows (m ascending), -np.inf for a member
    with none."""
    out = np.full(n, -np.inf)
    if v.size:
        start = np.flatnonzero(_starts(m))
        out[m[start]] = np.maximum.reduceat(v, start)
    return out


def _pprecompose(P, M, t):
    """x -> f_i(M_i x + t_i) for every member; M (n, d, k), t (n, d)."""
    return _PStack(np.vecmat(P.a, M[P.pm]), P.b + np.vecdot(P.a, t[P.pm]), P.pm,
                   np.vecmat(P.C, M[P.cm]), P.d - np.vecdot(P.C, t[P.cm]), P.cm, P.n)


def _pscale(P, alpha):
    """alpha_i * f_i for every member; a zero factor leaves the zero piece
    on the domain."""
    if alpha.min(initial=0.0) < 0:
        raise ValidationError("scale factor must be nonnegative")
    a, b, pm = alpha[P.pm, None] * P.a, alpha[P.pm] * P.b, P.pm
    zero = np.flatnonzero(alpha == 0)
    if zero.size:
        live = alpha[pm] != 0
        pm = np.concatenate([pm[live], zero])
        order = np.argsort(pm, kind="stable")
        a = np.concatenate([a[live], np.zeros((zero.size, a.shape[1]))])[order]
        b, pm = np.concatenate([b[live], np.zeros(zero.size)])[order], pm[order]
    return P._replace(a=a, b=b, pm=pm)


def _padd(P, Q, failed):
    """f_i + g_i for every member: the sums of a piece of f_i and one of
    g_i, ordered by f_i's piece, then pruned (_pruned, which records a
    RowBlowup in failed), on both domains, f_i's rows first."""
    cm = np.concatenate([P.cm, Q.cm])
    order = np.argsort(cm, kind="stable")
    return _pruned(_PStack(*_pair_sums(P, Q), np.concatenate([P.C, Q.C])[order],
                           np.concatenate([P.d, Q.d])[order], cm[order], P.n), failed)


def _pair_sums(P, Q):
    """The pieces a, b, pm of the sums of a piece of P and one of Q of the
    same member, ordered by P's piece."""
    i, j = _pairs(P.pm, Q.pm)
    return P.a[i] + Q.a[j], P.b[i] + Q.b[j], P.pm[i]


def _pruned(P, failed):
    """P with the pieces _prune_index keeps; a member left with more than
    DEFAULT_ROW_CAP pieces gets a RowBlowup in failed."""
    keep = _prune_index(P)
    P = P._replace(a=P.a[keep], b=P.b[keep], pm=P.pm[keep])
    cap = DEFAULT_ROW_CAP
    for i in np.flatnonzero(np.bincount(P.pm, minlength=P.n) > cap).tolist():
        failed.setdefault(i, RowBlowup(f"piece list exceeds {cap} rows"))
    return P


def _prune_index(P):
    """Indices of the pieces of a _PStack worth keeping, member by member.

    Of pieces with equal gradients only the highest survives.  When unit
    domain rows bound every coordinate both ways, pieces lying below another
    piece on the whole box are dropped (interval bound, no LP).  This is the
    greedy test that takes the pieces by decreasing value at the box center,
    each one still kept dropping those below it, run on every member at
    once: a round takes each member's next 8 pieces, tests them against each
    other, then the rest against those left.  A piece lies below only pieces
    higher at the center, and lying below is transitive, so this keeps what
    taking one piece a round keeps.
    """
    keep = first_minimal(P.a, -P.b, P.pm)
    big = np.bincount(P.pm[keep], minlength=P.n) > 1
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
    # the tested pieces by member, then by decreasing value at the center
    t = keep[boxed[P.pm[keep]]]
    t = t[np.lexsort((-(np.vecdot(P.a[t], center[P.pm[t]]) + P.b[t]), P.pm[t]))]
    a, b, m = P.a[t], P.b[t], P.pm[t]

    def below(c, k):
        # c lies below k on the whole box of their member
        mc, da = m[c], a[c] - a[k]
        worst = np.vecdot(np.abs(da), radius[mc]) + np.vecdot(da, center[mc])
        return c[worst + (b[c] - b[k]) <= 0.0]

    alive, todo = np.ones(t.size, dtype=bool), np.ones(t.size, dtype=bool)
    while todo.any():
        top = np.flatnonzero(todo)
        top = top[np.arange(top.size) - np.searchsorted(m[top], m[top]) < 8]
        i, j = _pairs(m[top], m[top])
        alive[below(top[i[i > j]], top[j[i > j]])] = False
        todo[top] = False
        top, rest = top[alive[top]], np.flatnonzero(todo)
        i, j = _pairs(m[rest], m[top])
        alive[below(rest[i], top[j])] = False
        todo &= alive
    out = np.ones(P.b.size, dtype=bool)
    out[t[~alive]] = False
    return keep[out[keep]]


def _minima(P, over, failed):
    """Minimize each member of a _PStack over its trailing `over`
    coordinates by one Fourier-Motzkin projection of the members'
    epigraphs: the value functions as a _PStack, and the systems (G, h,
    member) that each elimination started from.  A member's first error
    (RowBlowup, an upper bound on tau, too many pieces) is kept in failed
    under its index."""
    n, dim = P.n, P.a.shape[1]
    keep = dim - over
    # each member's epigraph over (x, tau, u): one row a.x - tau <= -b per
    # piece, then one row c.x <= d per domain row
    k = P.b.size
    G = np.zeros((k + P.d.size, dim + 1))
    G[:k, :keep], G[:k, keep], G[:k, keep + 1:] = P.a[:, :keep], -1.0, P.a[:, keep:]
    G[k:, :keep], G[k:, keep + 1:] = P.C[:, :keep], P.C[:, keep:]
    m = np.concatenate([P.pm, P.cm])
    order = np.argsort(m, kind="stable")
    blown = {}
    G, h, m, steps = fm_project(G[order], np.concatenate([-P.b, P.d])[order], over,
                                member=m[order], failed=blown)
    for i, exc in blown.items():
        failed.setdefault(i, exc)
    tau = G[:, keep]
    for i in dict.fromkeys(m[tau > 1e-11].tolist()):
        failed.setdefault(i, ValidationError("epigraph projection produced an upper bound on tau"))
    piece = tau < -1e-11
    dom = ~piece & ~(tau > 1e-11)
    a, b, pm = G[piece, :keep] / -tau[piece, None], -h[piece] / -tau[piece], m[piece]
    # no piece row: with the cone checks passed, f is an indicator, and its
    # value is 0 on the projected domain
    none = np.flatnonzero(np.bincount(pm, minlength=n) == 0)
    if none.size:
        pm = np.concatenate([pm, none])
        order = np.argsort(pm, kind="stable")
        a = np.concatenate([a, np.zeros((none.size, keep))])[order]
        b, pm = np.concatenate([b, np.zeros(none.size)])[order], pm[order]
    post = _pruned(_PStack(a, b, pm, G[dom, :keep], h[dom], m[dom], n), failed)
    return post, steps


# What selects the minimizers of polyhedral partial minimization, by
# member: the value functions (a _PStack), the Fourier-Motzkin systems
# (G, h, member) that each elimination started from, the lineality bases,
# and the node each member names in an error (None for none).
_Picks = namedtuple("_Picks", "post steps lin names")


def _peval(P, X):
    """f_i(X_i) for the members of a _PStack, X (n, dim); +inf where a
    domain row is violated by more than EQ_TOL (1 + max |d_i|)."""
    val = _runmax(np.vecdot(P.a, X[P.pm]) + P.b, P.pm, P.n)
    if len(P.d):
        scale = 1.0 + np.maximum(_runmax(np.abs(P.d), P.cm, P.n), 0.0)
        val[_runmax(np.vecdot(P.C, X[P.cm]) - P.d, P.cm, P.n) > EQ_TOL * scale] = np.inf
    return val


def _picks_of(picks, j):
    """Member j of a _Picks as a _Picks of one."""
    steps = [(G[m == j], h[m == j], m[m == j] * 0) for G, h, m in picks.steps]
    return _Picks(_ptake(picks.post, [j]), steps, [picks.lin[j]], [picks.names[j]])


def _pick(picks, X):
    """The minimizers of the members of a _Picks at the kept points X (n,
    keep), by back-substitution through each member's Fourier-Motzkin
    systems (Dantzig & Eaves 1973): tau = V(x), then the eliminated
    coordinates in reverse order, each at its feasible value nearest 0, and
    the lineality component projected out.  Any feasible value extends to a
    minimizer; the one nearest 0 keeps a coordinate that a lineality
    direction leaves free at 0, where rounding leaves rows with entries of
    1e-12 that bound it only at 1e14 or so.  A point off a member's domain
    raises ValidationError naming the first such member's node."""
    n, keep = picks.post.n, picks.post.a.shape[1]
    tau = _peval(picks.post, X)
    off = np.flatnonzero(tau == np.inf)
    if off.size:
        name = picks.names[off[0]]
        exc = ValidationError("selector infeasible at given point"
                              + ("" if name is None else f" (node {name})"))
        exc.node = name
        raise exc
    Z = np.column_stack([X, tau])
    for G, h, m in reversed(picks.steps):
        c = G[:, -1]
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        for rows, bound, best in ((c < -_ZERO, lo, np.maximum), (c > _ZERO, hi, np.minimum)):
            best.at(bound, m[rows], (h[rows] - np.vecdot(G[rows, :-1], Z[m[rows]])) / c[rows])
        Z = np.column_stack([Z, np.minimum(np.maximum(lo, 0.0), hi)])
    U = Z[:, keep + 1:]
    for shape in dict.fromkeys(K.shape for K in picks.lin if K.size):
        i = [j for j, K in enumerate(picks.lin) if K.shape == shape]
        K = np.array([picks.lin[j] for j in i])
        U[i] -= np.matvec(K, np.matvec(K.transpose(0, 2, 1), U[i]))
    return U


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
