"""Algebra of representable extended-real convex functions on R^d.

Two backends are closed under the operations the backward recursion needs:

* Quadratic   -- 1/2 x.Qx + q.x + c on an affine set {Ax = b}; partial
                 minimization via a KKT pseudoinverse solve.  The rows are
                 kept canonical: orthonormal, at most dim of them, or the
                 single row 0.x = 1 for an empty domain.
* Polyhedral  -- max of affine pieces on a polyhedron {Cx <= d}; partial
                 minimization via Fourier-Motzkin projection of the epigraph,
                 and a minimizer by back-substitution through the projection
                 (no LP).

Sampled1D is no backend: a validated convex knot table, +inf off its range,
for losses, wealth grids and flat-program terms.  It only evaluates; its
other operations raise BackendClash, and StageProblem refuses it as a cost.

Values are floats with +inf for points outside the effective domain; -inf
never occurs because every backend tracks its domain explicitly.  All
instances are immutable; operations return new objects.  A sum stays in one
backend: an affine Quadratic joins a Polyhedral as one piece (_affine_pstack,
a stack's affine members at once), and any other cross-backend sum raises
BackendClash.  Recession functions are backend objects and lineality
spaces are orthonormal basis arrays.

The Quadratic algebra (precompose, scale, add, partial minimization,
conjugates) is written once over a stack: arrays with a leading member
axis, for Quadratics of one dimension and row count.  The Polyhedral
algebra (precompose, scale, add, eval, partial minimization and its
selection) is written once over a ragged stack of one dimension: pieces
and domain rows, each tagged with its member (_PStack).  A method call on
one object is a stack of one; the backward sweep keeps its stacks from
step to step and into its records, and a member becomes an object (_member)
when it is read.  The promise for each member is the README's Numerical
contract (the tests also freeze per-member bits).
"""

from collections import namedtuple

import numpy as np

from . import polyhedra
from .errors import (BackendClash, DimensionMismatch, NonLinearRecession,
                     ProbabilityMass, RowBlowup, UnboundedBelow,
                     ValidationError)
from .polyhedra import (EQ_TOL, _padd, _peval, _pick, _Picks, _picks_of, _pprecompose,
                        _prune_index, _pscale, _PStack, _ptake)
from .simplex import _PIVOT_EPS, solve_lp

RANK_TOL = 1e-10     # equality rows below RANK_TOL * max(1, s_max) are dropped
PSD_TOL = 1e-10      # smallest admissible eigenvalue of a quadratic form
SLOPE_TOL = 1e-12    # convexity slack for sampled knot tables
_LIN_TOL = 1e-9
_ORTHO_TOL = 1e-12   # largest |A A^T - I| entry of rows taken as orthonormal

Inf = float("inf")

PartialMin = namedtuple("PartialMin", "fn selector lineality")

# Quadratics of one dim and row count as arrays with a leading member axis:
# Q (n, d, d), q (n, d), c (n,), A (n, m, d), b (n, m).
_Stack = namedtuple("_Stack", "Q q c A b")


def _null_bases(A):
    """Orthonormal null-space basis (columns, possibly none) of each member
    of a stack of matrices; an all-zero member gets the identity, and a
    nonzero column none; rank counts singular values above 1e-10 max(r, d) s_max."""
    n, r, d = A.shape
    out = [np.eye(d)] * n
    live = np.flatnonzero((np.abs(A) > 0).any(axis=(1, 2)))
    if d == 1 or not live.size:  # a nonzero column has rank one
        bases = [np.zeros((1, 0))] * live.size
    else:
        u, s, vt = np.linalg.svd(A if live.size == n else A[live])
        rank = (s > 1e-10 * max(r, d) * s[:, :1]).sum(axis=1).tolist()
        bases = [v[k:].T for v, k in zip(vt, rank)]
    for i, K in zip(live.tolist(), bases):
        out[i] = K
    return out


def _null_basis(A):
    """Orthonormal basis of the null space of A (columns), possibly empty."""
    return _null_bases(np.atleast_2d(np.asarray(A, dtype=float))[None])[0]


def _canonical_stack(A, b):
    """Each system (A_i, b_i) of A (n, m, d), b (n, m) as orthonormal rows
    spanning its row space, with the same solution set, in (members, A, b)
    groups of one row count, first seen first; an inconsistent system
    becomes the row 0.x = 1.  Orthonormal members are kept as they are, so
    canonical rows are a fixed point; the others take one batched SVD, with
    a rank threshold absolute below unit scale: rows of rounding size with
    rounding-size right-hand sides are dropped, not rescaled into spurious
    unit rows."""
    n, m, d = A.shape
    todo = np.arange(n) if m > d else np.flatnonzero(
        np.abs(A @ A.transpose(0, 2, 1) - np.eye(m)).max(axis=(1, 2)) > _ORTHO_TOL)
    if not todo.size:
        return [(np.arange(n), A, b)]
    u, s, vt = np.linalg.svd(A[todo], full_matrices=False)
    rank = (s > RANK_TOL * np.maximum(1.0, s[:, :1])).sum(axis=1)
    out, rhs, count = A.copy(), b.copy(), np.full(n, m)
    for r in dict.fromkeys(rank.tolist()):
        # u[j] and then a column slice: the layout of one member's u[:, :r],
        # so the products below keep the bits of a member taken alone
        j = np.flatnonzero(rank == r)
        i, U, bj = todo[j], u[j][..., :r], b[todo[j]]
        coef = np.matvec(U.transpose(0, 2, 1), bj)
        bad = np.abs(bj - np.matvec(U, coef)).max(axis=1) > EQ_TOL * (1.0 + np.abs(bj).max(axis=1))
        out[i, :r], rhs[i, :r], count[i] = vt[j, :r], coef / s[j, :r], r
        if bad.any():
            out[i[bad], 0], rhs[i[bad], 0], count[i[bad]] = 0.0, 1.0, 1
    return [(i, out[i, :c], rhs[i, :c]) for c in dict.fromkeys(count.tolist())
            for i in [np.flatnonzero(count == c)]]


def _canonical_rows(A, b):
    """_canonical_stack of one system (A, b)."""
    (_, A, b), = _canonical_stack(A[None], b[None])
    return A[0], b[0]


def _is_empty(f):
    """Whether a Quadratic carries the empty-domain row 0.x = 1."""
    return f.A.shape[0] == 1 and not np.any(f.A)


def _forms(Q, check_psd=False, names=None):
    """Symmetric parts of a stack of square forms, after the constructor's
    checks: a member must be symmetric to 1e-8 relative and, with
    check_psd, have no eigenvalue below -PSD_TOL * max(1, max|Q|) (one
    eigvalsh over the stack).  The first failing member raises
    ValidationError, naming names[i] when names are given."""
    Qt = Q.transpose(0, 2, 1)
    D = np.abs(Q - Qt)
    asym = bad = None
    # every member's threshold is at least 1e-8: below it all are symmetric
    if D.max(initial=0.0) > 1e-8:
        asym = bad = D.max(axis=(1, 2)) > 1e-8 * (1.0 + np.abs(Q).max(axis=(1, 2)))
    S = Q + Qt
    S *= 0.5
    if check_psd and S.shape[1]:
        lo = np.linalg.eigvalsh(S)[:, 0]
        bad = lo < -PSD_TOL * np.maximum(1.0, np.abs(S).max(axis=(1, 2)))
        if asym is not None:
            bad |= asym
    if bad is not None and bad.any():
        i = int(np.argmax(bad))
        at = "" if names is None else f" at node {names[i]!r}"
        if asym is not None and asym[i]:
            raise ValidationError(f"Q must be symmetric{at}")
        raise ValidationError(f"quadratic form not PSD{at} (min eig {lo[i]:.3e})")
    return S


def _stack(fs):
    """The arrays of Quadratics of one dim and row count, as a _Stack."""
    if len(fs) == 1:
        f = fs[0]
        return _Stack(f.Q[None], f.q[None], np.array([f.c]), f.A[None], f.b[None])
    return _Stack(np.array([f.Q for f in fs]), np.array([f.q for f in fs]),
                  np.array([f.c for f in fs]), np.array([f.A for f in fs]),
                  np.array([f.b for f in fs]))


def _take(S, rows):
    """The members `rows` (an index array) of a _Stack or a _PStack."""
    return _ptake(S, rows) if isinstance(S, _PStack) else _Stack(*(a[rows] for a in S))


def _settled(S, new_rows=True):
    """A _Stack made by the algebra from operands with known forms, as
    (members, _Stack) groups of one row count: the forms checked and
    symmetrized at once, new rows made canonical by _canonical_stack
    (new_rows=False passes them on: canonical rows are a fixed point)."""
    S = S._replace(Q=_forms(S.Q))
    if not (S.A.shape[1] and new_rows):
        return [(np.arange(len(S.c)), S)]
    groups = _canonical_stack(S.A, S.b)
    return [(idx, (S if len(groups) == 1 else _take(S, idx))._replace(A=A, b=b))
            for idx, A, b in groups]


def _at(G, j):
    """Member j of a group: a _Stack's as a Quadratic, a _PStack's as a
    Polyhedral, a _Picks' as a PolyhedralSelector, an (F, g) stack's as an
    AffineSelector."""
    if isinstance(G, _PStack):
        (a0, a1), (c0, c1) = (np.searchsorted(m, [j, j + 1]) for m in (G.pm, G.cm))
        return _polyhedral(G.a[a0:a1], G.b[a0:a1], G.C[c0:c1], G.d[c0:c1])
    if isinstance(G, _Picks):
        return PolyhedralSelector(_picks_of(G, j))
    if not isinstance(G, _Stack):
        return _selector(G[0][j], G[1][j])
    f = Quadratic.__new__(Quadratic)
    f.dim, m = G.q.shape[1], G.A.shape[1]
    f.Q, f.q, f.c = G.Q[j], G.q[j], float(G.c[j])
    # no elements: a rowless member's rows are made, not viewed
    f.A, f.b = (G.A[j], G.b[j]) if m else (np.zeros((0, f.dim)), np.zeros(0))
    return f


def _member(layer, i):
    """Position i of a layer, a stage's (positions, group) pairs, made by
    _at; None where no group holds it."""
    for idx, G in layer:
        j = int(idx.searchsorted(i))
        if j < len(idx) and idx[j] == i:
            return _at(G, j)
    return None


def _objects(groups, n):
    """The members of (positions, group) groups by position in a list of n,
    None where no group has one, made by _at."""
    out = [None] * n
    for idx, G in groups:
        for j, i in enumerate(idx.tolist()):
            out[i] = _at(G, j)
    return out


def _derived(S, new_rows=True):
    """The Quadratics of a _Stack built by the algebra, by _settled."""
    return _objects(_settled(S, new_rows), len(S.c))


def quadratics(Q, q, c=None, A=None, b=None, names=None):
    """Quadratics 1/2 x.Q_i x + q_i.x + c_i on {A_i x = b_i}, from stacked
    Q (n, d, d), q (n, d), c (n,), A (n, m, d) and b (n, m) (c = 0 and no
    rows when not given), checked as the constructor checks one form; an
    error names the first failing member's names[i]."""
    n, d = q.shape
    S = _forms(np.asarray(Q, dtype=float), check_psd=True, names=names)
    return _derived(_Stack(S, np.asarray(q, dtype=float), np.zeros(n) if c is None else c,
                           np.zeros((n, 0, d)) if A is None else A,
                           np.zeros((n, 0)) if b is None else b))


def _precompose(S, M, t):
    """x -> f(M_i x + t_i) for every member, form symmetrized; M (n, d, k), t (n, d)."""
    Mt = M.transpose(0, 2, 1)
    A, b = ((S.A @ M, S.b - np.matvec(S.A, t)) if S.A.shape[1]
            else (np.zeros((len(M), 0, M.shape[2])), S.b))
    return _Stack(_forms(Mt @ S.Q @ M), np.matvec(Mt, np.matvec(S.Q, t) + S.q),
                  S.c + np.vecdot(S.q, t) + np.vecdot(np.vecmat(0.5 * t, S.Q), t),
                  A, b)


def _scale(S, alpha):
    """alpha_i * f_i for every member; a zero factor leaves only the domain."""
    if alpha.min(initial=0.0) < 0:
        raise ValidationError("scale factor must be nonnegative")
    Q, q, c = alpha[:, None, None] * S.Q, alpha[:, None] * S.q, alpha * S.c
    if not alpha.all():
        zero = alpha == 0
        Q[zero], q[zero], c[zero] = 0.0, 0.0, 0.0
    return _Stack(Q, q, c, S.A, S.b)


def _add(S, T):
    """f_i + g_i for every member; the rows are stacked, S's first."""
    return _Stack(S.Q + T.Q, S.q + T.q, S.c + T.c, np.concatenate([S.A, T.A], axis=1),
                  np.concatenate([S.b, T.b], axis=1))


def eval_stack(S, X):
    """f_i(X_i) = 1/2 X_i.Q_i X_i + q_i.X_i + c_i for the members of a
    _Stack S, X (n, dim); Inf where max |A_i X_i - b_i| exceeds
    EQ_TOL (1 + max |b_i|).  A stack of one is evaluated at every row of X."""
    val = np.vecdot(np.vecmat(0.5 * X, S.Q), X) + np.vecdot(S.q, X) + S.c
    if S.A.shape[1]:
        off = np.abs(np.matvec(S.A, X) - S.b).max(axis=1)
        val[off > EQ_TOL * (1.0 + np.abs(S.b).max(axis=1))] = Inf
    return val


def _affine_pstack(S):
    """The members of a _Stack with Q == 0 as one-piece members of a
    _PStack, each equality row becoming the row pair [A; -A] x <= [b; -b]."""
    n, m, d = S.A.shape
    C, rhs = np.concatenate([S.A, -S.A], axis=1), np.concatenate([S.b, -S.b], axis=1)
    return _PStack(S.q, S.c, np.arange(n), C.reshape(2 * n * m, d), rhs.ravel(),
                   np.repeat(np.arange(n), 2 * m), n)


def _affine_as_polyhedral(f):
    """A Quadratic with Q == 0 as a one-piece Polyhedral (_affine_pstack)."""
    return _at(_affine_pstack(_stack([f])), 0)


class AffineSelector:
    """Minimizer map x -> F x + g produced by quadratic partial minimization."""

    def __init__(self, F, g):
        self.F = np.atleast_2d(np.asarray(F, dtype=float))
        self.g = np.asarray(g, dtype=float).ravel()

    def __call__(self, x):
        x = np.asarray(x, dtype=float).ravel()
        return self.F @ x + self.g


def _selector(F, g):
    """AffineSelector of F (d2, d1) and g (d2,) as they are, unchecked."""
    sel = AffineSelector.__new__(AffineSelector)
    sel.F, sel.g = F, g
    return sel


def _polyhedral(a, b, C, d):
    """A Polyhedral of the given arrays as they are, unchecked."""
    f = Polyhedral.__new__(Polyhedral)
    f.pieces_a, f.pieces_b, f.C, f.d, f.dim = a, b, C, d, a.shape[1]
    return f


def _pstack(fs):
    """Polyhedrals of one dim as a _PStack."""
    if len(fs) == 1:
        f = fs[0]
        return _PStack(f.pieces_a, f.pieces_b, np.zeros(f.pieces_b.size, dtype=int), f.C, f.d,
                       np.zeros(f.d.size, dtype=int), 1)
    k = [f.pieces_a.shape[0] for f in fs]
    r = [f.C.shape[0] for f in fs]
    tags = np.repeat(np.arange(len(fs)), k), np.repeat(np.arange(len(fs)), r)
    return _PStack(np.concatenate([f.pieces_a for f in fs]),
                   np.concatenate([f.pieces_b for f in fs]), tags[0],
                   np.concatenate([f.C for f in fs]), np.concatenate([f.d for f in fs]),
                   tags[1], len(fs))


def _cone_bases(P, keep, failed):
    """The lineality bases of the members' own blocks (the trailing
    coordinates after `keep`), by _polyhedral_cone_checks: a member whose
    own block unit domain rows box, with its rows far from rank deficiency,
    has none, with no LP and no SVD; the others take the per-member checks,
    and record UnboundedBelow or NonLinearRecession in failed.

    Far from rank deficiency: for each own coordinate take its unit row with
    the largest entry u_j.  Those rows differ from a diagonal by entries of
    at most 1e-13, so the own-block rows R have smallest singular value at
    least min u_j - d2 1e-13, and largest at most |R|_F.  When the first
    exceeds 2e-10 max(rows, d2) |R|_F, the rank test of _null_basis counts
    d2 with a margin of a factor two."""
    d2 = P.a.shape[1] - keep
    Cu, au = P.C[:, keep:], P.a[:, keep:]
    s = max(_PIVOT_EPS, (d2 - 1) * 1e-13)
    r = np.flatnonzero((np.abs(Cu) > 1e-13).sum(axis=1) == 1)
    U, um = Cu[r], P.cm[r]
    up, down = np.zeros((P.n, d2), dtype=bool), np.zeros((P.n, d2), dtype=bool)
    top = np.zeros((P.n, d2))
    np.logical_or.at(up, um, U > s)
    np.logical_or.at(down, um, U < -s)
    np.maximum.at(top, um, np.abs(U))
    fro = np.sqrt(np.bincount(P.cm, np.vecdot(Cu, Cu), P.n)
                  + np.bincount(P.pm, np.vecdot(au, au), P.n))
    rows = np.bincount(P.cm, minlength=P.n) + np.bincount(P.pm, minlength=P.n)
    sure = (up & down).all(axis=1) & (
        top.min(axis=1) - d2 * 1e-13 > 2e-10 * np.maximum(rows, d2) * fro)
    lin = [np.zeros((d2, 0))] * P.n
    for i in np.flatnonzero(~sure).tolist():
        try:
            K = _polyhedral_cone_checks(_at(P, i), keep)
        except (UnboundedBelow, NonLinearRecession) as exc:
            failed[i] = exc
            continue
        lin[i] = K if K.size else np.zeros((d2, 0))
    return lin


def _poly_minima(P, over, failed, names=None):
    """Minimize each member of a _PStack over its trailing `over`
    coordinates: the value functions as a _PStack, the _Picks that select
    the minimizers, and the lineality bases, from one cone check
    (_cone_bases) and one projection of the members' epigraphs
    (polyhedra._minima).  A member's first error, in the order of those
    steps, is recorded in failed under its index; names label the _Picks'
    errors."""
    lin = _cone_bases(P, P.a.shape[1] - over, failed)
    post, steps = polyhedra._minima(P, over, failed)
    return post, _Picks(post, steps, lin, [None] * P.n if names is None else list(names)), lin


class PolyhedralSelector:
    """Minimizer map of polyhedral partial minimization: back-substitution
    through the Fourier-Motzkin systems of one node (_pick), no LP."""

    def __init__(self, picks):
        self.picks = picks

    def __call__(self, x):
        x = np.asarray(x, dtype=float).ravel()
        keep = self.picks.post.a.shape[1]
        if x.size != keep:
            raise DimensionMismatch(f"expected dim {keep}, got {x.size}")
        return _pick(self.picks, x[None])[0]


def _lacks(op):
    def method(self, *args):
        raise BackendClash(f"{op} unsupported for {type(self).__name__}")
    return method


class ConvexFn:
    """Common interface.  Quadratic and Polyhedral implement the algebra:
    add, tilt, scale, precompose(M, t) (x -> f(M x + t)), recession and
    conjugate; an operation a subclass lacks raises BackendClash."""

    dim = 0

    def eval(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)

    add, tilt, scale, precompose, recession, conjugate = map(_lacks, (
        "add", "tilt", "scale", "precompose", "recession", "conjugate"))


class Quadratic(ConvexFn):
    """1/2 x.Qx + q.x + c on {Ax = b}; +inf off that set.

    The constructor puts (A, b) in canonical form with one SVD: orthonormal
    rows, at most dim of them, spanning the row space of the given rows.
    An inconsistent system is written as the single row 0.x = 1, so the
    domain is empty and every value is +inf.
    """

    def __init__(self, Q, q, c=0.0, A=None, b=None, check_psd=True):
        Q, q = np.atleast_2d(np.asarray(Q, dtype=float)), np.asarray(q, dtype=float).ravel()
        self.dim = d = Q.shape[0] if Q.size else q.size
        Q = Q if Q.size else np.zeros((d, d))
        if Q.shape != (d, d):
            raise DimensionMismatch("Q must be square")
        if q.size != d:
            raise DimensionMismatch("q has wrong length")
        if A is None or (hasattr(A, "__len__") and len(A) == 0):
            A = np.zeros((0, d))
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(() if b is None else b, dtype=float).ravel()
        if A.shape != (b.size, d):
            raise DimensionMismatch("constraint block shapes disagree")
        self.Q, self.q, self.c = _forms(Q[None], check_psd)[0], q, float(c)
        self.A, self.b = _canonical_rows(A, b) if b.size else (A, b)

    @staticmethod
    def point_indicator(point):
        point = np.asarray(point, dtype=float).ravel()
        d = point.size
        return Quadratic(np.zeros((d, d)), np.zeros(d), 0.0, np.eye(d), point)

    def eval(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.size}")
        return float(eval_stack(_stack([self]), x[None])[0])

    def add(self, other):
        if isinstance(other, Quadratic):
            if other.dim != self.dim:
                raise DimensionMismatch("dimension mismatch in add")
            return _derived(_add(_stack([self]), _stack([other])))[0]
        if isinstance(other, Polyhedral) and not np.any(self.Q):
            return _affine_as_polyhedral(self).add(other)
        raise BackendClash(f"cannot add {type(other).__name__} to Quadratic")

    def tilt(self, v):
        v = np.asarray(v, dtype=float).ravel()
        S = _stack([self])
        return _derived(S._replace(q=S.q + v), new_rows=False)[0]

    def scale(self, alpha):
        return _derived(_scale(_stack([self]), np.array([alpha], dtype=float)), new_rows=False)[0]

    def precompose(self, M, t):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        t = np.asarray(t, dtype=float).ravel()
        return _derived(_precompose(_stack([self]), M[None], t[None]))[0]

    def recession(self):
        return _recessions([self])[0]

    def conjugate(self, v):
        return _conjugates([self], [np.asarray(v, dtype=float).ravel()])[0]


class Polyhedral(ConvexFn):
    """max_i (a_i.x + b_i) on {Cx <= d}; +inf outside."""

    def __init__(self, pieces_a, pieces_b, C=None, d=None):
        self.pieces_a = np.atleast_2d(np.asarray(pieces_a, dtype=float))
        self.pieces_b = np.asarray(pieces_b, dtype=float).ravel()
        if self.pieces_a.shape[0] == 0:
            raise ValidationError("piece list must be nonempty")
        if self.pieces_a.shape[0] > polyhedra.DEFAULT_ROW_CAP:
            raise RowBlowup(
                f"piece list exceeds {polyhedra.DEFAULT_ROW_CAP} rows")
        self.dim = self.pieces_a.shape[1]
        if self.pieces_b.size != self.pieces_a.shape[0]:
            raise DimensionMismatch("piece offsets disagree with gradients")
        no_rows = C is None or (hasattr(C, "__len__") and len(C) == 0)
        self.C = np.zeros((0, self.dim)) if no_rows else np.atleast_2d(np.asarray(C, dtype=float))
        self.d = np.asarray(() if d is None else d, dtype=float).ravel()
        if self.C.shape != (self.d.size, self.dim):
            raise DimensionMismatch("domain block shapes disagree")

    @staticmethod
    def affine(a, b=0.0):
        a = np.asarray(a, dtype=float).ravel()
        return Polyhedral(a.reshape(1, -1), [b])

    def eval(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.size}")
        return float(_peval(_pstack([self]), x[None])[0])

    def epigraph(self):
        """Inequality system (G, h) of the epigraph over (x, tau): one row
        a.x - tau <= -b per piece, then one row c.x <= d per domain row."""
        n = self.pieces_a.shape[0]
        G = np.zeros((n + self.C.shape[0], self.dim + 1))
        G[:n, :-1] = self.pieces_a
        G[:n, -1] = -1.0
        G[n:, :-1] = self.C
        return G, np.concatenate([-self.pieces_b, self.d])

    def add(self, other):
        if isinstance(other, Quadratic) and not np.any(other.Q):
            other = _affine_as_polyhedral(other)
        if isinstance(other, Polyhedral):
            if other.dim != self.dim:
                raise DimensionMismatch("dimension mismatch in add")
            failed = {}
            S = _padd(_pstack([self]), _pstack([other]), failed)
            if failed:
                raise failed[0]
            return _at(S, 0)
        raise BackendClash(f"cannot add {type(other).__name__} to Polyhedral")

    def tilt(self, v):
        v = np.asarray(v, dtype=float).ravel()
        return Polyhedral(self.pieces_a + v, self.pieces_b, self.C, self.d)

    def scale(self, alpha):
        return _at(_pscale(_pstack([self]), np.array([alpha], dtype=float)), 0)

    def precompose(self, M, t):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        t = np.asarray(t, dtype=float).ravel()
        return _at(_pprecompose(_pstack([self]), M[None], t[None]), 0)

    def recession(self):
        return Polyhedral(self.pieces_a, np.zeros_like(self.pieces_b),
                          self.C, np.zeros_like(self.d))

    def conjugate(self, v):
        v = np.asarray(v, dtype=float).ravel()
        _dual_point(self, v)
        # min (tau - v.x) over the epigraph
        res = solve_lp(np.concatenate([-v, [1.0]]), *self.epigraph())
        if res.status == "unbounded":
            return Inf
        if res.status == "infeasible":
            return -Inf
        return -res.value


class Sampled1D(ConvexFn):
    """Convex piecewise-linear table on a strictly increasing knot grid,
    +inf off the knot range; it evaluates, and the algebra refuses it."""

    def __init__(self, knots, values):
        self.knots = np.asarray(knots, dtype=float).ravel()
        self.values = np.asarray(values, dtype=float).ravel()
        self.dim = 1
        if self.knots.size != self.values.size or self.knots.size == 0:
            raise DimensionMismatch("knots and values must match and be nonempty")
        if self.knots.size > 1:
            gaps = np.diff(self.knots)
            if np.any(gaps <= 0):
                raise ValidationError("knot grid must be strictly increasing")
            slopes = np.diff(self.values) / gaps
            if np.any(np.diff(slopes) < -SLOPE_TOL * (1.0 + np.max(np.abs(slopes)))):
                raise ValidationError("secant slopes must be nondecreasing")

    def eval(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != 1:
            raise DimensionMismatch(f"expected dim 1, got {x.size}")
        if x[0] < self.knots[0] - 1e-12 or x[0] > self.knots[-1] + 1e-12:
            return Inf
        return float(np.interp(x[0], self.knots, self.values))


def _prune_pieces(pa, pb, C, d):
    """Pieces of max_i (pa_i.x + pb_i) on {Cx <= d} worth keeping
    (_prune_index of a stack of one)."""
    pa, pb = np.array(pa, dtype=float), np.array(pb, dtype=float)
    C, d = np.asarray(C, dtype=float).reshape(-1, pa.shape[1]), np.asarray(d, dtype=float)
    keep = _prune_index(_PStack(pa, pb, np.zeros(len(pb), dtype=int), C, d,
                                np.zeros(len(d), dtype=int), 1))
    return pa[keep], pb[keep]


def cond_expect_fn(children):
    """Probability-weighted sum of node functions; domain = intersection.

    children is a sequence of (pi, fn) with pi > 0 summing to one (to 1e-12).
    """
    children = list(children)
    if not children:
        raise ValidationError("no children supplied")
    total = sum(p for p, _ in children)
    if abs(total - 1.0) > 1e-12:
        raise ProbabilityMass(f"branch probabilities sum to {total!r}")
    dim = children[0][1].dim
    if any(fn.dim != dim for _, fn in children):
        raise DimensionMismatch("children disagree on dimension")
    acc = children[0][1].scale(children[0][0])
    for p, fn in children[1:]:
        acc = acc.add(fn.scale(p))
    return acc


def recession(f):
    """Horizon function of f (per-backend closed form), itself a backend
    object of the same kind as f."""
    return f.recession()


def _recessions(fns):
    """The horizon functions of fns, by position: a Quadratic's is q.d on
    ker Q intersected with {Ad = 0}, +inf elsewhere (everywhere when its
    domain is empty), made with one SVD of the forms of each dim and row
    count and one _derived call per rank; others take their method."""
    out, groups = [None] * len(fns), {}
    for i, f in enumerate(fns):
        if isinstance(f, Quadratic):
            groups.setdefault((f.dim, f.A.shape[0]), []).append(i)
        else:
            out[i] = f.recession()
    for pos in groups.values():
        S = _stack([fns[i] for i in pos])
        d = S.q.shape[1]
        _, s, vt = np.linalg.svd(S.Q)
        rank = (s > 1e-10 * d * s[:, :1]).sum(axis=1)
        # {Ad = 0}; the empty row 0.x = 1 of canonical rows keeps its 1
        b = np.where(S.A.any(axis=2), 0.0, S.b)
        for r in dict.fromkeys(rank.tolist()):
            idx = np.flatnonzero(rank == r)
            k = len(idx)
            fs = _derived(_Stack(np.zeros((k, d, d)), S.q[idx], np.zeros(k),
                                 np.concatenate([S.A[idx], vt[idx, :r]], axis=1),
                                 np.concatenate([b[idx], np.zeros((k, r))], axis=1)))
            for i, f in zip(idx.tolist(), fs):
                out[pos[i]] = f
    return out


def lineality_space(fn):
    """Lineality space {d : fn(d) <= 0 and fn(-d) <= 0} of a horizon
    function, as an orthonormal basis array with one column per direction."""
    if isinstance(fn, Quadratic):  # rows [A; range of Q] made canonical by _recessions
        return _null_basis(np.vstack([_recessions([fn])[0].A, fn.q.reshape(1, -1)]))
    if isinstance(fn, Polyhedral):
        return _null_basis(np.vstack([fn.C, fn.pieces_a]))
    raise BackendClash(f"no lineality rule for {type(fn).__name__}")


def _kkt_minima(S, over):
    """Minimize each member of a _Stack over its trailing `over`
    coordinates: the value functions as _settled groups, the minimizer
    maps x -> F_i x + g_i as stacks F and g, the lineality bases, and
    {member: reason} of the members unbounded below, in member order.

    Null bases of [Quu; Au] come from one batched SVD, and the coupling
    and drift checks run on the members with flat directions.  The KKT
    systems take one batched pinv.
    """
    n, d = S.q.shape
    d1, d2 = d - over, over
    m = S.A.shape[1]
    # x -> (x, F x + g): F and g are views into the substitution map
    sub_M = np.zeros((n, d, d1))
    sub_M[:, :d1] = np.eye(d1)
    sub_t = np.zeros((n, d))
    F, g = sub_M[:, d1:], sub_t[:, d1:]
    lin = [np.zeros((d2, 0))] * n
    unbounded = {}
    # an empty member (the row 0.x = 1) is +inf at every kept point; its
    # restriction to u = 0 stays empty
    live = np.flatnonzero(S.A.any(axis=(1, 2))) if m == 1 else np.arange(n)
    sel = slice(None) if live.size == n else live
    if live.size:
        Q, q, A, b = S.Q[sel], S.q[sel], S.A[sel], S.b[sel]
        Qxu = Q[:, :d1, d1:]
        Quu = Q[:, d1:, d1:]
        Au = A[:, :, d1:]
        K = _null_bases(np.concatenate([Quu, Au], axis=1))
        flat = [j for j, Kj in enumerate(K) if Kj.size]
        for j in flat:
            Kj = K[j]
            qu = q[j, d1:]
            # joint convexity gives Qxu d = 0 on K; outside that regime the
            # value would depend on x with the wrong sign: unbounded territory
            if np.max(np.abs(Qxu[j] @ Kj), initial=0.0) > \
                    _LIN_TOL * (1.0 + np.max(np.abs(Qxu[j]), initial=0.0)):
                unbounded[live[j]] = "free direction couples to kept coordinates"
            elif np.max(np.abs(Kj.T @ qu), initial=0.0) > _LIN_TOL * (1.0 + np.linalg.norm(qu)):
                unbounded[live[j]] = "linear drift along a zero-curvature direction"
        KKT = Quu  # with no rows the KKT matrix is Quu itself
        if m:
            KKT = np.zeros((live.size, d2 + m, d2 + m))
            KKT[:, :d2, :d2] = Quu
            KKT[:, :d2, d2:] = Au.transpose(0, 2, 1)
            KKT[:, d2:, :d2] = Au
        P = np.linalg.pinv(KKT, rcond=1e-12)
        R = -np.concatenate([Q[:, d1:, :d1], A[:, :, :d1]], axis=1)
        r0 = np.concatenate([-q[:, d1:], b], axis=1)
        Fl = (P @ R)[:, :d2]
        gl = np.matvec(P, r0)[:, :d2]
        F[sel], g[sel] = Fl, gl
        for j in flat:
            Kj, i = K[j], live[j]
            lin[i] = Kj
            F[i] = Fl[j] - Kj @ (Kj.T @ Fl[j])
            g[i] = gl[j] - Kj @ (Kj.T @ gl[j])
    return _settled(_precompose(S, sub_M, sub_t)), F, g, lin, unbounded


def _quadratic_partial_min(S, over, nodes=None):
    """_kkt_minima with a PartialMin per member: the value functions as
    _settled groups, and a list of PartialMin.  The first member unbounded
    below raises UnboundedBelow, naming nodes[i] when nodes are given."""
    post, F, g, lin, unbounded = _kkt_minima(S, over)
    if unbounded:
        i, why = next(iter(unbounded.items()))
        raise UnboundedBelow(why, node=None if nodes is None else nodes[i])
    return post, [PartialMin(fn, _selector(Fi, gi), Ki)
                  for fn, Fi, gi, Ki in zip(_objects(post, len(F)), F, g, lin)]


def _dual_point(f, v):
    """Raise DimensionMismatch unless v is a vector of f's dim."""
    if np.shape(v) != (f.dim,):
        raise DimensionMismatch(f"expected a dual point of dim {f.dim}, got {np.size(v)}")


def _conjugates(fns, V):
    """f_i*(v_i) = sup_x v_i.x - f_i(x) for each function and dual point,
    as a list: Inf where f_i - v_i.x is unbounded below, -Inf on an empty
    domain.  Quadratics of one dim and row count take one _kkt_minima of
    the tilted stack over every coordinate, and read the constants of its
    dimension-0 value stacks (a stack with the row 0.x = 1 is empty);
    other functions take their conjugate, the epigraph LP.  A dual point
    that is not a vector of its function's dim raises DimensionMismatch."""
    out, groups = [None] * len(fns), {}
    for i, f in enumerate(fns):
        _dual_point(f, V[i])
        if isinstance(f, Quadratic):
            groups.setdefault((f.dim, f.A.shape[0]), []).append(i)
        else:
            out[i] = f.conjugate(V[i])
    for pos in groups.values():
        S = _stack([fns[i] for i in pos])
        S = S._replace(q=S.q - np.array([V[i] for i in pos]))
        post, *_, unbounded = _kkt_minima(S, S.q.shape[1])
        for idx, P in post:
            for j, val in zip(idx.tolist(), [-Inf] * len(idx) if P.A.shape[1] else (-P.c).tolist()):
                out[pos[j]] = Inf if j in unbounded else val
    return out


def _polyhedral_cone_checks(f, keep):
    """Linearity of {d : f^inf(0, d) <= 0}; raises on failure.

    Returns the null basis of the nonzero own-block rows.  The check is an
    LP over the recession cone within the unit box; a second LP tells a
    strictly negative direction from a one-sided cone.  A boxed own block
    needs no LP.  Let s be the larger of the simplex's pivot tolerance and
    (d2 - 1) 1e-13.  When every own coordinate is bounded both ways by unit
    domain rows (one entry above 1e-13) whose entry r has |r| > s, the cone
    is {0}: the other entries of such a row sum to at most s in magnitude,
    so at a coordinate of largest magnitude M its row gives |r| M <= s M.
    The check then passes, also where the LP, pivoting on unit entries of
    about 1e-3 or less next to O(1) rows, would return a point off the cone
    and report a one-sided cone.
    """
    d2 = f.dim - keep
    rows = np.vstack([f.C[:, keep:], f.pieces_a[:, keep:]])
    rows = rows[np.max(np.abs(rows), axis=1) > 1e-13] if rows.size else rows
    if rows.size == 0:
        return np.eye(d2)  # f^inf(0, .) == 0 everywhere: every direction is flat
    s = max(_PIVOT_EPS, (d2 - 1) * 1e-13)
    Cu = f.C[:, keep:]
    U = Cu[(np.abs(Cu) > 1e-13).sum(axis=1) == 1]
    if ((U > s).any(axis=0) & (U < -s).any(axis=0)).all():
        return _null_basis(rows)
    box = np.vstack([np.eye(d2), -np.eye(d2)])
    A_ub = np.vstack([rows, box])
    b_ub = np.concatenate([np.zeros(rows.shape[0]), np.ones(2 * d2)])
    res = solve_lp(rows.sum(axis=0), A_ub, b_ub)
    if res.status == "optimal" and res.value < -_LIN_TOL:
        # some admissible direction leaves a row strictly negative: minimize
        # tau over the recession epigraph in the u block, within the box
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


def partial_min(f, over):
    """Minimize f over its trailing `over` coordinates.

    Returns PartialMin(fn, selector, lineality): fn is the value function on
    the kept block, selector maps a kept point to a minimizer orthogonal to
    the lineality basis of the flat directions, lineality is that basis.
    """
    if over < 0 or over > f.dim:
        raise DimensionMismatch("cannot minimize over more coordinates than exist")
    keep = f.dim - over
    if over == 0:
        zero = np.zeros((0, 0))
        return PartialMin(f, AffineSelector(np.zeros((0, keep)), np.zeros(0)), zero)
    if isinstance(f, Quadratic):
        return _quadratic_partial_min(_stack([f]), over)[1][0]
    if isinstance(f, Polyhedral):
        failed = {}
        post, picks, lin = _poly_minima(_pstack([f]), over, failed)
        if failed:
            raise failed[0]
        return PartialMin(_at(post, 0), PolyhedralSelector(picks), lin[0])
    raise BackendClash(f"partial_min unsupported for {type(f).__name__}")

