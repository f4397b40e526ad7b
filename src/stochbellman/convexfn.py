"""Algebra of representable extended-real convex functions on R^d.

Three backends are closed under the operations the backward recursion needs:

* Quadratic   -- 1/2 x.Qx + q.x + c on an affine set {Ax = b}; partial
                 minimization via a KKT pseudoinverse solve.  The rows are
                 kept canonical: orthonormal, at most dim of them, or the
                 single row 0.x = 1 for an empty domain.
* Polyhedral  -- max of affine pieces on a polyhedron {Cx <= d}; partial
                 minimization via Fourier-Motzkin projection of the epigraph.
* Sampled1D   -- piecewise-linear interpolation of a convex knot table,
                 +inf outside the knot range.

Values are floats with +inf for points outside the effective domain; -inf
never occurs because every backend tracks its domain explicitly.  All
instances are immutable; operations return new objects.  A sum stays in one
backend: an affine Quadratic joins a Polyhedral as one piece, and any other
cross-backend sum raises BackendClash.  Recession functions are backend
objects and lineality spaces are orthonormal basis arrays.
"""

from collections import namedtuple

import numpy as np

from . import polyhedra
from .errors import (BackendClash, DimensionMismatch, NonLinearRecession,
                     ProbabilityMass, RowBlowup, UnboundedBelow,
                     ValidationError)
from .simplex import solve_lp

EQ_TOL = 1e-8        # membership tolerance for affine-equality domains
RANK_TOL = 1e-10     # equality rows below RANK_TOL * max(1, s_max) are dropped
PSD_TOL = 1e-10      # smallest admissible eigenvalue of a quadratic form
SLOPE_TOL = 1e-12    # convexity slack for sampled knot tables
_LIN_TOL = 1e-9
_ORTHO_TOL = 1e-12   # largest |A A^T - I| entry of rows taken as orthonormal

Inf = float("inf")

PartialMin = namedtuple("PartialMin", "fn selector lineality")


def _null_basis(A, rcond=1e-10):
    """Orthonormal basis of the null space of A (columns), possibly empty."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[1]
    if A.size == 0 or not np.any(np.abs(A) > 0):
        return np.eye(n)
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > rcond * max(A.shape) * (s[0] if s.size else 1.0)))
    return vt[rank:].T


def _range_basis(A, rcond=1e-10):
    """Orthonormal basis of the row space of A (as columns of the result)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return np.zeros((A.shape[1] if A.ndim == 2 else 0, 0))
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > rcond * max(A.shape) * (s[0] if s.size else 1.0)))
    return vt[:rank].T


def _canonical_rows(A, b):
    """(A, b) as orthonormal rows spanning its row space, with the same
    solution set; an inconsistent system becomes the row 0.x = 1.

    Orthonormal input is returned as it is, so canonical rows are a fixed
    point.  The rank threshold is absolute below unit scale: rows of
    rounding size with rounding-size right-hand sides are dropped, not
    rescaled into spurious unit rows.
    """
    m, d = A.shape
    if m <= d and np.max(np.abs(A @ A.T - np.eye(m))) <= _ORTHO_TOL:
        return A, b
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 0.0)))
    coef = u[:, :rank].T @ b
    if np.max(np.abs(b - u[:, :rank] @ coef)) > EQ_TOL * (1.0 + np.max(np.abs(b))):
        return np.zeros((1, d)), np.ones(1)
    return vt[:rank], coef / s[:rank]


def _is_empty(f):
    """Whether a Quadratic carries the empty-domain row 0.x = 1."""
    return f.A.shape[0] == 1 and not np.any(f.A)


def _derived(psd, Q, q, c, A, b):
    """A Quadratic built by the algebra from operands with known forms: it
    inherits their `psd` flag, and eigvalsh is not run again."""
    out = Quadratic(Q, q, c, A, b, check_psd=False)
    out.psd = psd
    return out


def _affine_as_polyhedral(f):
    """A Quadratic with Q == 0 as a one-piece Polyhedral; each equality row
    becomes a pair of opposite inequality rows."""
    return Polyhedral(f.q.reshape(1, -1), [f.c],
                      np.vstack([f.A, -f.A]), np.concatenate([f.b, -f.b]))


class AffineSelector:
    """Minimizer map x -> F x + g produced by quadratic partial minimization."""

    def __init__(self, F, g):
        self.F = np.atleast_2d(np.asarray(F, dtype=float))
        self.g = np.asarray(g, dtype=float).ravel()

    def __call__(self, x):
        x = np.asarray(x, dtype=float).ravel()
        return self.F @ x + self.g


class LPSelector:
    """Minimizer map for polyhedral partial minimization (one LP per call)."""

    def __init__(self, fn, n_keep, lineality):
        self._fn = fn
        self._n_keep = n_keep
        self._lin = lineality

    def __call__(self, x):
        x = np.asarray(x, dtype=float).ravel()
        k = self._n_keep
        # variables (u, tau): minimize tau over the epigraph slice at x
        G, h = self._fn.epigraph()
        cost = np.zeros(G.shape[1] - k)
        cost[-1] = 1.0
        res = solve_lp(cost, G[:, k:], h - G[:, :k] @ x)
        if res.status == "unbounded":
            raise UnboundedBelow("selector LP unbounded")
        if res.status == "infeasible":
            raise ValidationError("selector LP infeasible at given point")
        u = res.x[:-1]
        if self._lin.size:
            u = u - self._lin @ (self._lin.T @ u)
        return u


class ConvexFn:
    """Common interface; subclasses implement the actual arithmetic."""

    dim = 0

    def eval(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)

    def add(self, other):
        raise NotImplementedError

    def tilt(self, v):
        raise NotImplementedError

    def scale(self, alpha):
        raise NotImplementedError

    def precompose(self, M, t):
        """Return x -> f(M x + t)."""
        raise NotImplementedError

    def recession(self):
        raise NotImplementedError

    def conjugate(self, v):
        raise NotImplementedError


class Quadratic(ConvexFn):
    """1/2 x.Qx + q.x + c on {Ax = b}; +inf off that set.

    The constructor puts (A, b) in canonical form with one SVD: orthonormal
    rows, at most dim of them, spanning the row space of the given rows.
    An inconsistent system is written as the single row 0.x = 1, so the
    domain is empty and every value is +inf.  `psd` records that Q passed
    the eigenvalue check, here or, for results of the algebra, in the
    operands they were built from.
    """

    def __init__(self, Q, q, c=0.0, A=None, b=None, check_psd=True):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        self.dim = Q.shape[0] if Q.size else len(np.asarray(q, dtype=float).ravel())
        if Q.size == 0:
            Q = np.zeros((self.dim, self.dim))
        if Q.shape != (self.dim, self.dim):
            raise DimensionMismatch("Q must be square")
        if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-8 * (1.0 + np.max(np.abs(Q), initial=0.0)):
            raise ValidationError("Q must be symmetric")
        self.Q = 0.5 * (Q + Q.T)
        self.q = np.asarray(q, dtype=float).ravel()
        if self.q.size != self.dim:
            raise DimensionMismatch("q has wrong length")
        self.c = float(c)
        if A is None or (hasattr(A, "__len__") and len(A) == 0):
            self.A = np.zeros((0, self.dim))
            self.b = np.zeros(0)
        else:
            self.A = np.atleast_2d(np.asarray(A, dtype=float))
            self.b = np.asarray(b, dtype=float).ravel()
            if self.A.shape[1] != self.dim or self.A.shape[0] != self.b.size:
                raise DimensionMismatch("constraint block shapes disagree")
            self.A, self.b = _canonical_rows(self.A, self.b)
        self.psd = check_psd
        if check_psd and self.dim:
            lo = float(np.linalg.eigvalsh(self.Q)[0])
            if lo < -PSD_TOL * max(1.0, float(np.max(np.abs(self.Q)))):
                raise ValidationError(f"quadratic form not PSD (min eig {lo:.3e})")

    @staticmethod
    def constant(value, dim=0):
        return Quadratic(np.zeros((dim, dim)), np.zeros(dim), value)

    @staticmethod
    def point_indicator(point):
        point = np.asarray(point, dtype=float).ravel()
        d = point.size
        return Quadratic(np.zeros((d, d)), np.zeros(d), 0.0, np.eye(d), point)

    def eval(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.size}")
        if self.A.shape[0]:
            if np.max(np.abs(self.A @ x - self.b)) > EQ_TOL * (1.0 + np.max(np.abs(self.b))):
                return Inf
        return float(0.5 * x @ self.Q @ x + self.q @ x + self.c)

    def add(self, other):
        if isinstance(other, Quadratic):
            if other.dim != self.dim:
                raise DimensionMismatch("dimension mismatch in add")
            return _derived(self.psd and other.psd, self.Q + other.Q, self.q + other.q,
                            self.c + other.c, np.vstack([self.A, other.A]),
                            np.concatenate([self.b, other.b]))
        if isinstance(other, Polyhedral) and not np.any(self.Q):
            return _affine_as_polyhedral(self).add(other)
        raise BackendClash(f"cannot add {type(other).__name__} to Quadratic")

    def tilt(self, v):
        v = np.asarray(v, dtype=float).ravel()
        return _derived(self.psd, self.Q, self.q + v, self.c, self.A, self.b)

    def scale(self, alpha):
        if alpha < 0:
            raise ValidationError("scale factor must be nonnegative")
        if alpha == 0:
            return _derived(True, np.zeros_like(self.Q), np.zeros_like(self.q), 0.0,
                            self.A, self.b)
        return _derived(self.psd, alpha * self.Q, alpha * self.q, alpha * self.c,
                        self.A, self.b)

    def precompose(self, M, t):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        t = np.asarray(t, dtype=float).ravel()
        Q2 = M.T @ self.Q @ M
        q2 = M.T @ (self.Q @ t + self.q)
        c2 = self.c + self.q @ t + 0.5 * t @ self.Q @ t
        A2 = self.A @ M
        b2 = self.b - self.A @ t
        return _derived(self.psd, Q2, q2, float(c2), A2, b2)

    def recession(self):
        # f^inf(d) = q.d on ker Q intersected with {Ad = 0}; +inf elsewhere,
        # and +inf everywhere when the domain is empty
        zero = np.zeros((self.dim, self.dim))
        if _is_empty(self):
            return _derived(True, zero, self.q, 0.0, self.A, self.b)
        V = _range_basis(self.Q)
        rows = np.vstack([self.A, V.T]) if V.size else self.A
        return _derived(True, zero, self.q, 0.0, rows, np.zeros(rows.shape[0]))

    def conjugate(self, v):
        v = np.asarray(v, dtype=float).ravel()
        try:
            pm = partial_min(self.tilt(-v), over=self.dim)
        except UnboundedBelow:
            return Inf
        val = pm.fn.eval(np.zeros(0))
        return -val  # -inf when the domain is empty (val = +inf)


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
        if C is None or (hasattr(C, "__len__") and len(C) == 0):
            self.C = np.zeros((0, self.dim))
            self.d = np.zeros(0)
        else:
            self.C = np.atleast_2d(np.asarray(C, dtype=float))
            self.d = np.asarray(d, dtype=float).ravel()
            if self.C.shape[1] != self.dim:
                raise DimensionMismatch("domain rows have wrong width")

    @staticmethod
    def affine(a, b=0.0):
        a = np.asarray(a, dtype=float).ravel()
        return Polyhedral(a.reshape(1, -1), [b])

    def eval(self, x):
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.size}")
        if self.C.shape[0]:
            scale = 1.0 + np.max(np.abs(self.d), initial=0.0)
            if np.max(self.C @ x - self.d) > EQ_TOL * scale:
                return Inf
        return float(np.max(self.pieces_a @ x + self.pieces_b))

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
        if isinstance(other, Polyhedral):
            if other.dim != self.dim:
                raise DimensionMismatch("dimension mismatch in add")
            pa = (self.pieces_a[:, None, :] + other.pieces_a[None, :, :]).reshape(-1, self.dim)
            pb = (self.pieces_b[:, None] + other.pieces_b[None, :]).reshape(-1)
            C = np.vstack([self.C, other.C])
            d = np.concatenate([self.d, other.d])
            return Polyhedral(*_prune_pieces(pa, pb, C, d), C, d)
        if isinstance(other, Quadratic) and not np.any(other.Q):
            return self.add(_affine_as_polyhedral(other))
        raise BackendClash(f"cannot add {type(other).__name__} to Polyhedral")

    def tilt(self, v):
        v = np.asarray(v, dtype=float).ravel()
        return Polyhedral(self.pieces_a + v, self.pieces_b, self.C, self.d)

    def scale(self, alpha):
        if alpha < 0:
            raise ValidationError("scale factor must be nonnegative")
        if alpha == 0:
            return Polyhedral(np.zeros((1, self.dim)), [0.0], self.C, self.d)
        return Polyhedral(alpha * self.pieces_a, alpha * self.pieces_b, self.C, self.d)

    def precompose(self, M, t):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        t = np.asarray(t, dtype=float).ravel()
        pa = self.pieces_a @ M
        pb = self.pieces_b + self.pieces_a @ t
        C2 = self.C @ M
        d2 = self.d - self.C @ t
        return Polyhedral(pa, pb, C2, d2)

    def recession(self):
        return Polyhedral(self.pieces_a, np.zeros_like(self.pieces_b),
                          self.C, np.zeros_like(self.d))

    def conjugate(self, v):
        v = np.asarray(v, dtype=float).ravel()
        # min (tau - v.x) over the epigraph
        res = solve_lp(np.concatenate([-v, [1.0]]), *self.epigraph())
        if res.status == "unbounded":
            return Inf
        if res.status == "infeasible":
            return -Inf
        return -res.value


class Sampled1D(ConvexFn):
    """Convex piecewise-linear table on a strictly increasing knot grid."""

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
        x = float(np.asarray(x, dtype=float).ravel()[0]) if np.ndim(x) else float(x)
        if x < self.knots[0] - 1e-12 or x > self.knots[-1] + 1e-12:
            return Inf
        return float(np.interp(x, self.knots, self.values))

    def add(self, other):
        if not isinstance(other, Sampled1D):
            raise BackendClash(f"cannot add {type(other).__name__} to Sampled1D")
        lo = max(self.knots[0], other.knots[0])
        hi = min(self.knots[-1], other.knots[-1])
        if lo > hi + 1e-12:
            raise ValidationError("sampled domains do not intersect")
        grid = np.unique(np.clip(np.concatenate([self.knots, other.knots, [lo, hi]]), lo, hi))
        # every grid point lies in both domains, so interp needs no mask
        vals = (np.interp(grid, self.knots, self.values)
                + np.interp(grid, other.knots, other.values))
        return Sampled1D(grid, vals)

    def tilt(self, v):
        v = float(np.asarray(v, dtype=float).ravel()[0]) if np.ndim(v) else float(v)
        return Sampled1D(self.knots, self.values + v * self.knots)

    def scale(self, alpha):
        if alpha < 0:
            raise ValidationError("scale factor must be nonnegative")
        return Sampled1D(self.knots, alpha * self.values)

    def precompose(self, M, t):
        m = float(np.asarray(M, dtype=float).ravel()[0])
        t = float(np.asarray(t, dtype=float).ravel()[0])
        if abs(m) < 1e-14:
            raise BackendClash("sampled backend requires an invertible 1-D map")
        knots = (self.knots - t) / m
        vals = self.values
        if m < 0:
            knots, vals = knots[::-1], vals[::-1]
        return Sampled1D(knots, vals)

    def recession(self):
        # bounded domain: horizon function is the indicator of {0}
        return Sampled1D([0.0], [0.0])

    def conjugate(self, v):
        v = float(np.asarray(v, dtype=float).ravel()[0]) if np.ndim(v) else float(v)
        return float(np.max(v * self.knots - self.values))


def _prune_pieces(pa, pb, C, d):
    """Pieces of max_i (pa_i.x + pb_i) on {Cx <= d} worth keeping.

    Of pieces with equal gradients only the highest survives.  Above 32
    pieces, when unit rows of C bound every coordinate both ways, pieces
    lying below another piece on the whole box are dropped (interval
    bound, no LP).
    """
    pa, pb = np.array(pa, dtype=float), np.array(pb, dtype=float)
    keep = polyhedra.first_minimal(pa, -pb)
    pa, pb = pa[keep], pb[keep]
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
    for j in np.argsort(-(pa @ center + pb)):  # high pieces first as dominators
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


def cond_expect_fn(children, tol=1e-12):
    """Probability-weighted sum of node functions; domain = intersection.

    children is a sequence of (pi, fn) with pi > 0 summing to one.
    """
    children = list(children)
    if not children:
        raise ValidationError("no children supplied")
    total = sum(p for p, _ in children)
    if abs(total - 1.0) > tol:
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


def lineality_space(fn):
    """Lineality space {d : fn(d) <= 0 and fn(-d) <= 0} of a horizon
    function, as an orthonormal basis array with one column per direction."""
    if isinstance(fn, Quadratic):
        return _null_basis(np.vstack([fn.A, _range_basis(fn.Q).T, fn.q.reshape(1, -1)]))
    if isinstance(fn, Polyhedral):
        return _null_basis(np.vstack([fn.C, fn.pieces_a]))
    if isinstance(fn, Sampled1D):
        # sampled domains are bounded, so only the zero direction is flat
        return np.zeros((1, 0))
    raise BackendClash(f"no lineality rule for {type(fn).__name__}")


def _quadratic_partial_min(f, keep):
    d1, d2 = keep, f.dim - keep
    if _is_empty(f):
        # +inf at every kept point; the restriction to u = 0 stays empty
        F = np.zeros((d2, d1))
        out = f.precompose(np.vstack([np.eye(d1), F]), np.zeros(f.dim))
        return PartialMin(out, AffineSelector(F, np.zeros(d2)), np.zeros((d2, 0)))
    Q, q, A, b = f.Q, f.q, f.A, f.b
    Qxu = Q[:d1, d1:]
    Quu = Q[d1:, d1:]
    Qux = Q[d1:, :d1]
    qu = q[d1:]
    Au = A[:, d1:]
    Ax = A[:, :d1]

    K = _null_basis(np.vstack([Quu, Au]))
    if K.size:
        # joint convexity gives Qxu d = 0 on K; outside that regime the value
        # would depend on x with the wrong sign, which is unbounded territory
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
    out = f.precompose(sub_M, sub_t)
    return PartialMin(out, AffineSelector(F, g), K if K.size else np.zeros((d2, 0)))


def _polyhedral_cone_checks(f, keep):
    """Linearity of {d : f^inf(0, d) <= 0}; raises on failure."""
    d2 = f.dim - keep
    rows = np.vstack([f.C[:, keep:], f.pieces_a[:, keep:]])
    rows = rows[np.max(np.abs(rows), axis=1) > 1e-13] if rows.size else rows
    if rows.size == 0:
        return np.eye(d2)  # f^inf(0, .) == 0 everywhere: every direction is flat
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


def _polyhedral_partial_min(f, keep):
    d2 = f.dim - keep
    K = _polyhedral_cone_checks(f, keep)
    # epigraph over column order (x, tau, u); eliminate trailing u block
    G, h = f.epigraph()
    G = np.hstack([G[:, :keep], G[:, -1:], G[:, keep:-1]])
    Gp, hp = polyhedra.fm_project(G, h, d2)
    pieces_a, pieces_b, dom_C, dom_d = [], [], [], []
    for row, rhs in zip(Gp, hp):
        tau = row[keep]
        if tau < -1e-11:
            pieces_a.append(row[:keep] / (-tau))
            pieces_b.append(-rhs / (-tau))
        elif tau > 1e-11:
            raise ValidationError("epigraph projection produced an upper bound on tau")
        else:
            dom_C.append(row[:keep])
            dom_d.append(rhs)
    if not pieces_a:
        # objective unbounded only if a tau-row vanished; with the cone checks
        # passed this means f is an indicator: value 0 on the projected domain
        pieces_a, pieces_b = [np.zeros(keep)], [0.0]
    dom_C = np.array(dom_C) if dom_C else np.zeros((0, keep))
    dom_d = np.array(dom_d) if dom_d else np.zeros(0)
    out = Polyhedral(*_prune_pieces(pieces_a, pieces_b, dom_C, dom_d), dom_C, dom_d)
    lin = K if K.size else np.zeros((d2, 0))
    return PartialMin(out, LPSelector(f, keep, lin), lin)


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
        return _quadratic_partial_min(f, keep)
    if isinstance(f, Polyhedral):
        return _polyhedral_partial_min(f, keep)
    raise BackendClash(f"partial_min unsupported for {type(f).__name__}")

