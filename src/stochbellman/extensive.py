"""The deterministic-equivalent flat program and the in-repo convex solvers.

FlatProgram carries one decision block per tree node; the objective is the
probability-weighted sum of node costs, with nonanticipativity implicit in
the block structure.  Three exact solve paths:

* quadratic terms  -> KKT solve (nullspace reduction): one Cholesky-gated
                      solve, an eigendecomposition with pinv's cutoff for a
                      singular Hessian,
* polyhedral terms -> dense simplex on the epigraph LP,
* both             -> the primal active-set QP (_qp) over the decisions and
                      the polyhedral terms' epigraph levels, from a vertex
                      of the zero-cost LP.

Affine quadratics (Q == 0) mixed with polyhedral terms are promoted to
one-piece Polyhedrals first, so such a program takes the LP.  Any other
term (a Sampled1D) raises BackendClash, as StageProblem does.
"""

import itertools

import numpy as np

from .convexfn import Inf, Polyhedral, Quadratic, _affine_as_polyhedral, _null_basis
from .errors import (BackendClash, DimensionMismatch, Infeasible, IterationLimit,
                     Unbounded, ValidationError)
from .simplex import solve_lp

# Cholesky pivots above this share of the largest diagonal entry of a reduced
# Hessian let one solve find its minimizer: 100 times pinv's cutoff of 1e-12
PIVOT_FLOOR = 1e-10
MAX_QP_STEPS = 1000


class Term:
    """weight * fn(M z[idx] + t); M is None for the identity embedding."""

    __slots__ = ("weight", "fn", "idx", "M", "t")

    def __init__(self, weight, fn, idx, M=None, t=None):
        self.weight = float(weight)
        self.fn = fn
        self.idx = np.asarray(idx, dtype=int)
        self.M = None if M is None else np.atleast_2d(np.asarray(M, dtype=float))
        self.t = None if t is None else np.atleast_1d(np.asarray(t, dtype=float))

    def arg(self, z):
        sub = z[self.idx]
        if self.M is None:
            return sub
        return self.M @ sub + self.t

    def value(self, z):
        v = self.fn.eval(self.arg(z))
        if v == Inf:
            return Inf
        return self.weight * v


class FlatProgram:
    def __init__(self, nvars, terms, blocks=None):
        self.nvars = int(nvars)
        self.terms = list(terms)
        self.blocks = blocks or {}

    def eval(self, z):
        z = np.asarray(z, dtype=float).ravel()
        if z.size != self.nvars:
            raise DimensionMismatch(f"expected {self.nvars} variables, got {z.size}")
        return sum((term.value(z) for term in self.terms), 0.0)

    def pack(self, decisions):
        """Assemble a flat point from a node -> vector mapping."""
        z = np.zeros(self.nvars)
        for nid, (off, width) in self.blocks.items():
            if width:
                z[off:off + width] = np.asarray(decisions[nid], dtype=float).ravel()
        return z


def _quadratic_parts(fp_terms, n):
    """(H, g, const, A, b): the Quadratic terms' sum as 1/2 z.Hz + g.z + const
    over n variables, on the stacked equality rows A z = b."""
    H, g, const, eq_rows = np.zeros((n, n)), np.zeros(n), 0.0, [np.zeros((0, n))]
    terms = [(t.weight, t.fn if t.M is None else t.fn.precompose(t.M, t.t), t.idx)
             for t in fp_terms]
    # one np.add.at per run of consecutive terms of one width: it adds in
    # term order, so every entry sums as in a term-by-term loop
    for _, run in itertools.groupby(terms, key=lambda term: len(term[2])):
        w, fns, idx = zip(*run)
        w, idx = np.array(w), np.array(idx)
        np.add.at(H, (idx[:, :, None], idx[:, None, :]), w[:, None, None] * [f.Q for f in fns])
        np.add.at(g, idx, w[:, None] * [f.q for f in fns])
    for w, fn, idx in terms:
        const += w * fn.c
        if fn.A.shape[0]:
            eq_rows.append(np.zeros((fn.A.shape[0], n)))
            eq_rows[-1][:, idx] = fn.A
    return H, g, const, np.concatenate(eq_rows), np.concatenate([np.zeros(0)] + [
        fn.b for _, fn, _ in terms])


def _solve_quadratic(fp):
    n = fp.nvars
    H, g, const, A, b = _quadratic_parts(fp.terms, n)
    if A.shape[0]:
        z0, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ z0 - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
            raise Infeasible("equality constraints are inconsistent")
        Z = _null_basis(A)
        Hred, gred = Z.T @ H @ Z, Z.T @ (H @ z0 + g)
    else:  # no rows: the reduced problem is the problem itself
        Z, Hred, gred = None, H, g
    tol = 1e-8 * (1.0 + np.linalg.norm(gred))
    try:  # a Cholesky pivot bounds the smallest eigenvalue from above
        pivot = np.diagonal(np.linalg.cholesky(Hred)).min(initial=Inf) ** 2
        y = -np.linalg.solve(Hred, gred) if pivot > PIVOT_FLOOR * Hred.diagonal().max(initial=0.0) \
            else None
    except np.linalg.LinAlgError:  # not positive definite
        y = None
    # a small pivot or a missed residual leaves the Hessian to its
    # eigendecomposition, applied to the gradient with pinv's cutoff (an
    # explicit pinv product rounds past the residual test when H is
    # ill-conditioned): the minimum-norm point or the Unbounded verdict
    if y is None or np.linalg.norm(Hred @ y + gred) > tol:
        lam, V = np.linalg.eigh(Hred)
        big = np.abs(lam) > 1e-12 * np.abs(lam).max(initial=0.0)
        y = -V @ (np.divide(1.0, lam, out=np.zeros_like(lam), where=big) * (V.T @ gred))
        if np.linalg.norm(Hred @ y + gred) > tol:
            raise Unbounded("objective decreases along a feasible null direction")
    z = y if Z is None else z0 + Z @ y
    value = float(0.5 * z @ H @ z + g @ z + const)
    grad = H @ z + g
    lam, *_ = np.linalg.lstsq(A.T, -grad, rcond=None)  # no multipliers without rows
    return value, z, {"kkt_residual": float(np.linalg.norm(grad + A.T @ lam))}


def _epigraph_rows(fp_terms, n):
    """(cost, G, h) of the Polyhedral terms' epigraph system G (z, tau) <= h
    over n variables and one level tau_j per term, cost its weights on tau."""
    m = len(fp_terms)
    cost = np.zeros(n + m)
    A_ub, b_ub = [], []
    for j, term in enumerate(fp_terms):
        fn = term.fn
        if term.M is not None:
            fn = fn.precompose(term.M, term.t)
        cost[n + j] = term.weight
        G, h = fn.epigraph()
        rows = np.zeros((G.shape[0], n + m))
        rows[:, term.idx] = G[:, :-1]
        rows[:, n + j] = G[:, -1]
        A_ub.append(rows)
        b_ub.append(h)
    return cost, np.vstack(A_ub), np.concatenate(b_ub)


def _solve_polyhedral(fp):
    res = solve_lp(*_epigraph_rows(fp.terms, fp.nvars))
    if res.status == "unbounded":
        raise Unbounded("epigraph LP is unbounded")
    if res.status == "infeasible":
        raise Infeasible("epigraph LP is infeasible")
    return float(res.value), res.x[:fp.nvars], {"lp_vertex": True}


def _qp(H, g, A, b, G, h, x):
    """Minimize 1/2 x.Hx + g.x over {Ax = b, Gx <= h}, H PSD, from a feasible
    x by the primal active-set method (Nocedal & Wright 2006, 16.5).

    Each step goes to the model's minimum on the working set's face, or
    along a descent ray where the face's Hessian is singular along the
    gradient.  The nearest blocking row joins the working set; at a face's
    minimum the most negative multiplier's row leaves it, the lowest index
    on ties (Bland).  Returns (x, lam, mu), Hx + g + A'lam + G'mu = 0 and mu
    zero off the working set; raises Unbounded on a ray no row blocks.
    """
    x, work, at_min = np.array(x, dtype=float), [], False
    for _ in range(MAX_QP_STEPS):
        grad = H @ x + g
        scale = np.linalg.norm(H @ x) + np.linalg.norm(g)  # grad's rounding is eps times this
        tol = 1e-14 * scale
        C = np.vstack([A, G[work]])
        Z = _null_basis(C)
        gr = Z.T @ grad
        if not at_min and np.linalg.norm(gr) > tol:
            lam, V = np.linalg.eigh(Z.T @ H @ Z)
            big = lam > 1e-12 * np.abs(lam).max(initial=0.0)
            proj = V.T @ gr
            ray = np.linalg.norm(proj[~big]) > 1e-12 * scale
            p = -Z @ (V[:, ~big] @ proj[~big] if ray else V[:, big] @ (proj[big] / lam[big]))
            Gp, slack = G @ p, np.maximum(h - G @ x, 0.0)
            if ray:  # rows the ray leaves at a positive angle
                hit = Gp > 1e-12 * np.linalg.norm(G, axis=1) * np.linalg.norm(p)
            else:  # rows the full step would leave by more than rounding
                hit = Gp - slack > 1e-12 * (1.0 + np.abs(h))
            hit[work] = False
            if hit.any():
                steps = np.where(hit, slack / np.where(hit, Gp, 1.0), Inf)
                i = int(np.argmin(steps))  # the lowest index on ties
                x += steps[i] * p
                work.append(i)
            elif ray:
                raise Unbounded("objective decreases along a feasible ray")
            else:
                x += p
                at_min = True
            continue
        y = np.linalg.lstsq(C.T, -grad, rcond=None)[0] if C.shape[0] else np.zeros(0)
        mu = y[A.shape[0]:]
        if not work or mu.min() >= -tol:
            out = np.zeros(G.shape[0])
            out[work] = mu
            return x, y[:A.shape[0]], out
        j = min(range(len(work)), key=lambda k: (mu[k], work[k]))
        work.pop(j)
        at_min = False
    raise IterationLimit("the active-set QP hit its step limit")


def _solve_mixed(fp):
    """Curved Quadratic and Polyhedral terms: _qp over (z, tau)."""
    poly = [t for t in fp.terms if isinstance(t.fn, Polyhedral)]
    n = fp.nvars + len(poly)
    cost, G, h = _epigraph_rows(poly, fp.nvars)
    H, g, const, A, b = _quadratic_parts([t for t in fp.terms if isinstance(t.fn, Quadratic)], n)
    g += cost
    start = solve_lp(np.zeros(n), G, h, A, b)
    if start.status != "optimal":
        raise Infeasible("the program's rows admit no point")
    x, lam, mu = _qp(H, g, A, b, G, h, start.x)
    return (float(0.5 * x @ H @ x + g @ x + const), x[:fp.nvars],
            {"kkt_residual": float(np.linalg.norm(H @ x + g + A.T @ lam + G.T @ mu))})


def solve_extensive(fp):
    """Solve a FlatProgram; returns (value, point, info)."""
    if not fp.terms:
        raise ValidationError("empty program")
    if fp.nvars == 0:
        val = fp.eval(np.zeros(0))
        if val == Inf:
            raise Infeasible("constant program is infeasible")
        return float(val), np.zeros(0), {}
    if all(isinstance(t.fn, Quadratic) for t in fp.terms):
        return _solve_quadratic(fp)
    for t in fp.terms:
        if not isinstance(t.fn, (Quadratic, Polyhedral)):
            raise BackendClash(f"a {type(t.fn).__name__} term has no flat solve; "
                               "use Quadratic or Polyhedral")
    terms = [Term(t.weight, _affine_as_polyhedral(t.fn), t.idx, t.M, t.t)
             if isinstance(t.fn, Quadratic) and not np.any(t.fn.Q) else t
             for t in fp.terms]
    fp = FlatProgram(fp.nvars, terms, fp.blocks)
    if all(isinstance(t.fn, Polyhedral) for t in terms):
        return _solve_polyhedral(fp)
    return _solve_mixed(fp)
