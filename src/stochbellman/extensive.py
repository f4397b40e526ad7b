"""The deterministic-equivalent flat program and the in-repo convex solvers.

FlatProgram carries one decision block per tree node; the objective is the
probability-weighted sum of node costs, with nonanticipativity implicit in
the block structure.  Three solve paths:

* quadratic terms  -> exact KKT solve (nullspace reduction): one Cholesky-
                      gated solve, an eigendecomposition with pinv's
                      cutoff for a singular Hessian,
* polyhedral terms -> dense simplex on the epigraph LP,
* anything else    -> cyclic coordinate descent with golden-section line
                      searches (numeric.coordinate_descent; the only
                      inexact path).

Affine quadratics (Q == 0) mixed with polyhedral terms are promoted to
one-piece Polyhedrals first, so such a program takes the exact LP.  The
programs left to coordinate descent are those with a Sampled1D term and
those that mix a curved Quadratic (Q != 0) with Polyhedral terms; the
sweep accepts the latter whenever each node's sum stays in one backend.
"""

import itertools

import numpy as np

from . import numeric
from .convexfn import Inf, Polyhedral, Quadratic, _affine_as_polyhedral, _null_basis
from .errors import DimensionMismatch, Infeasible, Unbounded, ValidationError
from .simplex import solve_lp

# Cholesky pivots above this share of the largest diagonal entry of a reduced
# Hessian let one solve find its minimizer: 100 times pinv's cutoff of 1e-12
PIVOT_FLOOR = 1e-10


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
        total = 0.0
        for term in self.terms:
            v = term.value(z)
            if v == Inf:
                return Inf
            total += v
        return total

    def pack(self, decisions):
        """Assemble a flat point from a node -> vector mapping."""
        z = np.zeros(self.nvars)
        for nid, (off, width) in self.blocks.items():
            if width:
                z[off:off + width] = np.asarray(decisions[nid], dtype=float).ravel()
        return z


def _solve_quadratic(fp):
    n = fp.nvars
    H, g, const, eq_rows = np.zeros((n, n)), np.zeros(n), 0.0, []
    terms = [(t.weight, t.fn if t.M is None else t.fn.precompose(t.M, t.t), t.idx)
             for t in fp.terms]
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
    if eq_rows:
        A = np.concatenate(eq_rows)
        b = np.concatenate([fn.b for _, fn, _ in terms])
        z0, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if np.linalg.norm(A @ z0 - b) > 1e-8 * (1.0 + np.linalg.norm(b)):
            raise Infeasible("equality constraints are inconsistent")
        Z = _null_basis(A)
        Hred, gred = Z.T @ H @ Z, Z.T @ (H @ z0 + g)
    else:  # no rows: the reduced problem is the problem itself
        A, Z, Hred, gred = np.zeros((0, n)), None, H, g
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


def _solve_polyhedral(fp):
    n = fp.nvars
    m = len(fp.terms)
    cost = np.zeros(n + m)
    A_ub, b_ub = [], []
    for j, term in enumerate(fp.terms):
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
    res = solve_lp(cost, np.vstack(A_ub), np.concatenate(b_ub))
    if res.status == "unbounded":
        raise Unbounded("epigraph LP is unbounded")
    if res.status == "infeasible":
        raise Infeasible("epigraph LP is infeasible")
    z = res.x[:n]
    return float(res.value), z, {"lp_vertex": True}


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
    terms = [Term(t.weight, _affine_as_polyhedral(t.fn), t.idx, t.M, t.t)
             if isinstance(t.fn, Quadratic) and not np.any(t.fn.Q) else t
             for t in fp.terms]
    if all(isinstance(t.fn, Polyhedral) for t in terms):
        return _solve_polyhedral(FlatProgram(fp.nvars, terms, fp.blocks))
    z, val, sweeps = numeric.coordinate_descent(fp.eval, np.zeros(fp.nvars))
    return float(val), z, {"sweeps": sweeps}
