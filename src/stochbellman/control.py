"""State/control form of the backward recursion.

System dynamics are affine per node: the state increment at a stage-t node
is A_t X_{t-1} + B_t U_{t-1} + W_t.  The recursion carries per-node value
functions J (state only) and cost-to-go compositions I, built by affine
precomposition, so the optimal control depends on the past only through
the current state.

The sweep is symbolic: quadratic/polyhedral stage costs stay in their
backend.  Sampled wealth tables are built by the hedging layer, which
knows their cost structure (hedging.solve_alm); their records carry no
symbolic Q factor.
"""

import numpy as np

from .bellman import StageProblem, _minimize_block
from .convexfn import Inf, Quadratic
from .errors import DimensionMismatch, SingularRiccati, ValidationError

RICCATI_NOTE = (
    "K recursion uses the full Schur-complement cross term S2 S3^{-1} S2^T "
    "and a K-based noise offset; a variant with the cross term halved fails "
    "the direct-minimization check (1-D instance: K_0 = 1.5, halved gives 1.75)."
)


class ControlSystem:
    """Per-node dynamics matrices for stages 1..T."""

    def __init__(self, tree, N, M, A, B, W):
        self.tree = tree
        self.N = int(N)
        self.M = int(M)
        self.A = {k: np.atleast_2d(np.asarray(v, dtype=float)) for k, v in A.items()}
        self.B = {k: np.atleast_2d(np.asarray(v, dtype=float)) for k, v in B.items()}
        self.W = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in W.items()}
        for t in range(1, tree.T + 1):
            for nid in tree.stage_nodes[t]:
                if nid not in self.A or nid not in self.B or nid not in self.W:
                    raise ValidationError(f"missing dynamics at node {nid!r}")
                if self.A[nid].shape != (self.N, self.N):
                    raise DimensionMismatch(f"A at {nid!r} is not {self.N}x{self.N}")
                if self.B[nid].shape != (self.N, self.M):
                    raise DimensionMismatch(f"B at {nid!r} is not {self.N}x{self.M}")
                if self.W[nid].shape != (self.N,):
                    raise DimensionMismatch(f"W at {nid!r} is not length {self.N}")

    def step_map(self, nid):
        """Affine map (X_{t-1}, U_{t-1}) -> X_t for a stage >= 1 node."""
        Mmat = np.hstack([np.eye(self.N) + self.A[nid], self.B[nid]])
        return Mmat, self.W[nid]

    def step(self, nid, X, U):
        Mmat, t = self.step_map(nid)
        return Mmat @ np.concatenate([np.atleast_1d(X), np.atleast_1d(U)]) + t


class ControlSolution:
    """Per-node records: Q (pre-min over (X,U)), J (post-min over X),
    selector, and lineality basis of the flat control directions.  A
    wealth-grid hedge (hedging.solve_alm) keeps J, selector and Q = None
    only."""

    def __init__(self, sys, records):
        self.sys = sys
        self.records = records

    def J(self, nid):
        return self.records[nid]["J"]

    def value(self, x0):
        return self.records[self.sys.tree.root]["J"].eval(np.atleast_1d(x0))

    def control(self, nid, X):
        return self.records[nid]["selector"](np.atleast_1d(X))


def solve_oc(sys, costs):
    """Backward sweep producing per-node value functions.

    costs maps every node to a ConvexFn over (X, U).
    """
    tree = sys.tree
    records = {}
    for t in range(tree.T, -1, -1):
        for nid in tree.stage_nodes[t]:
            q = costs[nid]
            if q.dim != sys.N + sys.M:
                raise DimensionMismatch(f"cost at {nid!r} has wrong dimension")
            for k in tree.children[nid]:
                Mmat, off = sys.step_map(k)
                I_k = records[k]["J"].precompose(Mmat, off)
                q = q.add(I_k.scale(float(tree.nodes[k].prob)))
            pm = _minimize_block(q, sys.M, nid)
            records[nid] = {"Q": q, "J": pm.fn, "selector": pm.selector,
                            "N": pm.lineality}
    return ControlSolution(sys, records)


def q_factors(solution):
    """Per-node pre-minimization functions over (X, U)."""
    out = {}
    for nid, rec in solution.records.items():
        if rec["Q"] is None:
            raise ValidationError("wealth-grid solution carries no symbolic Q factors")
        out[nid] = rec["Q"]
    return out


def extract_oc_policy(sys, solution, x0):
    """Forward pass: per-node state and control under the recorded selectors."""
    tree = sys.tree
    X = {tree.root: np.atleast_1d(np.asarray(x0, dtype=float))}
    U = {}
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            U[nid] = np.atleast_1d(solution.control(nid, X[nid]))
            for k in tree.children[nid]:
                X[k] = np.atleast_1d(sys.step(k, X[nid], U[nid]))
    return X, U


def verify_oc_policy(sys, solution, X, U, tol=1e-8):
    """Nodewise argmin residuals of a state/control assignment."""
    tree = sys.tree
    for nid in tree.nodes:
        rec = solution.records[nid]
        if rec["Q"] is not None:
            val = rec["Q"].eval(np.concatenate([X[nid], U[nid]]))
            best = rec["J"].eval(X[nid])
            if not np.isfinite(val - best) or val - best > tol:
                return False
    return True


class RiccatiData:
    def __init__(self, K, Lam, offset, diagnostics):
        self.K = K
        self.Lam = Lam
        self.offset = offset
        self.diagnostics = diagnostics
        self.note = RICCATI_NOTE

    def value(self, tree, x0):
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        root = tree.root
        return float(0.5 * x0 @ self.K[root] @ x0 + self.offset[root])

    def per_stage_tables(self, tree, tol=1e-9):
        """Stage-indexed K and gain tables when constant across each stage."""
        Ks, Ls = [], []
        for t in range(tree.T + 1):
            nodes = tree.stage_nodes[t]
            K0 = self.K[nodes[0]]
            L0 = self.Lam[nodes[0]]
            if any(np.max(np.abs(self.K[n] - K0)) > tol for n in nodes) or \
               any(np.max(np.abs(self.Lam[n] - L0)) > tol for n in nodes):
                return None
            Ks.append(K0)
            Ls.append(L0)
        return Ks, Ls


def riccati(sys, Qmats, Rmats, sv_tol=1e-10):
    """Quadratic-cost recursion with exact conditional sums over children.

    Stage costs are 1/2 X.Q X + 1/2 U.R U with PSD Q, R per node.  The
    noise term W must have zero conditional mean for the offsets to be the
    true values; a diagnostic records the residual coupling norms.
    """
    tree = sys.tree
    N, M = sys.N, sys.M
    K = {}
    Lam = {}
    offset = {}
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
    return RiccatiData(K, Lam, offset, diag)


def riccati_policy(sys, rd, x0):
    """Forward simulation of the feedback rule U = -Lambda X."""
    tree = sys.tree
    X = {tree.root: np.atleast_1d(np.asarray(x0, dtype=float))}
    U = {}
    for t in range(tree.T + 1):
        for nid in tree.stage_nodes[t]:
            U[nid] = -rd.Lam[nid] @ X[nid]
            for k in tree.children[nid]:
                X[k] = sys.step(k, X[nid], U[nid])
    return X, U


def lq_costs(sys, Qmats, Rmats):
    """ConvexFn stage costs matching the riccati data, for the symbolic driver."""
    costs = {}
    N, M = sys.N, sys.M
    for nid in sys.tree.nodes:
        Q = np.atleast_2d(np.asarray(Qmats[nid], dtype=float))
        R = np.atleast_2d(np.asarray(Rmats[nid], dtype=float))
        big = np.zeros((N + M, N + M))
        big[:N, :N] = Q
        big[N:, N:] = R
        costs[nid] = Quadratic(big, np.zeros(N + M))
    return costs


def _lift_with_dynamics(sys, nid, fn, x0=None):
    """Stage cost over ((X,U)_{t-1}, (X,U)_t) with the step equation attached."""
    N, M = sys.N, sys.M
    d = N + M
    t = sys.tree.stage(nid)
    prev = d if t > 0 else 0
    sel = np.zeros((d, prev + d))
    sel[:, prev:] = np.eye(d)
    lifted = fn.precompose(sel, np.zeros(d))
    if t > 0:
        Mmat, off = sys.step_map(nid)
        A = np.zeros((N, prev + d))
        A[:, :d] = -Mmat
        A[:, prev:prev + N] = np.eye(N)
        b = off
    elif x0 is not None:
        A = np.zeros((N, d))
        A[:, :N] = np.eye(N)
        b = np.atleast_1d(np.asarray(x0, dtype=float))
    else:
        return lifted
    # an affine equality Quadratic: Polyhedral.add turns its rows into pairs
    # of opposite domain rows
    return lifted.add(Quadratic(np.zeros((prev + d, prev + d)), np.zeros(prev + d),
                                0.0, A, b))


def as_stage_problem(sys, costs, x0=None):
    """Encode the control instance as a stage-additive problem on (X, U).

    Used to cross-check the state-space recursion against the generic
    engine and the flat solvers.
    """
    tree = sys.tree
    d = sys.N + sys.M
    node_costs = {}
    for nid in tree.nodes:
        node_costs[nid] = _lift_with_dynamics(sys, nid, costs[nid], x0=x0)
    return StageProblem(tree, [d] * (tree.T + 1), "stage_additive",
                        node_costs=node_costs)


def conditional_matrix_diagnostic(sys, y_leaf):
    """Largest gap between E_t[A^T y] and A^T E_t[y] over stage >= 1 nodes.

    y_leaf maps leaves to R^N vectors.  A node's matrix is constant on its
    own conditioning cell, so pulling it out of the conditional sum is
    always legitimate here and the gap is pure float rounding; the check
    exists to make that assumption executable instead of implicit.
    """
    tree = sys.tree
    worst = 0.0
    for t in range(1, tree.T + 1):
        for nid in tree.stage_nodes[t]:
            leaves = tree.descendants_at(nid, tree.T)
            pnid = float(tree.prob(nid))
            weights = [float(tree.prob(l)) / pnid for l in leaves]
            inside = sum(w * (sys.A[nid].T @ np.atleast_1d(y_leaf[l]))
                         for w, l in zip(weights, leaves))
            outside = sys.A[nid].T @ sum(w * np.atleast_1d(y_leaf[l])
                                         for w, l in zip(weights, leaves))
            worst = max(worst, float(np.max(np.abs(inside - outside), initial=0.0)))
    return worst


class IndependenceReport:
    def __init__(self, ok, witnesses, deterministic_stages):
        self.ok = ok
        self.witnesses = witnesses
        self.deterministic_stages = deterministic_stages


def independence_reduction(sys, costs, partitions=None, tol=1e-10, probes=None):
    """Check the value functions are measurable w.r.t. supplied partitions.

    partitions maps stage -> list of node-id cells (default: one cell per
    stage, i.e. full independence: J_t deterministic).  Returns a report
    with witness triples (stage, nodes, probe point) on failure.
    """
    tree = sys.tree
    sol = solve_oc(sys, costs)
    if partitions is None:
        partitions = {t: [list(tree.stage_nodes[t])] for t in range(tree.T + 1)}
    if probes is None:
        rng = np.random.default_rng(0)
        probes = [np.zeros(sys.N)] + [rng.standard_normal(sys.N) for _ in range(4)]
    witnesses = []
    deterministic = []
    for t, cells in partitions.items():
        stage_ok = True
        for cell in cells:
            ref = sol.records[cell[0]]["J"]
            for other in cell[1:]:
                fn = sol.records[other]["J"]
                for x in probes:
                    a, b = ref.eval(x), fn.eval(x)
                    if a == Inf and b == Inf:
                        continue
                    if not np.isfinite(a - b) or abs(a - b) > tol:
                        witnesses.append((t, (cell[0], other), np.asarray(x)))
                        stage_ok = False
                        break
        if stage_ok and len(cells) == 1:
            deterministic.append(t)
    return IndependenceReport(not witnesses, witnesses, deterministic)
