"""State/control form of the backward recursion.

System dynamics are affine per node: the state increment at a stage-t node
is A_t X_{t-1} + B_t U_{t-1} + W_t.  The recursion carries per-node value
functions J (state only) and cost-to-go compositions I, built by affine
precomposition, so the optimal control depends on the past only through
the current state.

The sweep is symbolic: quadratic/polyhedral stage costs stay in their
backend.  solve_oc runs bellman.backward_sweep with the stacked step maps,
and the forward passes run bellman.forward_sweep with the same maps;
riccati sums each term of the children into their parents by one
np.add.at over the tree's stage map, and runs one batched svd/inv per
stage.  The dynamics, lq_costs, the records, the Riccati tables and the
forward states and controls stay stage stacks, read by node id through
tree.StageMap; a node's matrices and objects are made when it is read.
Sampled wealth tables are built by the hedging layer, which knows their cost structure
(hedging.solve_alm); their records carry no symbolic Q factor, and the
functions that read the sweep's stage stacks refuse them.
"""

import numpy as np

from .bellman import (StageProblem, _decisions, _stage_values, _Swept, _verdict,
                      backward_sweep, forward_sweep)
from .convexfn import Inf, Quadratic, _forms, _member, _Stack
from .errors import SingularRiccati, ValidationError
from .tree import StageMap
from .treeio import stage_stack

RICCATI_NOTE = (
    "K recursion uses the full Schur-complement cross term S2 S3^{-1} S2^T "
    "and a K-based noise offset; a variant with the cross term halved fails "
    "the direct-minimization check (1-D instance: K_0 = 1.5, halved gives 1.75)."
)


class ControlSystem:
    """Dynamics matrices for stages 1..T, given by node id (dicts, or
    StageMaps of each stage's entries) and kept stacked a stage at a time in
    stage_nodes order (treeio.stage_stack, so an error names the node): A,
    B and W are StageMaps over the stacks, and `stage_maps(t)` makes
    ([I + A | B] of shape (n, N, N + M), W of shape (n, N)) from them.
    """

    def __init__(self, tree, N, M, A, B, W):
        self.tree = tree
        self.N = int(N)
        self.M = int(M)
        held = {}
        shapes = ((self.N, self.N), (self.N, self.M), (self.N,))
        for t in range(1, tree.T + 1):
            nodes = tree.stage_nodes[t]
            try:
                entries = [_stage_values(D, tree, t) for D in (A, B, W)]
            except KeyError:
                nid = next(nid for nid in nodes if not all(nid in D for D in (A, B, W)))
                raise ValidationError(f"missing dynamics at node {nid!r}") from None
            held[t] = [stage_stack(e, name, nodes, shape)
                       for e, name, shape in zip(entries, "ABW", shapes)]
        self.A, self.B, self.W = (StageMap(tree, {t: s[k] for t, s in held.items()})
                                  for k in range(3))

    def stage_maps(self, t):
        """Stacked step maps of the stage-t nodes (t >= 1), in stage order,
        made on each call."""
        return np.concatenate([np.eye(self.N) + self.A.held[t], self.B.held[t]],
                              axis=2), self.W.held[t]


class ControlSolution:
    """Per-node records: Q (pre-min over (X,U)), J (post-min over X),
    selector, and lineality basis of the flat control directions; solve_oc
    gives them as a StageMap of the sweep's stacks.  A wealth-grid hedge
    (hedging.solve_alm) keeps a dict of J and selector only, which
    extract_oc_policy, verify_oc_policy and q_factors refuse."""

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

    costs maps every node to a Quadratic or Polyhedral over (X, U)
    (lq_costs gives them as stage stacks); any other cost raises the
    BackendClash StageProblem raises, and a cost of another dimension a
    DimensionMismatch, each naming the node.  This is bellman.backward_sweep
    with each child's value function precomposed with the child's step map,
    and U minimized out; a node's record is made when it is read.
    """
    T = sys.tree.T
    return ControlSolution(sys, backward_sweep(
        sys.tree, costs, [sys.N] * (T + 1), [sys.M] * (T + 1), lambda q, pm, _: {
            "Q": q, "J": pm.fn, "selector": pm.selector, "N": pm.lineality},
        maps=sys.stage_maps))


def _sweep_records(solution):
    """The solution's records, a sweep's StageMap of stage stacks; others (a
    wealth-grid hedge's, with no Q factors) raise ValidationError."""
    recs = solution.records
    if not (isinstance(recs, StageMap) and all(isinstance(s, _Swept) for s in recs.held.values())):
        raise ValidationError("the solution's records are no sweep's stage stacks "
                              "(a wealth-grid solution carries no Q factors)")
    return recs


def q_factors(solution):
    """Per-node pre-minimization functions over (X, U)."""
    return {nid: rec["Q"] for nid, rec in _sweep_records(solution).items()}


def extract_oc_policy(sys, solution, x0):
    """Forward pass: per-node state and control under the recorded selectors."""
    recs = _sweep_records(solution)
    X, U, _, _ = forward_sweep(sys.tree, lambda t, S: _decisions(recs.held[t].sel, S), x0,
                               sys.stage_maps)
    return X, U


def verify_oc_policy(sys, solution, X, U):
    """Nodewise argmin test of a state/control assignment (gaps to 1e-8)."""
    tree, recs = sys.tree, _sweep_records(solution)
    _, _, gaps, failed = forward_sweep(
        tree, lambda t, S: _stage_values(U, tree, t), states=X, check=recs.held.get)
    return _verdict(tree.nodes, gaps, failed)


class RiccatiData:
    """K, Lam and offset: StageMaps over the stage stacks of riccati."""

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

    def per_stage_tables(self, tree):
        """Stage-indexed K and gain tables when constant across each stage (to 1e-9)."""
        Ks, Ls = [], []
        for t in range(tree.T + 1):
            for table, out in ((self.K, Ks), (self.Lam, Ls)):
                stack = table.held[t]
                if np.any(np.max(np.abs(stack - stack[0]), axis=(1, 2)) > 1e-9):
                    return None
                out.append(stack[0])
        return Ks, Ls


def riccati(sys, Qmats, Rmats):
    """Quadratic-cost recursion with exact conditional sums over children.

    Stage costs are 1/2 X.Q X + 1/2 U.R U with PSD Q, R per node, given by
    node id (dicts, or StageMaps of each stage's matrices) and read a stage
    at a time into new stacks by treeio.stage_stack, so the inputs are never
    changed and a faulty entry names its node.  The noise
    term W must have zero conditional mean for the offsets to be the true
    values; a diagnostic records the residual coupling norms.  Each
    stage runs as stacked arrays: each term is summed from the children into
    their parents by one np.add.at over the tree's stage map, in child
    order, with one svd and one inv per stage; the tables stay stage stacks.
    A singular value below 1e-10 max(1, largest) raises SingularRiccati.
    """
    tree = sys.tree
    N, M = sys.N, sys.M
    K, Lam, offset = {}, {}, {}  # stage -> stack
    diag = {"cross_norm": 0.0, "w_mean_norm": 0.0}
    for t in range(tree.T, -1, -1):
        nodes, n = tree.stage_nodes[t], len(tree.stage_nodes[t])
        Ks = stage_stack(_stage_values(Qmats, tree, t), "Q", nodes, (N, N))
        Ls, offs = np.zeros((n, M, N)), np.zeros(n)
        if t < tree.T:  # every node before the horizon has children
            S2 = np.zeros((n, N, M))
            S3 = stage_stack(_stage_values(Rmats, tree, t), "R", nodes, (M, M))
            wmean, cross = np.zeros((n, N)), np.zeros((n, N))
            up, p, Kk = tree.up[t + 1], tree.branch[t + 1], K[t + 1]
            IA, B, W = np.eye(N) + sys.A.held[t + 1], sys.B.held[t + 1], sys.W.held[t + 1]
            # one np.add.at per term: each parent sums its children in child order
            pK = p[:, None, None] * np.swapaxes(IA, 1, 2) @ Kk
            np.add.at(Ks, up, pK @ IA)
            np.add.at(S2, up, pK @ B)
            np.add.at(S3, up, p[:, None, None] * np.swapaxes(B, 1, 2) @ Kk @ B)
            np.add.at(offs, up, p * (offset[t + 1] + np.vecdot(np.vecmat(0.5 * W, Kk), W)))
            np.add.at(wmean, up, p[:, None] * W)
            np.add.at(cross, up, np.matvec(pK, W))
            sv = np.linalg.svd(S3, compute_uv=False)
            singular = sv[:, -1] < 1e-10 * np.maximum(1.0, sv[:, 0])
            if np.any(singular):
                raise SingularRiccati("control curvature matrix is singular",
                                      node=nodes[int(np.argmax(singular))])
            S3inv = np.linalg.inv(S3)
            S2t = np.swapaxes(S2, 1, 2)
            Ks, Ls = Ks - S2 @ S3inv @ S2t, S3inv @ S2t
            for name, v in (("w_mean_norm", wmean), ("cross_norm", cross)):
                norms = np.sqrt(np.vecdot(v, v))
                diag[name] = max([diag[name]] + norms.tolist())
        K[t], Lam[t], offset[t] = Ks, Ls, offs
    return RiccatiData(*(StageMap(tree, d) for d in (K, Lam, offset)), diag)


def riccati_policy(sys, rd, x0):
    """Forward simulation of the feedback rule U = -Lambda X."""
    X, U, _, _ = forward_sweep(sys.tree, lambda t, S: np.matvec(-rd.Lam.held[t], S),
                               x0, sys.stage_maps)
    return X, U


def lq_costs(sys, Qmats, Rmats):
    """Quadratic stage costs matching the riccati data, for the symbolic
    driver: a StageMap of one rowless _Stack per stage, whose members are
    made when read.  Q and R are read as riccati reads them.  The PSD check
    is one eigvalsh over each stage's stacked costs; an error names the
    first failing node in stage order."""
    tree, N, M = sys.tree, sys.N, sys.M
    d, held = N + M, {}
    for t, nodes in enumerate(tree.stage_nodes):
        n = len(nodes)
        big = np.zeros((n, d, d))
        big[:, :N, :N] = stage_stack(_stage_values(Qmats, tree, t), "Q", nodes, (N, N))
        big[:, N:, N:] = stage_stack(_stage_values(Rmats, tree, t), "R", nodes, (M, M))
        held[t] = [(np.arange(n), _Stack(_forms(big, check_psd=True, names=nodes),
                                         np.zeros((n, d)), np.zeros(n), np.zeros((n, 0, d)),
                                         np.zeros((n, 0))))]
    return StageMap(tree, held, _member)


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
        Mmat, off = np.hstack([np.eye(N) + sys.A[nid], sys.B[nid]]), sys.W[nid]
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
    return StageProblem(tree, [d] * (tree.T + 1), node_costs=node_costs)


class IndependenceReport:
    def __init__(self, ok, witnesses, deterministic_stages):
        self.ok = ok
        self.witnesses = witnesses
        self.deterministic_stages = deterministic_stages


def independence_reduction(sys, costs, partitions=None):
    """Check the value functions are measurable w.r.t. supplied partitions.

    partitions maps stage -> list of node-id cells (default: one cell per
    stage, i.e. full independence: J_t deterministic), compared to 1e-10 at
    the origin and four seed-0 normal probes.  Returns a report with
    witness triples (stage, nodes, probe point) on failure.
    """
    tree = sys.tree
    sol = solve_oc(sys, costs)
    if partitions is None:
        partitions = {t: [list(tree.stage_nodes[t])] for t in range(tree.T + 1)}
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
                    if not np.isfinite(a - b) or abs(a - b) > 1e-10:
                        witnesses.append((t, (cell[0], other), np.asarray(x)))
                        stage_ok = False
                        break
        if stage_ok and len(cells) == 1:
            deterministic.append(t)
    return IndependenceReport(not witnesses, witnesses, deterministic)
