"""Finite filtered probability spaces as rooted scenario trees.

A tree node carries its stage, its conditional branch probability, and an
open data dict.  Path probabilities are made a stage at a time down the
stage map when the first is read, and kept.  Probabilities may be floats
(default) or exact `fractions.Fraction` values when built with exact=True.

Orthogonal-complement data (processes v with E_t[v_t] = 0) is represented
by `PerpProcess`: a per-index family where entry t lives at a measurability
stage m_t in {t, t+1}.  Adapted candidates use m_t = t; martingale
increments use m_t = t + 1.  That covers every construction used here, and
keeps tilts local to a single node's stage cost.

A tree builds its stage map once: for each stage t >= 1, by position in
the stage, a child's parent position (`up`), slot (`slot`) and float
branch probability (`branch`), read by the sweeps and Riccati.  The
conditional expectation E_t is one operator on that map:
`ScenarioTree.expect(t, values)` takes a stack over stage t + 1 and sums
each parent's branch-weighted children in child order, with the exact
Fraction weights on an exact tree.  The conditional expectations,
martingale increments, perp checks and pairings below are built on it.

Data computed a stage at a time stays in that form: a `StageMap` maps node
ids to values held as per-stage data, and makes a node's value when it is
first read.
"""

import numbers
from collections.abc import Mapping
from fractions import Fraction
from operator import getitem

import numpy as np

from .errors import (NotMarkov, OrphanNode, ProbabilityMass, StageGap,
                     StageOrder, ValidationError)

PROB_TOL = 1e-12
CLASS_TOL = 1e-12    # width of the value classes of is_markov and markov_check


class Node:
    __slots__ = ("id", "parent", "stage", "prob", "data")

    def __init__(self, id, parent, stage, prob, data=None):
        self.id = id
        self.parent = parent
        self.stage = stage
        self.prob = prob
        self.data = data if data is not None else {}

    def __repr__(self):
        return f"Node({self.id!r}, stage={self.stage}, prob={self.prob})"


class ScenarioTree:
    """Validated rooted tree; immutable after construction."""

    def __init__(self, nodes, exact=False):
        self.exact = exact
        self.nodes = {}
        self.children = {}
        for n in nodes:
            if n.id in self.nodes:
                raise ValidationError(f"duplicate node id {n.id!r}")
            self.nodes[n.id] = n
            self.children[n.id] = []
        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise OrphanNode(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0].id
        for n in nodes:
            if n.parent is not None:
                if n.parent not in self.nodes:
                    raise OrphanNode(f"node {n.id!r} references missing parent {n.parent!r}")
                self.children[n.parent].append(n.id)
        self._validate()
        self._paths = None

    def _validate(self):
        root = self.nodes[self.root]
        if root.stage != 0:
            raise StageGap(f"root must be at stage 0, got {root.stage}")
        one = Fraction(1) if self.exact else 1.0
        if self.exact:
            if root.prob != 1:
                raise ProbabilityMass("root probability must be 1")
        elif abs(float(root.prob) - 1.0) > PROB_TOL:
            raise ProbabilityMass("root probability must be 1")
        # reachability doubles as the orphan check for cycles
        seen = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            seen.add(nid)
            stack.extend(self.children[nid])
        if len(seen) != len(self.nodes):
            missing = sorted(set(self.nodes) - seen)
            raise OrphanNode(f"nodes unreachable from root: {missing}")
        stages = [n.stage for n in self.nodes.values()]
        self.T = max(stages)
        for n in self.nodes.values():
            p = n.prob if self.exact else float(n.prob)
            if not 0 < p <= 1:  # NaN fails it too
                raise ProbabilityMass(f"node {n.id!r} probability {n.prob!r} outside (0, 1]")
            if n.parent is not None:
                pstage = self.nodes[n.parent].stage
                if n.stage != pstage + 1:
                    raise StageGap(f"node {n.id!r} at stage {n.stage} under parent at stage {pstage}")
        for nid, kids in self.children.items():
            if kids:
                total = sum(self.nodes[k].prob for k in kids)
                if self.exact:
                    if total != one:
                        raise ProbabilityMass(f"children of {nid!r} sum to {total}")
                elif not abs(float(total) - 1.0) <= PROB_TOL:
                    raise ProbabilityMass(f"children of {nid!r} sum to {total!r}")
            else:
                if self.nodes[nid].stage != self.T:
                    raise StageGap(f"leaf {nid!r} at stage {self.nodes[nid].stage}, horizon is {self.T}")
        self.stage_nodes = [[] for _ in range(self.T + 1)]
        for nid, n in self.nodes.items():
            self.stage_nodes[n.stage].append(nid)
        # node -> (stage, position in stage_nodes)
        self.index = {nid: (t, i) for t, layer in enumerate(self.stage_nodes)
                      for i, nid in enumerate(layer)}
        # the stage map (None at stage 0): stages list nodes in tree order,
        # so siblings lie in child order, and a slot is a rank among siblings
        self.up, self.slot, self.branch = [None], [None], [None]
        for layer in self.stage_nodes[1:]:
            up = np.fromiter((self.index[self.nodes[k].parent][1] for k in layer), int, len(layer))
            order = np.argsort(up, kind="stable")
            self.slot.append(np.empty_like(up))
            self.slot[-1][order] = np.arange(len(up)) - np.searchsorted(up[order], up[order])
            self.up.append(up)
            self.branch.append(np.fromiter((self.nodes[k].prob for k in layer), float, len(layer)))

    def prob(self, nid):
        """Unconditional probability: product of branch probabilities."""
        if self._paths is None:
            paths = [[self.nodes[self.root].prob]]
            for t, layer in enumerate(self.stage_nodes[1:], 1):
                paths.append([paths[-1][i] * self.nodes[k].prob
                              for i, k in zip(self.up[t].tolist(), layer)])
            self._paths = paths
        t, i = self.index[nid]
        p = self._paths[t][i]
        if (p if self.exact else float(p)) <= 0:
            raise ProbabilityMass(f"node {nid!r} has nonpositive path probability")
        return p

    def parent(self, nid):
        return self.nodes[nid].parent

    def stage(self, nid):
        return self.nodes[nid].stage

    def leaves(self):
        return list(self.stage_nodes[self.T])

    def path(self, nid):
        """Node ids from the root down to nid inclusive."""
        out = []
        while nid is not None:
            out.append(nid)
            nid = self.nodes[nid].parent
        return out[::-1]

    def expect(self, t, values):
        """E_t of a stack over stage t + 1 (stage_nodes order, any trailing
        shape): the stage-t stack of branch-weighted child sums, each taken
        in child order; exact on an exact tree."""
        layer = self.stage_nodes[t + 1]
        w = (np.array([self.nodes[k].prob for k in layer], dtype=object)
             if self.exact else self.branch[t + 1])
        values = np.asarray(values)
        terms = w.reshape(w.shape + (1,) * (values.ndim - 1)) * values
        acc = np.zeros((len(self.stage_nodes[t]),) + terms.shape[1:], terms.dtype)
        np.add.at(acc, self.up[t + 1], terms)
        return acc

    def n_nodes(self):
        return len(self.nodes)


_UNMADE = object()


class StageMap(Mapping):
    """Node id -> value for the nodes of some stages, held a stage at a time.

    `held` maps each stage, in iteration order, to its data; member(data, i)
    makes the value of the stage's i-th node (stage_nodes order) when it is
    first read, and the value is kept.  By default a stage's data is a
    sequence of its values.  Keys, iteration order and KeyErrors are those of
    a dict filled a stage at a time in that order; a read is O(1) through
    the tree's index.
    """

    def __init__(self, tree, held, member=getitem):
        self.tree, self.held, self.member, self._made = tree, held, member, {}

    def __getitem__(self, nid):
        value = self._made.get(nid, _UNMADE)
        if value is _UNMADE:
            t, i = self.tree.index.get(nid, (None, None))
            if t not in self.held:
                raise KeyError(nid)
            value = self._made[nid] = self.member(self.held[t], i)
        return value

    def __contains__(self, nid):
        return self.tree.index.get(nid, (None,))[0] in self.held

    def __iter__(self):
        for t in self.held:
            yield from self.tree.stage_nodes[t]

    def __len__(self):
        return sum(len(self.tree.stage_nodes[t]) for t in self.held)


def validate_tree(raw, exact=False):
    """Build a ScenarioTree from records {id, parent, prob, stage[, data]}."""
    nodes = []
    for i, rec in enumerate(raw):
        if isinstance(rec, Node):
            nodes.append(rec)
            continue
        if not isinstance(rec, dict) or "id" not in rec:
            raise ValidationError(f"node record {i} has no `id`")
        nid, prob, stage = str(rec["id"]), rec.get("prob"), rec.get("stage")
        # a bool is an int; the ABC checks go last, they are slow
        if isinstance(prob, bool) or not isinstance(prob, (float, int, numbers.Real)):
            raise ValidationError(f"node {nid!r} has no numeric `prob` (a real number): {prob!r}")
        if isinstance(stage, bool) or not isinstance(stage, (int, numbers.Integral)):
            raise ValidationError(f"node {nid!r} has no numeric `stage` (an integer): {stage!r}")
        if exact and not isinstance(prob, Fraction):
            prob = Fraction(prob)
        nodes.append(Node(nid, None if rec.get("parent") is None else str(rec["parent"]),
                          int(stage), prob, rec.get("data")))
    return ScenarioTree(nodes, exact=exact)


class AdaptedProcess:
    """Node-indexed data over a contiguous stage range.

    Values must be present at every node of every covered stage; that makes
    adaptedness structural (a stage-t value can only depend on the stage-t
    node identity).
    """

    def __init__(self, tree, values, stages=None):
        self.tree = tree
        self.values = dict(values)
        present = sorted({tree.stage(nid) for nid in self.values})
        if stages is None:
            stages = present
        self.stages = list(stages)
        if sorted(self.stages) != list(range(min(self.stages), max(self.stages) + 1)):
            raise ValidationError("stage range must be contiguous")
        for s in self.stages:
            for nid in tree.stage_nodes[s]:
                if nid not in self.values:
                    raise ValidationError(f"process missing value at node {nid!r}")
        for nid in self.values:
            if tree.stage(nid) not in self.stages:
                raise ValidationError(f"value at node {nid!r} outside declared stage range")

    def __getitem__(self, nid):
        return self.values[nid]

    def at_stage(self, s):
        return {nid: self.values[nid] for nid in self.tree.stage_nodes[s]}


def cond_expect_scalar(proc, target_stage, source_stage=None):
    """Conditional expectation of a single-stage process down to target_stage.

    Accepts an AdaptedProcess covering one stage (or source_stage of a wider
    one) and returns the stage-target process of probability-weighted
    averages over descendants.  Generic over floats, Fractions and numpy
    vectors.
    """
    tree = proc.tree
    if source_stage is None:
        if len(proc.stages) != 1:
            raise ValidationError("source stage is ambiguous; pass source_stage")
        source_stage = proc.stages[0]
    if not 0 <= target_stage <= source_stage:
        raise StageOrder(f"target stage {target_stage} outside 0..{source_stage}")
    level = np.array([proc[nid] for nid in tree.stage_nodes[source_stage]],
                     dtype=object if tree.exact else None)
    for s in range(source_stage - 1, target_stage - 1, -1):
        level = tree.expect(s, level)
    level = level.tolist() if level.ndim == 1 else list(level)
    return AdaptedProcess(tree, dict(zip(tree.stage_nodes[target_stage], level)),
                          stages=[target_stage])


class PerpProcess:
    """Family (v_t)_{t=0..T} with v_t stored at measurability stage m_t.

    entries maps t -> (m_t, {node at stage m_t: vector}).  m_t is t for
    adapted data and t + 1 for increment-style data.
    """

    def __init__(self, tree, entries):
        self.tree = tree
        self.entries = {}
        for t, (stage, per_node) in entries.items():
            if t < 0 or stage not in (t, t + 1):
                raise ValidationError(f"perp entry {t}: index must be >= 0, "
                                      "measurability stage t or t+1")
            if stage > tree.T:
                raise ValidationError("measurability stage beyond horizon")
            for nid in tree.stage_nodes[stage]:
                if nid not in per_node:
                    raise ValidationError(f"perp entry {t} missing node {nid!r}")
            vecs = {nid: np.atleast_1d(np.asarray(per_node[nid], dtype=float))
                    for nid in tree.stage_nodes[stage]}
            first = next(iter(vecs.values()))
            for nid, vec in vecs.items():
                if vec.shape != first.shape:
                    raise ValidationError(f"perp entry {t} has size {vec.size} at node {nid!r}, "
                                          f"{first.size} at its first node")
            self.entries[t] = (stage, vecs)

    @staticmethod
    def from_adapted(proc):
        entries = {}
        for s in proc.stages:
            entries[s] = (s, proc.at_stage(s))
        return PerpProcess(proc.tree, entries)

    @staticmethod
    def zero(tree, dims):
        entries = {}
        for t in range(tree.T + 1):
            d = dims[t] if hasattr(dims, "__len__") else dims
            entries[t] = (t, {nid: np.zeros(d) for nid in tree.stage_nodes[t]})
        return PerpProcess(tree, entries)


def martingale_increments(proc):
    """Increment family v_t = s_{t+1} - s_t stored at stage t + 1.

    perp_check of the result holds exactly when the input process is a
    martingale; the trailing index T is filled with zeros.
    """
    tree = proc.tree
    S = [np.array([np.atleast_1d(np.asarray(proc[nid], dtype=float)) for nid in layer])
         for layer in tree.stage_nodes]
    entries = {t: (t + 1, dict(zip(tree.stage_nodes[t + 1], S[t + 1] - S[t][tree.up[t + 1]])))
               for t in range(tree.T)}
    entries[tree.T] = (tree.T, dict(zip(tree.stage_nodes[tree.T], np.zeros_like(S[tree.T]))))
    return PerpProcess(tree, entries)


def perp_check(v):
    """True iff every component of v_t conditions to zero at stage t (to 1e-12)."""
    if isinstance(v, AdaptedProcess):
        v = PerpProcess.from_adapted(v)
    tree = v.tree
    for t, (stage, per_node) in v.entries.items():
        down = np.array([per_node[nid] for nid in tree.stage_nodes[stage]])
        if stage > t:
            down = tree.expect(t, down)
        if np.max(np.abs(down), initial=0.0) > 1e-12:
            return False
    return True


def expected_pairing(tree, x, v):
    """E[sum_t x_t . v_t] for adapted x and a perp family v (float path)."""
    level = [np.zeros(len(layer)) for layer in tree.stage_nodes]
    for t, (stage, per_node) in v.entries.items():
        X = np.array([np.atleast_1d(np.asarray(x[nid], dtype=float))
                      for nid in tree.stage_nodes[t]])
        V = np.array([per_node[nid] for nid in tree.stage_nodes[stage]])
        level[stage] = level[stage] + np.einsum("ij,ij->i", X[tree.up[stage]] if stage > t else X, V)
    for t in range(tree.T - 1, -1, -1):
        level[t] = level[t] + tree.expect(t, level[t + 1])
    return float(level[0][0])


def _quantize(value):
    return round(float(value) / CLASS_TOL) * CLASS_TOL


def _future_law(tree, R, nid):
    """Distribution of the future value path below nid, keys quantized.  The
    walk is depth first in child order, on a stack: a recursive closure
    would be a reference cycle per call, left for the cyclic collector."""
    law, stack = {}, [(nid, 1.0, ())]
    while stack:
        cur, prob, path = stack.pop()
        kids = tree.children[cur]
        if not kids:
            law[path] = law.get(path, 0.0) + prob
        stack += reversed([(k, prob * float(tree.nodes[k].prob), path + (_quantize(R[k]),))
                           for k in kids])
    return law


def _laws_match(a, b):
    if set(a) != set(b):
        return False
    return all(abs(a[k] - b[k]) <= 1e-12 for k in a)


def _markov_pair(R):
    """First same-stage, same-class node pair with different future laws, or None."""
    tree = R.tree
    for t in range(tree.T + 1):
        classes = {}
        for nid in tree.stage_nodes[t]:
            classes.setdefault(_quantize(R[nid]), []).append(nid)
        for key, members in classes.items():
            if len(members) < 2:
                continue
            ref = _future_law(tree, R, members[0])
            for other in members[1:]:
                if not _laws_match(ref, _future_law(tree, R, other)):
                    return members[0], other
    return None


def is_markov(R):
    """True iff equal same-stage values of the adapted process R, in classes
    of width CLASS_TOL (1e-12), imply equal conditional future laws."""
    return _markov_pair(R) is None


def markov_witness(R):
    """Pair of same-stage, same-value nodes with different future laws."""
    pair = _markov_pair(R)
    if pair is None:
        raise NotMarkov("process is Markov; no witness exists")
    return pair
