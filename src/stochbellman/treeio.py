"""Tree file format: JSON text with a `nodes` array.

Record shape: {"id": str, "parent": str|null, "prob": float, "stage": int,
"data": {...}}.  Data entries are scalars, vectors (lists), matrices (lists
of lists), or tagged convex-function records:

    {"kind": "quadratic", "Q": [[...]], "q": [...], "c": 0.0,
     "A": [[...]], "b": [...]}                  (A/b optional)
    {"kind": "polyhedral", "pieces": [[[grad], offset], ...],
     "C": [[...]], "d": [...]}                  (C/d optional)
    {"kind": "sampled1d", "knots": [...], "values": [...]}

Probabilities are emitted with repr precision (17 significant digits).
"""

import json

import numpy as np

from .convexfn import Polyhedral, Quadratic, Sampled1D, quadratics
from .errors import ValidationError
from .tree import validate_tree


def fn_to_record(fn):
    if isinstance(fn, Quadratic):
        rec = {"kind": "quadratic", "Q": fn.Q.tolist(), "q": fn.q.tolist(), "c": fn.c}
        if fn.A.shape[0]:
            rec["A"] = fn.A.tolist()
            rec["b"] = fn.b.tolist()
        return rec
    if isinstance(fn, Polyhedral):
        rec = {"kind": "polyhedral",
               "pieces": [[a.tolist(), float(b)] for a, b in zip(fn.pieces_a, fn.pieces_b)]}
        if fn.C.shape[0]:
            rec["C"] = fn.C.tolist()
            rec["d"] = fn.d.tolist()
        return rec
    if isinstance(fn, Sampled1D):
        return {"kind": "sampled1d", "knots": fn.knots.tolist(), "values": fn.values.tolist()}
    raise ValidationError(f"cannot serialize {type(fn).__name__}")


def _numeric(value, what):
    """value as a float array; ValidationError naming `what` if it is not
    numeric or holds a NaN or an infinity (JSON readers accept both)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} is not a numeric array") from None
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} has a non-finite entry")
    return arr


def fn_from_record(rec):
    kind = rec.get("kind") if isinstance(rec, dict) else None
    need = {"quadratic": ("Q", "q"), "polyhedral": ("pieces",), "sampled1d": ("knots", "values")}
    if kind not in need:
        raise ValidationError(f"unknown function record kind {kind!r}")
    for key in need[kind]:
        if key not in rec:
            raise ValidationError(f"{kind} record has no `{key}`")
    keys = ("Q", "q", "c", "A", "b", "C", "d", "knots", "values")
    arr = {k: _numeric(rec[k], f"`{k}` of a {kind} record") for k in keys if rec.get(k) is not None}
    if kind == "quadratic":
        return Quadratic(arr["Q"], arr["q"], arr.get("c", 0.0), arr.get("A"), arr.get("b"))
    if kind == "sampled1d":
        return Sampled1D(arr["knots"], arr["values"])
    try:
        grads, offs = (np.array([p[i] for p in rec["pieces"]], dtype=float) for i in (0, 1))
    except (TypeError, ValueError, IndexError, KeyError):
        raise ValidationError("`pieces` of a polyhedral record are not "
                              "[gradient, offset] pairs") from None
    if not (np.isfinite(grads).all() and np.isfinite(offs).all()):
        raise ValidationError("`pieces` of a polyhedral record have a non-finite entry")
    return Polyhedral(grads, offs, arr.get("C"), arr.get("d"))


def fns_from_records(recs, names):
    """fn_from_record of each record: quadratic records whose arrays stack,
    all finite, in one convexfn.quadratics call, an error naming names[i];
    others one by one, an error of a record naming its node."""
    try:
        if all(isinstance(rec, dict) and rec.get("kind") == "quadratic" for rec in recs):
            Q, q, c = (np.array([rec.get(k, 0.0) for rec in recs], dtype=float) for k in "Qqc")
            A, b = (np.array([rec.get(k) or [] for rec in recs], dtype=float) for k in "Ab")
            n, d = q.shape
            A = A if A.size else np.zeros((n, 0, d))
            if ((Q.shape, c.shape, A.shape[2:], b.shape) == ((n, d, d), (n,), (d,), A.shape[:2])
                    and all(np.isfinite(arr).all() for arr in (Q, q, c, A, b))):
                return quadratics(Q, q, c, A, b, names)
    except (TypeError, ValueError):
        pass
    fns = []
    for rec, name in zip(recs, names):
        try:
            fns.append(fn_from_record(rec))
        except ValidationError as exc:
            raise type(exc)(f"{exc} at node {name!r}") from exc
    return fns


def load_tree(path_or_file):
    """Parse a tree file; returns (ScenarioTree, document dict)."""
    if hasattr(path_or_file, "read"):
        doc = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise ValidationError("tree file has no `nodes` array")
    return validate_tree(doc["nodes"]), doc


def dump_tree(tree, extra=None, data_overrides=None):
    """Document dict for a tree; node data may be overridden per node."""
    nodes = []
    for nid in tree.nodes:
        n = tree.nodes[nid]
        data = dict(n.data)
        if data_overrides and nid in data_overrides:
            data.update(data_overrides[nid])
        nodes.append({"id": n.id, "parent": n.parent, "prob": float(n.prob),
                      "stage": n.stage, "data": data})
    doc = {"schema": 1, "horizon": tree.T, "nodes": nodes}
    if extra:
        doc.update(extra)
    return doc


def save_tree(tree, path, extra=None, data_overrides=None):
    """Write a tree file: the top-level keys, then one node record a line."""
    doc = dump_tree(tree, extra=extra, data_overrides=data_overrides)
    nodes = ",\n".join(map(json.dumps, doc.pop("nodes")))
    with open(path, "w") as fh:
        fh.write(f'{json.dumps(doc)[:-1]}, "nodes": [\n{nodes}\n]}}\n')
