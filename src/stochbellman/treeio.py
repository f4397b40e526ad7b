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

Every numeric per-node entry a command reads becomes a checked float array
through one of two functions: `node_entry` converts one node's entry, and
`stage_stack` stacks one entry of all of a stage's nodes, falling back to
`node_entry` node by node to name the first faulty node.  A bare number
stands for a length-1 vector or a 1x1 matrix.  Function records have their
own reader (`fn_from_record`, `fns_from_records`).
"""

import json

import numpy as np

from .convexfn import Polyhedral, Quadratic, Sampled1D, quadratics
from .errors import DimensionMismatch, ValidationError
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
    numeric (a JSON null, which numpy reads as NaN, included) or holds a
    NaN or an infinity (JSON readers accept both)."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} is not a numeric array") from None
    if not np.isfinite(arr).all():
        if any(v is None for v in np.ravel(np.array(value, dtype=object))):
            raise ValidationError(f"{what} is not a numeric array")
        raise ValidationError(f"{what} has a non-finite entry")
    return arr


def node_entry(value, what, nid, shape):
    """Entry `what` of node `nid` as a float array of `shape`: () for a
    number, (n,) for a vector, (n, m) for a matrix, with None for a length
    the entry sets.  A bare number stands for a length-1 vector or a 1x1
    matrix.  A non-numeric or non-finite entry raises ValidationError, one
    of another shape DimensionMismatch, each naming the node."""
    arr = _numeric(value, f"{what} at {nid!r}")
    if len(shape):
        arr = np.atleast_1d(arr) if len(shape) == 1 else np.atleast_2d(arr)
    if arr.ndim != len(shape) or any(k not in (None, s) for k, s in zip(shape, arr.shape)):
        if len(shape) == 2 and shape[0] is None and shape[1] is not None:
            want = f"a matrix of width {shape[1]}"
        elif None in shape or not shape:
            want = ("a number", "a vector", "a matrix")[len(shape)]
        else:
            want = f"length {shape[0]}" if len(shape) == 1 else "x".join(map(str, shape))
        raise DimensionMismatch(f"{what} at {nid!r} is not {want}")
    return arr


def stage_stack(values, what, nodes, shape):
    """Entries `what` of a stage's nodes, `values` in `nodes` order, as one
    new float array of shape (len(nodes), *shape); when they do not stack to
    that shape with every entry finite, node_entry reads them one by one, so
    the error names the first faulty node."""
    try:
        stack = np.array(values, dtype=float)
        if stack.shape == (len(nodes), *shape) and np.isfinite(stack).all():
            return stack
    except (TypeError, ValueError):
        pass
    return np.array([node_entry(v, what, nid, shape) for v, nid in zip(values, nodes)])


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


def read_json(path):
    """The JSON document of the file at `path`; text that is not UTF-8 or
    not JSON raises ValidationError naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {str(path)!r}: {exc}") from None


def load_tree(path):
    """Parse a tree file; returns (ScenarioTree, document dict)."""
    doc = read_json(path)
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
