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

from .convexfn import Polyhedral, Quadratic, Sampled1D
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


def fn_from_record(rec):
    kind = rec.get("kind")
    if kind == "quadratic":
        return Quadratic(rec["Q"], rec["q"], rec.get("c", 0.0),
                         rec.get("A"), rec.get("b"))
    if kind == "polyhedral":
        grads = [p[0] for p in rec["pieces"]]
        offs = [p[1] for p in rec["pieces"]]
        return Polyhedral(grads, offs, rec.get("C"), rec.get("d"))
    if kind == "sampled1d":
        return Sampled1D(rec["knots"], rec["values"])
    raise ValidationError(f"unknown function record kind {kind!r}")


def load_tree(path_or_file):
    """Parse a tree file; returns (ScenarioTree, document dict)."""
    if hasattr(path_or_file, "read"):
        doc = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            doc = json.load(fh)
    if "nodes" not in doc:
        raise ValidationError("tree file has no `nodes` array")
    tree = validate_tree(doc["nodes"])
    for rec in doc["nodes"]:
        node = tree.nodes[str(rec["id"])]
        node.data.update(rec.get("data", {}))
    return tree, doc


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
