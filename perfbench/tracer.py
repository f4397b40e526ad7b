"""Spans at the module boundaries of `stochbellman`, recorded from outside.

The tracer replaces functions in the package's module namespaces with
timing wrappers; the program's source is never edited.  A boundary is a
function that `cli`, `bellman`, `control`, `convexfn`, `lagrange`,
`hedging` or `extensive` imports from another module of the package, plus
the functions reached as module attributes or by imports inside a function
(`treeio.load_tree`, `polyhedra.fm_project`, `lagrange.lagrange_policy`)
and the output step `cli._emit`.  One wrapper per function is installed
under every name that refers to it, the defining module's included, so
each call is one span however it is reached.

A span records its name, start, end, parent span and thread id.  Parents
are tracked per thread: the sweep's stage workers run on pool threads, so
a worker's spans have no parent and their time overlaps the caller's span
on the main thread.  Self time is a span's duration minus its children's,
so it is per thread by construction.
"""

import bisect
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

IMPORTERS = ("cli", "bellman", "control", "convexfn", "lagrange", "hedging", "extensive")
EXTRA_BOUNDARIES = (("treeio", "load_tree"), ("polyhedra", "fm_project"),
                    ("lagrange", "lagrange_policy"), ("cli", "_emit"))

# Span names whose total and self time are reported as per-layer metrics.
TIMED = (
    "treeio.load_tree", "cli._emit",
    "bellman.solve_be", "bellman.extract_policy", "bellman.optimum_value",
    "bellman.check_assumptions",
    "extensive.solve_extensive", "convexfn.partial_min", "polyhedra.fm_project",
    "simplex.solve_lp", "numeric.coordinate_descent",
    "control.solve_oc", "control.riccati", "control.verify_oc_policy",
    "lagrange.lp_recursion", "lagrange.lagrange_policy",
    "hedging.na_check", "hedging.solve_alm",
)
# Span names whose call counts are reported.
COUNTED = ("extensive.solve_extensive", "convexfn.partial_min",
           "polyhedra.fm_project", "simplex.solve_lp", "numeric.coordinate_descent")
# Size peaks read from arguments and results at the boundary.
PEAKS = ("extensive.peak_nvars", "convexfn.peak_eq_rows", "convexfn.peak_pieces",
         "convexfn.peak_dom_rows", "polyhedra.peak_fm_rows", "simplex.peak_lp_rows")


def metric_name(span):
    """Metric stem of a span: `cli._emit` reports as `cli.emit`."""
    mod, fn = span.split(".", 1)
    return f"{mod}.{fn.lstrip('_')}"


def _rows(a):
    return 0 if a is None else len(a)


def _partial_min_shape(args, kwargs, result):
    f = args[0]
    if hasattr(f, "A"):  # Quadratic: equality rows on the affine domain
        yield "convexfn.peak_eq_rows", f.A.shape[0]
    if hasattr(f, "pieces_a"):  # Polyhedral: pieces and domain rows
        yield "convexfn.peak_pieces", f.pieces_a.shape[0]
        yield "convexfn.peak_dom_rows", f.C.shape[0]


def _fm_project_shape(args, kwargs, result):
    # rows in and out; the rows between eliminations are not visible here
    yield "polyhedra.peak_fm_rows", max(np.atleast_2d(args[0]).shape[0], result[0].shape[0])


def _solve_lp_shape(args, kwargs, result):
    a_ub = args[1] if len(args) > 1 else kwargs.get("A_ub")
    a_eq = args[3] if len(args) > 3 else kwargs.get("A_eq")
    yield "simplex.peak_lp_rows", _rows(a_ub) + _rows(a_eq)


def _solve_extensive_shape(args, kwargs, result):
    yield "extensive.peak_nvars", args[0].nvars


SHAPES = {"convexfn.partial_min": _partial_min_shape,
          "polyhedra.fm_project": _fm_project_shape,
          "simplex.solve_lp": _solve_lp_shape,
          "extensive.solve_extensive": _solve_extensive_shape}


class Tracer:
    """Installs boundary wrappers and keeps the spans they record in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id or None, name, thread id, start, end)
        self.peaks = dict.fromkeys(PEAKS, 0)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (module, attribute, original)

    def boundaries(self):
        """{span name: function} for every boundary of the loaded package."""
        found = {}
        for short in IMPORTERS:
            mod = importlib.import_module(f"stochbellman.{short}")
            for val in vars(mod).values():
                origin = getattr(val, "__module__", "") or ""
                if (inspect.isfunction(val) and origin.startswith("stochbellman.")
                        and origin != mod.__name__):
                    found[f"{origin.split('.', 1)[1]}.{val.__name__}"] = val
        for short, attr in EXTRA_BOUNDARIES:
            found[f"{short}.{attr}"] = getattr(importlib.import_module(f"stochbellman.{short}"), attr)
        return found

    def install(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.boundaries().items()}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("stochbellman."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        shape = SHAPES.get(name)

        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(), start, end))
            if shape is not None:
                for key, size in shape(args, kwargs, result):
                    with self._lock:
                        self.peaks[key] = max(self.peaks[key], int(size))
            return result

        return wrapper

    def write_spans(self, fh, session):
        """Write the spans to an open file as JSON lines, one per span."""
        for sid, parent, name, tid, start, end in self.spans:
            fh.write(json.dumps({"session": session, "id": sid, "parent": parent,
                                 "name": name, "thread": tid, "start": start,
                                 "end": end}) + "\n")


def summarize(spans, main_thread):
    """Per-name totals, self times and call counts of one session.

    `top` holds the totals of the spans with no parent on `main_thread`,
    the session's top-level steps; their sum, `covered_s`, is the part of
    the session that some boundary accounts for.  `pooled` names the
    main-thread spans during which other threads recorded spans: their
    self time includes waiting for those threads.
    """
    others = sorted(start for _, _, _, tid, start, _ in spans if tid != main_thread)
    child_time = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    top = defaultdict(float)
    pooled = set()
    for sid, parent, name, tid, start, end in spans:
        total[name] += end - start
        own[name] += end - start - child_time[sid]
        calls[name] += 1
        if tid == main_thread:
            if parent is None:
                top[name] += end - start
            i = bisect.bisect_left(others, start)
            if i < len(others) and others[i] <= end:
                pooled.add(name)
    return {"total": dict(total), "self": dict(own), "calls": dict(calls),
            "top": dict(top), "covered_s": sum(top.values()), "pooled": pooled}
