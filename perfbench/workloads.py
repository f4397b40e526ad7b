"""The workloads: which CLI session each runs and how its output is checked.

Standard library only.  The benchmark process imports this module, and it
must stay small: on Linux a child's peak RSS as wait4 reports it starts
from the parent's RSS at the fork, so a parent holding numpy or a solved
instance would inflate every child's `peak_rss_mb`.  Inputs and references
come from `instances.py`, run as a child.
"""

import math
from dataclasses import dataclass
from typing import Callable

@dataclass(frozen=True)
class Workload:
    """One CLI session type: how to write its inputs, run it and check it.

    `argv(workdir)` is the CLI argument list for the inputs that
    `instances.py` writes into workdir.  Every key in `keys` of the
    structured report must be within `tol` of the oracle reference;
    `extra(report)` lists further problems.
    """

    name: str
    horizon: int
    toy_horizon: int
    keys: tuple
    tol: float
    argv: Callable
    extra: Callable = lambda report: []

    def check(self, report, ref):
        """(largest |value - reference|, problems) for one structured report."""
        problems = []
        err = 0.0
        for key in self.keys:
            val = report.get(key)
            if not isinstance(val, (int, float)) or not math.isfinite(val):
                problems.append(f"{key} missing or not a finite number: {val!r}")
                continue
            err = max(err, abs(val - ref))
        if err > self.tol:
            problems.append(f"|value - reference| = {err:.3g} > {self.tol:g}")
        return err, problems + self.extra(report)


def _assumptions_pass(report):
    rep = report.get("assumption_report") or {"report": "missing"}
    return [f"assumption {k}: {v}" for k, v in sorted(rep.items()) if v != "PASS"]


def _feedback_optimal(report):
    return [] if report.get("feedback_optimal") is True else ["feedback_optimal is not true"]


# Tolerances: the exact paths (KKT, Riccati, dense simplex) meet their
# oracles to rounding, so 1e-6..1e-8 only leaves room for summation order.
# The grid driver interpolates tables on 2001 wealth points (spacing about
# 0.008 here) of functions whose slopes jump by up to about 10, so its
# error is bounded by about 1e-2 (under 2e-4 seen on seeds 1-10).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="quad-solve", horizon=7, toy_horizon=2, keys=("value",), tol=1e-6,
        argv=lambda wd: ["solve", "--input", str(wd / "problem.json"),
                         "--format", "structured"],
        extra=_assumptions_pass),
    Workload(
        name="lq-control", horizon=11, toy_horizon=2,
        keys=("riccati_value", "recursion_value"), tol=1e-8,
        argv=lambda wd: ["control", "--input", str(wd / "lq.json"),
                         "--format", "structured"],
        extra=_feedback_optimal),
    Workload(
        name="lp-inventory", horizon=6, toy_horizon=2, keys=("value",), tol=1e-7,
        argv=lambda wd: ["lagrange", "--input", str(wd / "lp.json"),
                         "--format", "structured"]),
    Workload(
        name="hedge-grid", horizon=1, toy_horizon=1, keys=("value",), tol=1e-2,
        argv=lambda wd: ["hedge", "--input", str(wd / "market.json"),
                         "--loss", f"grid:{wd / 'loss.json'}", "--wealth", "0.2",
                         "--format", "structured"]),
)}
