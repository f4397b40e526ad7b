"""Golden-section line search and the coordinate descent built on it.

Used by the flat solver off its exact paths (see extensive) and the
exponential-loss hedge.  golden_min brackets a minimum of a convex function given as a
black box returning +inf outside its domain, runs golden-section to a
width tolerance, then sharpens with a parabolic fit (the fit recovers
argmin accuracy near 1e-9 where pure golden-section stalls at the noise
floor of the objective).
"""

import numpy as np

from .errors import Infeasible, IterationLimit, Unbounded

Inf = float("inf")
_PHI = 1.6180339887498949
WIDTH_TOL = 1e-12  # golden-section stop, relative to the bracket ends
DIVERGE = 1e12  # bracket expansion past this |x| means no minimizer
VALUE_TOL = 1e-10  # a sweep lowering the value by less (relative) stops
MAX_SWEEPS = 500


def _feasible_edge(f, good, bad):
    """Bisect between a finite and an infinite point; returns the finite edge."""
    for _ in range(80):
        mid = 0.5 * (good + bad)
        if f(mid) == Inf:
            bad = mid
        else:
            good = mid
    return good


def golden_min(f, x0=0.0, span=1.0):
    """Minimize a convex 1-D function; returns (argmin, value).

    Raises Infeasible when f(x0) is +inf, and Unbounded when the bracket
    expansion runs past DIVERGE without the function turning upward (the
    infimum is not attained).
    """
    f0 = f(x0)
    if f0 == Inf:
        raise Infeasible("start point must be feasible")
    step = max(abs(span), 1e-8)
    ends, firsts = [], []
    for sign in (-1.0, 1.0):
        end, s, first = x0, step, None
        while True:
            cand = x0 + sign * s
            fc = f(cand)
            if fc == Inf:
                end = _feasible_edge(f, end, cand)
                break
            if first is None:
                first = fc
            end = cand
            if fc >= f0:
                break
            if abs(cand) > DIVERGE:
                raise Unbounded("no minimizer in the searched range")
            s *= 2.0
        ends.append(end)
        firsts.append(first)
    if firsts == [f0, f0]:
        # convex and flat across [x0 - step, x0 + step]: slopes change sign
        # inside the plateau, so f0 is the global minimum
        return x0, f0
    a, b = ends
    c = b - (b - a) / _PHI
    d = a + (b - a) / _PHI
    fc_, fd_ = f(c), f(d)
    while abs(b - a) > WIDTH_TOL * (1.0 + abs(a) + abs(b)):
        if fc_ <= fd_:
            b, d, fd_ = d, c, fc_
            c = b - (b - a) / _PHI
            fc_ = f(c)
        else:
            a, c, fc_ = c, d, fd_
            d = a + (b - a) / _PHI
            fd_ = f(d)
    x = 0.5 * (a + b)
    fx = f(x)
    # parabolic sharpening: golden-section stalls near the value noise
    # floor; two fits at shrinking steps recover the argmin to ~1e-9
    for h in (1e-4, 1e-6):
        hh = h * (1.0 + abs(x))
        fm, fp = f(x - hh), f(x + hh)
        if not (np.isfinite(fm) and np.isfinite(fp)):
            continue
        denom = fp - 2.0 * fx + fm
        if denom <= 0:
            continue
        cand = x - 0.5 * hh * (fp - fm) / denom
        fcand = f(cand)
        if fcand <= fx + 1e-11 * (1.0 + abs(fx)):
            x, fx = cand, fcand
    if f0 < fx:
        return x0, f0
    return x, fx


def coordinate_descent(f, x0):
    """Cyclic coordinate minimization of a convex function of a vector.

    Each sweep runs one golden_min per coordinate; the bracket span starts
    at 1 and then follows the square root of the last sweep's decrease.
    Stops when a sweep lowers the value by at most VALUE_TOL (relative),
    after one sweep for a single coordinate.  Returns (argmin, value,
    sweeps); raises IterationLimit after MAX_SWEEPS sweeps.
    """
    x = np.asarray(x0, dtype=float).copy()
    val = f(x)
    span = 1.0
    for sweep in range(1, MAX_SWEEPS + 1):
        prev = val
        for j in range(x.size):
            def restr(a, j=j):
                old = x[j]
                x[j] = a
                out = f(x)
                x[j] = old
                return out
            x[j], val = golden_min(restr, x[j], span=span)
        if x.size == 1 or abs(prev - val) <= VALUE_TOL * (1.0 + abs(val)):
            return x, val, sweep
        span = max(abs(prev - val) ** 0.5, 1e-6)
    raise IterationLimit("coordinate descent hit the sweep limit")
