"""One-dimensional convex minimization helpers.

Used by the several-asset wealth-grid hedge, the flat coordinate-descent
solver and the exponential-loss hedging recursion.  golden_min brackets a
minimum of a convex function given as a black box returning +inf outside
its domain, runs golden-section to a width tolerance, then sharpens with a
parabolic fit (the fit recovers argmin accuracy near 1e-9 where pure
golden-section stalls at the noise floor of the objective).
"""

import numpy as np

from .errors import UnboundedExp

Inf = float("inf")
_PHI = 1.6180339887498949


def _feasible_edge(f, good, bad):
    """Bisect between a finite and an infinite point; returns the finite edge."""
    for _ in range(80):
        mid = 0.5 * (good + bad)
        if f(mid) == Inf:
            bad = mid
        else:
            good = mid
    return good


def golden_min(f, x0=0.0, span=1.0, width_tol=1e-12, refine=True, diverge=1e8):
    """Minimize a convex 1-D function; returns (argmin, value).

    Raises UnboundedExp when the bracket expansion runs past `diverge`
    without the function turning upward (the infimum is not attained).
    """
    f0 = f(x0)
    if f0 == Inf:
        raise ValueError("start point must be feasible")
    lo = hi = x0
    step = max(abs(span), 1e-8)
    s = step
    first_left = first_right = None
    while True:
        cand = x0 - s
        fc = f(cand)
        if fc == Inf:
            lo = _feasible_edge(f, lo, cand)
            break
        if first_left is None:
            first_left = fc
        lo = cand
        if fc >= f0:
            break
        if abs(cand) > diverge:
            raise UnboundedExp("no minimizer in the searched range (left)")
        s *= 2.0
    s = step
    while True:
        cand = x0 + s
        fc = f(cand)
        if fc == Inf:
            hi = _feasible_edge(f, hi, cand)
            break
        if first_right is None:
            first_right = fc
        hi = cand
        if fc >= f0:
            break
        if abs(cand) > diverge:
            raise UnboundedExp("no minimizer in the searched range (right)")
        s *= 2.0
    if first_left == f0 and first_right == f0:
        # convex and flat across [x0 - step, x0 + step]: slopes change sign
        # inside the plateau, so f0 is the global minimum
        return x0, f0
    a, b = lo, hi
    c = b - (b - a) / _PHI
    d = a + (b - a) / _PHI
    fc_, fd_ = f(c), f(d)
    while abs(b - a) > width_tol * (1.0 + abs(a) + abs(b)):
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
    if refine:
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


def coordinate_descent(f, x0, span=1.0, value_tol=1e-10, max_sweeps=500,
                       width_tol=1e-12, diverge=1e8, refine=True):
    """Cyclic coordinate minimization of a convex function of a vector."""
    x = np.asarray(x0, dtype=float).copy()
    val = f(x)
    for sweep in range(max_sweeps):
        prev = val
        for j in range(x.size):
            def restr(a, j=j):
                old = x[j]
                x[j] = a
                out = f(x)
                x[j] = old
                return out
            xj, val = golden_min(restr, x[j], span=span, width_tol=width_tol,
                                 diverge=diverge, refine=refine)
            x[j] = xj
        if x.size == 1:
            break  # a single coordinate is the whole problem
        if abs(prev - val) <= value_tol * (1.0 + abs(val)):
            break
    return x, val
