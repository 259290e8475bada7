"""Quadrature engine for the classical integrals.

The well integrals have integrands w (lam - v)^p with p = +-1/2, singular
or sqrt-kinked at the turning points; well_integral returns both powers from
one set of evaluations of v.  Substituting x = x_pm -+ t^2 makes the
integrand smooth in t, after which plain Gauss-Legendre with order doubling
converges geometrically; the difference between the last two refinement
levels is the reported error estimate.  Interior singular points and piece
boundaries of the potential split the integration range.

turning_point_integral gives the action A(x) = int |lam - v|^(1/2) from a
turning point to x, the quantity a Langer chart is built on, as a function
on a whole range: the same t substitution, but one Chebyshev interpolant of
the integrand per segment, integrated once and kept, in place of one
adaptive quadrature per point.

Near t = 0 the ratio (lam - v)/t^2 is evaluated from the one-sided Taylor
model |v'| -+ (v''/2) t^2 instead of the cancellation-prone direct
difference; the crossover is far enough out that both branches agree to
~1e-10 relative.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .potential import Potential

__all__ = ["QuadratureError", "gl_adaptive", "well_integral", "turning_point_integral"]

_CUMSUM_DEG0 = 16  # first degree of the Chebyshev fits in _cheb_cumsum
_CUMSUM_DEG_MAX = 1024


class QuadratureError(RuntimeError):
    """Requested tolerance not reached at the maximum refinement level."""


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gl_adaptive(f, a: float, b: float, tol: float, n0: int = 16, n_max: int = 4096):
    """Integrate the components of a vectorized callable on [a, b].

    f(x) returns a tuple of integrand arrays on the nodes x.  The order
    doubles until two consecutive levels of a component agree to tol
    (absolute); that component is then frozen while the others refine, so
    each value is the one a call for that component alone returns.
    Returns (values, errors), one entry per component.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = errs = None
    n = n0
    while n <= n_max:
        xg, wg = _leggauss(n)
        ys = f(mid + half * xg)
        if vals is None:
            vals = [half * float(np.dot(wg, y)) for y in ys]
            errs = [None] * len(vals)
        else:
            for k, y in enumerate(ys):
                if errs[k] is None:
                    val = half * float(np.dot(wg, y))
                    if abs(val - vals[k]) <= tol:
                        errs[k] = abs(val - vals[k])
                    vals[k] = val
            if None not in errs:
                return tuple(vals), tuple(errs)
        n *= 2
    raise QuadratureError(f"no convergence to tol={tol} by n={n_max} nodes on [{a}, {b}]")


def _segments(pot: Potential, lo: float, hi: float, extra_breaks=()):
    """Split [lo, hi] at interior piece boundaries and caller breakpoints."""
    cuts = {float(b) for b in extra_breaks if lo < b < hi}
    for p in pot.pieces[:-1]:
        if lo < p.hi < hi:
            cuts.add(p.hi)
    pts = [lo] + sorted(cuts) + [hi]
    return [(a, b) for a, b in zip(pts[:-1], pts[1:]) if a < b]


def _sqrt_ratio(pot: Potential, lam: float, x0: float, inward: float, side: str):
    """Stable evaluator of r(t) = |lam - v(x0 + inward*t^2)| / t^2.

    x0 is a point with v(x0) = lam; inward is +-1.  Below the crossover the
    one-sided Taylor model r = |v'| - inward*sign(v')*(v''/2) t^2 is used.
    """
    _, d1, d2 = pot.eval(x0, side)
    slope = abs(d1)
    # r(t) = |v'| - eps*(v''/2) t^2 where eps = +1 when moving into the well
    # from a turning point, -1 when moving out (see module docstring).
    curv_sign = 1.0 if inward * d1 < 0 else -1.0
    t_c = 1.5e-3

    def ratio(t):
        x = x0 + inward * t * t
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = np.abs(lam - pot.value(x)) / (t * t)
        model = slope - curv_sign * 0.5 * d2 * t * t
        return np.where(t < t_c, model, direct)

    return ratio


def well_integral(pot: Potential, lam: float, lo: float, hi: float,
                  sqrt_lo: bool = False, sqrt_hi: bool = False, tol: float = 1e-10,
                  weight=None, weight_breaks=()):
    """Integrals of w(x) (lam - v(x))^(+1/2) and w(x) (lam - v(x))^(-1/2)
    over [lo, hi] inside the well, from one set of evaluations of v.

    sqrt_lo / sqrt_hi declare that the corresponding endpoint is a turning
    point (lam - v vanishes linearly there); the touching segment then uses
    the x = endpoint -+ t^2 substitution.  Each integral is converged to tol
    on its own.  Returns ((up, down), (up_error, down_error)).
    """
    if hi < lo:
        raise ValueError("hi < lo in well_integral")

    def wfac(x):
        return np.asarray(weight(x), dtype=float) if weight is not None else 1.0

    breaks = set(weight_breaks)
    if sqrt_lo and sqrt_hi:
        breaks.add(0.5 * (lo + hi))  # never desingularize both ends of one segment
    segs = _segments(pot, lo, hi, breaks)

    def plain(x):
        g = lam - pot.value(x)
        w = wfac(x)
        return g**0.5 * w, g**-0.5 * w

    def substituted(x0, inward, side):
        ratio = _sqrt_ratio(pot, lam, x0, inward, side)

        def f(t):
            r = ratio(t)
            w = wfac(x0 + inward * t * t)
            return 2.0 * t ** 2.0 * r ** 0.5 * w, 2.0 * r ** -0.5 * w

        return f

    up = down = up_err = down_err = 0.0
    for a, b in segs:
        f = plain
        if sqrt_hi and b == hi:
            f, a, b = substituted(hi, -1.0, "-"), 0.0, np.sqrt(hi - a)
        elif sqrt_lo and a == lo:
            f, a, b = substituted(lo, +1.0, "+"), 0.0, np.sqrt(b - lo)
        (u, d), (eu, ed) = gl_adaptive(f, a, b, tol / len(segs))
        up += u
        down += d
        up_err += eu
        down_err += ed
    return (up, down), (up_err, down_err)


def _cheb_cumsum(f, lo: float, hi: float, start: float, tol: float) -> np.polynomial.Chebyshev:
    """The antiderivative int_start^x f on [lo, hi], as a Chebyshev series.

    f is interpolated at Chebyshev points on [lo, hi] and integrated once
    (Clenshaw-Curtis cumulative integration; Trefethen, Approximation Theory
    and Approximation Practice, ch. 19).  The degree doubles from
    _CUMSUM_DEG0 until two successive antiderivatives agree to tol
    (absolute) at the Chebyshev-Lobatto points of the finer degree, a point
    set fixed by [lo, hi] alone; the finer one is returned.
    """
    prev = None
    deg = _CUMSUM_DEG0
    while deg <= _CUMSUM_DEG_MAX:
        anti = np.polynomial.Chebyshev.interpolate(f, deg, domain=[lo, hi]).integ(lbnd=start)
        if prev is not None:
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.polynomial.chebyshev.chebpts2(deg + 1)
            if np.max(np.abs(anti(pts) - prev(pts))) <= tol:
                return anti
        prev = anti
        deg *= 2
    raise QuadratureError(f"no convergence to tol={tol} by degree {_CUMSUM_DEG_MAX} on [{lo}, {hi}]")


def turning_point_integral(pot: Potential, lam: float, x_tp: float, x_end: float,
                           tol: float = 1e-10):
    """The action A(x) = int |lam - v|^(1/2) between the turning point x_tp
    and x, as a function valid for every x between x_tp and x_end.

    The side may be inside the well (the integrand of well_integral) or
    outside it; A(x_tp) = 0 and A >= 0 up to rounding.  The range is split
    at the interior piece boundaries of v.  The segment touching x_tp is
    integrated in t = |x - x_tp|^(1/2), where the integrand 2 t^2 r(t)^(1/2)
    of _sqrt_ratio is smooth, and each later one in x, starting from the
    running total.  Each segment keeps one cumulative Chebyshev integral
    (_cheb_cumsum), converged to tol / (number of segments) on points that
    depend on the segment alone, so A(x) depends on x alone, not on the
    other points of a call.  A takes an array and returns one of its shape.
    """
    outward = 1.0 if x_end > x_tp else -1.0
    segs = _segments(pot, min(x_tp, x_end), max(x_tp, x_end))
    if outward < 0:
        segs = [(b, a) for a, b in reversed(segs)]  # (near, far) ends, from x_tp outward
    tol_seg = tol / len(segs)
    bounds = [abs(far - x_tp) for _, far in segs[:-1]]

    ratio = _sqrt_ratio(pot, lam, x_tp, outward, "+" if outward > 0 else "-")
    t_end = math.sqrt(abs(segs[0][1] - x_tp))
    first = _cheb_cumsum(lambda t: 2.0 * t * t * np.sqrt(ratio(t)), 0.0, t_end, 0.0, tol_seg)
    a0 = first(0.0)  # the series rounds to ~1e-16 at t = 0; A(x_tp) is exactly 0

    def plain(xx):
        return np.sqrt(np.abs(lam - pot.value(xx)))

    later = []  # (action at the near end, antiderivative from the near end)
    total = float(first(t_end) - a0)
    for near, far in segs[1:]:
        anti = _cheb_cumsum(plain, min(near, far), max(near, far), near, tol_seg)
        later.append((total, anti))
        total += outward * float(anti(far))

    def action(x):
        x = np.asarray(x, dtype=float)
        dist = np.abs(x - x_tp)
        seg = np.searchsorted(bounds, dist)
        out = np.empty(x.shape)
        on = seg == 0
        out[on] = first(np.sqrt(dist[on])) - a0
        for i, (offset, anti) in enumerate(later, start=1):
            on = seg == i
            out[on] = offset + outward * anti(x[on])
        return out

    return action
