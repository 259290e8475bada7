"""Quadrature engine for the classical integrals.

The well integrals have integrands w (lam - v)^p with p = +-1/2, singular
or sqrt-kinked at the turning points; well_integral returns both powers from
one set of evaluations of v.  Substituting x = x_pm -+ t^2 makes the
integrand smooth in t, after which plain Gauss-Legendre with order doubling
converges geometrically; the difference between the last two refinement
levels is the reported error estimate.  Interior singular points and piece
boundaries of the potential split the integration range.

The Gauss-Legendre rules of orders 16 and 32, the only ones a run of a
committed config reaches, are constants (_GL_RULES, printed from numpy's
leggauss by tools/make_gl_rules.py), so no run builds a rule or depends on
the eigensolver of the numpy at hand.  Orders 64 to _GL_N_MAX come from
Newton's method on the Legendre recurrence (_gl_newton), in O(n^2).

well_integral takes arrays of lam, lo and hi, so one call serves every
energy of a level solve: each refinement level is one array of nodes over
(interval, segment, node) per block of intervals, every segment converges
and freezes on its own, and an interval's result is the one a call with it
alone returns.  A scalar call is the batch of one.

turning_point_integral gives the action A(x) = int |lam - v|^(1/2) from a
turning point to x, the quantity a Langer chart is built on, as a function
on a whole range: the same t substitution, but one Chebyshev interpolant of
the integrand per segment, integrated once and kept, in place of one
adaptive quadrature per point.  The interpolant (_cheb_cumsum) is built
from matrices cached per degree without a BLAS call, and is evaluated by
Clenshaw's recurrence.

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

__all__ = ["TOL_QUAD", "QuadratureError", "gl_adaptive", "well_integral", "turning_point_integral"]

_GL_N0 = 16  # first Gauss-Legendre order of gl_adaptive
_GL_N_MAX = 4096
_NEWTON_STEPS = 10  # bound on the Newton steps of _gl_newton (it takes 3 or 4)
_NEWTON_TOL = 1e-15  # _gl_newton stops once no node moves by more than this
_CUMSUM_DEG0 = 16  # first degree of the Chebyshev fits in _cheb_cumsum
_CUMSUM_DEG_MAX = 1024
_EPS = np.finfo(float).eps
_BLOCK_SEGMENTS = 128  # segments per gl_adaptive block in well_integral
_T_CROSS = 1.5e-3  # below this t, r(t) comes from the Taylor model of _taylor
TOL_QUAD = 1e-10  # default absolute tolerance of well_integral and of turning_point_integral


class QuadratureError(RuntimeError):
    """Requested tolerance not reached at the maximum refinement level."""


# The rules of the orders that every run of gl_adaptive uses, as constants:
# numpy.polynomial.legendre.leggauss(n) bit for bit (on numpy 2.4 with
# OpenBLAS), each as its positive nodes, ascending, and their weights.  The
# block is written by tools/make_gl_rules.py.
# BEGIN GL RULES (tools/make_gl_rules.py)
_GL_RULES = {
    16: (
        (
            0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
            0.6178762444026438, 0.755404408355003, 0.8656312023878318,
            0.9445750230732326, 0.9894009349916499,
        ),
        (
            0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
            0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
            0.062253523938647456, 0.027152459411754176,
        ),
    ),
    32: (
        (
            0.048307665687738324, 0.1444719615827965, 0.23928736225213706,
            0.33186860228212767, 0.42135127613063533, 0.5068999089322294,
            0.5877157572407623, 0.6630442669302152, 0.7321821187402897,
            0.7944837959679424, 0.84936761373257, 0.8963211557660521,
            0.9349060759377397, 0.9647622555875064, 0.9856115115452684,
            0.9972638618494816,
        ),
        (
            0.09654008851472766, 0.09563872007927471, 0.09384439908080451,
            0.09117387869576378, 0.08765209300440378, 0.08331192422694671,
            0.07819389578707023, 0.07234579410884834, 0.06582222277636168,
            0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
            0.034273862913021765, 0.025392065309262024, 0.016274394730905743,
            0.007018610009470506,
        ),
    ),
}
# END GL RULES


def _gl_newton(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending, by
    Newton's method on P_n from Tricomi's guesses (cf. N. Hale and
    A. Townsend, SIAM J. Sci. Comput. 35 (2013) A652).

    P_n and P_(n-1) come from the three-term recurrence, at every node
    x >= 0 at once; the steps stop once none moves a node by more than
    _NEWTON_TOL, and the weights 2 / ((1 - x^2) P_n'(x)^2), taken at the
    nodes that result, are scaled to sum to 2.  The rule is the mirror
    image of its positive half, so it is exactly symmetric.  O(n^2)
    operations, against the O(n^3) of the eigenproblem of leggauss.
    """
    k = np.arange(n // 2 + n % 2, 0, -1)  # the nodes x >= 0, ascending
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)) * np.cos(theta)
    if n % 2:
        x[0] = 0.0  # P_n is odd: its middle root is 0 exactly

    def slope(x):
        """P_n'(x) and P_n(x)."""
        p, q = x, np.ones_like(x)  # P_1, P_0
        for j in range(2, n + 1):
            p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
        return n * (q - x * p) / ((1 - x) * (1 + x)), p

    for _ in range(_NEWTON_STEPS):
        dp, p = slope(x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    dp, _ = slope(x)
    w = 2 / ((1 - x) * (1 + x) * dp * dp)
    x = np.concatenate((-x[::-1][:n // 2], x))
    w = np.concatenate((w[::-1][:n // 2], w))
    return x, w * (2.0 / w.sum())


@lru_cache(maxsize=32)
def _leggauss(n: int):
    """Nodes, ascending, and weights of the n-point Gauss-Legendre rule on
    [-1, 1]: the mirrored constants of _GL_RULES, else _gl_newton's rule."""
    if n not in _GL_RULES:
        return _gl_newton(n)
    x, w = (np.array(v) for v in _GL_RULES[n])
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def gl_adaptive(f, a, b, tol):
    """Integrate the components of a vectorized callable on [a, b], for
    every entry of the arrays a, b at once.

    f(x) takes the Gauss-Legendre nodes of every entry, an array of shape
    a.shape + (n,), and returns a tuple of integrand arrays of that shape.
    The order doubles from _GL_N0 up to _GL_N_MAX for all entries together.
    An entry of a component is frozen once two consecutive levels agree to
    its tol (absolute; tol broadcasts against a) while the others refine,
    so each value is the one a call for that entry and component alone
    returns.  Returns
    (values, errors), one array per component; floats for scalar a and b.
    """
    a, b, tol = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, tol)))
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = errs = None
    n = _GL_N0
    while n <= _GL_N_MAX:
        xg, wg = _leggauss(n)
        ys = f(mid[..., None] + half[..., None] * xg)
        level = half * np.stack([np.sum(wg * y, axis=-1) for y in ys])  # (component, entry)
        if vals is None:
            vals, errs = level, np.full(level.shape, np.nan)  # nan: not converged yet
        else:
            live = np.isnan(errs)
            diff = np.abs(level - vals)
            errs = np.where(live & (diff <= tol), diff, errs)
            vals = np.where(live, level, vals)
            if not np.isnan(errs).any():
                if half.ndim == 0:
                    return tuple(map(float, vals)), tuple(map(float, errs))
                return tuple(vals), tuple(errs)
        n *= 2
    i = np.flatnonzero(np.isnan(errs).any(axis=0))[0]  # the first entry still open
    raise QuadratureError(f"no convergence to tol={float(tol.flat[i])!r} by n={_GL_N_MAX} nodes "
                          f"on [{float(a.flat[i])!r}, {float(b.flat[i])!r}]")


def _segment_ends(pot: Potential, lo: np.ndarray, hi: np.ndarray, extra=()) -> np.ndarray:
    """Ends of the segments of each [lo, hi] split at its interior piece
    boundaries and at the breaks extra (each broadcast against lo): one row
    [lo, cuts ascending, hi] per interval, padded with hi so that every row
    has the same length."""
    cols = [np.broadcast_to(np.asarray(c, dtype=float), lo.shape)
            for c in (*pot._boundaries(), *extra)]
    cuts = np.stack(cols, axis=-1) if cols else np.empty(lo.shape + (0,))
    cuts = np.sort(np.where((lo[..., None] < cuts) & (cuts < hi[..., None]), cuts, math.inf), axis=-1)
    cuts[..., 1:][cuts[..., 1:] == cuts[..., :-1]] = math.inf  # a repeated break splits once
    cuts = np.minimum(np.sort(cuts, axis=-1), hi[..., None])
    return np.concatenate((lo[..., None], cuts, hi[..., None]), axis=-1)


def _segments(pot: Potential, lo: float, hi: float, extra=()) -> list:
    """[lo, hi] split at its interior piece boundaries and at the breaks
    extra, as (a, b) pairs."""
    pts = _segment_ends(pot, np.asarray(float(lo)), np.asarray(float(hi)), extra)
    return [(float(a), float(b)) for a, b in zip(pts[:-1], pts[1:]) if a < b]


def _taylor(pot: Potential, x0, inward):
    """Coefficients (c0, c2) of the one-sided model r = c0 - c2 t^2 of
    r(t) = |lam - v(x0 + inward t^2)| / t^2 at a point x0 with v(x0) = lam.

    inward is +-1 (an array broadcast against x0), and v', v'' are the
    limits from that side: r = |v'| - eps (v''/2) t^2, where eps = +1 when
    moving into the well from a turning point and -1 when moving out.
    """
    left = np.asarray(inward) < 0
    d1 = pot.deriv(x0, left)
    d2 = pot.deriv2(x0, left)
    return np.abs(d1), np.where(inward * d1 < 0, 1.0, -1.0) * 0.5 * d2


def _ratio(g, t, c0, c2):
    """r(t) = |g| / t^2 with g = lam - v(x0 + inward t^2), taken from the
    model c0 - c2 t^2 of _taylor below the crossover t = _T_CROSS."""
    t2 = t * t
    r = np.abs(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        r /= t2
    np.copyto(r, c0 - c2 * t2, where=t < _T_CROSS)
    return r


def well_integral(pot: Potential, lam, lo, hi,
                  sqrt_lo: bool = False, sqrt_hi: bool = False, tol: float = TOL_QUAD,
                  weight=None, weight_breaks=()):
    """Integrals of w(x) (lam - v(x))^(+1/2) and w(x) (lam - v(x))^(-1/2)
    over [lo, hi] inside the well, from one set of evaluations of v.

    sqrt_lo / sqrt_hi declare that the corresponding endpoint is a turning
    point (lam - v vanishes linearly there); the touching segment then uses
    the x = endpoint -+ t^2 substitution.  Each integral is converged to tol
    on its own.  Returns ((up, down), (up_error, down_error)).

    lam, lo and hi may be arrays; they broadcast, and the results are
    arrays of their shape.  The intervals are integrated together, in
    blocks of whole intervals with at most _BLOCK_SEGMENTS segments (which
    bounds the size of the node arrays): one gl_adaptive call per block,
    each segment frozen once it converges, so an interval's values are the
    ones a call with it alone returns.
    """
    lam, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lam, lo, hi)))
    shape = lam.shape
    lam, lo, hi = (v.reshape(-1) for v in (lam, lo, hi))
    if np.any(hi < lo):
        raise ValueError("hi < lo in well_integral")

    extra = [float(b) for b in weight_breaks]
    if sqrt_lo and sqrt_hi:
        extra.append(0.5 * (lo + hi))  # never desingularize both ends of one segment
    pts = _segment_ends(pot, lo, hi, extra)
    a, b = pts[:, :-1], pts[:, 1:]
    lo_, hi_ = lo[:, None], hi[:, None]
    filled = a < b
    at_hi = sqrt_hi & (b == hi_)
    at_lo = sqrt_lo & (a == lo_) & ~at_hi
    sub = at_hi | at_lo
    # substituted segments are integrated in t = |x - x0|^(1/2) from 0, the rest in x
    t_a = np.where(sub, 0.0, a)
    t_b = np.where(at_hi, np.sqrt(hi_ - a), np.where(at_lo, np.sqrt(b - lo_), b))
    x0 = np.where(at_hi, hi_, lo_)
    inward = np.where(at_hi, -1.0, 1.0)
    c0, c2 = _taylor(pot, x0, inward)
    tol_seg = tol / np.maximum(np.sum(filled, axis=1, keepdims=True), 1)

    def integrand(rows):
        lam_, x0_, inward_, c0_, c2_, sub_, filled_ = (
            v[rows][..., None] for v in (lam[:, None], x0, inward, c0, c2, sub, filled))
        plain_, scale_ = ~sub_, np.where(sub_, 2.0, 1.0)
        empty_ = ~filled_ if not filled_.all() else None

        def f(t):
            # in t: (2 t^2 r^(1/2), 2 r^(-1/2)); in x: ((lam - v)^(1/2), (lam - v)^(-1/2))
            x = np.where(sub_, x0_ + inward_ * t * t, t)
            w = None if weight is None else np.asarray(weight(x), dtype=float)
            g = lam_ - pot.value(x)
            del x  # node arrays are large: free each as soon as it is used
            with np.errstate(divide="ignore", invalid="ignore"):
                root = _ratio(g, t, c0_, c2_)
                np.copyto(root, g, where=plain_)
                del g
                np.sqrt(root, out=root)
                up = np.where(sub_, t * t, 1.0)
                up *= scale_
                up *= root
                down = np.divide(scale_, root, out=root)
            for y in (up, down):
                if w is not None:
                    y *= w
                if empty_ is not None:
                    np.copyto(y, 0.0, where=empty_)
            return up, down

        return f

    # blocks of whole intervals bound the size of the node arrays
    step = max(1, _BLOCK_SEGMENTS // a.shape[1])
    blocks = [slice(k, k + step) for k in range(0, len(lam), step)] or [slice(0, 0)]
    parts = [gl_adaptive(integrand(rows), t_a[rows], t_b[rows], tol_seg[rows]) for rows in blocks]
    out = [np.concatenate([np.sum(part[i][k], axis=1) for part in parts]).reshape(shape)
           for i, k in ((0, 0), (0, 1), (1, 0), (1, 1))]
    if not shape:
        out = [float(v) for v in out]
    return (out[0], out[1]), (out[2], out[3])


@lru_cache(maxsize=None)
def _cheb_matrices(deg: int):
    """The arrays of degree deg of _cheb_cumsum, which depend on deg alone.

    With n = deg + 1 and the Chebyshev points x_j = cos(theta_j),
    theta_j = pi (j + 1/2) / n, of the first kind on [-1, 1], returns:
    the x_j; the n x n matrix that takes the values at the x_j to the
    coefficients of the interpolant of degree deg (the discrete cosine
    transform, c_k = (2 - [k = 0]) / n sum_j T_k(x_j) y_j); and the matrix
    T_k(cos(pi j / deg)) that takes the deg + 2 coefficients of an
    antiderivative to its values at the deg + 1 Chebyshev-Lobatto points.
    Every angle is reduced exactly in integers before its cosine is taken.
    """
    n = deg + 1
    k = np.arange(n + 1)[:, None]
    odd = 2 * np.arange(n) + 1
    nodes = np.cos(np.pi * odd / (2 * n))
    to_coef = (2.0 / n) * np.cos(np.pi * (k[:n] * odd % (4 * n)) / (2 * n))
    to_coef[0] *= 0.5
    at_lobatto = np.cos(np.pi * (k.T * np.arange(n)[:, None] % (2 * deg)) / deg)
    return nodes, to_coef, at_lobatto


class _ChebSeries:
    """sum_k coef_k T_k(u), u the image of x under the affine map of
    [mid - 1/scale, mid + 1/scale] onto [-1, 1], evaluated by Clenshaw's
    recurrence.  Takes a float or an array and returns the same."""

    __slots__ = ("coef", "mid", "scale")

    def __init__(self, coef: np.ndarray, mid: float, scale: float):
        self.coef = coef.tolist()
        self.mid, self.scale = mid, scale

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.mid) * self.scale
        if u.ndim == 0:
            u = float(u)
        u2 = 2.0 * u
        b1 = b2 = 0.0
        for c in self.coef[:0:-1]:
            b = u2 * b1  # b_k = c_k + 2 u b_(k+1) - b_(k+2), one new array per term
            b += c
            b -= b2
            b1, b2 = b, b1
        return self.coef[0] + u * b1 - b2


def _cheb_cumsum(f, lo: float, hi: float, start: float, tol: float) -> _ChebSeries:
    """The antiderivative int_start^x f on [lo, hi], as a Chebyshev series.

    f is interpolated at Chebyshev points on [lo, hi] and integrated once
    (Clenshaw-Curtis cumulative integration; Trefethen, Approximation Theory
    and Approximation Practice, ch. 19).  The degree doubles from
    _CUMSUM_DEG0 until two successive antiderivatives agree at the
    Chebyshev-Lobatto points of the finer degree, a point set fixed by
    [lo, hi] alone, to tol (absolute) or to 64 eps times the largest
    |antiderivative| there, whichever is larger: two fits of a large
    antiderivative (an action out on a steep wall) differ by their own
    rounding.  The finer one is returned.

    The fit's coefficients and the values at the Lobatto points are sums
    along the rows of the matrices of _cheb_matrices, and the integral is
    the recurrence int T_k = T_(k+1) / (2 (k + 1)) - T_(k-1) / (2 (k - 1))
    (int T_0 = T_1): no BLAS call, so no BLAS build or thread count moves
    a bit of the series.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    prev = None
    deg = _CUMSUM_DEG0
    while deg <= _CUMSUM_DEG_MAX:
        nodes, to_coef, at_lobatto = _cheb_matrices(deg)
        b = np.zeros(deg + 3)  # the fit's coefficients times half, then two zeros
        b[:deg + 1] = np.sum(to_coef * f(mid + half * nodes), axis=1)
        b *= half
        k2 = 2.0 * np.arange(1, deg + 2)
        coef = np.zeros(deg + 2)
        coef[1:] = b[:-2] / k2 - b[2:] / k2
        coef[1] = b[0] - b[2] / 2.0
        coef[0] = -_ChebSeries(coef, mid, 1.0 / half)(start)
        a = np.sum(at_lobatto * coef, axis=1)
        if prev is not None:
            p = np.sum(at_lobatto[:, :len(prev)] * prev, axis=1)
            if np.max(np.abs(a - p)) <= max(tol, 64.0 * _EPS * np.max(np.abs(a))):
                return _ChebSeries(coef, mid, 1.0 / half)
        prev = coef
        deg *= 2
    raise QuadratureError(f"no convergence to tol={tol} by degree {_CUMSUM_DEG_MAX} on [{lo}, {hi}]")


def turning_point_integral(pot: Potential, lam: float, x_tp: float, x_end: float):
    """The action A(x) = int |lam - v|^(1/2) between the turning point x_tp
    and x, as a function valid for every x between x_tp and x_end.

    The side may be inside the well (the integrand of well_integral) or
    outside it; A(x_tp) = 0 and A >= 0 up to rounding.  The range is split
    at the interior piece boundaries of v.  The segment touching x_tp is
    integrated in t = |x - x_tp|^(1/2), where the integrand 2 t^2 r(t)^(1/2)
    of well_integral is smooth, and each later one in x, starting from the
    running total.  Each segment keeps one cumulative Chebyshev integral
    (_cheb_cumsum), converged to TOL_QUAD / (number of segments) on
    points that depend on the segment alone, so A(x) depends on x alone,
    not on the other points of a call.  A takes an array and returns one of its shape.
    """
    outward = 1.0 if x_end > x_tp else -1.0
    segs = _segments(pot, min(x_tp, x_end), max(x_tp, x_end))
    if outward < 0:
        segs = [(b, a) for a, b in reversed(segs)]  # (near, far) ends, from x_tp outward
    tol_seg = TOL_QUAD / len(segs)
    bounds = [abs(far - x_tp) for _, far in segs[:-1]]

    c0, c2 = _taylor(pot, x_tp, outward)
    t_end = math.sqrt(abs(segs[0][1] - x_tp))
    first = _cheb_cumsum(
        lambda t: 2.0 * t * t * np.sqrt(_ratio(lam - pot.value(x_tp + outward * t * t), t, c0, c2)),
        0.0, t_end, 0.0, tol_seg)
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
