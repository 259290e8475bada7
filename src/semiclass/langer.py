"""Langer charts and the uniform Airy representation of the decaying solutions.

A chart packages the variable change xi(x) for one side of the well, with
sign convention xi < 0 inside the well and xi(x_tp) = 0 at the turning
point.  xi is defined through the action integral
(3/2 int |lam-v|^(1/2))^(2/3); its derivative comes from the exact relation
xi'^2 xi = q with q = v - lam.  A chart stores the action itself, as two
cumulative Chebyshev integrals (quadrature.turning_point_integral): one on
[x1, x_tp] inside the well and one on [x_tp, x_far] outside it; points
beyond x_far get one integral from x_tp per doubling of that reach.  Inside a collar around the
turning point, where the action loses relative accuracy, a short Taylor
model built from v'(x_tp), v''(x_tp) takes over.

The leading uniform approximation on each side is
u(x) = pi |xi'(x)|^(-1/2) Ai(hbar^(-2/3) xi(x)), normalized so that its
oscillatory envelope is pi^(1/2) hbar^(1/6) |q|^(-1/4) (see chart_u); the
remainder of this representation is never modeled, only measured against
the brute-force reference.  The eigenfunctions of one window share one
quantization_condition record (eigenfunctions): each level's two charts are
built on its turning points and matching point x1 (build_chart), and its
constants c_pm are formed from its well integrals (_coefficients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .airy import airy_ai, airy_many
from .potential import Potential, TurningPoints, WellCertificate
from .quadrature import TOL_QUAD, turning_point_integral
from .quantize import Condition, quantization_condition

__all__ = [
    "LangerChart",
    "ChartDomainError",
    "build_chart",
    "error_control",
    "error_control_core",
    "chart_u",
    "chart_u_prime",
    "Eigenfunction",
    "eigenfunction",
    "eigenfunctions",
]


class ChartDomainError(ValueError):
    """Evaluation outside the half-domain covered by the chart."""


@dataclass
class LangerChart:
    """One-sided Langer variable xi and its derivatives.

    side "+" covers [x1, inf), side "-" covers (-inf, x1].  xi is
    -+(3/2 A)^(2/3) with A the action from x_tp: _action_in on [x1, x_tp],
    _action_out on [x_tp, x_far], and beyond x_far one turning_point_integral
    per band of points (2^(k-1), 2^k] times as far from x_tp as x_far.
    Construction is the only stateful step; a built chart is immutable.
    """

    side: str
    lam: float
    pot: Potential
    x_tp: float  # turning point of this side
    x1: float  # matching point bounding the half-domain
    slope: float  # |v'(x_tp)|
    curv: float  # v''(x_tp)
    collar: float
    x_far: float
    _action_in: Callable[[np.ndarray], np.ndarray]
    _action_out: Callable[[np.ndarray], np.ndarray]

    # -- xi -----------------------------------------------------------------

    def _xi_series(self, x):
        """Collar Taylor model of xi from the action integral's expansion."""
        s = np.asarray(x, dtype=float) - self.x_tp
        if self.side == "-":
            s = -s
        # s > 0 is the forbidden side; eta carries the v'' correction
        eta = 3.0 * self.curv / (20.0 * self.slope)
        return np.sign(s) * self.slope ** (1.0 / 3.0) * np.abs(s) * np.abs(1.0 + np.sign(s) * eta * np.abs(s)) ** (2.0 / 3.0)

    def _in_domain(self, x: np.ndarray) -> np.ndarray:
        return x >= self.x1 if self.side == "+" else x <= self.x1

    def xi(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        if not np.all(self._in_domain(x)):
            raise ChartDomainError(f"x outside the side-{self.side} chart domain (x1={self.x1})")
        out = np.empty_like(x)
        d = x - self.x_tp if self.side == "+" else self.x_tp - x
        collar = np.abs(x - self.x_tp) < self.collar
        inside = (d < 0) & ~collar
        outer = (d >= 0) & ~collar & (np.abs(x - self.x_tp) <= abs(self.x_far - self.x_tp))
        far = (d >= 0) & ~collar & ~outer
        if np.any(collar):
            out[collar] = self._xi_series(x[collar])
        if np.any(inside):
            out[inside] = -(1.5 * self._action_in(x[inside])) ** (2.0 / 3.0)
        if np.any(outer):
            out[outer] = (1.5 * self._action_out(x[outer])) ** (2.0 / 3.0)
        if np.any(far):
            # one integral per band of distances (2^(k-1), 2^k] |x_far - x_tp|
            # from x_tp; the band depends on the point alone, so xi does too
            xf = x[far]
            reach = self.x_far - self.x_tp
            ends = self.x_tp + reach * 2.0 ** np.ceil(np.log2(np.abs(xf - self.x_tp) / abs(reach)))
            action = np.empty_like(xf)
            for end in np.unique(ends):
                on = ends == end
                action[on] = turning_point_integral(self.pot, self.lam, self.x_tp, end)(xf[on])
            out[far] = (1.5 * action) ** (2.0 / 3.0)
        return out[0] if scalar else out

    # -- xi', xi'' ----------------------------------------------------------

    def _q_model(self, x):
        s = np.asarray(x, dtype=float) - self.x_tp
        sgn = 1.0 if self.side == "+" else -1.0
        a = sgn * self.slope  # signed v'(x_tp)
        return a * s + 0.5 * self.curv * s * s

    def xi_prime(self, x):
        """xi'(x) from xi'^2 xi = q; at the turning point, +-|v'|^(1/3)."""
        return self._xi_prime(x, self.xi(x))

    def _xi_prime(self, x, xi):
        """xi_prime(x), given xi = self.xi(x)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        xi = np.atleast_1d(xi)
        at_tp = x == self.x_tp
        collar = (np.abs(x - self.x_tp) < self.collar) & ~at_tp
        q = np.empty_like(x)
        if np.any(collar):
            q[collar] = self._q_model(x[collar])
        rest = ~collar & ~at_tp
        if np.any(rest):
            q[rest] = self.pot.value(x[rest]) - self.lam
        sgn = 1.0 if self.side == "+" else -1.0
        out = np.empty_like(x)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[~at_tp] = sgn * np.sqrt(q[~at_tp] / xi[~at_tp])
        out[at_tp] = sgn * self.slope ** (1.0 / 3.0)
        return out[0] if scalar else out

    def _xi_second(self, x, xi, xip):
        """xi'' from differentiating xi'^2 xi = q, given xi = self.xi(x) and
        xip = self.xi_prime(x); unreliable inside the collar."""
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(np.atleast_1d(x) - self.x_tp) < self.collar):
            raise ChartDomainError("xi_second is not defined inside the turning-point collar")
        qp = self.pot.deriv(x)
        return (qp - xip**3) / (2.0 * xip * xi)


def build_chart(pot: Potential, lam: float, side: str, tp: TurningPoints, x1: float) -> LangerChart:
    """The Langer chart of one side ("+" or "-"; "+" alone on the half
    line) of the well {v < lam} with ends tp, matched at x1: the action
    from x_tp as two turning_point_integral functions, inside the well up
    to x1 and outside it up to x_far.  tp and x1 are the fields of the
    level's quantize.quantization_condition record."""
    if side not in ("+", "-") or (side == "-" and pot.domain == "half_line"):
        raise ChartDomainError(f"no {side!r} chart on a {pot.domain} well")
    x_tp = tp.x_plus if side == "+" else tp.x_minus
    left = side == "+"  # the limits from inside the well
    d1, d2 = pot.deriv(x_tp, left), pot.deriv2(x_tp, left)
    # half-width of the Taylor-model collar: at its edge the two-term model
    # and the action give xi to within ~3e-9 relative of each other
    collar = 1e-4 * tp.width
    x_far = x_tp + (tp.width + 2.0) * (1.0 if side == "+" else -1.0)
    return LangerChart(
        side=side, lam=lam, pot=pot, x_tp=x_tp, x1=float(x1),
        slope=abs(d1), curv=float(d2), collar=collar, x_far=x_far,
        _action_in=turning_point_integral(pot, lam, x_tp, float(x1)),
        _action_out=turning_point_integral(pot, lam, x_tp, x_far),
    )


# ---------------------------------------------------------------------------
# error-control function


def error_control_core(xi: float, q: float, qp: float, qpp: float) -> float:
    """p(x) from -16 p = 5 xi^-2 + xi (4 q^-2 q'' - 5 q^-3 q'^2)."""
    return -(5.0 * xi**-2.0 + xi * (4.0 * qpp / q**2 - 5.0 * qp**2 / q**3)) / 16.0


def error_control(chart: LangerChart, x: float) -> float:
    """Local approximation-quality diagnostic p(x) of a chart; not defined at x_tp."""
    if x == chart.x_tp:
        raise ValueError("error_control has a removable singularity at the turning point")
    pot = chart.pot
    return error_control_core(float(chart.xi(x)), pot.value(x) - chart.lam, pot.deriv(x), pot.deriv2(x))


# ---------------------------------------------------------------------------
# uniform representation


def chart_u(chart: LangerChart, hbar: float, x):
    """Leading uniform solution pi |xi'|^(-1/2) Ai(hbar^(-2/3) xi) on a chart.

    The factor pi fixes the overall normalization of the decaying solution:
    with it, u decays as 2^(-1) pi^(1/2) hbar^(1/6) q^(-1/4) e^(-S/hbar)
    outside the well, oscillates with envelope pi^(1/2) hbar^(1/6) |q|^(-1/4)
    inside, and int_{x1}^{inf} u^2 = 2^(-1) pi hbar^(1/3) int (lam-v)^(-1/2),
    which is the convention the normalization constants c_pm assume.
    """
    xi = chart.xi(x)
    xip = chart._xi_prime(x, xi)
    t = xi / hbar ** (2.0 / 3.0)
    return math.pi * np.abs(xip) ** -0.5 * airy_ai(t)


def chart_u_prime(chart: LangerChart, hbar: float, x):
    """x-derivative of the leading term; requires |x - x_tp| >= collar."""
    xi = chart.xi(x)
    xip = chart._xi_prime(x, xi)
    xis = chart._xi_second(x, xi, xip)
    t = xi / hbar ** (2.0 / 3.0)
    ai, aip, _, _ = airy_many(t)
    amp = np.abs(xip) ** -0.5
    damp = -0.5 * np.abs(xip) ** -1.5 * np.sign(xip) * xis
    return math.pi * (amp * aip * xip / hbar ** (2.0 / 3.0) + damp * ai)


# ---------------------------------------------------------------------------
# normalization and assembly


def _coefficients(c: Condition, hbar: float, n: int) -> tuple[float, float]:
    """Leading-order (c_+, c_-) of psi = c_pm u_pm for level n of any kind:
    c_+ = (2/pi)^(1/2) hbar^(-1/6) (I_+ + I_-/a^2)^(-1/2) and
    c_- = (-1)^n (2/pi)^(1/2) hbar^(-1/6) (a^2 I_+ + I_-)^(-1/2), with
    I_pm = int (lam - v)^(-1/2) on each side of the matching point and
    u_- = a u_+, read from the level's quantization_condition record c."""
    pref = math.sqrt(2.0 / math.pi) * hbar ** (-1.0 / 6.0)
    return (pref / math.sqrt(c.i_plus + c.i_minus / c.a_squared),
            (-1.0) ** (n % 2) * pref / math.sqrt(c.a_squared * c.i_plus + c.i_minus))


@dataclass
class Eigenfunction:
    """Assembled normalized eigenfunction approximation psi(x).

    psi = c_+ u_+ on the chart plus, right of the matching point x1, and
    c_- u_- on the chart minus left of it (no minus chart on the half
    line); the residual value mismatch at x1 is exposed as a diagnostic.
    """

    level: "object"
    x1: float
    plus: LangerChart
    minus: Optional[LangerChart]
    c_plus: float  # signed normalization constants
    c_minus: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        right = x >= self.x1
        if np.any(right):
            out[right] = self.c_plus * chart_u(self.plus, self.level.hbar, x[right])
        if np.any(~right):
            if self.minus is None:
                raise ChartDomainError("half-line eigenfunction evaluated at x < 0")
            out[~right] = self.c_minus * chart_u(self.minus, self.level.hbar, x[~right])
        return out[0] if scalar else out

    def mismatch(self) -> float:
        """|psi(x1+) - psi(x1-)| relative to the local oscillation amplitude."""
        if self.minus is None:
            return 0.0
        up = self.c_plus * chart_u(self.plus, self.level.hbar, self.x1)
        um = self.c_minus * chart_u(self.minus, self.level.hbar, self.x1)
        q1 = abs(self.plus.pot.value(self.x1) - self.level.lam)
        # the envelope of c_+ u_+ inside the well (chart_u)
        amp = abs(self.c_plus) * math.pi ** 0.5 * self.level.hbar ** (1.0 / 6.0) * q1 ** (-0.25)
        return abs(float(up) - float(um)) / amp


def eigenfunctions(pot: Potential, levels, cert: Optional[WellCertificate] = None):
    """The Eigenfunction of each level of one window (one hbar, one kind),
    in order, each built when reached.

    One quantization_condition record of all the levels at TOL_QUAD (cert
    is passed on to it), each entry the one of its level alone, gives c_pm,
    the turning points and the matching point x1: the midpoint of the well
    for a smooth level, the jump inside the well for a discontinuous one,
    the wall x = 0 for a half-line one.
    """
    if not levels:
        return
    hbar, kind = levels[0].hbar, levels[0].kind
    if any(l.hbar != hbar or l.kind != kind for l in levels):
        raise ValueError("the levels of one window share hbar and kind")
    c = quantization_condition(pot, np.array([l.lam for l in levels]), kind, hbar, cert, TOL_QUAD)
    for k, level in enumerate(levels):
        yield _eigenfunction(pot, level, c, k)


def _eigenfunction(pot: Potential, level, c: Condition, k: int) -> Eigenfunction:
    """The Eigenfunction of level from entry k of its window's record c."""
    ck = Condition(*(float(f[k]) for f in (c.g, c.g_prime, c.a_squared, c.i_plus, c.i_minus)),
                   TurningPoints(*(float(f[k]) for f in (c.tp.x_minus, c.tp.x_plus,
                                                         c.tp.slope_minus, c.tp.slope_plus))),
                   float(c.x1[k]))
    c_plus, c_minus = _coefficients(ck, level.hbar, level.n)
    plus = build_chart(pot, level.lam, "+", ck.tp, ck.x1)
    minus = None if pot.domain == "half_line" else build_chart(pot, level.lam, "-", ck.tp, ck.x1)
    return Eigenfunction(level, ck.x1, plus, minus, c_plus, c_minus)


def eigenfunction(pot: Potential, level, cert: Optional[WellCertificate] = None) -> Eigenfunction:
    """psi for a level produced by the quantize module: eigenfunctions of
    the window of that level alone."""
    return next(eigenfunctions(pot, [level], cert))
