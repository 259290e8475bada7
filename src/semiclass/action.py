"""Classical-mechanics integrals over a potential well.

The whole-well integrals Phi(lam) = int (lam - v)^(1/2) dx, its
lam-derivative Phi' (2 Phi' is the period at mass 1/2) and
I = int (lam - v)^(-1/2) dx = 2 Phi' are the fields g, g_prime and i_plus of
the smooth quantize.quantization_condition record, which does not depend on
hbar.  Built on that record: microcanonical averages of observables and the
classical kinetic energy; and the Beta-function closed forms available for
power-law wells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .potential import Potential
from .quadrature import TOL_QUAD, well_integral
from .quantize import Condition, quantization_condition

__all__ = [
    "classical_average",
    "kinetic_cl",
    "PowerLawForms",
    "power_law_closed_forms",
]


def _smooth(pot: Potential, lam) -> Condition:
    # the smooth record at hbar = 1: its integrals do not depend on hbar, and
    # it refuses a well that is not on the full line
    return quantization_condition(pot, lam, "smooth", 1.0)


def classical_average(pot: Potential, lam: float, w: Callable, w_breaks=()) -> float:
    """Microcanonical average of w at energy lam.

    int w (lam-v)^(-1/2) dx / int (lam-v)^(-1/2) dx over the well; this is
    the leading term of int w psi^2 as hbar -> 0.  Discontinuity points of w
    go in w_breaks so quadrature panels can split there.
    """
    c = _smooth(pot, lam)
    (_, num), _ = well_integral(pot, lam, c.tp.x_minus, c.tp.x_plus, True, True, TOL_QUAD,
                                weight=w, weight_breaks=w_breaks)
    return num / c.i_plus


def kinetic_cl(pot: Potential, lam: float) -> float:
    """Classical kinetic energy: int (lam-v)^(1/2) / int (lam-v)^(-1/2).

    Equals lam - <v>_cl and Phi/(2 Phi') = (2 d ln Phi/d lam)^(-1).
    """
    c = _smooth(pot, lam)
    return c.g / c.i_plus


@dataclass(frozen=True)
class PowerLawForms:
    """Beta-function closed forms for the two-branch power-law well."""

    phi_plus0: float
    phi_minus0: float
    phi: float
    phi_prime: float
    kinetic: float


def _beta(a: float, b: float) -> float:
    """B(a, b) for positive a, b."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _half_actions(a: float, v: float, alpha: float, lam: float) -> tuple[float, float]:
    # int_0^{x+} (lam - a - v x^alpha)^(+-1/2) dx in closed form
    mu = lam - a
    s = (mu / v) ** (1.0 / alpha) / alpha
    up = mu**0.5 * s * _beta(1.5, 1.0 / alpha)
    dn = mu**-0.5 * s * _beta(0.5, 1.0 / alpha)
    return up, dn


def power_law_closed_forms(a_plus: float, v_plus: float, alpha_plus: float,
                           a_minus: float, v_minus: float, alpha_minus: float,
                           lam: float) -> PowerLawForms:
    """Closed-form actions for v = a_pm + v_pm |x|^alpha_pm at energy lam."""
    if lam <= max(a_plus, a_minus):
        raise ValueError(f"lam={lam} is not above the well bottom on both sides")
    up_p, dn_p = _half_actions(a_plus, v_plus, alpha_plus, lam)
    up_m, dn_m = _half_actions(a_minus, v_minus, alpha_minus, lam)
    return PowerLawForms(
        phi_plus0=up_p,
        phi_minus0=up_m,
        phi=up_p + up_m,
        phi_prime=0.5 * (dn_p + dn_m),
        kinetic=(up_p + up_m) / (dn_p + dn_m),
    )
