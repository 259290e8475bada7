"""Test-side closed forms and solves that the library states only once
elsewhere, shared by several test modules."""

import math

from semiclass import quantize
from semiclass.airy import AI_ZERO
from semiclass.potential import turning_points
from semiclass.quadrature import TOL_QUAD, well_integral


def levels_of_kind(pot, window, hbar, kind, robin_b=None):
    """The levels of one kind in the window, for a kind the well would not
    pick (quantize.levels picks the kind from the well and certifies the
    window; this takes neither step)."""
    return quantize._action_levels(pot, window, [hbar], kind, robin_b)


def partial_action(pot, lam, x, side, tol=TOL_QUAD):
    """phi_pm(x; lam): the action int (lam - v)^(1/2) from x to the turning
    point of the side, over [x, x+] ("+") or [x-, x] ("-")."""
    tp = turning_points(pot, lam)
    lo, hi = (x, tp.x_plus) if side == "+" else (tp.x_minus, x)
    (val, _), _ = well_integral(pot, lam, lo, hi, side == "-", side == "+", tol)
    return val


def peak_coefficient(pot, lam):
    """alpha_+ of |psi(x_+)| ~ alpha_+ hbar^(-1/6) at the right turning point
    of a smooth level: (2 pi)^(1/2) I^(-1/2) |v'(x_+)|^(-1/6) Ai(0), with
    I = int (lam-v)^(-1/2) over the well and v'(x_+) read from the smooth
    quantization_condition record."""
    c = quantize.quantization_condition(pot, lam, "smooth", 1.0)
    return math.sqrt(2.0 * math.pi) * c.i_plus ** -0.5 * c.tp.slope_plus ** (-1.0 / 6.0) * AI_ZERO
