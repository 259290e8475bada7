"""Property tests of the branch-exact turning-point solver and certification
over random single wells, double wells and jump wells."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from semiclass.potential import (
    TOL_X,
    CertificationError,
    TurningPointError,
    certify_well,
    make_polynomial,
    make_power_law,
    potential_from_spec,
    turning_points,
)

EPS = np.finfo(float).eps
PROPS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def reference_crossings(pot, lam, n=20001):
    """Dense sign scan over a box [-lo, hi] where v > lam at both ends, then
    brentq.  Each end doubles on its own until v > lam there: a slow branch
    must not carry the box of a steep one out to where it overflows."""
    lo = hi = 1.0
    while not pot.value(-lo) > lam:
        lo *= 2.0
    while not pot.value(hi) > lam:
        hi *= 2.0
    x = np.linspace(-lo, hi, n)
    f = pot.value(x) - lam
    x, f = x[f != 0.0], f[f != 0.0]  # a root on a grid node falls between its neighbours
    g = lambda y: float(pot.value(np.array(y))) - lam
    return [brentq(g, x[i], x[i + 1], xtol=1e-15, rtol=4 * EPS)
            for i in np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]]


# -- random single wells ---------------------------------------------------------


def _side_branch(draw, side):
    """A branch spec that is monotone on its half line: its vertex m sits on
    the far side of the boundary x = 0 (m >= 0 left of it, m <= 0 right)."""
    kind = draw(st.sampled_from(["power", "poly", "exp-quadratic"]))
    offset = draw(floats(-0.5, 0.5))
    if kind == "power":
        return {"type": "power", "offset": offset, "coeff": draw(floats(0.5, 5.0)),
                "exponent": draw(floats(0.5, 6.0))}
    m = -side * draw(floats(0.0, 1.0))
    s = draw(floats(0.3, 4.0))
    if kind == "poly":
        return {"type": "poly", "coeffs": [s * m * m + offset, -2.0 * s * m, s]}
    return {"type": "exp-quadratic", "offset": offset - 1.0, "amplitude": 1.0,
            "c2": s, "c1": -2.0 * s * m, "c0": s * m * m}


@st.composite
def table_wells(draw):
    """(potential, lam) with two crossings: two monotone branches of any type
    glued at 0 (possibly with a jump), or a single tilted quartic."""
    if draw(st.booleans()):
        left, right = _side_branch(draw, -1), _side_branch(draw, +1)
        pot = potential_from_spec({"kind": "table", "branches": [
            dict(left, lo="-inf", hi=0.0), dict(right, lo=0.0, hi="inf")]})
        bottom = max(pot.value(0.0, left=True), pot.value(0.0))
    else:
        # s2 y^2 + s3 y^3 + s4 y^4 around y = x - m has one critical point
        # when 9 s3^2 < 32 s2 s4
        s2, s4 = draw(floats(0.2, 3.0)), draw(floats(0.2, 3.0))
        s3 = draw(floats(-0.9, 0.9)) * math.sqrt(32.0 * s2 * s4 / 9.0)
        m, c = draw(floats(-1.0, 1.0)), draw(floats(-0.5, 0.5))
        y = np.polynomial.polynomial.polyfromroots([m])  # x - m
        poly = np.polynomial.polynomial
        coeffs = poly.polyadd(
            [c], poly.polyadd(s2 * poly.polypow(y, 2),
                              poly.polyadd(s3 * poly.polypow(y, 3), s4 * poly.polypow(y, 4))))
        pot = make_polynomial(coeffs)
        bottom = c
    return pot, bottom + draw(floats(0.05, 3.0))


# a slow left branch 0.5 |x|^0.5 took the one symmetric box of the scan to
# 32, where the right branch exp(x^2) - 1 overflows
LOPSIDED = (potential_from_spec({"kind": "table", "branches": [
    {"lo": "-inf", "hi": 0.0, "type": "power", "offset": 0.0, "coeff": 0.5, "exponent": 0.5},
    {"lo": 0.0, "hi": "inf", "type": "exp-quadratic", "offset": -1.0, "amplitude": 1.0,
     "c2": 1.0, "c1": 0.0, "c0": 0.0}]}), 2.0)


@PROPS
@given(table_wells())
@example(LOPSIDED)
def test_crossings_match_scan_reference(well):
    pot, lam = well
    tp = turning_points(pot, lam)
    ref = reference_crossings(pot, lam)
    assert len(ref) == 2
    for x, r in zip((tp.x_minus, tp.x_plus), ref):
        assert abs(x - r) <= TOL_X * max(1.0, abs(r))


@PROPS
@given(table_wells())
def test_turning_point_residual_at_rounding_level(well):
    pot, lam = well
    tp = turning_points(pot, lam)
    for x, slope in ((tp.x_minus, tp.slope_minus), (tp.x_plus, tp.slope_plus)):
        resid = abs(float(pot.value(np.array(x))) - lam)
        assert resid <= 64.0 * EPS * (1.0 + abs(lam) + abs(x * slope))


@PROPS
@given(table_wells(), st.lists(floats(0.0, 2.0), min_size=2, max_size=6))
def test_turning_points_monotone_in_lam(well, offsets):
    pot, lam = well
    # monotone up to the root accuracy, as energies may differ by an ulp
    tps = [turning_points(pot, lam + d) for d in sorted(offsets)]
    assert all(b.x_plus >= a.x_plus - TOL_X for a, b in zip(tps, tps[1:]))
    assert all(b.x_minus <= a.x_minus + TOL_X for a, b in zip(tps, tps[1:]))
    cert = certify_well(pot, lam, lam + 2.0)
    assert cert.criticality_margin > 0.0


# -- wells that must be rejected -------------------------------------------------


@PROPS
@given(floats(0.5, 2.0), floats(0.5, 2.0), floats(-0.3, 0.3), floats(0.1, 0.9), floats(0.1, 0.9))
def test_double_wells_rejected(s, w, tilt, u1, u2):
    # v = s (x^2 - w^2)^2 + t x: windows that reach below the barrier top
    # hold energies with four crossings
    t = tilt * s * w**3
    coeffs = [0.0, t, -2.0 * s * w * w, 0.0, s]
    pot = make_polynomial(coeffs)
    crit = np.sort(np.real(np.polynomial.polynomial.polyroots(
        np.polynomial.polynomial.polyder(coeffs))))
    vals = np.polynomial.polynomial.polyval(crit, coeffs)
    low_top, barrier = max(vals[0], vals[2]), vals[1]
    assume(barrier - low_top > 1e-3)
    lo = low_top + u1 * (barrier - low_top)
    hi = lo + u2 * (barrier - low_top)
    with pytest.raises(CertificationError) as exc:
        certify_well(pot, lo, hi)
    assert exc.value.clause == "well-geometry"


@PROPS
@given(floats(-0.5, 0.5), floats(0.1, 1.0), floats(0.05, 0.95), floats(0.05, 2.0))
def test_jump_crossing_lam_rejected(a, jump, u, above):
    # v jumps from a to a + jump at 0; every lam in (a, a + jump) crosses it
    pot = make_power_law(a + jump, 1.0, 2.0, a, 1.0, 2.0)
    lo = a + u * jump
    with pytest.raises(CertificationError) as exc:
        certify_well(pot, lo, a + jump + above)
    assert exc.value.clause in ("well-geometry", "singularity")
    with pytest.raises(TurningPointError):
        turning_points(pot, lo)


@PROPS
@given(floats(0.6, 2.0), floats(0.05, 0.4), floats(0.1, 0.9), floats(1.5, 4.0),
       st.integers(1, 6))
def test_critical_values_between_old_samples_rejected(p, eps, alpha, k_gap, k):
    # v' = 4 x (x - p)(x - q): a well at 0 and a shallow dip at q > p, with
    # local max M = v(p) and local min m = v(q); lam in (m, M) has four
    # crossings.  The window puts [m, M] strictly between two of nine
    # evenly spaced energies, each of which sees a single well.
    q = p * (1.0 + eps)
    coeffs = [0.0, 0.0, 2.0 * p * q, -4.0 / 3.0 * (p + q), 1.0]
    m, big_m = q**3 * (2.0 * p - q) / 3.0, p**3 * (2.0 * q - p) / 3.0
    h = k_gap * (big_m - m)
    below = m - alpha * (h - (big_m - m))
    lo = below - k * h
    assume(lo > 0.05 * m)
    hi = lo + 8.0 * h
    pot = make_polynomial(coeffs)
    for lam in np.linspace(lo, hi, 9):
        turning_points(pot, float(lam))  # every sample sees exactly two crossings
    with pytest.raises(CertificationError) as exc:
        certify_well(pot, lo, hi)
    assert exc.value.clause == "well-geometry"
