import math

import numpy as np
import pytest

from semiclass import action
from semiclass.potential import (
    CertificationError,
    halfline_power_law,
    make_power_law,
    turning_points,
)
from semiclass.quadrature import TOL_QUAD
from semiclass.quantize import quantization_condition
from support import partial_action

HARM = make_power_law(0, 1, 2, 0, 1, 2)
QUART = make_power_law(0, 1, 4, 0, 1, 4)
ABSV = make_power_law(0, 1, 1, 0, 1, 1)


def smooth(pot, lam):
    """The smooth quantization_condition record: Phi is its g and Phi' its g_prime."""
    return quantization_condition(pot, lam, "smooth", 1.0)


# -- Beta function --------------------------------------------------------------

def test_beta_closed_values():
    assert abs(action._beta(1.5, 0.5) - math.pi / 2) <= 1e-13
    assert abs(action._beta(0.5, 0.5) - math.pi) <= 1e-12
    assert abs(action._beta(1.5, 1.0) - 2.0 / 3.0) <= 1e-13


# -- action and derivative ----------------------------------------------------

def test_phi_harmonic_quarter_circle():
    prof = smooth(HARM, 1.0)
    assert abs(prof.g - math.pi / 2) <= 1e-10
    assert prof.g > 0 and prof.g_prime > 0
    assert abs(prof.g_prime - math.pi / 2) <= 1e-10  # Phi = pi lam / 2 for v = x^2


def test_phi_absolute_value_potential():
    # int_{-1}^{1} (1-|x|)^(1/2) dx = 4/3
    assert abs(smooth(ABSV, 1.0).g - 4.0 / 3.0) <= 1e-10


def test_phi_power_law_beta_half_well():
    # half-well integral for alpha=2: lam^(1/2) (lam/v)^(1/2) B(3/2,1/2)/2 = pi lam/4
    val = partial_action(HARM, 1.0, 0.0, "+")
    assert abs(val - math.pi / 4) <= 1e-10


def test_phi_prime_harmonic():
    assert abs(smooth(HARM, 1.0).g_prime - math.pi / 2) <= 1e-10


def test_phi_prime_matches_finite_difference():
    h = 1e-5
    for pot, lam in ((QUART, 1.0), (HARM, 0.7), (ABSV, 1.3)):
        fd = (smooth(pot, lam + h).g - smooth(pot, lam - h).g) / (2 * h)
        assert abs(smooth(pot, lam).g_prime - fd) <= 1e-8


def test_partial_action_additivity_and_limits():
    # the two one-sided well integrals from x add up to the smooth record's Phi
    tp = turning_points(HARM, 1.0)
    phi_total = smooth(HARM, 1.0).g
    for x in (-0.5, 0.0, 0.5):
        s = partial_action(HARM, 1.0, x, "+") + partial_action(HARM, 1.0, x, "-")
        assert abs(s - phi_total) <= 2 * TOL_QUAD
    near_tp = tp.x_plus - 1e-8
    assert 0.0 <= partial_action(HARM, 1.0, near_tp, "+") <= 1e-10


def test_classical_average_identity_weight():
    assert action.classical_average(HARM, 1.0, lambda x: np.ones_like(np.asarray(x, float))) == 1.0


def test_classical_average_virial():
    avg = action.classical_average(HARM, 1.0, lambda x: np.asarray(x) ** 2)
    assert abs(avg - 0.5) <= 1e-10


def test_classical_average_indicator_symmetry():
    w = lambda x: (np.asarray(x) > 0.0).astype(float)
    avg = action.classical_average(HARM, 1.0, w, w_breaks=(0.0,))
    assert abs(avg - 0.5) <= 1e-10


def test_classical_average_null_modification():
    w1 = lambda x: np.asarray(x) ** 2
    x_star = 0.3317  # single-point change has null measure

    def w2(x):
        x = np.asarray(x, dtype=float)
        out = x**2
        return np.where(x == x_star, 999.0, out)

    a1 = action.classical_average(QUART, 1.3, w1)
    a2 = action.classical_average(QUART, 1.3, w2)
    assert a1 == a2


def test_kinetic_identities():
    for pot in (HARM, QUART):
        for lam in (0.5, 0.8, 1.0, 1.5, 2.0):
            k = action.kinetic_cl(pot, lam)
            prof = smooth(pot, lam)
            avg_v = action.classical_average(pot, lam, lambda x: pot.value(x))
            assert abs(k - prof.g / (2 * prof.g_prime)) <= 1e-8
            assert abs(k + avg_v - lam) <= 1e-8


def test_kinetic_harmonic_value():
    assert abs(action.kinetic_cl(HARM, 1.0) - 0.5) <= 1e-10


def test_power_law_closed_forms_match_quadrature():
    for (ap, am) in ((2, 2), (2, 4), (1, 3)):
        pot = make_power_law(0, 1, ap, 0, 1, am)
        for lam in (0.7, 1.0, 1.9):
            forms = action.power_law_closed_forms(0, 1, ap, 0, 1, am, lam)
            assert abs(forms.phi - smooth(pot, lam).g) <= 1e-8 * forms.phi
            assert abs(forms.phi_prime - smooth(pot, lam).g_prime) <= 1e-8 * forms.phi_prime
            assert abs(forms.kinetic - action.kinetic_cl(pot, lam)) <= 1e-8 * forms.kinetic


def test_power_law_quartic_half_action_value():
    # phi_+(0) = B(3/2, 1/4)/4 for v = x^4 at lam = 1
    forms = action.power_law_closed_forms(0, 1, 4, 0, 1, 4, 1.0)
    frozen = 0.87401918476403994  # B(3/2, 1/4)/4 at 40-digit precision
    assert abs(forms.phi_plus0 - frozen) <= 1e-12


def test_power_law_lambda_scaling():
    f1 = action.power_law_closed_forms(0, 1, 4, 0, 1, 4, 1.0)
    f4 = action.power_law_closed_forms(0, 1, 4, 0, 1, 4, 4.0)
    assert abs(f4.phi_plus0 / f1.phi_plus0 - 4.0 ** (0.5 + 0.25)) <= 1e-12


def test_power_law_closed_forms_below_bottom():
    with pytest.raises(ValueError):
        action.power_law_closed_forms(0.5, 1, 2, 0, 1, 2, 0.4)


def test_offset_power_law_half_action():
    # jump well: phi_+(0) with a_+ = 0.5 uses mu = lam - a_+
    forms = action.power_law_closed_forms(0.5, 1, 2, 0, 1, 2, 1.0)
    assert abs(forms.phi_plus0 - 0.5 * action._beta(1.5, 0.5) * 0.5) <= 1e-12
    pot = make_power_law(0.5, 1, 2, 0, 1, 2)
    assert abs(forms.phi - smooth(pot, 1.0).g) <= 1e-9


def test_full_line_integrals_refuse_a_half_line_well():
    # their quadratures desingularize both ends, and the wall x = 0 is no turning point
    pot = halfline_power_law(0, 1, 2)
    for call in (lambda: smooth(pot, 1.0), lambda: action.kinetic_cl(pot, 1.0),
                 lambda: action.classical_average(pot, 1.0, lambda x: x)):
        with pytest.raises(CertificationError) as info:
            call()
        assert info.value.clause == "domain"


def test_halfline_actions():
    # int_0^1 (1 - x^2)^(1/2) = pi/4 and (1/2) int_0^1 (1 - x^2)^(-1/2) = pi/4
    pot = halfline_power_law(0, 1, 2)
    c = quantization_condition(pot, 1.0, "halfline_dirichlet", 0.1)
    assert abs(c.g - math.pi / 4) <= 1e-10
    assert abs(c.g_prime - math.pi / 4) <= 1e-10
