import json
import math

import numpy as np
import numpy.polynomial.polynomial as npoly  # the reference of the in-module helpers
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiclass import potential
from semiclass.potential import (
    CertificationError,
    PolyBranch,
    PotentialError,
    certify_well,
    halfline_power_law,
    make_polynomial,
    make_power_law,
    potential_from_spec,
    turning_points,
)


def _vdd(pot, x, left=None):
    """(v, v', v'') at x from the one evaluator."""
    return pot.value(x, left), pot.deriv(x, left), pot.deriv2(x, left)


def test_eval_harmonic():
    pot = make_power_law(0, 1, 2, 0, 1, 2)
    assert _vdd(pot, 2.0) == (4.0, 4.0, 2.0)
    assert all(type(v) is float for v in _vdd(pot, 2.0))  # a point gives Python floats


def test_eval_power_law_quartic():
    pot = make_power_law(0, 1, 4, 0, 1, 4)
    v, d, d2 = _vdd(pot, 1.0)
    assert (v, d, d2) == (1.0, 4.0, 12.0)


def test_eval_one_sided_at_jump():
    pot = make_power_law(0.5, 1, 2, 0, 1, 2)
    assert pot.value(0.0) == 0.5  # a boundary point takes the piece to its right
    assert pot.value(0.0, left=False) == 0.5
    assert pot.value(0.0, left=True) == 0.0


def test_eval_one_sided_kink_slopes():
    pot = make_power_law(0, 1, 1, 0, 1, 1)  # v = |x|
    assert pot.deriv(0.0) == 1.0
    assert pot.deriv(0.0, left=True) == -1.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_one_sided_limits_at_a_power_center(alpha):
    # v = 3|x|^alpha left of 0, 2|x|^alpha right of it: deriv and deriv2 give
    # the exact limits of v' and v'' at the center from each side, for a
    # point, a 0-d array and an array
    pot = make_power_law(0, 2, alpha, 0, 3, alpha)
    for left, sgn, c in ((True, -1.0, 3.0), (False, 1.0, 2.0)):
        d1 = 0.0 if alpha > 1 else sgn * c * (1.0 if alpha == 1 else math.inf)
        d2 = {0.5: -math.inf, 1.0: 0.0, 1.5: math.inf, 2.0: 2.0 * c, 3.0: 0.0}[alpha]
        assert _vdd(pot, 0.0, left)[1:] == (d1, d2)
        assert pot.deriv(np.array(0.0), np.array(left)) == d1
        assert pot.deriv2(np.array(0.0), np.array(left)) == d2
        assert np.array_equal(pot.deriv(np.zeros(2), np.array([left, left])), [d1, d1])


def test_out_of_domain():
    pot = halfline_power_law(0, 1, 2)
    with pytest.raises(PotentialError):
        pot.value(-0.5)
    with pytest.raises(PotentialError):
        pot.deriv(np.array([0.5, -0.5]))
    assert pot.value(0.0) == 0.0  # the wall itself is in the domain


def test_turning_points_harmonic():
    tp = turning_points(make_power_law(0, 1, 2, 0, 1, 2), 4.0)
    assert abs(tp.x_minus + 2.0) <= 1e-12
    assert abs(tp.x_plus - 2.0) <= 1e-12
    assert abs(tp.slope_minus + 4.0) <= 1e-10
    assert abs(tp.slope_plus - 4.0) <= 1e-10


def test_turning_points_quartic():
    tp = turning_points(make_power_law(0, 1, 4, 0, 1, 4), 1.0)
    assert abs(tp.x_minus + 1.0) <= 1e-12
    assert abs(tp.x_plus - 1.0) <= 1e-12


def test_turning_points_asymmetric_closed_form():
    # lam = v_pm |x|^2 gives x_+ = 1, x_- = -1/2 for v_+ = 1, v_- = 4
    tp = turning_points(make_power_law(0, 1, 2, 0, 4, 2), 1.0)
    assert abs(tp.x_plus - 1.0) <= 1e-12
    assert abs(tp.x_minus + 0.5) <= 1e-12


def test_turning_points_deterministic():
    pot = make_power_law(0, 1, 4, 0, 1, 4)
    a = turning_points(pot, 1.3)
    b = turning_points(pot, 1.3)
    assert (a.x_minus, a.x_plus, a.slope_minus, a.slope_plus) == \
        (b.x_minus, b.x_plus, b.slope_minus, b.slope_plus)


def test_turning_point_monotonicity():
    pot = make_power_law(0, 1, 4, 0, 2, 2)
    lams = np.linspace(0.5, 2.0, 17)
    tps = [turning_points(pot, float(l)) for l in lams]
    assert all(b.x_plus >= a.x_plus for a, b in zip(tps, tps[1:]))
    assert all(b.x_minus <= a.x_minus for a, b in zip(tps, tps[1:]))


def test_residual_of_turning_points():
    pot = make_power_law(0, 1, 4, 0, 1, 4)
    for lam in (0.5, 1.0, 2.0):
        tp = turning_points(pot, lam)
        for x, slope in ((tp.x_minus, tp.slope_minus), (tp.x_plus, tp.slope_plus)):
            assert abs(float(pot.value(np.array(x))) - lam) <= 1e-12 * abs(slope) + 1e-14


def test_certify_harmonic_window():
    cert = certify_well(make_power_law(0, 1, 2, 0, 1, 2), 0.5, 2.0)
    assert cert.interior_singularities == ()
    assert cert.criticality_margin > 0
    assert cert.lambda_window == (0.5, 2.0)


def test_certify_double_well_fails():
    # v = x^4 - x^2 has four crossings for small negative lam
    pot = make_polynomial([0.0, 0.0, -1.0, 0.0, 1.0])
    with pytest.raises(CertificationError) as exc:
        certify_well(pot, -0.2, -0.1)
    assert exc.value.clause == "well-geometry"


def test_certify_disc_interior_singularity():
    cert = certify_well(make_power_law(0.5, 1, 2, 0, 1, 2), 0.8, 1.8)
    assert len(cert.interior_singularities) == 1
    assert cert.interior_singularities[0].x == 0.0
    assert cert.interior_singularities[0].kind == "jump"


def test_certify_rejects_bad_window():
    with pytest.raises(CertificationError):
        certify_well(make_power_law(0, 1, 2, 0, 1, 2), 2.0, 1.0)


def test_power_law_markers():
    assert make_power_law(0, 1, 2, 0, 1, 2).singular_points == ()
    assert make_power_law(0, 1, 4, 0, 1, 4).singular_points == ()
    curv = make_power_law(0, 1, 2, 0, 4, 2)
    assert [s.kind for s in curv.singular_points] == ["curvature"]
    kink = make_power_law(0, 1, 1, 0, 1, 1)
    assert [s.kind for s in kink.singular_points] == ["kink"]
    jump = make_power_law(0.5, 1, 2, 0, 1, 2)
    assert [s.kind for s in jump.singular_points] == ["jump"]


def test_power_law_marks_match_the_table_spec():
    # make_power_law marks x = 0 as potential_from_spec marks the same two branches
    marks = {}
    for a_plus in (0.0, 0.5):
        for v_plus, v_minus in ((1.0, 1.0), (1.3, 0.7)):
            for alpha_plus in (0.5, 1.0, 1.5, 2.0, 3.0):
                for alpha_minus in (0.5, 1.0, 1.5, 2.0, 3.0):
                    pot = make_power_law(a_plus, v_plus, alpha_plus, 0.0, v_minus, alpha_minus)
                    table = potential_from_spec({"kind": "table", "branches": [
                        {"lo": "-inf", "hi": 0.0, "type": "power", "offset": 0.0,
                         "coeff": v_minus, "exponent": alpha_minus},
                        {"lo": 0.0, "hi": "inf", "type": "power", "offset": a_plus,
                         "coeff": v_plus, "exponent": alpha_plus},
                    ]})
                    assert pot.singular_points == table.singular_points
                    marks[a_plus, v_plus, alpha_plus, alpha_minus] = [
                        s.kind for s in pot.singular_points]
    # the cusp |x|^(1/2) has v' = -inf, +inf from the two sides; |x|^(3/2) has v'' = +inf
    assert marks[0.0, 1.0, 0.5, 0.5] == ["kink"]
    assert marks[0.0, 1.0, 1.5, 1.5] == ["curvature"]
    assert marks[0.0, 1.0, 2.0, 2.0] == []
    assert marks[0.5, 1.0, 2.0, 2.0] == ["jump"]


def test_power_law_validation():
    with pytest.raises(PotentialError):
        make_power_law(0, -1, 2, 0, 1, 2)
    with pytest.raises(PotentialError):
        make_power_law(0, 1, 0, 0, 1, 2)


def test_halfline_turning_point():
    # the wall x = 0 is the left end of a half-line well, with slope -inf
    pot = halfline_power_law(0, 1, 2)
    tp = turning_points(pot, 1.0)
    assert (tp.x_minus, tp.slope_minus) == (0.0, -math.inf)
    assert abs(tp.x_plus - 1.0) <= 1e-12
    assert abs(tp.slope_plus - 2.0) <= 1e-10
    cert = certify_well(pot, 0.1, 1.5)
    assert cert.criticality_margin > 0
    assert cert.criticality_margin == min(turning_points(pot, lam).slope_plus for lam in (0.1, 1.5))


def test_json_power_law_roundtrip():
    spec = {"kind": "power_law", "a_plus": 0.5, "v_plus": 1.0, "alpha_plus": 2.0,
            "a_minus": 0.0, "v_minus": 1.0, "alpha_minus": 2.0}
    pot = potential_from_spec(json.loads(json.dumps(spec)))
    assert pot.value(0.0) == 0.5
    assert [s.kind for s in pot.singular_points] == ["jump"]


def test_json_table_spec():
    spec = {
        "kind": "table",
        "branches": [
            {"lo": "-inf", "hi": 0.0, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
            {"lo": 0.0, "hi": "inf", "type": "power", "offset": 0.0, "coeff": 1.0, "exponent": 2.0},
        ],
    }
    pot = potential_from_spec(spec)
    assert pot.singular_points == ()  # branches agree to second order
    assert _vdd(pot, -2.0) == (4.0, -4.0, 2.0)
    assert _vdd(pot, 2.0) == (4.0, 4.0, 2.0)


def test_json_exp_quadratic_branch():
    spec = {
        "kind": "table",
        "branches": [
            {"lo": "-inf", "hi": "inf", "type": "exp-quadratic",
             "offset": -1.0, "amplitude": 1.0, "c2": 1.0},
        ],
    }
    pot = potential_from_spec(spec)
    # v = e^{x^2} - 1: turning points at +-sqrt(ln(1+lam))
    tp = turning_points(pot, 1.0)
    assert abs(tp.x_plus - math.sqrt(math.log(2.0))) <= 1e-10
    cert = certify_well(pot, 0.5, 1.5)
    assert cert.criticality_margin > 0


def test_json_unknown_kind():
    with pytest.raises(PotentialError):
        potential_from_spec({"kind": "nope"})


def test_vectorized_value_matches_eval():
    pot = make_power_law(0.5, 1, 2, 0, 4, 2)
    xs = np.array([-1.5, -0.3, 0.2, 2.0])
    vals = pot.value(xs)
    for x, v in zip(xs, vals):
        assert v == pot.value(float(x), left=x < 0)


def test_a_point_takes_the_bits_of_its_branch_at_a_0d_value():
    # on some numpy builds a power of a 0-d value and the same power of an
    # array of one differ in the last bit; a point is evaluated as the former
    pot = make_power_law(0, 1, 4, 0, 2, 3)
    for x in np.random.default_rng(0).uniform(-2.0, 2.0, 200):
        b = pot.pieces[int(x >= 0)].branch
        for fn in ("value", "deriv", "deriv2"):
            assert getattr(pot, fn)(float(x)) == float(getattr(b, fn)(np.asarray(x)))


def _same(got, want):
    """got is want bit for bit: the same type, shape, dtype and bytes."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


# no coefficient so tiny that the companion matrix overflows, which both sides reject alike
_COEF = st.one_of(st.floats(-1e3, 1e3).filter(lambda v: v == 0 or abs(v) > 1e-100), st.integers(-50, 50))
_X = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEF, min_size=1, max_size=7), st.lists(_X, min_size=1, max_size=12))
def test_polynomial_helpers_are_numpy_polynomial_bit_for_bit(coeffs, xs):
    with np.errstate(all="ignore"):  # an overflow is compared as the inf it gives
        _check_polynomial_helpers(coeffs, xs)


def _check_polynomial_helpers(coeffs, xs):
    x = np.array(xs)
    for point in (xs[0], x, x.reshape(1, -1), tuple(xs)):
        _same(potential._polyval(point, coeffs), npoly.polyval(point, coeffs))
    for m in range(4):
        _same(potential._polyder(coeffs, m), npoly.polyder(coeffs, m))
    c = np.trim_zeros(np.array(coeffs, dtype=float), "b")
    if len(c) >= 2:
        _same(potential._polyroots(c), npoly.polyroots(c))
    if len(c) >= 3:
        _same(potential._companion(c), npoly.polycompanion(c))
    branch = PolyBranch(tuple(float(v) for v in coeffs))
    for m, f in enumerate((branch.value, branch.deriv, branch.deriv2)):
        for point in (xs[0], x):
            _same(f(point), npoly.polyval(point, npoly.polyder(branch.coeffs, m)))
