import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from semiclass import langer, oracle, quadrature, quantize
from semiclass.airy import AI_ZERO
from semiclass.langer import (
    ChartDomainError,
    build_chart,
    chart_u,
    chart_u_prime,
    eigenfunction,
    error_control,
    error_control_core,
)
from semiclass.potential import (
    certify_well,
    halfline_power_law,
    make_power_law,
    potential_from_spec,
    turning_points,
)
from support import partial_action, peak_coefficient

HARM = make_power_law(0, 1, 2, 0, 1, 2)
QUART = make_power_law(0, 1, 4, 0, 1, 4)
DISC = make_power_law(0.5, 1, 2, 0, 1, 2)
HL = halfline_power_law(0, 1, 2)
ASYM_QUART = make_power_law(0, 2, 4, 0, 1, 4)  # matching point x1 < 0 at lam = 1.3
# the jump well of DISC with a kink at x = -3, which the '-' chart's outer nodes cross
KINK_JUMP = potential_from_spec({"kind": "table", "branches": [
    {"lo": "-inf", "hi": -3.0, "type": "poly", "coeffs": [-27.0, -12.0]},
    {"lo": -3.0, "hi": 0.0, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
    {"lo": 0.0, "hi": "inf", "type": "power", "offset": 0.5, "coeff": 1.0, "exponent": 2.0},
]})


def _chart(pot, lam, side, x1=None):
    """build_chart on the turning points of the quantization_condition record
    at lam of the kind the well picks, matched at x1 (the record's by default:
    the jump point, the midpoint of the well, or the wall x = 0)."""
    cert = certify_well(pot, lam, lam)
    kind = ("halfline_dirichlet" if pot.domain == "half_line"
            else "smooth" if cert.interior_jump is None else "discontinuous")
    c = quantize.quantization_condition(pot, lam, kind, 1.0)
    return build_chart(pot, lam, side, c.tp, c.x1 if x1 is None else x1)


HARM_PLUS = _chart(HARM, 1.0, "+")  # the '+' chart at lam = 1, matched at x1 = 0


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _harm_action(lam, x):
    """int |lam - s^2|^(1/2) between the turning point sqrt(lam) and |x|, closed form."""
    a, x = math.sqrt(lam), abs(x)
    if x <= a:
        return math.pi * lam / 4 - 0.5 * (x * math.sqrt(lam - x * x) + lam * math.asin(x / a))
    r = math.sqrt(x * x - lam)
    return 0.5 * (x * r - lam * math.log((x + r) / a))


def _ref_xi(ch, x):
    """xi of a chart at x from scipy.integrate.quad on the action in
    t = |x - x_tp|^(1/2), split at the piece boundaries of v."""
    out = 1.0 if ch.side == "+" else -1.0
    s = 1.0 if x > ch.x_tp else -1.0
    f = lambda t: 2.0 * t * math.sqrt(abs(ch.lam - float(ch.pot.value(np.array(ch.x_tp + s * t * t)))))
    lo, hi = sorted((x, ch.x_tp))
    kinks = [math.sqrt(abs(p.hi - ch.x_tp)) for p in ch.pot.pieces[:-1] if lo < p.hi < hi]
    action, _ = integrate.quad(f, 0.0, math.sqrt(hi - lo), points=kinks or None,
                               epsabs=1e-14, epsrel=1e-13, limit=200)
    return s * out * (1.5 * action) ** (2.0 / 3.0)


def _sample(ch, n_in=150, n_out=150, n_far=20):
    """Seeded random points of a chart outside its collar: inside the well,
    outside it up to x_far, and up to 1 beyond x_far."""
    rng = np.random.default_rng(7)
    out = 1.0 if ch.side == "+" else -1.0
    xs = np.concatenate((
        rng.uniform(*sorted((ch.x1, ch.x_tp)), n_in),
        rng.uniform(*sorted((ch.x_tp, ch.x_far)), n_out),
        ch.x_far + out * rng.uniform(0.0, 1.0, n_far),
    ))
    return xs[np.abs(xs - ch.x_tp) >= ch.collar]


# -- charts -------------------------------------------------------------------

def test_chart_vanishes_at_turning_point():
    ch = _chart(HARM, 1.0, "+")
    assert ch.xi(1.0) == 0.0
    assert abs(ch.xi_prime(1.0) - 2.0 ** (1.0 / 3.0)) <= 1e-8 * 2.0 ** (1.0 / 3.0)


def test_chart_build_ignores_global_rng():
    # psi must not depend on the global numpy RNG state
    np.random.seed(0)
    a = _chart(QUART, 1.3, "+")
    np.random.seed(12345)
    np.random.random(17)
    b = _chart(QUART, 1.3, "+")
    x = np.linspace(a.x1, a.x_far + 1.0, 801)
    assert np.array_equal(chart_u(a, 0.05, x), chart_u(b, 0.05, x))


def test_chart_slope_at_left_turning_point():
    ch = _chart(HARM, 1.0, "-")
    assert ch.xi(-1.0) == 0.0
    assert abs(ch.xi_prime(-1.0) + 2.0 ** (1.0 / 3.0)) <= 1e-8


def test_chart_identity_xi():
    # xi'^2 xi = q away from the collar, and the explicit value at x=2
    ch = _chart(HARM, 1.0, "+")
    assert abs(ch.xi(2.0) - (1.5 * _harm_action(1.0, 2.0)) ** (2.0 / 3.0)) <= 1e-10
    assert abs(ch.xi_prime(2.0) ** 2 * ch.xi(2.0) - 3.0) <= 1e-8 * 3.0
    xs = np.linspace(0.05, 3.4, 337)
    xs = xs[np.abs(xs - 1.0) > ch.collar]
    q = HARM.value(xs) - 1.0
    resid = np.abs(ch.xi_prime(xs) ** 2 * ch.xi(xs) - q) / np.abs(q)
    assert resid.max() <= 1e-8


def test_chart_signs():
    ch_p = _chart(QUART, 1.0, "+")
    ch_m = _chart(QUART, 1.0, "-")
    xs = np.linspace(0.05, 1.8, 40)
    assert np.all(ch_p.xi_prime(xs) > 0)
    assert np.all(ch_m.xi_prime(-xs) < 0)
    inside = xs[xs < 1.0 - ch_p.collar]
    assert np.all(ch_p.xi(inside) < 0)
    outside = xs[xs > 1.0 + ch_p.collar]
    assert np.all(ch_p.xi(outside) > 0)


def test_chart_collar_model_matches_quadrature_at_boundary():
    # xi just inside the collar edges comes from the Taylor model
    for pot, lam in ((HARM, 1.0), (QUART, 1.3)):
        ch = _chart(pot, lam, "+")
        for x in (ch.x_tp - (1 - 1e-9) * ch.collar, ch.x_tp + (1 - 1e-9) * ch.collar):
            quad = _ref_xi(ch, x)
            assert abs(ch.xi(x) - quad) <= 1e-6 * abs(quad)


def test_chart_finite_difference_derivative():
    ch = _chart(QUART, 1.0, "+")
    xs = np.array([0.2, 0.6, 0.9, 1.2, 1.6])
    h = 1e-6
    fd = (ch.xi(xs + h) - ch.xi(xs - h)) / (2 * h)
    rel = np.abs(fd - ch.xi_prime(xs)) / np.abs(ch.xi_prime(xs))
    assert rel.max() <= 1e-7


CHART_CASES = [(QUART, "+"), (QUART, "-"), (ASYM_QUART, "+"), (ASYM_QUART, "-"),
               (DISC, "+"), (DISC, "-"), (HL, "+"), (KINK_JUMP, "-")]
CHART_IDS = ["quartic+", "quartic-", "asym_quartic+", "asym_quartic-",
             "jump+", "jump-", "halfline+", "table_kink-"]


def test_chart_cases_cover_interior_piece_boundaries():
    # ASYM_QUART's '+' inner range and KINK_JUMP's '-' outer range straddle a
    # piece boundary of v, so those actions take the plain-x segment
    ch = _chart(ASYM_QUART, 1.3, "+")
    assert ch.x1 < 0.0 < ch.x_tp
    ch = _chart(KINK_JUMP, 1.3, "-")
    assert ch.x_far < -3.0 < ch.x_tp


@pytest.mark.parametrize("pot,side", CHART_CASES, ids=CHART_IDS)
def test_cumulative_node_values_match_per_node_quadrature(pot, side):
    # xi from the chart's cumulative action at 300+ random points, inside the
    # well, outside it and beyond x_far, against one scipy quad per point
    ch = _chart(pot, 1.3, side)
    xs = _sample(ch)
    assert xs.size >= 300
    ref = np.array([_ref_xi(ch, x) for x in map(float, xs)])
    assert np.max(np.abs(ch.xi(xs) - ref)) <= 1e-12


@pytest.mark.parametrize("side", ["+", "-"])
def test_xi_matches_harmonic_closed_form(side):
    ch = _chart(HARM, 1.3, side)
    xs = _sample(ch)
    sign = np.where((xs - ch.x_tp) * (1.0 if side == "+" else -1.0) > 0, 1.0, -1.0)
    ref = sign * (1.5 * np.array([_harm_action(1.3, x) for x in xs])) ** (2.0 / 3.0)
    assert np.max(np.abs(ch.xi(xs) - ref)) <= 1e-12


@pytest.mark.parametrize("pot,side", CHART_CASES, ids=CHART_IDS)
def test_xi_continuous_at_both_collar_edges(pot, side):
    # inside the collar xi comes from the Taylor model, outside it from the
    # action; the two meet to 1e-8 relative at either edge (both edges
    # where the chart's domain reaches across x_tp)
    ch = _chart(pot, 1.3, side)
    for sgn in (-1.0, 1.0):
        inner, outer = (ch.x_tp + sgn * ch.collar * f for f in (1.0 - 1e-12, 1.0 + 1e-12))
        if not ch._in_domain(np.array([outer]))[0]:
            continue
        a, b = ch.xi(inner), ch.xi(outer)
        assert abs(a - b) <= 1e-8 * abs(b)
        assert abs(b - _ref_xi(ch, outer)) <= 1e-9 * abs(b)


@pytest.mark.parametrize("pot,side", CHART_CASES, ids=CHART_IDS)
def test_xi_depends_on_x_alone(pot, side):
    ch = _chart(pot, 1.3, side)
    # the turning point, the collar, and two bands of points farther out
    far = ch.x_tp + (ch.x_far - ch.x_tp) * np.array([2.5, 3.9])
    xs = np.concatenate((_sample(ch), [ch.x_tp, ch.x_tp + 0.5 * ch.collar], far))
    together = ch.xi(xs)
    assert all(together[i] == ch.xi(x) for i, x in enumerate(xs))


def test_build_chart_makes_no_per_node_kernel_call(monkeypatch):
    calls = []
    fn = quadrature.well_integral

    def counted(*args, **kwargs):
        calls.append("well_integral")
        return fn(*args, **kwargs)

    tp = turning_points(DISC, 1.3)
    monkeypatch.setattr(quadrature, "well_integral", counted)
    for side in ("+", "-"):
        build_chart(DISC, 1.3, side, tp, 0.0)
    assert calls == []


@pytest.mark.parametrize("pot,side", CHART_CASES, ids=CHART_IDS)
def test_build_chart_raises_no_invalid_value(pot, side):
    # the action near x_tp can round below 0, where ^(2/3) is NaN
    with np.errstate(invalid="raise"):
        ch = _chart(pot, 1.3, side)
        xs = np.concatenate((np.linspace(ch.x1, ch.x_far, 257),
                             ch.x_tp + ch.collar * np.array([-1.0, 0.0, 1.0])))
        assert np.all(np.isfinite(ch.xi(xs)))


def test_chart_far_field_and_domain_error():
    ch = _chart(HARM, 1.0, "+", 0.0)
    far = ch.x_far + 1.5
    assert abs(ch.xi(far) - (1.5 * _harm_action(1.0, far)) ** (2.0 / 3.0)) <= 1e-8
    with pytest.raises(ChartDomainError):
        ch.xi(-0.5)
    with pytest.raises(ChartDomainError):
        build_chart(HL, 1.0, "-", turning_points(HL, 1.0), 0.0)


def test_default_matching_point_is_a_jump_or_the_midpoint():
    # a kink inside the well is not a matching point: at lam = 1 the x1 of
    # this kinked well's record is the turning-point midpoint 0.2113, not 0;
    # the record is the one source of the x1 of an eigenfunction's charts
    kinked = make_power_law(0, 1, 1, 0, 3, 2)
    assert [s.kind for s in kinked.singular_points] == ["kink"]
    tp = turning_points(kinked, 1.0)
    assert quantize.quantization_condition(kinked, 1.0, "smooth", 0.1).x1 == 0.5 * (tp.x_minus + tp.x_plus)
    assert quantize.quantization_condition(DISC, 1.3, "discontinuous", 0.1).x1 == 0.0
    for pot, window in ((kinked, (0.5, 1.5)), (DISC, (0.8, 1.8))):
        l = quantize.levels(pot, window, 0.1)[0]
        psi = eigenfunction(pot, l)
        x1 = quantize.quantization_condition(pot, l.lam, l.kind, l.hbar).x1
        assert psi.x1 == psi.plus.x1 == psi.minus.x1 == x1


# -- error-control function ---------------------------------------------------


def test_error_control_linear_potential_cancels():
    # q = x gives xi = x and 5 xi^-2 exactly cancels 5 xi q^-3 q'^2
    for x in (0.5, 1.0, 3.0, 10.0):
        assert abs(error_control_core(x, x, 1.0, 0.0)) <= 1e-12 / x**2


def test_error_control_harmonic_finite_and_decaying():
    ch = _chart(HARM, 1.0, "+")
    assert np.isfinite(error_control(ch, 3.0))
    vals = []
    for x in (5.0, 10.0, 20.0, 40.0):
        p = error_control(ch, x)
        vals.append(abs(p) * abs(ch.xi(x)) ** 0.5)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1e-3


def test_error_control_envelope_trend():
    # |p| <= C |xi|^(-1/2 - rho): the product |p| |xi|^(3/2) stays bounded
    ch = _chart(HARM, 1.0, "+")
    xs = np.linspace(2.0, 20.0, 19)
    prods = [abs(error_control(ch, float(x)))
             * abs(ch.xi(float(x))) ** 1.5 for x in xs]
    assert max(prods) <= 2.0 * prods[0] + 1.0


def test_error_control_rejects_turning_point():
    with pytest.raises(ValueError):
        error_control(HARM_PLUS, 1.0)


# -- uniform solutions ---------------------------------------------------------

def test_uniform_u_at_turning_point():
    u = chart_u(HARM_PLUS, 0.1, 1.0)
    assert abs(u - math.pi * 2.0 ** (-1.0 / 6.0) * AI_ZERO) <= 1e-8


def test_uniform_u_outer_wkb_ratio():
    # deep-forbidden form 2^-1 pi^(1/2) hbar^(1/6) q^(-1/4) e^(-S/hbar)
    x = 2.0
    s = _harm_action(1.0, x)
    q = float(HARM.value(np.array(x))) - 1.0
    ratios = []
    for hbar in (0.1, 0.05, 0.025):
        wkb = 0.5 * math.sqrt(math.pi) * hbar ** (1 / 6) * q**-0.25 * math.exp(-s / hbar)
        ratios.append(float(chart_u(HARM_PLUS, hbar, x)) / wkb)
    errs = [abs(r - 1.0) for r in ratios]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 5e-3


def test_uniform_u_oscillatory_form():
    # pi^(1/2) hbar^(1/6) |q|^(-1/4) sin(phi_+/hbar + pi/4) inside the well
    for hbar in (0.05, 0.02):
        fp = partial_action(HARM, 1.0, 0.0, "+")
        pred = math.sqrt(math.pi) * hbar ** (1 / 6) * math.sin(fp / hbar + math.pi / 4)
        got = float(chart_u(HARM_PLUS, hbar, 0.0))
        assert abs(got - pred) <= 3.0 * hbar * abs(pred) + 5e-3 * hbar


def test_uniform_u_deep_forbidden_stays_finite():
    # no overflow or NaN deep in the forbidden region; graceful underflow
    u4 = float(chart_u(HARM_PLUS, 0.01, 4.0))
    assert 0.0 <= u4 <= 1e-250
    assert float(chart_u(HARM_PLUS, 0.01, 6.0)) == 0.0


def test_uniform_u_prime_finite_difference():
    hbar = 0.1
    ch = _chart(HARM, 1.0, "+", -0.5)
    for x in (0.0, 0.5, 1.5):
        h = 1e-6
        fd = (chart_u(ch, hbar, x + h) - chart_u(ch, hbar, x - h)) / (2 * h)
        du = chart_u_prime(ch, hbar, x)
        assert abs(du - fd) <= 1e-6 * abs(du)


def test_chart_u_evaluates_xi_once(monkeypatch):
    ch = _chart(QUART, 1.3, "+")
    xs = np.linspace(0.2, ch.x_far + 1.0, 50)
    want = (chart_u(ch, 0.05, xs), chart_u_prime(ch, 0.05, xs))
    calls = []
    xi = langer.LangerChart.xi

    def counted(self, x):
        calls.append(1)
        return xi(self, x)

    monkeypatch.setattr(langer.LangerChart, "xi", counted)
    for f, value in zip((chart_u, chart_u_prime), want):
        calls.clear()
        assert np.array_equal(f(ch, 0.05, xs), value)
        assert len(calls) == 1


def test_uniform_u_prime_oscillatory_form():
    # -+ pi^(1/2) hbar^(-5/6) |q|^(1/4) cos(phi_pm/hbar + pi/4)
    hbar = 0.02
    fp = partial_action(HARM, 1.0, 0.0, "+")
    pred = -math.sqrt(math.pi) * hbar ** (-5 / 6) * math.cos(fp / hbar + math.pi / 4)
    got = float(chart_u_prime(HARM_PLUS, hbar, 0.0))
    assert abs(got - pred) <= 0.05 * abs(pred)


def test_uniform_u_prime_collar_guard():
    with pytest.raises(ChartDomainError):
        chart_u_prime(HARM_PLUS, 0.1, 1.0)


def test_wronskian_reproduces_quantization_phase():
    # u_+ u_-' - u_- u_+' = pi hbar^(-2/3) sin(Phi/hbar + pi/2) + O(hbar^(1/3))
    lam, hbar, x = 1.03, 0.02, 0.3
    cp = _chart(HARM, lam, "+", -0.6)
    cm = _chart(HARM, lam, "-", 0.6)
    w = (chart_u(cp, hbar, x) * chart_u_prime(cm, hbar, x)
         - chart_u(cm, hbar, x) * chart_u_prime(cp, hbar, x))
    phi = quantize.quantization_condition(HARM, lam, "smooth", 1.0).g
    pred = math.pi * hbar ** (-2 / 3) * math.sin(phi / hbar + math.pi / 2)
    assert abs(w - pred) <= 0.05 * math.pi * hbar ** (-2 / 3)


# -- normalization and assembly -------------------------------------------------

def _level(lam, hbar, n, kind):
    return quantize.SemiclassicalLevel(n=n, hbar=hbar, lam=lam, residual=0.0, kind=kind)


def _c_pm(pot, level):
    """(c_+, c_-) of the level's eigenfunction."""
    psi = eigenfunction(pot, level)
    return psi.c_plus, psi.c_minus


def test_normalization_harmonic_value():
    # int (1-x^2)^(-1/2) = pi, so |c| = (2/pi)^(1/2) hbar^(-1/6) pi^(-1/2)
    c_plus, c_minus = _c_pm(HARM, _level(1.0, 0.1, 4, "smooth"))
    assert abs(c_plus - math.sqrt(2.0) / math.sqrt(math.pi) / math.sqrt(math.pi) * 0.1 ** (-1 / 6)) <= 1e-9
    assert c_plus == c_minus


def test_normalization_parity_and_scaling():
    even = _level(1.0, 0.1, 4, "smooth")
    c_plus, c_minus = _c_pm(HARM, even)
    assert c_minus == c_plus > 0.0
    c_plus, c_minus = _c_pm(HARM, dataclasses.replace(even, n=5))
    assert c_minus == -c_plus < 0.0
    c1, _ = _c_pm(HARM, dataclasses.replace(even, n=0))
    c2, _ = _c_pm(HARM, dataclasses.replace(even, n=0, hbar=0.1 / 8.0))
    assert abs(c2 / c1 - 8.0 ** (1 / 6)) <= 1e-12
    with pytest.raises(quantize.QuantizeError):
        _c_pm(HARM, dataclasses.replace(even, kind="unknown"))


def test_normalization_halfline_harmonic_closed_form():
    # int_0^{x+} (lam - x^2)^(-1/2) = pi/2 at every lam, so c_+ = (2/pi) hbar^(-1/6)
    for l in quantize.levels(HL, (0.04, 1.3), 0.05):
        c_plus, _ = _c_pm(HL, l)
        assert abs(c_plus - 2.0 / math.pi * 0.05 ** (-1 / 6)) <= 1e-10 * c_plus


def _levels_and_oracle(pot, window, hbar, robin_b=None, pad=0.0):
    """The semiclassical levels of the window and the oracle spectrum of the
    window widened by pad on each side; robin_b is the half-line wall."""
    wide = (window[0] - pad, window[1] + pad)
    return (quantize.levels(pot, window, hbar, robin_b),
            oracle.solve_spectrum(pot, hbar, wide, robin_b=robin_b))


def _psi_errors(pot, window, hbar, robin_b=None, pad=0.0):
    """(level, sup|psi - psi_oracle| / max|psi_oracle|) of each window level,
    the sup taken over the whole oracle grid.  Without pad, level k is paired
    with oracle state k and the two level counts must agree.  With pad the
    oracle solves the window widened by pad on each side and each level takes
    the nearest oracle state; those states must be distinct and consecutive,
    and every oracle level in the window must be taken unless it lies within
    a tenth of the least oracle spacing of an edge."""
    levels, spec = _levels_and_oracle(pot, window, hbar, robin_b, pad)
    ev = spec.eigenvalues
    if pad:
        idx = [int(np.argmin(np.abs(ev - l.lam))) for l in levels]
        assert not idx or idx == list(range(idx[0], idx[0] + len(idx)))
        margin = 0.1 * np.min(np.diff(ev), initial=np.inf)
        assert set(np.flatnonzero((window[0] + margin < ev) & (ev < window[1] - margin))) <= set(idx)
    else:
        assert len(levels) == len(ev) > 0
        idx = range(len(levels))
    errs = []
    for k, l in zip(idx, levels):
        x, po = oracle.eigenvector(spec, k)
        errs.append((l, float(np.max(np.abs(eigenfunction(pot, l)(x) - po)) / np.max(np.abs(po)))))
    return errs


@pytest.mark.parametrize("pot,window", [
    (QUART, (0.5, 2.0)),
    (DISC, (0.8, 1.8)),
    (HL, (0.04, 1.3)),
], ids=["smooth", "discontinuous", "halfline_dirichlet"])
def test_psi_matches_the_oracle_eigenvector_per_level_kind(pot, window):
    # the 5% bound of the wavefunction benchmark; measured 0.55%, 1.3% and 2.6%
    assert max(err for _, err in _psi_errors(pot, window, 0.05)) <= 0.05


@st.composite
def psi_wells(draw):
    """(potential, window) of a random two-branch power-law, jump or
    half-line Dirichlet well, the window 0.3 to 1.2 above the well bottom
    (above the top of the jump in a jump well)."""
    kind = draw(st.sampled_from(["power", "jump", "halfline"]))
    coeff, exponent = (lambda: draw(floats(0.5, 2.0))), (lambda: draw(floats(1.0, 4.0)))
    bottom = draw(floats(0.2, 0.6)) if kind == "jump" else 0.0
    if kind == "halfline":
        pot = halfline_power_law(0.0, coeff(), exponent())
    else:
        pot = make_power_law(bottom, coeff(), exponent(), 0.0, coeff(), exponent())
    lo = bottom + draw(floats(0.3, 0.6))
    return pot, (lo, lo + draw(floats(0.3, 0.6)))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(psi_wells())
@example((make_power_law(0, 1, 1, 0, 2, 1), (0.375, 0.875)))  # n = 1 is 6.18% off
def test_psi_matches_the_oracle_on_random_wells(well):
    # the 5% bound above, loosened for the lowest levels: where both
    # branches have exponent 1 and different slopes, the leading-order psi
    # is O(1/n) off next to the kink at x = 0, the same at every hbar.  On
    # such wells, slopes up to 4 apart, (n + 1) err reaches 0.226 (n = 1,
    # slopes 0.5 and 2; 0.0617 at n = 1 and 0.0337 at n = 3 on the
    # example), so 0.25 / (n + 1) bounds it.  The padded oracle window
    # keeps a level within its O(hbar^2) error of a window edge matched.
    # Measured on 40 draws: a level is within 0.35% of the least oracle
    # spacing of its oracle state, far inside the tenth _psi_errors allows
    pot, window = well
    for level, err in _psi_errors(pot, window, 0.05, pad=0.1):
        assert err <= max(0.05, 0.25 / (level.n + 1)), (level.n, err)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(psi_wells())
def test_the_oracle_level_with_index_n_is_the_nearest_one(well):
    # the node count n of a semiclassical level names its oracle state
    pot, window = well
    levels, spec = _levels_and_oracle(pot, window, 0.05, pad=0.1)
    for l in levels:
        assert l.n in spec.index
        k = int(np.flatnonzero(spec.index == l.n)[0])
        assert k == int(np.argmin(np.abs(spec.eigenvalues - l.lam)))


def test_halfline_robin_psi_error_decreases_with_hbar():
    # the leading-order psi ignores b, so only the trend is asserted: at the
    # level nearest lam = 0.5 the error is about 0.20 at hbar 0.1 and 0.11 at 0.05
    errs = [min(_psi_errors(HL, (0.04, 1.3), hbar, 2.0), key=lambda e: abs(e[0].lam - 0.5))[1]
            for hbar in (0.1, 0.05)]
    assert errs[1] < errs[0]


def test_peak_matches_normalized_exact_ground_state():
    # exact normalized harmonic ground state at hbar=1: psi(x) = pi^(-1/4) e^(-x^2/2)
    peak_exact = math.pi ** (-0.25) * math.exp(-0.5)
    assert abs(peak_coefficient(HARM, 1.0) - peak_exact) <= 0.03 * peak_exact


def test_eigenfunction_peak_composition():
    lv = quantize.levels(QUART, (0.5, 2.0), 0.05)
    l = min(lv, key=lambda z: abs(z.lam - 1.0))
    psi = eigenfunction(QUART, l)
    tp = turning_points(QUART, l.lam)
    pred = peak_coefficient(QUART, l.lam) * l.hbar ** (-1 / 6)
    assert abs(abs(float(psi(tp.x_plus))) - pred) <= 1e-9 * pred


def test_eigenfunction_even_parity():
    lv = quantize.levels(QUART, (0.5, 2.0), 0.05)
    l = next(z for z in lv if z.n % 2 == 0)
    psi = eigenfunction(QUART, l)
    xs = np.array([0.15, 0.4, 0.8, 1.1])
    assert np.max(np.abs(psi(xs) - psi(-xs))) <= 1e-8 * np.max(np.abs(psi(xs)))


def test_eigenfunction_odd_parity():
    lv = quantize.levels(QUART, (0.5, 2.0), 0.05)
    l = next(z for z in lv if z.n % 2 == 1)
    psi = eigenfunction(QUART, l)
    xs = np.array([0.15, 0.4, 0.8, 1.1])
    assert np.max(np.abs(psi(xs) + psi(-xs))) <= 1e-8 * np.max(np.abs(psi(xs)))


def test_eigenfunction_turning_point_bound_uniform_constant():
    # |psi| <= C (hbar^(2/3) + |x - x_pm|)^(-1/4) with one constant across hbar
    def fitted_c(hbar):
        lv = quantize.levels(QUART, (0.5, 2.0), hbar)
        l = min(lv, key=lambda z: abs(z.lam - 1.0))
        psi = eigenfunction(QUART, l)
        tp = turning_points(QUART, l.lam)
        xs = tp.x_plus + np.linspace(-0.3, 0.3, 61)
        vals = np.abs(psi(xs)) * (hbar ** (2 / 3) + np.abs(xs - tp.x_plus)) ** 0.25
        return float(np.max(vals))

    c1 = fitted_c(0.1)
    c2 = fitted_c(0.05)
    assert c2 <= 1.2 * c1


def test_eigenfunction_localization_bound():
    # int over (x_+ - d, x_+ + d) of psi^2 <= C d^(1/2), C uniform in d
    lv = quantize.levels(QUART, (0.5, 2.0), 0.05)
    l = min(lv, key=lambda z: abs(z.lam - 1.0))
    psi = eigenfunction(QUART, l)
    tp = turning_points(QUART, l.lam)

    def mass(delta):
        xs = np.linspace(tp.x_plus - delta, tp.x_plus + delta, 2001)
        return float(np.trapezoid(psi(xs) ** 2, xs))

    m1, m2 = mass(0.1), mass(0.05)
    assert m2 / math.sqrt(0.05) <= 1.3 * (m1 / math.sqrt(0.1))


def test_langer_vs_inner_wkb_remainder_envelope():
    # |u - wkb| <= C hbar^(7/6) |x - x_+|^(-7/4), C fitted at one hbar
    def fitted_c(hbar):
        lam = 1.0
        ch = _chart(HARM, lam, "+", -0.5)
        xs = np.linspace(0.0, 1.0 - 2.0 * hbar ** (2 / 3), 200)
        q = np.abs(HARM.value(xs) - lam)
        fp = np.array([partial_action(HARM, lam, float(x), "+") for x in xs])
        wkb = math.sqrt(math.pi) * hbar ** (1 / 6) * q**-0.25 * np.sin(fp / hbar + math.pi / 4)
        u = chart_u(ch, hbar, xs)
        return float(np.max(np.abs(u - wkb) / (hbar ** (7 / 6) * np.abs(xs - 1.0) ** (-7 / 4))))

    c1 = fitted_c(0.1)
    c2 = fitted_c(0.05)
    assert c2 <= 1.5 * c1


def test_mismatch_divides_by_the_local_amplitude():
    # mismatch() is |psi(x1+) - psi(x1-)| over the envelope
    # |c_+| pi^(1/2) hbar^(1/6) |q(x1)|^(-1/4) of c_+ u_+ (chart_u), and that
    # envelope is the largest |psi| within one local wavelength of x1
    lv = quantize.levels(QUART, (0.5, 2.0), 0.02)
    l = min(lv, key=lambda z: abs(z.lam - 1.0))
    psi = eigenfunction(QUART, l)
    jump = abs(psi.c_plus * float(chart_u(psi.plus, l.hbar, psi.x1))
               - psi.c_minus * float(chart_u(psi.minus, l.hbar, psi.x1)))
    envelope = jump / psi.mismatch()
    wavelength = 2.0 * math.pi * l.hbar / math.sqrt(l.lam - float(QUART.value(np.array(psi.x1))))
    measured = float(np.max(np.abs(psi(psi.x1 + wavelength * np.linspace(-0.5, 0.5, 2001)))))
    assert abs(envelope / measured - 1.0) <= 0.01


def test_mismatch_diagnostic_small():
    lv = quantize.levels(QUART, (0.5, 2.0), 0.05)
    l = min(lv, key=lambda z: abs(z.lam - 1.0))
    psi = eigenfunction(QUART, l)
    assert 0.0 <= psi.mismatch() <= 0.1
