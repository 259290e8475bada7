"""Property tests of the batched level solve on random wells: power-law and
kinked-table wells (Bohr-Sommerfeld), jump wells and half-line wells.

Every level of a window is solved in one Newton sweep over all n; each must
be the level a window holding it alone gives, satisfy its condition to the
documented bound when G is recomputed one energy at a time, and rest on
turning points that the array call returns entry by entry as the scalar
call does.  On three fixed wells the eigenfunction of a level, too, is the
one its window alone gives."""

import math
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from semiclass import quantize
from semiclass.cli import run
from semiclass.langer import eigenfunction, eigenfunctions
from semiclass.potential import (
    certify_well,
    halfline_power_law,
    make_power_law,
    potential_from_spec,
    turning_points,
)
from semiclass.quantize import LAMBDA_TOL, QuantizeError, levels, quantization_condition

PROPS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def wells(draw, kinds=("power", "kinked", "jump", "halfline_dirichlet", "halfline_robin")):
    """(kind, potential, window, hbar) for one of the level kinds."""
    kind = draw(st.sampled_from(kinds))
    hbar = draw(st.sampled_from([0.1, 0.05, 0.02]))
    if kind == "power":
        pot = make_power_law(0.0, draw(floats(0.5, 2.0)), draw(floats(1.2, 5.0)),
                             0.0, draw(floats(0.5, 2.0)), draw(floats(1.2, 5.0)))
        bottom = 0.0
    elif kind == "kinked":
        # a power branch glued continuously to a tilted parabola: v' jumps at 0
        pot = potential_from_spec({"kind": "table", "branches": [
            {"lo": "-inf", "hi": 0.0, "type": "power", "offset": 0.0,
             "coeff": draw(floats(0.5, 3.0)), "exponent": draw(floats(1.2, 4.0))},
            {"lo": 0.0, "hi": "inf", "type": "poly",
             "coeffs": [0.0, draw(floats(0.2, 2.0)), draw(floats(0.5, 3.0))]}]})
        bottom = 0.0
    elif kind == "jump":
        bottom = draw(floats(0.1, 0.8))
        pot = make_power_law(bottom, draw(floats(0.5, 2.0)), 2.0,
                             0.0, draw(floats(0.5, 2.0)), draw(floats(1.5, 4.0)))
    else:
        pot = halfline_power_law(0.0, draw(floats(0.5, 2.0)), draw(floats(1.0, 4.0)))
        bottom = 0.0
    lo = bottom + draw(floats(0.005, 0.3))
    window = (lo, lo + draw(floats(0.3, 1.2)))
    return kind, pot, window, hbar


def _solve(kind, pot, window, hbar):
    return levels(pot, window, hbar, robin_b=0.0 if kind == "halfline_robin" else None)


@PROPS
@given(wells())
def test_window_levels_match_single_level_windows(well):
    kind, pot, window, hbar = well
    levels = _solve(kind, pot, window, hbar)
    lams = [window[0]] + [l.lam for l in levels] + [window[1]]
    for k, l in enumerate(levels):
        # the window between the midpoints to the neighbouring levels holds l alone
        alone = (0.5 * (lams[k] + lams[k + 1]) if k else window[0],
                 0.5 * (lams[k + 1] + lams[k + 2]) if k + 1 < len(levels) else window[1])
        single = _solve(kind, pot, alone, hbar)
        assert [s.n for s in single] == [l.n]
        assert abs(single[0].lam - l.lam) <= LAMBDA_TOL * max(1.0, abs(l.lam))
        if l.amplitude_a is not None:
            assert abs(single[0].amplitude_a - l.amplitude_a) <= 1e-9 * abs(l.amplitude_a)


@pytest.mark.parametrize("kinds", [("power", "kinked"), ("jump",), ("halfline_dirichlet",),
                                   ("halfline_robin",)])
@settings(PROPS, max_examples=10)
@given(data=st.data())
def test_the_levels_of_several_hbar_are_the_levels_of_each_hbar(kinds, data):
    # one batch over every hbar, ordered as given: the bits of one call per
    # hbar in every field; at hbar 100 the first target lies above G on every
    # window drawn (|hbar delta| < pi hbar / 4 at a jump there), so it has no level
    kind, pot, window, hbar = data.draw(wells(kinds))
    hbars = [hbar, 100.0, 2.0 * hbar]
    single = [_solve(kind, pot, window, h) for h in hbars]
    assert single[1] == []
    assert _solve(kind, pot, window, hbars) == [l for lv in single for l in lv]


@PROPS
@given(wells(kinds=("jump",)), st.lists(floats(0.0, 1.0), min_size=1, max_size=6))
def test_jump_action_at_an_array_of_hbar_is_one_call_per_hbar(well, fractions):
    _, pot, window, hbar = well
    x0 = certify_well(pot, *window).interior_singularities[0].x
    lams = np.array([window[0] + f * (window[1] - window[0]) for f in fractions])
    hbars = np.array([hbar, 0.37, 2.0 * hbar])
    for lam, hb in ((lams, hbars[:, None]), (float(lams[0]), hbars)):
        batch = quantize.jump_action(pot, lam, hb, x0)
        for k, h in enumerate(hbars):
            one = quantize.jump_action(pot, lam, float(h), x0)
            for field in ("g", "g_prime", "a_squared"):
                assert np.array_equal(getattr(batch, field)[k], getattr(one, field))
        # hbar does not enter the well integrals and turning points
        for field in ("i_plus", "i_minus", "x1", "tp.x_minus", "tp.x_plus", "tp.slope_minus",
                      "tp.slope_plus"):
            get = operator.attrgetter(field)
            assert np.array_equal(get(batch), get(one))


@PROPS
@given(wells())
def test_defect_recomputed_per_level_is_the_residual(well):
    kind, pot, window, hbar = well
    cert = certify_well(pot, *window)
    for l in _solve(kind, pot, window, hbar):
        c = quantization_condition(pot, l.lam, l.kind, hbar, cert, quantize._ROOT_QUAD_TOL)
        defect = abs(c.g - quantize._target(l.n, l.kind, hbar))
        # the scalar evaluation repeats the solver's last one in the batch
        assert defect == l.residual
        # the documented bound: a root to LAMBDA_TOL relative, G to _ROOT_QUAD_TOL
        bound = abs(c.g_prime) * LAMBDA_TOL * max(1.0, abs(l.lam)) + quantize._ROOT_QUAD_TOL
        assert defect <= bound


@PROPS
@given(wells(kinds=("power", "kinked")))
def test_the_weyl_count_counts_the_bohr_sommerfeld_levels(well):
    # both take the n whose target lies strictly inside (Phi(a1), Phi(a2)),
    # Phi at TOL_QUAD for the count and at _ROOT_QUAD_TOL for the levels: a
    # target within 1e-9 of Phi at a window edge may fall on either side
    _, pot, window, hbar = well
    for a in window:
        frac = quantization_condition(pot, a, "smooth", hbar).g / (math.pi * hbar) - 0.5
        assume(abs(frac - round(frac)) * math.pi * hbar > 1e-9)
    assert quantize.weyl_count(pot, *window, hbar).count == len(levels(pot, window, hbar))


@PROPS
@given(wells(), st.lists(floats(0.0, 1.0), min_size=1, max_size=8))
def test_array_turning_points_equal_scalar_ones(well, fractions):
    kind, pot, window, _ = well
    lams = np.array([window[0] + f * (window[1] - window[0]) for f in fractions])
    tps = turning_points(pot, lams)
    for k, lam in enumerate(lams):
        tp = turning_points(pot, float(lam))
        assert (tps.x_minus[k], tps.x_plus[k], tps.slope_minus[k], tps.slope_plus[k]) == (
            tp.x_minus, tp.x_plus, tp.slope_minus, tp.slope_plus)


def test_array_turning_points_keep_the_shape():
    pot = make_power_law(0, 1, 4, 0, 2, 3)
    lams = np.linspace(0.5, 2.0, 6).reshape(2, 3)
    tps = turning_points(pot, lams)
    assert tps.x_minus.shape == tps.slope_plus.shape == (2, 3)
    assert type(turning_points(pot, 1.0).x_plus) is float


@pytest.mark.parametrize("steps", [0, 1])
def test_newton_cap_raises(monkeypatch, steps):
    # a level still open after the cap is an error, not an unconverged answer
    monkeypatch.setattr(quantize, "_NEWTON_STEPS", steps)
    pot = make_power_law(0, 1, 4, 0, 1, 4)
    with pytest.raises(QuantizeError, match="not converged"):
        levels(pot, (0.5, 2.0), 0.02)


def test_newton_cap_exits_4(monkeypatch, tmp_path):
    monkeypatch.setattr(quantize, "_NEWTON_STEPS", 1)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"potential": {"kind": "power_law", "a_plus": 0, "v_plus": 1, '
                   '"alpha_plus": 4, "a_minus": 0, "v_minus": 1, "alpha_minus": 4}, '
                   '"hbar": 0.05, "window": [0.5, 2.0]}')
    assert run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv"), "--no-oracle"]) == 4


def test_condition_takes_every_level_at_once(monkeypatch):
    # one evaluation per sweep serves every n: far fewer calls than levels
    calls = []
    real = quantize.quantization_condition

    def counting(pot, lam, *args):
        calls.append(np.size(lam))
        return real(pot, lam, *args)

    monkeypatch.setattr(quantize, "quantization_condition", counting)
    lv = levels(make_power_law(0, 1, 4, 0, 1, 4), (0.5, 2.0), 0.005)
    assert len(lv) == 121
    assert len(calls) <= 8 and max(calls) == len(lv)


@pytest.mark.parametrize("kind, pot, window", [
    ("jump", make_power_law(0.5, 1, 2, 0, 1, 2), (0.8, 1.8)),
    ("power", make_power_law(0, 1, 4, 0, 1, 4), (0.5, 2.0)),
    ("halfline_dirichlet", halfline_power_law(0, 1, 2), (0.04, 1.3)),
])
def test_a_level_and_its_eigenfunction_do_not_depend_on_the_other_levels(kind, pot, window):
    # every level of the full window, solved again alone in the window cut at
    # the midpoints to its neighbours: the same n, lam and psi across the well
    hbar = 0.05
    levels = _solve(kind, pot, window, hbar)
    assert len(levels) > 3
    lams = [window[0]] + [l.lam for l in levels] + [window[1]]
    for k, l in enumerate(levels):
        alone = (0.5 * (lams[k] + lams[k + 1]) if k else window[0],
                 0.5 * (lams[k + 1] + lams[k + 2]) if k + 1 < len(levels) else window[1])
        single = _solve(kind, pot, alone, hbar)
        assert [s.n for s in single] == [l.n]
        assert abs(single[0].lam - l.lam) <= LAMBDA_TOL * abs(l.lam)
        tp = turning_points(pot, l.lam)
        x = np.linspace(tp.x_minus - 0.2 * tp.width * (pot.domain == "full_line"),
                        tp.x_plus + 0.2 * tp.width, 401)
        psi = eigenfunction(pot, l)(x)
        assert np.max(np.abs(eigenfunction(pot, single[0])(x) - psi)) <= 1e-9 * np.max(np.abs(psi))


_CHART_FIELDS = ("side", "lam", "x_tp", "x1", "slope", "curv", "collar", "x_far")


@PROPS
@given(wells())
def test_the_eigenfunctions_of_a_window_are_its_levels_eigenfunctions(well):
    # one quantization_condition call for the window gives every level what a
    # call with that level alone gives: c_pm, x1, the charts and psi, to the bit
    kind, pot, window, hbar = well
    levels = _solve(kind, pot, window, hbar)
    assume(levels)
    cert = certify_well(pot, *window)
    for l, psi in zip(levels, eigenfunctions(pot, levels, cert), strict=True):
        alone = eigenfunction(pot, l, cert)
        assert (psi.c_plus, psi.c_minus, psi.x1) == (alone.c_plus, alone.c_minus, alone.x1)
        for a, b in ((psi.plus, alone.plus), (psi.minus, alone.minus)):
            assert (a is None) == (b is None)
            if a is not None:
                assert [getattr(a, f) for f in _CHART_FIELDS] == [getattr(b, f) for f in _CHART_FIELDS]
        tp = turning_points(pot, l.lam)
        x = np.linspace(tp.x_minus - 0.2 * tp.width * (pot.domain == "full_line"),
                        tp.x_plus + 0.2 * tp.width, 301)
        assert np.array_equal(psi(x).view(np.int64), alone(x).view(np.int64))
