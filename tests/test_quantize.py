import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from semiclass import oracle, quantize
from semiclass.langer import eigenfunction
from semiclass.potential import (
    CertificationError,
    certify_well,
    halfline_power_law,
    make_power_law,
    potential_from_spec,
)
from semiclass.quantize import QuantizeError, levels, weyl_count
from support import levels_of_kind, partial_action

HARM = make_power_law(0, 1, 2, 0, 1, 2)
QUART = make_power_law(0, 1, 4, 0, 1, 4)
DISC = make_power_law(0.5, 1, 2, 0, 1, 2)


def smooth(pot, lam):
    """The smooth quantization_condition record: Phi is its g and Phi' its g_prime."""
    return quantize.quantization_condition(pot, lam, "smooth", 1.0)


# -- Bohr-Sommerfeld -----------------------------------------------------------

def test_bs_harmonic_closed_form():
    lv = levels(HARM, (0.03, 1.97), 0.1)
    assert [l.n for l in lv] == list(range(10))
    for l in lv:
        assert abs(l.lam - (2 * l.n + 1) * 0.1) <= 1e-11
        assert l.kind == "smooth"
        assert l.amplitude_a == (-1.0) ** l.n
    l3 = next(l for l in lv if l.n == 3)
    assert abs(l3.lam - 0.7) <= 1e-11


def test_bs_root_definition_quartic():
    lv = levels(QUART, (0.5, 2.0), 0.05)
    l0 = lv[0]
    target = math.pi * (l0.n + 0.5) * 0.05
    assert abs(smooth(QUART, l0.lam).g / target - 1.0) <= 1e-10
    assert l0.residual <= 1e-9


def test_bs_monotone_levels():
    lv = levels(QUART, (0.5, 2.0), 0.05)
    assert all(a.lam < b.lam for a, b in zip(lv, lv[1:]))
    assert [l.n for l in lv] == list(range(lv[0].n, lv[0].n + len(lv)))


def test_bs_uniqueness_separation():
    # consecutive roots separated by at least pi hbar / (2 max Phi')
    hbar = 0.05
    lv = levels(QUART, (0.5, 2.0), hbar)
    dmax = max(smooth(QUART, l.lam).g_prime for l in lv)
    gap = math.pi * hbar / (2.0 * dmax)
    assert all(b.lam - a.lam >= gap for a, b in zip(lv, lv[1:]))


def test_bs_rejects_jump_and_bad_hbar():
    with pytest.raises(QuantizeError):
        levels_of_kind(DISC, (0.8, 1.8), 0.05, "smooth")
    with pytest.raises(QuantizeError):
        levels(HARM, (0.5, 1.5), -0.1)


def test_bs_empty_window():
    # the gap between the lam=0.7 and lam=0.9 levels holds no quantization point
    assert levels(HARM, (0.74, 0.86), 0.1) == []


def test_bs_allows_kink_and_curvature():
    kink = make_power_law(0, 1, 1, 0, 1, 1)
    assert len(levels(kink, (0.5, 1.5), 0.05)) > 0
    curv = make_power_law(0, 1, 2, 0, 4, 2)
    assert len(levels(curv, (0.5, 1.5), 0.05)) > 0


# -- Weyl counts ----------------------------------------------------------------

def test_weyl_harmonic_example():
    cr = weyl_count(HARM, 0.05, 0.75, 0.1)
    assert abs(cr.predicted - 3.5) <= 1e-9
    assert cr.count == 4  # levels 0.1, 0.3, 0.5, 0.7
    assert abs(cr.epsilon - 0.5) <= 1e-9
    assert abs(cr.phase_volume - 2.0 * (smooth(HARM, 0.75).g - smooth(HARM, 0.05).g)) <= 1e-9


def test_weyl_halving_hbar_doubles_count():
    c1 = weyl_count(QUART, 0.5, 2.0, 0.05)
    c2 = weyl_count(QUART, 0.5, 2.0, 0.025)
    assert abs(c2.count - 2 * c1.count) <= 1
    assert abs(c2.predicted - 2 * c1.predicted) <= 1e-9


def test_weyl_empty_window():
    cr = weyl_count(HARM, 0.74, 0.86, 0.1)
    assert cr.count == 0
    assert abs(cr.epsilon) <= 1.0


def test_weyl_lattice_epsilon_always_bounded():
    for hbar in (0.11, 0.05, 0.021):
        for win in ((0.31, 0.93), (0.5, 1.77), (0.22, 1.61)):
            cr = weyl_count(QUART, win[0], win[1], hbar)
            assert abs(cr.epsilon) <= 1.0


def test_weyl_accepts_external_count():
    # an external (e.g. brute-force) count is compared with the same prediction
    cr = weyl_count(HARM, 0.05, 0.75, 0.1)
    assert abs((3 - cr.predicted) - (-0.5)) <= 1e-9


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@settings(max_examples=5, deadline=None)
@given(_floats(0.5, 2.0), _floats(2.0, 6.0), _floats(0.5, 2.0), _floats(2.0, 6.0),
       _floats(0.1, 1.0), _floats(0.4, 1.5), _floats(0.03, 0.1))
def test_weyl_oracle_defect_bounded_on_random_power_law_wells(v_plus, alpha_plus, v_minus,
                                                             alpha_minus, a1, width, hbar):
    pot = make_power_law(0.0, v_plus, alpha_plus, 0.0, v_minus, alpha_minus)
    a2 = a1 + width
    spec = oracle.solve_spectrum(pot, hbar, (a1, a2))
    cr = weyl_count(pot, a1, a2, hbar)
    assert -1.0 <= len(spec.eigenvalues) - cr.predicted <= 1.0


# -- discontinuous wells ---------------------------------------------------------

def test_disc_jump_factor_value():
    lam = 1.0
    p = ((lam - 0.0) / (lam - 0.5)) ** 0.25
    assert abs(p - 2.0 ** 0.25) <= 1e-12
    assert abs(quantize._jump_factor(DISC, 0.0, lam)[0] - p) <= 1e-12


def test_disc_reduces_to_bs_when_continuous():
    pot = make_power_law(0, 1, 2, 0, 4, 2)
    bs = levels(pot, (0.3, 1.2), 0.05)
    dl = levels_of_kind(pot, (0.3, 1.2), 0.05, "discontinuous")
    assert len(bs) == len(dl)
    assert max(abs(a.lam - b.lam) for a, b in zip(bs, dl)) <= 1e-10


def test_disc_residuals_and_ordering():
    dl = levels(DISC, (0.8, 1.8), 0.05)
    assert all(a.lam < b.lam for a, b in zip(dl, dl[1:]))
    assert all(l.residual <= 1e-10 for l in dl)
    assert all(l.kind == "discontinuous" for l in dl)
    assert all(abs(l.amplitude_a) > 0 for l in dl)


def test_disc_count_matches_oracle():
    hbar = 0.02
    dl = levels(DISC, (0.8, 1.8), hbar)
    spec = oracle.solve_spectrum(DISC, hbar, (0.8, 1.8))
    assert len(dl) == len(spec.eigenvalues)


def test_disc_rejects_window_below_jump():
    # for lam below the jump top the single-well geometry itself breaks down
    from semiclass.potential import CertificationError
    with pytest.raises((QuantizeError, CertificationError)):
        levels(DISC, (0.3, 1.8), 0.05)
    with pytest.raises(QuantizeError):
        quantize._jump_factor(DISC, 0.0, 0.4)


def test_disc_rejects_smooth_potential():
    with pytest.raises(QuantizeError):
        levels_of_kind(HARM, (0.5, 1.5), 0.05, "discontinuous")


# a kink at x = -3 outside the well and the jump of DISC at x = 0 inside it
KINK_JUMP = potential_from_spec({"kind": "table", "branches": [
    {"lo": "-inf", "hi": -3.0, "type": "poly", "coeffs": [-27.0, -12.0]},
    {"lo": -3.0, "hi": 0.0, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
    {"lo": 0.0, "hi": "inf", "type": "power", "offset": 0.5, "coeff": 1.0, "exponent": 2.0},
]})


def test_disc_uses_the_jump_inside_the_well():
    assert [s.kind for s in KINK_JUMP.singular_points] == ["kink", "jump"]
    dl = levels(KINK_JUMP, (0.8, 1.8), 0.05)
    ref = levels(DISC, (0.8, 1.8), 0.05)
    assert [l.n for l in dl] == [l.n for l in ref] and len(dl) == 10
    for l, r in zip(dl, ref):
        assert abs(l.lam - r.lam) <= 1e-12 * r.lam
        psi, c_ref = eigenfunction(KINK_JUMP, l), eigenfunction(DISC, r).c_plus
        assert abs(psi.c_plus - c_ref) <= 1e-9 * c_ref
        assert psi.x1 == 0.0


def _reference_disc_levels(pot, window, hbar, x0, jump_top):
    """The jump levels as the roots of the paper's
    F = p sin(th+) cos(th-) + p^-1 cos(th+) sin(th-): F on a lam grid finer
    than the level spacing (geometric towards the top of the jump, where F
    turns fastest), brentq on each sign change, n counted from the first root.
    Returns (n, lam, a) with a = sin(th-) / (p sin(th+)) = -p cos(th-) / cos(th+)."""
    def angles(lam):
        th_p = partial_action(pot, lam, x0, "+", tol=1e-12) / hbar + math.pi / 4
        th_m = partial_action(pot, lam, x0, "-", tol=1e-12) / hbar + math.pi / 4
        p = ((lam - pot.value(x0, left=True)) / (lam - pot.value(x0))) ** 0.25
        return th_p, th_m, p

    def f(lam):
        th_p, th_m, p = angles(lam)
        return p * math.sin(th_p) * math.cos(th_m) + math.cos(th_p) * math.sin(th_m) / p

    a1, a2 = window
    dmax = max(smooth(pot, lam).g_prime for lam in np.linspace(a1, a2, 5))
    n_uniform = int(math.ceil((a2 - a1) * 16.0 * dmax / (math.pi * hbar))) + 1
    grid = np.union1d(np.linspace(a1, a2, n_uniform),
                      jump_top + np.geomspace(a1 - jump_top, a2 - jump_top, 64))
    vals = np.array([f(float(g)) for g in grid])
    idx = np.nonzero(np.sign(vals[1:]) * np.sign(vals[:-1]) < 0)[0]
    roots = [brentq(f, grid[i], grid[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
             for i in idx]
    n0 = int(round(smooth(pot, roots[0]).g / (math.pi * hbar) - 0.5))
    out = []
    for k, lam in enumerate(roots):
        th_p, th_m, p = angles(lam)
        a = (math.sin(th_m) / (p * math.sin(th_p)) if abs(math.sin(th_p)) > 0.1
             else -p * math.cos(th_m) / math.cos(th_p))
        out.append((n0 + k, lam, a))
    return out, f


@pytest.mark.parametrize("window", [(0.8, 1.8), (0.5005, 1.0)])
@pytest.mark.parametrize("pot", [DISC, KINK_JUMP], ids=["DISC", "KINK_JUMP"])
def test_disc_levels_match_the_f_scan_reference(pot, window):
    # the window (0.5005, 1.0) reaches within 5e-4 of the jump top v(0+0) = 0.5,
    # where G' turns negative for hbar >= 0.05
    for hbar in (0.2, 0.1, 0.05, 0.035, 0.0125):
        ref, f = _reference_disc_levels(pot, window, hbar, 0.0, 0.5)
        dl = levels(pot, window, hbar)
        assert [l.n for l in dl] == [n for n, _, _ in ref]
        for l, (n, lam, a) in zip(dl, ref):
            assert abs(l.lam - lam) <= 1e-11 * lam
            assert math.copysign(1.0, l.amplitude_a) == math.copysign(1.0, a) == (-1.0) ** n
            assert abs(abs(l.amplitude_a) - abs(a)) <= 1e-8 * abs(a)
            assert abs(f(l.lam)) <= 1e-10


def test_disc_normalization_continuous_limit():
    pot = make_power_law(0, 1, 2, 0, 4, 2)
    dl = levels_of_kind(pot, (0.3, 1.2), 0.05, "discontinuous")
    assert abs(quantize.jump_action(pot, dl[0].lam, 0.05, 0.0).a_squared - 1.0) <= 1e-10
    psi = eigenfunction(pot, dl[0])
    smooth_psi = eigenfunction(pot, dataclasses.replace(dl[0], kind="smooth"))
    c_plus, c_minus, s_plus, s_minus = psi.c_plus, psi.c_minus, smooth_psi.c_plus, smooth_psi.c_minus
    assert abs(c_plus - s_plus) <= 1e-8 * s_plus
    assert abs(c_minus - s_minus) <= 1e-8 * abs(s_minus)


def test_disc_normalization_amplitude_consistency():
    # the two leading forms of a^2 are reciprocal: their product is 1 + O(hbar^(2/3))
    hbar = 0.025
    dl = levels(DISC, (0.8, 1.8), hbar)
    for l in dl[:4]:
        p, _ = quantize._jump_factor(DISC, 0.0, l.lam)
        th_p = partial_action(DISC, l.lam, 0.0, "+") / hbar + math.pi / 4
        th_m = partial_action(DISC, l.lam, 0.0, "-") / hbar + math.pi / 4
        form1 = (p * math.cos(th_m)) ** 2 + (math.sin(th_m) / p) ** 2
        form2 = (p * math.sin(th_p)) ** 2 + (math.cos(th_p) / p) ** 2
        assert abs(form1 * form2 - 1.0) <= 5.0 * hbar ** (2 / 3)


def test_disc_normalization_scaling_and_guard():
    # hbar^(-1/6) prefactor scaling, with the hbar-dependent amplitude factor
    # a^2 compensated away
    from semiclass.quadrature import well_integral
    from semiclass.potential import turning_points as _tps
    dl = levels(DISC, (0.8, 1.8), 0.05)
    lam = dl[0].lam
    tp = _tps(DISC, lam)
    (_, i_plus), _ = well_integral(DISC, lam, 0.0, tp.x_plus, False, True)
    (_, i_minus), _ = well_integral(DISC, lam, tp.x_minus, 0.0, True, False)
    ratios = []
    for hbar in (0.05, 0.05 / 8.0):
        c_plus = eigenfunction(DISC, dataclasses.replace(dl[0], hbar=hbar)).c_plus
        a2 = quantize.jump_action(DISC, lam, hbar, 0.0).a_squared
        ratios.append(c_plus * math.sqrt(i_plus + i_minus / a2))
    assert abs(ratios[1] / ratios[0] - 8.0 ** (1 / 6)) <= 1e-10
    with pytest.raises(QuantizeError):
        eigenfunction(DISC, dataclasses.replace(dl[0], kind="halfline_neumann"))


# -- half-line problems -----------------------------------------------------------

HL = halfline_power_law(0, 1, 2)


def test_halfline_dirichlet_closed_form():
    lv = levels(HL, (0.05, 1.45), 0.1)
    assert [round(l.lam, 10) for l in lv] == [0.3, 0.7, 1.1]
    assert all(l.kind == "halfline_dirichlet" for l in lv)


def test_halfline_robin_closed_form():
    lv = levels(HL, (0.05, 1.45), 0.1, robin_b=5.0)
    assert [round(l.lam, 10) for l in lv] == [0.1, 0.5, 0.9, 1.3]
    assert all(l.kind == "halfline_robin" for l in lv)
    assert all(l.robin_b == 5.0 for l in lv)


def test_halfline_wall_is_robin_b():
    # robin_b None is the Dirichlet wall, a number b the Robin wall (0 is Neumann)
    neumann = levels(HL, (0.05, 1.45), 0.1, robin_b=0.0)
    assert [round(l.lam, 10) for l in neumann] == [0.1, 0.5, 0.9, 1.3]
    assert all(l.kind == "halfline_robin" and l.robin_b == 0.0 for l in neumann)
    dirichlet = levels(HL, (0.05, 1.45), 0.1, robin_b=None)
    assert [round(l.lam, 10) for l in dirichlet] == [0.3, 0.7, 1.1]
    assert all(l.kind == "halfline_dirichlet" and l.robin_b is None for l in dirichlet)


def test_halfline_robin_b_independence():
    a = levels(HL, (0.05, 1.45), 0.1, robin_b=0.0)
    b = levels(HL, (0.05, 1.45), 0.1, robin_b=100.0)
    assert [l.lam for l in a] == [l.lam for l in b]


# x^2 on [0, 0.3], then 0.5 + x^2: v jumps inside the well for lam > 0.59
HL_JUMP_SPEC = {"kind": "table", "domain": "half_line", "branches": [
    {"lo": 0.0, "hi": 0.3, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
    {"lo": 0.3, "hi": "inf", "type": "poly", "coeffs": [0.5, 0.0, 1.0]},
]}


def test_halfline_rejects_a_jump_inside_the_well():
    pot = potential_from_spec(HL_JUMP_SPEC)
    assert certify_well(pot, 0.6, 1.5).interior_jump == 0.3
    with pytest.raises(QuantizeError, match="jumps inside the well"):
        levels(pot, (0.6, 1.5), 0.02)


def test_halfline_singular_point_entering_the_well_fails_certification():
    # x^2 on [0, 0.5], then a line of slope 3: the kink at 0.5 enters the
    # well at lam = 0.25, inside the window
    pot = potential_from_spec({"kind": "table", "domain": "half_line", "branches": [
        {"lo": 0.0, "hi": 0.5, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
        {"lo": 0.5, "hi": "inf", "type": "poly", "coeffs": [-1.25, 3.0]},
    ]})
    assert [s.kind for s in pot.singular_points] == ["kink"]
    with pytest.raises(CertificationError) as info:
        levels(pot, (0.1, 1.0), 0.05)
    assert info.value.clause == "singularity"
    assert len(levels(pot, (0.3, 1.0), 0.05)) > 0  # the kink stays inside the well


def _as(kind):
    return lambda pot, window, hbar, **kw: levels_of_kind(pot, window, hbar, kind, **kw)


@pytest.mark.parametrize("with_cert", [False, True], ids=["no-cert", "cert"])
@pytest.mark.parametrize("solve,pot,window", [
    (_as("smooth"), HL, (0.05, 1.45)),
    (_as("smooth"), potential_from_spec(HL_JUMP_SPEC), (0.6, 1.5)),
    (_as("discontinuous"), HL, (0.05, 1.45)),
    (_as("halfline_dirichlet"), HARM, (0.5, 1.5)),
    (lambda pot, window, hbar, **kw: levels(pot, window, hbar, 1.0, **kw), HARM, (0.5, 1.5)),
    (lambda pot, window, hbar, **kw: weyl_count(pot, *window, hbar, **kw), HL, (0.05, 1.45)),
], ids=["bs-half-line", "bs-half-line-jump", "disc-half-line", "halfline-full-line",
        "robin-full-line", "weyl-half-line"])
def test_a_kind_off_its_domain_raises_domain(solve, pot, window, with_cert):
    kwargs = {"cert": certify_well(pot, *window)} if with_cert else {}
    with pytest.raises(CertificationError) as info:
        solve(pot, window, 0.1, **kwargs)
    assert info.value.clause == "domain"


@pytest.mark.parametrize("pot,window,robin_b,kind", [
    (make_power_law(0, 1, 1, 0, 1, 1), (0.5, 1.5), None, "smooth"),
    (make_power_law(0, 1, 2, 0, 4, 2), (0.5, 1.5), None, "smooth"),
    (KINK_JUMP, (0.8, 1.8), None, "discontinuous"),
    (HL, (0.05, 1.45), None, "halfline_dirichlet"),
    (HL, (0.05, 1.45), 0.0, "halfline_robin"),
], ids=["kink", "curvature", "kink-jump", "halfline-dirichlet", "halfline-robin"])
def test_levels_picks_the_kind_from_the_well(pot, window, robin_b, kind):
    # a kink or a curvature jump inside the well keeps Bohr-Sommerfeld; only
    # a jump of v itself takes the jump condition
    lv = levels(pot, window, 0.05, robin_b)
    assert lv and all(l.kind == kind and l.robin_b == robin_b for l in lv)
    assert lv == levels_of_kind(pot, window, 0.05, kind, robin_b)


def test_levels_refuses_a_half_line_jump_and_a_full_line_robin_wall():
    with pytest.raises(QuantizeError, match="jumps inside the well"):
        levels(potential_from_spec(HL_JUMP_SPEC), (0.6, 1.5), 0.05)
    with pytest.raises(CertificationError) as info:
        levels(HARM, (0.5, 1.5), 0.05, robin_b=2.0)
    assert info.value.clause == "domain"


def test_levels_take_a_certificate_of_their_own_well_only():
    # a certificate of the harmonic well, trusted, would route DISC to the
    # smooth condition: levels 0.9, 1.0 and 1.1 (n = 6-8)
    own = levels(DISC, (0.8, 1.8), 0.05, cert=certify_well(DISC, 0.8, 1.8))
    assert [l.n for l in own[:3]] == [5, 6, 7] and {l.kind for l in own} == {"discontinuous"}
    assert [round(l.lam, 4) for l in own[:3]] == [0.8076, 0.8935, 1.0054]
    with pytest.raises(CertificationError) as info:
        levels(DISC, (0.8, 1.8), 0.05, cert=certify_well(HARM, 0.8, 1.8))
    assert info.value.clause == "window"


def test_weyl_count_refuses_a_reversed_window_with_any_certificate():
    # a cert, whatever it is, does not make a reversed window countable
    # (trusted, predicted would read -10.0)
    for cert in (None, object(), certify_well(HARM, 3.0, 5.0)):
        with pytest.raises(CertificationError) as info:
            weyl_count(HARM, 5.0, 3.0, 0.1, cert=cert)
        assert info.value.clause == "window"


@pytest.mark.parametrize("solve", [
    lambda cert: levels(HARM, (0.5, 1.5), 0.1, cert=cert),
    lambda cert: weyl_count(HARM, 0.5, 1.5, 0.1, cert=cert),
    lambda cert: quantize.defect(HARM, 1.45, 7, "smooth", 0.1, cert),
    lambda cert: eigenfunction(HARM, levels(HARM, (1.0, 1.5), 0.1)[-1], cert),
], ids=["levels", "weyl", "defect", "eigenfunction"])
def test_a_certificate_must_cover_the_energies_asked_for(solve):
    solve(certify_well(HARM, 0.5, 1.5))
    for cert in (certify_well(HARM, 0.5, 1.2), certify_well(QUART, 0.5, 1.5), "cert"):
        with pytest.raises(CertificationError) as info:
            solve(cert)
        assert info.value.clause == "window"


def test_levels_and_counts_are_python_floats():
    lv = (levels(HARM, (0.03, 0.77), 0.1) + levels(DISC, (0.8, 1.8), 0.2)
          + levels(HL, (0.05, 1.45), 0.1)
          + levels(HL, (0.05, 1.45), 0.1, robin_b=0.0))
    assert {l.kind for l in lv} == set(quantize.MASLOV_OFFSETS)
    for l in lv:
        assert type(l.lam) is float and type(l.residual) is float
        assert l.amplitude_a is None or type(l.amplitude_a) is float
    cr = weyl_count(QUART, 0.5, 2.0, 0.05)
    assert all(type(x) is float for x in (cr.predicted, cr.epsilon, cr.phase_volume))


def test_quantization_condition_per_kind():
    from semiclass.potential import certify_well, turning_points
    from semiclass.quadrature import well_integral

    cert = certify_well(QUART, 0.5, 2.0)
    tp = turning_points(QUART, 1.3)
    (act, der), _ = well_integral(QUART, 1.3, tp.x_minus, tp.x_plus, True, True)
    assert quantize.quantization_condition(QUART, 1.3, "smooth", 0.05, cert) == quantize.Condition(
        act, 0.5 * der, 1.0, der, 0.0, tp, 0.5 * (tp.x_minus + tp.x_plus))
    cert = certify_well(DISC, 0.8, 1.8)
    ja = quantize.jump_action(DISC, 1.2, 0.05, 0.0)
    assert (ja.tp, ja.x1) == (turning_points(DISC, 1.2), 0.0)
    assert quantize.quantization_condition(DISC, 1.2, "discontinuous", 0.05, cert) == ja
    cert = certify_well(HL, 0.05, 1.45)
    tp = turning_points(HL, 0.9)
    (act, der), _ = well_integral(HL, 0.9, 0.0, tp.x_plus, False, True)
    for kind in ("halfline_dirichlet", "halfline_robin"):
        assert quantize.quantization_condition(HL, 0.9, kind, 0.1, cert) == quantize.Condition(
            act, 0.5 * der, 1.0, der, 0.0, tp, 0.0)
    with pytest.raises(QuantizeError):
        quantize.quantization_condition(HL, 0.9, "halfline_neumann", 0.1, cert)


def test_bs_exp_quadratic_branch_vs_oracle():
    # third branch family exercised through the whole pipeline
    from semiclass.potential import potential_from_spec
    pot = potential_from_spec({"kind": "table", "branches": [
        {"lo": "-inf", "hi": "inf", "type": "exp-quadratic",
         "offset": -1.0, "amplitude": 1.0, "c2": 1.0}]})
    lv = levels(pot, (0.5, 1.5), 0.05)
    spec = oracle.solve_spectrum(pot, 0.05, (0.5, 1.5))
    assert len(lv) == len(spec.eigenvalues)
    devs = np.abs(np.array([l.lam for l in lv]) - spec.eigenvalues)
    assert devs.max() <= 5e-3  # hbar^2-class accuracy at hbar = 0.05
