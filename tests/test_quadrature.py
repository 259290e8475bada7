import importlib.util
import math
import pathlib

import numpy as np
import pytest

from semiclass import action, quadrature, quantize
from semiclass.potential import (
    halfline_power_law,
    make_power_law,
    turning_points,
)
from semiclass.quadrature import gl_adaptive, turning_point_integral, well_integral

REPO = pathlib.Path(__file__).resolve().parent.parent
HARM = make_power_law(0, 1, 2, 0, 1, 2)
QUART = make_power_law(0, 1, 4, 0, 1, 4)
DISC = make_power_law(0.5, 1, 2, 0, 1, 2)
HL = halfline_power_law(0, 1, 2)


def _one_power(pot, lam, power, lo, hi, sqrt_lo, sqrt_hi, tol, weight=None, weight_breaks=()):
    """int w (lam - v)^power over [lo, hi], each segment integrated by
    gl_adaptive with that one component as its only integrand."""
    wfac = (lambda x: np.asarray(weight(x), dtype=float)) if weight is not None else (lambda x: 1.0)
    breaks = set(weight_breaks)
    if sqrt_lo and sqrt_hi:
        breaks.add(0.5 * (lo + hi))
    segs = quadrature._segments(pot, lo, hi, breaks)
    total = err = 0.0
    for a, b in segs:
        seg_tol = tol / len(segs)
        if (sqrt_hi and b == hi) or (sqrt_lo and a == lo):
            x0, inward, t_end = (hi, -1.0, np.sqrt(hi - a)) if sqrt_hi and b == hi else (
                lo, 1.0, np.sqrt(b - lo))
            c0, c2 = quadrature._taylor(pot, x0, inward)

            def f(t):
                x = x0 + inward * t * t
                root = np.sqrt(quadrature._ratio(lam - pot.value(x), t, c0, c2))
                return ((2.0 * t * t * root if power > 0 else 2.0 / root) * wfac(x),)

            (v,), (e,) = gl_adaptive(f, 0.0, t_end, seg_tol)
        else:
            f = lambda x: ((np.sqrt(lam - pot.value(x)) ** (2.0 * power)) * wfac(x),)
            (v,), (e,) = gl_adaptive(f, a, b, seg_tol)
        total += v
        err += e
    return total, err


def _well_cases():
    cases = []
    for name, pot, lam in (("harmonic", HARM, 1.0), ("quartic", QUART, 1.3), ("jump", DISC, 1.2)):
        tp = turning_points(pot, lam)
        cases.append((name, pot, lam, tp.x_minus, tp.x_plus, True, True))
    tp = turning_points(DISC, 1.2)
    cases.append(("jump-right", DISC, 1.2, 0.0, tp.x_plus, False, True))
    cases.append(("jump-left", DISC, 1.2, tp.x_minus, 0.0, True, False))
    cases.append(("half-line", HL, 0.9, 0.0, turning_points(HL, 0.9).x_plus, False, True))
    return cases


INDICATOR = (lambda x: (np.asarray(x) > 0.2).astype(float), (0.2,))


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "indicator"])
@pytest.mark.parametrize("case", _well_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_well_integral_components_bit_identical(case, weighted, tol):
    _, pot, lam, lo, hi, sqrt_lo, sqrt_hi = case
    weight, breaks = INDICATOR if weighted else (None, ())
    vals, errs = well_integral(pot, lam, lo, hi, sqrt_lo, sqrt_hi, tol,
                               weight=weight, weight_breaks=breaks)
    for k, power in enumerate((0.5, -0.5)):
        ref, ref_err = _one_power(pot, lam, power, lo, hi, sqrt_lo, sqrt_hi, tol, weight, breaks)
        assert vals[k] == ref
        assert errs[k] == ref_err


def test_gl_adaptive_freezes_each_component():
    # cos converges at the first doubling, the Runge function several levels later
    fast = lambda x: (np.cos(x),)
    slow = lambda x: (1.0 / (1.0 + 25.0 * x * x),)
    both = lambda x: (np.cos(x), 1.0 / (1.0 + 25.0 * x * x))
    vals, errs = gl_adaptive(both, -1.0, 1.0, 1e-12)
    for k, f in enumerate((fast, slow)):
        (v,), (e,) = gl_adaptive(f, -1.0, 1.0, 1e-12)
        assert (vals[k], errs[k]) == (v, e)
    assert abs(vals[0] - 2.0 * math.sin(1.0)) <= 1e-13
    assert abs(vals[1] - 0.4 * math.atan(5.0)) <= 1e-12


def test_well_integral_empty_range():
    assert well_integral(HARM, 1.0, 0.3, 0.3) == ((0.0, 0.0), (0.0, 0.0))


def _count_calls(monkeypatch):
    calls = []
    real = quadrature.well_integral

    def counting(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    for module in (action, quantize):
        monkeypatch.setattr(module, "well_integral", counting)
    return calls


def test_action_profile_and_kinetic_take_one_kernel_call(monkeypatch):
    calls = _count_calls(monkeypatch)
    c = quantize.quantization_condition(QUART, 1.3, "smooth", 1.0)
    assert len(calls) == 1
    kin = action.kinetic_cl(QUART, 1.3)
    assert len(calls) == 2
    assert kin == c.g / (2.0 * c.g_prime)


def test_jump_action_takes_one_kernel_call_per_side(monkeypatch):
    calls = _count_calls(monkeypatch)
    quantize.jump_action(DISC, 1.2, 0.05, 0.0)
    tp = turning_points(DISC, 1.2)
    assert calls == [(0.0, tp.x_plus), (tp.x_minus, 0.0)]


def test_turning_point_integral_harmonic_closed_form():
    # v = x^2, lam = 1, x_tp = 1: int_x^1 (1 - s^2)^(1/2) and int_1^x (s^2 - 1)^(1/2)
    inner = np.array([0.0, 0.3, 0.9, 1.0])
    a = np.arcsin(inner)
    exact_in = math.pi / 4 - 0.5 * (inner * np.sqrt(1 - inner**2) + a)
    outer = np.array([1.0, 1.5, 2.0, 3.0])
    exact_out = 0.5 * (outer * np.sqrt(outer**2 - 1) - np.log(outer + np.sqrt(outer**2 - 1)))
    for xs, exact in ((inner, exact_in), (outer, exact_out), (-inner, exact_in), (-outer, exact_out)):
        x_tp = 1.0 if xs[-1] > 0 else -1.0
        x_end = xs[np.argmax(np.abs(xs - x_tp))]
        got = turning_point_integral(HARM, 1.0, x_tp, x_end)(xs)
        assert np.max(np.abs(got - exact)) <= 1e-12
    assert np.array_equal(turning_point_integral(HARM, 1.0, 1.0, 2.0)([1.0, 1.0]), [0.0, 0.0])


@pytest.mark.parametrize("hi", [4.0, 5.0])
def test_cheb_cumsum_of_a_steep_wall_stops_at_its_own_rounding(hi):
    # int_0^x exp(t^2) reaches 1e6 to 7e9: two fits then differ by their
    # rounding, far above the absolute 1e-10, so the stop test is relative there
    from scipy.special import erfi

    anti = quadrature._cheb_cumsum(lambda x: np.exp(x * x), 0.0, hi, 0.0, quadrature.TOL_QUAD)
    x = np.linspace(0.0, hi, 101)
    exact = 0.5 * math.sqrt(math.pi) * erfi(x)
    assert np.max(np.abs(anti(x) - exact)) <= 1e-14 * exact[-1]


def _reference_cumsum(f, lo, hi, start, tol):
    """_cheb_cumsum's degrees and stop rule on numpy.polynomial's Chebyshev
    interpolant and its integral."""
    prev, deg = None, quadrature._CUMSUM_DEG0
    while deg <= quadrature._CUMSUM_DEG_MAX:
        anti = np.polynomial.Chebyshev.interpolate(f, deg, domain=[lo, hi]).integ(lbnd=start)
        if prev is not None:
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.polynomial.chebyshev.chebpts2(deg + 1)
            a = anti(pts)
            if np.max(np.abs(a - prev(pts))) <= max(tol, 64.0 * quadrature._EPS * np.max(np.abs(a))):
                return anti
        prev, deg = anti, 2 * deg
    raise AssertionError("the reference did not converge")


@pytest.mark.parametrize("f,lo,hi,start", [
    (np.cos, 0.0, 3.0, 0.0),
    (np.sqrt, 1.0, 7.0, 7.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1.0),
    (lambda x: np.abs(x) ** 3.5, -1.0, 2.0, -1.0),  # algebraic at 0: the largest degree
    (lambda x: np.exp(x * x), 0.0, 4.0, 0.0),
    (lambda x: np.exp(x * x), -5.0, 0.0, 0.0),
], ids=["cos", "sqrt-from-hi", "runge", "kink", "wall-4", "wall-5"])
def test_cheb_cumsum_matches_numpy_polynomial(f, lo, hi, start):
    got = quadrature._cheb_cumsum(f, lo, hi, start, quadrature.TOL_QUAD)
    ref = _reference_cumsum(f, lo, hi, start, quadrature.TOL_QUAD)
    assert len(got.coef) == len(ref.coef)  # the same degree
    x = np.linspace(lo, hi, 1001)
    want = ref(x)
    assert np.max(np.abs(got(x) - want)) <= 1e-13 * np.max(np.abs(want))
    assert type(got(0.5 * (lo + hi))) is float and got(x[None]).shape == (1, 1001)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules

def _ulps(got, want):
    """|got - want| in units of the spacing of the doubles at want, entry by entry."""
    want = np.asarray(want, dtype=float)
    return np.abs(np.asarray(got) - want) / np.spacing(np.maximum(np.abs(want), np.finfo(float).tiny))


def _tool():
    spec = importlib.util.spec_from_file_location("make_gl_rules", REPO / "tools" / "make_gl_rules.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_committed_rules_are_the_block_the_tool_prints_from_leggauss():
    # the tool prints numpy's leggauss; another numpy or LAPACK build may
    # move its last bit, which the committed constants then no longer follow
    printed = {}
    exec(_tool().block(), printed)
    assert printed["_GL_RULES"].keys() == quadrature._GL_RULES.keys() == {16, 32}
    text = (REPO / "src" / "semiclass" / "quadrature.py").read_text()
    committed = {}
    exec(text[text.index("# BEGIN GL RULES"):text.index("# END GL RULES")], committed)
    assert committed["_GL_RULES"] == quadrature._GL_RULES
    for n, (x, w) in quadrature._GL_RULES.items():
        assert len(x) == len(w) == n // 2
        for got, want in zip((x, w), printed["_GL_RULES"][n]):
            assert np.max(_ulps(got, want)) <= 1.0


def _mp_rule(n, x0):
    """The nonnegative nodes and weights of the n-point rule at 40 digits:
    Newton's method on P_n (its three-term recurrence) from the nodes x0."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def slope(x):
        p, q = x, mp.mpf(1)
        for j in range(2, n + 1):
            p, q = ((2 * j - 1) * x * p - (j - 1) * q) / j, p
        return n * (q - x * p) / (1 - x * x), p

    xs, ws = [], []
    for x in map(mp.mpf, x0):
        for _ in range(8):
            dp, p = slope(x)
            x -= p / dp
        dp, _ = slope(x)
        xs.append(float(x))
        ws.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(xs), np.array(ws)


@pytest.mark.parametrize("n", [16, 32])
def test_the_committed_rules_against_mpmath(n):
    # each node is within 2 of its own ulps of the exact node; leggauss's
    # weights are exact to 2 ulps of 1 (2 eps), the scale its normalized
    # product rounds at, so its small end weights are off by up to a few
    # hundred of their own ulps
    x, w = (np.array(v) for v in quadrature._GL_RULES[n])
    ex, ew = _mp_rule(n, x)
    assert np.max(_ulps(x, ex)) <= 2.0
    assert np.max(np.abs(w - ew)) <= 2.0 * np.finfo(float).eps


@pytest.mark.parametrize("n", [16 * 2**k for k in range(9)])
def test_every_rule_of_gl_adaptive_is_symmetric_and_exact_on_exp(n):
    x, w = quadrature._leggauss(n)
    assert len(x) == len(w) == n and np.all(np.diff(x) > 0) and -1 < x[0]
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-15
    assert abs(np.sum(w * np.exp(x)) - (math.e - 1 / math.e)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 32, 63, 64, 65, 128, 256])
def test_newton_rules_against_leggauss(n):
    # leggauss's weights drift from the exact ones as n grows (25 eps at
    # n = 128), so they are held to the nodes' bound only loosely
    x, w = quadrature._gl_newton(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.max(_ulps(x, ref_x)) <= 4.0
    assert np.max(np.abs(w - ref_w)) <= 1e-13


@pytest.mark.parametrize("n", [17, 64, 128])
def test_newton_rules_against_mpmath(n):
    x, w = quadrature._gl_newton(n)
    ex, ew = _mp_rule(n, x[n // 2:])
    assert np.max(_ulps(x[n // 2:], ex)) <= 1.0
    assert np.max(np.abs(w[n // 2:] - ew)) <= 2.0 * np.finfo(float).eps
