import csv
import pathlib

import numpy as np
import pytest

from semiclass import airy

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_golden(name):
    with open(FIXTURES / name) as fh:
        return list(csv.DictReader(fh))


def test_values_at_zero():
    v = airy.airy_eval(0.0)
    assert abs(v.ai - 0.3550280538878172) <= 1e-13
    assert abs(v.ai_prime - (-0.2588194037928068)) <= 1e-13
    assert abs(v.bi - 0.6149266274460007) <= 1e-13
    assert abs(v.bi_prime - 0.4482883573538264) <= 1e-13
    assert v.method_tag == "series"


def test_against_golden_fixture():
    for row in load_golden("airy_golden.csv"):
        t = float(row["t"])
        v = airy.airy_eval(t)
        for key, got in (("ai", v.ai), ("ai_prime", v.ai_prime),
                         ("bi", v.bi), ("bi_prime", v.bi_prime)):
            ref = float(row[key])
            # compare relative to the local envelope so zeros do not blow up
            scale = max(abs(ref), abs(float(row["ai"])) + abs(float(row["bi"])))
            assert abs(got - ref) <= 1e-12 * scale, (t, key)


def test_scaled_against_golden_fixture():
    for row in load_golden("airy_scaled_golden.csv"):
        t = float(row["t"])
        s = airy.airy_scaled(t)
        assert abs(s.exponent - float(row["exponent"])) <= 1e-12 * max(1.0, float(row["exponent"]))
        for key, got in (("ai_scaled", s.ai), ("ai_prime_scaled", s.ai_prime),
                         ("bi_scaled", s.bi), ("bi_prime_scaled", s.bi_prime)):
            ref = float(row[key])
            assert abs(got - ref) <= 1e-12 * abs(ref), (t, key)


def test_wronskian_on_grid():
    t = np.linspace(-30.0, 30.0, 10_000)
    ai, aip, bi, bip = airy.airy_many(t)
    w = aip * bi - ai * bip
    assert np.max(np.abs(w + 1.0 / np.pi)) <= 1e-12 / np.pi


def test_ode_residual_second_differences():
    # high-order five-point second difference keeps truncation and roundoff
    # below the 1e-8 relative budget over the whole oscillatory range
    rng = np.random.default_rng(7)
    t = rng.uniform(-29.5, 29.5, 300)
    h = 2e-3
    for w_of in (lambda x: airy.airy_many(x)[0], lambda x: airy.airy_many(x)[2]):
        w = w_of(t)
        d2 = (-w_of(t + 2 * h) + 16 * w_of(t + h) - 30 * w
              + 16 * w_of(t - h) - w_of(t - 2 * h)) / (12 * h * h)
        resid = np.abs(-d2 + t * w)
        assert np.all(resid <= 1e-8 * (np.abs(w) + np.abs(d2)) + 1e-13)


def test_positivity_for_nonnegative_t():
    t = np.linspace(0.0, 30.0, 500)
    ai, _, bi, _ = airy.airy_many(t)
    assert np.all(ai > 0.0)
    assert np.all(bi > 0.0)


def test_asymptotic_leading_term_at_10():
    v = airy.airy_eval(10.0)
    lead = 0.5 / np.sqrt(np.pi) * 10.0**-0.25 * np.exp(-2.0 * 10.0**1.5 / 3.0)
    assert abs(v.ai / lead - 1.0) <= 1e-2


def test_handoff_continuity():
    for t_switch in (airy.T_SWITCH_PLUS, airy.T_SWITCH_MINUS):
        core = airy._core_eval(np.array([t_switch]))
        if t_switch > 0:
            a, ap, b, bp, z = airy._asym_plus_scaled(np.array([t_switch]))
            other = (a * np.exp(-z), ap * np.exp(-z), b * np.exp(z), bp * np.exp(z))
        else:
            other = airy._asym_minus(np.array([t_switch]))
        for c, o in zip(core, other):
            assert abs(c[0] - o[0]) <= 1e-11 * abs(o[0])


def test_zero_interlacing():
    # the first ten negative zeros of Ai and Bi alternate: b1 > a1 > b2 > ...
    from scipy.optimize import brentq

    def zeros_of(idx, count):
        t = np.linspace(-0.01, -16.0, 4000)
        vals = airy.airy_many(t)[idx]
        s = np.sign(vals)
        out = []
        for i in np.nonzero(s[1:] * s[:-1] < 0)[0]:
            out.append(brentq(lambda x: airy.airy_many(np.array([x]))[idx][0],
                              t[i], t[i + 1], xtol=1e-12))
            if len(out) == count:
                break
        return out

    za = zeros_of(0, 10)
    zb = zeros_of(2, 10)
    merged = []
    for b, a in zip(zb, za):
        merged.extend([b, a])
    assert all(x > y for x, y in zip(merged, merged[1:]))


def test_scaled_consistency_and_overflow_safety():
    v5 = airy.airy_eval(5.0)
    s5 = airy.airy_scaled(5.0)
    assert abs(s5.ai * np.exp(-s5.exponent) - v5.ai) <= 1e-12 * v5.ai
    s0 = airy.airy_scaled(0.0)
    assert s0.exponent == 0.0
    assert s0.ai == airy.airy_eval(0.0).ai
    # raw Bi overflows past t ~ 105, the scaled value stays finite
    big = airy.airy_eval(200.0)
    assert np.isinf(big.bi)
    s_big = airy.airy_scaled(200.0)
    assert np.isfinite(s_big.bi) and s_big.bi > 0.0
    assert airy.airy_eval(200.0).ai == 0.0 or airy.airy_eval(200.0).ai > 0.0
    with pytest.raises(ValueError):
        airy.airy_scaled(-1.0)
    with pytest.raises(ValueError):
        airy.airy_eval(float("inf"))


def test_method_tags():
    assert airy.airy_eval(20.0).method_tag == "asymptotic-plus"
    assert airy.airy_eval(-33.0).method_tag == "asymptotic-minus"
    assert airy.airy_eval(-5.0).method_tag == "series"


def test_against_scipy_envelope():
    from scipy import special

    rng = np.random.default_rng(3)
    t = rng.uniform(-30.0, 30.0, 2000)
    ai, aip, bi, bip = airy.airy_many(t)
    sa, sap, sb, sbp = special.airy(t)
    env = np.abs(sa) + np.abs(sb)
    assert np.max(np.abs(ai - sa) / env) <= 1e-12
    assert np.max(np.abs(bi - sb) / np.maximum(env, np.abs(sb))) <= 1e-12


@pytest.mark.parametrize("t", [-20.0, -6.0, -1.0, 0.0, 2.0, 6.0, 11.9])
def test_mpmath_spot_checks(t):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    v = airy.airy_eval(t)
    env = abs(float(mp.airyai(t))) + abs(float(mp.airybi(t)))
    assert abs(v.ai - float(mp.airyai(t))) <= 1e-13 * env
    assert abs(v.bi - float(mp.airybi(t))) <= 1e-13 * env


@pytest.mark.parametrize("t", [
    np.linspace(-60.0, -32.0, 301, endpoint=False),  # minus asymptotic region
    np.linspace(-32.0, 12.0, 1001),  # core table, both switch points included
    np.linspace(12.0, 40.0, 301)[1:],  # plus asymptotic region
    np.array([airy.T_SWITCH_MINUS, airy.T_SWITCH_PLUS]),
    np.array([-70.0, -32.0, -31.9, 0.0, 11.9, 12.0, 12.1, 900.0]),  # all regions in one call
    np.array(-40.0), np.array(0.3), np.array(airy.T_SWITCH_MINUS), np.array(airy.T_SWITCH_PLUS),
    np.array(20.0), 0.3,  # 0-d arrays and a float
], ids=["minus", "core", "plus", "switches", "mixed", "scalar-minus", "scalar-core",
        "scalar-switch-minus", "scalar-switch-plus", "scalar-plus", "float"])
def test_ai_alone_equals_airy_many_bit_for_bit(t):
    got, ref = airy.airy_ai(t), airy.airy_many(t)[0]
    assert np.shape(got) == np.shape(ref) and type(got) is type(ref)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))


def test_ai_alone_requires_finite_arguments():
    with pytest.raises(ValueError):
        airy.airy_ai(np.array([0.0, np.inf]))


# -- the tabulated core against the per-point Taylor recurrence --------------


def _taylor_pair(t0, w, wp, delta, terms):
    """w, w' of -w'' + t w = 0 carried from t0 to t0 + delta by the Taylor
    series of degree terms at t0, the recurrence run anew for every entry
    of the arrays: the reference the node table must reproduce bit for bit."""
    t0 = np.asarray(t0, dtype=float)
    shape = np.broadcast(t0, w, wp, delta).shape
    a = np.zeros((terms + 1,) + shape)
    a[0] = w
    a[1] = wp
    for k in range(terms - 1):
        prev = a[k - 1] if k >= 1 else 0.0
        a[k + 2] = (t0 * a[k] + prev) / ((k + 2) * (k + 1))
    val = a[terms].copy()
    for k in range(terms - 1, -1, -1):
        val = val * delta + a[k]
    der = terms * a[terms]
    for k in range(terms - 1, 0, -1):
        der = der * delta + k * a[k]
    return val, der


def _array_march():
    """Ai, Ai', Bi, Bi' at the nodes, marched by _taylor_pair on 0-d arrays."""
    ts = airy._tables()[0]
    n = len(ts)
    ai, aip, bi, bip = (np.empty(n) for _ in range(4))
    i_zero = int(round(-airy.T_SWITCH_MINUS / airy._GRID_STEP))
    a_s, ap_s, _, _, z = airy._asym_plus_scaled(airy.T_SWITCH_PLUS)
    ai[-1], aip[-1] = a_s * np.exp(-z), ap_s * np.exp(-z)
    for i in range(n - 1, 0, -1):
        ai[i - 1], aip[i - 1] = _taylor_pair(ts[i], ai[i], aip[i], -airy._GRID_STEP, airy._MARCH_TERMS)
    bi[i_zero], bip[i_zero] = airy.BI_ZERO, airy.BIP_ZERO
    for i in range(i_zero, n - 1):
        bi[i + 1], bip[i + 1] = _taylor_pair(ts[i], bi[i], bip[i], airy._GRID_STEP, airy._MARCH_TERMS)
    for i in range(i_zero, 0, -1):
        bi[i - 1], bip[i - 1] = _taylor_pair(ts[i], bi[i], bip[i], -airy._GRID_STEP, airy._MARCH_TERMS)
    return ts, ai, aip, bi, bip


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_the_float_march_gives_the_bits_of_the_array_march():
    ts, *ref = _array_march()
    _, ai, aip, bi, bip = airy._tables()
    # row 0 of a value table is w and row 0 of a derivative table is 1 * w'
    for got, want in zip((ai[0], aip[0], bi[0], bip[0]), ref):
        assert np.array_equal(_bits(got), _bits(want))
    rng = np.random.default_rng(3)
    for t0, w, wp, delta in rng.uniform(-3.0, 3.0, (20, 4)):
        assert airy._march(t0, w, wp, delta) == tuple(
            map(float, _taylor_pair(t0, w, wp, delta, airy._MARCH_TERMS)))


def test_the_core_gives_the_bits_of_the_per_point_recurrence():
    ts, ai, aip, bi, bip = _array_march()
    half = 0.5 * airy._GRID_STEP
    t = np.concatenate([ts, ts[1:] - half, ts[:-1] + half, np.linspace(-32.0, 12.0, 4001)])
    idx = np.clip(np.rint((t - airy.T_SWITCH_MINUS) / airy._GRID_STEP).astype(int), 0, len(ts) - 1)
    d = t - ts[idx]
    want = (*_taylor_pair(ts[idx], ai[idx], aip[idx], d, airy._EVAL_TERMS),
            *_taylor_pair(ts[idx], bi[idx], bip[idx], d, airy._EVAL_TERMS))
    for got, ref in zip(airy.airy_many(t), want):
        assert np.array_equal(_bits(got), _bits(ref))
    assert np.array_equal(_bits(airy.airy_ai(t)), _bits(want[0]))
