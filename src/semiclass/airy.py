"""Evaluation of the Airy functions Ai, Bi and their derivatives on the real line.

The evaluator is self-contained.  On a core interval the four values are
Taylor series of the defining equation -w'' + t w = 0, recentred on the
nearest node of a grid.  Every coefficient of such a series depends on its
node alone, so the coefficients of each node are tabulated once, on the
first evaluation, and an evaluation is a gather of its node's coefficients
and Horner's rule.  The values at the nodes, which the table starts from,
come from marching the same Taylor recurrence along the grid in floats
(downward for Ai, so the decaying solution is tracked stably, upward and
downward for Bi).  Outside the core interval the standard exponential and
oscillatory asymptotic expansions take over; at the switch points both
branches agree to ~1e-14.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AiryValues",
    "ScaledAiry",
    "airy_eval",
    "airy_many",
    "airy_ai",
    "airy_scaled",
    "AI_ZERO",
    "AIP_ZERO",
    "BI_ZERO",
    "BIP_ZERO",
    "T_SWITCH_PLUS",
    "T_SWITCH_MINUS",
]

# Values at t=0: Ai(0)=3^(-2/3)/Gamma(2/3) and friends, to full double precision.
AI_ZERO = 0.3550280538878172
AIP_ZERO = -0.2588194037928068
BI_ZERO = 0.6149266274460007
BIP_ZERO = 0.4482883573538264

# Handoff points between the grid-Taylor core and the asymptotic expansions.
# Beyond T_SWITCH_PLUS the exponential expansions are converged below 1e-16
# at optimal truncation; below T_SWITCH_MINUS the oscillatory ones are.
T_SWITCH_PLUS = 12.0
T_SWITCH_MINUS = -32.0

_GRID_STEP = 0.25
_EVAL_TERMS = 26  # local Taylor degree used per evaluation (|delta| <= step/2)
_MARCH_TERMS = 34  # degree used for the table march (delta = step)
_ASYM_TERMS = 20


@dataclass(frozen=True)
class AiryValues:
    """Ai, Bi and derivatives at one point, plus the evaluation branch used."""

    ai: float
    ai_prime: float
    bi: float
    bi_prime: float
    method_tag: str  # "series" | "asymptotic-plus" | "asymptotic-minus"


@dataclass(frozen=True)
class ScaledAiry:
    """Exponentially rescaled values: ai*e^{+z}, bi*e^{-z} with z = 2t^(3/2)/3."""

    ai: float
    ai_prime: float
    bi: float
    bi_prime: float
    exponent: float


def _asym_coeffs(count: int) -> tuple[np.ndarray, np.ndarray]:
    # u_k, v_k of the standard large-|t| expansions; v_k = -(6k+1)/(6k-1) u_k.
    u = np.empty(count)
    v = np.empty(count)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(1, count):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k)
        v[k] = -u[k] * (6 * k + 1) / (6 * k - 1)
    return u, v


_U, _V = _asym_coeffs(_ASYM_TERMS + 4)


def _taylor_coefficients(t0, w, wp, terms):
    """Taylor coefficients a_0 .. a_terms at t0 of the solution of
    -w'' + t w = 0 with value w and slope wp there:
    a_(k+2) = (t0 a_k + a_(k-1)) / ((k + 2)(k + 1)), a_(-1) = 0.

    Elementwise on arrays as on floats, by the same operations, so a float
    call gives the bits of the entry of an array call.  Returns a list.
    """
    a = [w, wp]
    for k in range(terms - 1):
        a.append((t0 * a[k] + (a[k - 1] if k else 0.0)) / ((k + 2) * (k + 1)))
    return a


def _horner(coef, delta):
    """sum_k c_k delta^k by Horner's rule, from the coefficients c_k given
    highest first (an iterable of floats, or of arrays of the shape of
    delta, the first of which is overwritten)."""
    coef = iter(coef)
    val = next(coef)
    for c in coef:
        val *= delta
        val += c
    return val


def _march(t0: float, w: float, wp: float, delta: float) -> tuple[float, float]:
    """w, w' of -w'' + t w = 0 carried from t0 to t0 + delta by the Taylor
    series of degree _MARCH_TERMS at t0, in floats."""
    a = _taylor_coefficients(t0, w, wp, _MARCH_TERMS)
    return _horner(a[::-1], delta), _horner([k * a[k] for k in range(len(a) - 1, 0, -1)], delta)


def _asym_plus_scaled(t, ai_only=False):
    """Series factors of the t->+inf expansions, with exponentials removed.

    Returns (ai*e^{z}, ai'*e^{z}, bi*e^{-z}, bi'*e^{-z}, z), z = 2 t^(3/2)/3,
    the middle three None with ai_only.
    """
    t = np.asarray(t, dtype=float)
    z = 2.0 / 3.0 * t**1.5
    zk = np.ones_like(z)
    su = np.zeros_like(z)
    sv = np.zeros_like(z)
    sbu = np.zeros_like(z)
    sbv = np.zeros_like(z)
    sign = 1.0
    for k in range(_ASYM_TERMS):
        su += sign * _U[k] * zk
        if not ai_only:
            sv += sign * _V[k] * zk
            sbu += _U[k] * zk
            sbv += _V[k] * zk
        zk = zk / z
        sign = -sign
    pref = 0.5 / np.sqrt(np.pi)
    tq = t**0.25
    ai_s = pref / tq * su
    if ai_only:
        return ai_s, None, None, None, z
    aip_s = -pref * tq * sv
    bi_s = 2.0 * pref / tq * sbu
    bip_s = 2.0 * pref * tq * sbv
    return ai_s, aip_s, bi_s, bip_s, z


def _asym_minus(t):
    """Oscillatory expansions for t <= T_SWITCH_MINUS."""
    s = -np.asarray(t, dtype=float)
    z = 2.0 / 3.0 * s**1.5
    # P,Q carry the even/odd u-coefficients, R,S the v-coefficients.
    p = np.zeros_like(z)
    q = np.zeros_like(z)
    r = np.zeros_like(z)
    w = np.zeros_like(z)
    zk = np.ones_like(z)
    for k in range(_ASYM_TERMS):
        sgn = -1.0 if (k // 2) % 2 else 1.0
        if k % 2 == 0:
            p += sgn * _U[k] * zk
            r += sgn * _V[k] * zk
        else:
            q += sgn * _U[k] * zk
            w += sgn * _V[k] * zk
        zk = zk / z
    c = np.cos(z + 0.25 * np.pi)
    sn = np.sin(z + 0.25 * np.pi)
    pref = 1.0 / np.sqrt(np.pi)
    sq = s**0.25
    ai = pref / sq * (sn * p - c * q)
    bi = pref / sq * (c * p + sn * q)
    aip = -pref * sq * (c * r + sn * w)
    bip = pref * sq * (sn * r - c * w)
    return ai, aip, bi, bip


@functools.cache
def _tables():
    """The nodes t_i and, at each, the Taylor coefficients of degree
    _EVAL_TERMS of Ai, Ai', Bi and Bi': arrays of shape (term, node),
    built on the first call.

    The values at the nodes come from a march in floats: Ai downward from
    its asymptotic seed at T_SWITCH_PLUS, so the unwanted growing component
    shrinks and the march is stable; Bi away from t = 0 in both directions
    (the growing mode upward).  The coefficients of the derivatives are
    k a_k, k = 1 .. _EVAL_TERMS, of the same series.
    """
    n_nodes = int(round((T_SWITCH_PLUS - T_SWITCH_MINUS) / _GRID_STEP))
    ts = T_SWITCH_MINUS + _GRID_STEP * np.arange(n_nodes + 1)
    t = ts.tolist()
    ai, aip, bi, bip = ([0.0] * (n_nodes + 1) for _ in range(4))
    i_hi = n_nodes
    i_zero = int(round((0.0 - T_SWITCH_MINUS) / _GRID_STEP))

    a_s, ap_s, _, _, z = _asym_plus_scaled(T_SWITCH_PLUS)
    ai[i_hi], aip[i_hi] = float(a_s * np.exp(-z)), float(ap_s * np.exp(-z))
    for i in range(i_hi, 0, -1):
        ai[i - 1], aip[i - 1] = _march(t[i], ai[i], aip[i], -_GRID_STEP)
    bi[i_zero], bip[i_zero] = BI_ZERO, BIP_ZERO
    for i in range(i_zero, i_hi):
        bi[i + 1], bip[i + 1] = _march(t[i], bi[i], bip[i], _GRID_STEP)
    for i in range(i_zero, 0, -1):
        bi[i - 1], bip[i - 1] = _march(t[i], bi[i], bip[i], -_GRID_STEP)

    k = np.arange(1, _EVAL_TERMS + 1)[:, None]
    tables = []
    for w, wp in ((ai, aip), (bi, bip)):
        a = np.array(_taylor_coefficients(ts, np.array(w), np.array(wp), _EVAL_TERMS))
        tables += [a, k * a[1:]]
    return (ts, *tables)


def _core_eval(t, ai_only=False):
    """(Ai, Ai', Bi, Bi') on the core interval from the Taylor series at the
    nearest node, the last three None with ai_only."""
    t = np.asarray(t, dtype=float)
    nodes_t, *tables = _tables()
    idx = np.clip(np.rint((t - T_SWITCH_MINUS) / _GRID_STEP).astype(int), 0, len(nodes_t) - 1)
    d = t - nodes_t[idx]
    out = tuple(_horner((row.take(idx) for row in table[::-1]), d)
                for table in (tables[:1] if ai_only else tables))
    return out + (None,) * (4 - len(out))


def _airy(t, ai_only):
    """(Ai, Ai', Bi, Bi') of finite t, or (Ai,) alone with ai_only."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("airy_many requires finite arguments")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = [np.empty_like(t) for _ in range(1 if ai_only else 4)]

    core = (t >= T_SWITCH_MINUS) & (t <= T_SWITCH_PLUS)
    plus = t > T_SWITCH_PLUS
    minus = t < T_SWITCH_MINUS
    for on, part in ((core, lambda s: _core_eval(s, ai_only)), (minus, _asym_minus)):
        if np.any(on):
            for o, v in zip(out, part(t[on])):
                o[on] = v
    if np.any(plus):
        *scaled, z = _asym_plus_scaled(t[plus], ai_only)
        with np.errstate(over="ignore", under="ignore"):
            em = np.exp(-z)
            ep = None if ai_only else np.exp(z)
            for o, v, e in zip(out, scaled, (em, em, ep, ep)):
                o[plus] = v * e
    return tuple(o[0] if scalar else o for o in out)


def airy_many(t):
    """Vectorized Ai, Ai', Bi, Bi' for a float array of arguments.

    Returns four arrays.  For t large enough that e^{+z} overflows, Bi and
    Bi' are +inf; use airy_scaled for an overflow-safe representation.
    """
    return _airy(t, False)


def airy_ai(t):
    """airy_many(t)[0] to the bit, without the work of Ai', Bi and Bi'."""
    return _airy(t, True)[0]


def airy_eval(t: float) -> AiryValues:
    """Evaluate Ai, Bi and derivatives at a finite real point."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("airy_eval requires a finite argument")
    ai, aip, bi, bip = airy_many(t)
    if t > T_SWITCH_PLUS:
        tag = "asymptotic-plus"
    elif t < T_SWITCH_MINUS:
        tag = "asymptotic-minus"
    else:
        tag = "series"
    return AiryValues(float(ai), float(aip), float(bi), float(bip), tag)


def airy_scaled(t: float) -> ScaledAiry:
    """Overflow-safe values for t >= 0.

    Returns (Ai e^{+z}, Ai' e^{+z}, Bi e^{-z}, Bi' e^{-z}, z) with
    z = 2 t^(3/2)/3, so that multiplying by e^{-z} (resp. e^{+z}) recovers
    the plain values whenever those are representable.
    """
    t = float(t)
    if not (t >= 0.0):
        raise ValueError("airy_scaled requires t >= 0")
    z = 2.0 / 3.0 * t**1.5
    if t > T_SWITCH_PLUS:
        a_s, ap_s, b_s, bp_s, z = _asym_plus_scaled(t)
        return ScaledAiry(float(a_s), float(ap_s), float(b_s), float(bp_s), float(z))
    ai, aip, bi, bip = airy_many(t)
    ep = np.exp(z)
    return ScaledAiry(float(ai * ep), float(aip * ep), float(bi / ep), float(bip / ep), float(z))
