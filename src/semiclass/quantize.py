"""Quantization conditions: smooth Bohr-Sommerfeld, Weyl counts, the
generalized condition for a jump inside the well, and half-line problems.

Smooth case: Phi(lam) = pi (n + 1/2) hbar has exactly one solution per n
because Phi' > 0; roots are found by safeguarded Newton on a bracket.

Jump at x0: with theta_pm = phi_pm(x0; lam)/hbar + pi/4 and
p = ((lam - v(x0-0)) / (lam - v(x0+0)))^(1/4), eigenvalues solve
F(lam) = p sin(theta+) cos(theta-) + p^(-1) cos(theta+) sin(theta-) = 0,
which reduces to Bohr-Sommerfeld when the jump vanishes (p = 1).  F
oscillates on the hbar scale, so roots are bracketed on a lam grid tied to
hbar and max Phi' before bisection.

Half line: int_0^{x+} (lam - v)^(1/2) = pi hbar (n + 3/4) for a Dirichlet
condition at 0 and pi hbar (n + 1/4) for a Robin condition psi'(0) = b psi(0);
the value of b does not enter at leading order (it is recorded anyway).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .action import (
    TOL_QUAD,
    halfline_action,
    halfline_action_prime,
    partial_action,
    phi,
    phi_prime,
    phi_value,
)
from .potential import (
    HalfLineCertificate,
    Potential,
    TurningPoints,
    WellCertificate,
    certify_halfline_well,
    certify_well,
    turning_points,
)
from .quadrature import well_integral

__all__ = [
    "SemiclassicalLevel",
    "CountResult",
    "DiscNormalization",
    "QuantizeError",
    "bs_levels",
    "weyl_count",
    "disc_levels",
    "disc_normalization",
    "disc_condition",
    "disc_point",
    "halfline_levels",
    "levels_to_csv",
    "levels_to_json",
    "interlacing_diagnostic",
    "certified",
]

LAMBDA_TOL = 1e-12  # relative root tolerance in lam
_ROOT_QUAD_TOL = 1e-12  # quadrature tolerance while root solving


class QuantizeError(RuntimeError):
    """Quantization request outside the method's validity or solver failure."""


@dataclass(frozen=True)
class SemiclassicalLevel:
    """One predicted eigenvalue.

    residual is the defect of the quantization condition at the returned
    lam: |Phi - pi(n+1/2) hbar| for smooth/half-line kinds, |F(lam)| for the
    discontinuous kind.  amplitude_a is the relative factor u_- = a u_+
    (None for half-line problems, which carry a single solution).
    """

    n: int
    hbar: float
    lam: float
    residual: float
    kind: str  # smooth | discontinuous | halfline_dirichlet | halfline_robin
    amplitude_a: Optional[float] = None
    robin_b: Optional[float] = None


@dataclass(frozen=True)
class CountResult:
    """Weyl count over a window: predicted pi^-1 dPhi / hbar vs an integer count."""

    window: tuple[float, float]
    hbar: float
    predicted: float
    count: int
    epsilon: float
    phase_volume: float  # measure of {a1 <= p^2 + v <= a2}, i.e. 2 dPhi


@lru_cache(maxsize=64)
def certified(pot: Potential, lam_lo: float, lam_hi: float) -> WellCertificate:
    """Memoized single-well certification for sweep reuse."""
    return certify_well(pot, lam_lo, lam_hi)


@lru_cache(maxsize=64)
def certified_halfline(pot: Potential, lam_lo: float, lam_hi: float) -> HalfLineCertificate:
    return certify_halfline_well(pot, lam_lo, lam_hi)


def _solve_action_root(value, profile, target: float, lo: float, hi: float,
                       value_lo: float, value_hi: float) -> tuple[float, float, float]:
    """Solve value(lam) = target on [lo, hi] where value is strictly increasing.

    value_lo and value_hi are value(lo) and value(hi); profile(lam) returns
    (value, derivative) from one turning-point solve.  Newton iterations with
    the analytic derivative, safeguarded by the shrinking bracket; returns
    (root, value(root), |value(root) - target|).
    """
    f_lo = value_lo - target
    f_hi = value_hi - target
    if f_lo > 0.0 or f_hi < 0.0:
        raise QuantizeError(f"target {target} not bracketed by [{lo}, {hi}]")
    a, b = lo, hi
    lam = a + (b - a) * (-f_lo) / (f_hi - f_lo)  # secant start
    val, der = profile(lam)
    f = val - target
    for _ in range(80):
        if abs(f) == 0.0:
            break
        if f > 0.0:
            b = lam
        else:
            a = lam
        nxt = lam - f / der
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - lam) <= LAMBDA_TOL * max(1.0, abs(lam)):
            lam = nxt
            val = value(lam)
            f = val - target
            break
        lam = nxt
        val, der = profile(lam)
        f = val - target
    return lam, val, abs(f)


def bs_levels(pot: Potential, window: tuple[float, float], hbar: float,
              cert: Optional[WellCertificate] = None) -> list[SemiclassicalLevel]:
    """All Bohr-Sommerfeld levels with pi(n+1/2) hbar inside (Phi(a1), Phi(a2)).

    Requires a well without an interior jump of v itself; kinks and
    curvature jumps are allowed (they only degrade the remainder class).
    """
    if hbar <= 0.0:
        raise QuantizeError("hbar must be positive")
    a1, a2 = window
    cert = cert or certified(pot, a1, a2)
    if cert.interior_jump is not None:
        raise QuantizeError("potential jumps inside the well; use disc_levels")
    phi1 = phi_value(pot, a1, cert.turning_map(a1), tol=_ROOT_QUAD_TOL)
    phi2 = phi_value(pot, a2, cert.turning_map(a2), tol=_ROOT_QUAD_TOL)
    value = lambda lam: phi_value(pot, lam, tol=_ROOT_QUAD_TOL)

    def profile(lam):
        prof = phi(pot, lam, tol=_ROOT_QUAD_TOL)
        return prof.phi, prof.phi_prime

    n_lo = math.ceil(phi1 / (math.pi * hbar) - 0.5)
    n_hi = math.floor(phi2 / (math.pi * hbar) - 0.5)
    out = []
    lo, phi_lo = a1, phi1
    for n in range(max(n_lo, 0), n_hi + 1):
        target = math.pi * (n + 0.5) * hbar
        if not phi1 < target < phi2:
            continue
        lam, phi_lo, resid = _solve_action_root(value, profile, target, lo, a2, phi_lo, phi2)
        out.append(SemiclassicalLevel(n=n, hbar=hbar, lam=lam, residual=resid,
                                      kind="smooth", amplitude_a=(-1.0) ** (n % 2)))
        lo = lam  # Phi is increasing: next root lies to the right
    return out


def weyl_count(pot: Potential, a1: float, a2: float, hbar: float,
               count: Optional[int] = None,
               cert: Optional[WellCertificate] = None) -> CountResult:
    """Predicted level count pi^-1 (Phi(a2)-Phi(a1))/hbar over (a1, a2).

    count defaults to the number of quantization points pi(n+1/2) hbar in
    (Phi(a1), Phi(a2)); pass an observed (e.g. brute-force) count to get its
    epsilon against the same prediction.
    """
    cert = cert or certified(pot, a1, a2)
    phi1 = phi_value(pot, a1, cert.turning_map(a1))
    phi2 = phi_value(pot, a2, cert.turning_map(a2))
    predicted = (phi2 - phi1) / (math.pi * hbar)
    if count is None:
        n_lo = math.ceil(phi1 / (math.pi * hbar) - 0.5)
        n_hi = math.floor(phi2 / (math.pi * hbar) - 0.5)
        count = max(0, n_hi - max(n_lo, 0) + 1)
    return CountResult(window=(a1, a2), hbar=hbar, predicted=predicted,
                       count=int(count), epsilon=count - predicted,
                       phase_volume=2.0 * (phi2 - phi1))


# ---------------------------------------------------------------------------
# discontinuous wells


def disc_point(cert: WellCertificate) -> float:
    """x0 of the generalized condition: the one singular point inside the
    certified well (its interior jump, or a kink where the condition
    reduces to Bohr-Sommerfeld)."""
    if len(cert.interior_singularities) != 1:
        raise QuantizeError(
            f"the discontinuous condition needs exactly one interior singular point, found "
            f"{len(cert.interior_singularities)}"
        )
    return cert.interior_singularities[0].x


def _jump_factor(pot: Potential, x0: float, lam: float) -> float:
    vm = pot.eval(x0, "-")[0]
    vp = pot.eval(x0, "+")[0]
    if lam <= vm or lam <= vp:
        raise QuantizeError(f"lam={lam} does not exceed both one-sided limits of v at {x0}")
    return ((lam - vm) / (lam - vp)) ** 0.25


def _disc_angles(pot: Potential, lam: float, hbar: float, x0: float,
                 tp: Optional[TurningPoints], tol: float) -> tuple[float, float, float]:
    """(theta+, theta-, p) at lam from one turning-point solve."""
    tp = tp if tp is not None else turning_points(pot, lam)
    th_p = partial_action(pot, lam, x0, "+", tp, tol) / hbar + 0.25 * math.pi
    th_m = partial_action(pot, lam, x0, "-", tp, tol) / hbar + 0.25 * math.pi
    return th_p, th_m, _jump_factor(pot, x0, lam)


def _disc_f(th_p: float, th_m: float, p: float) -> float:
    return p * math.sin(th_p) * math.cos(th_m) + math.sin(th_m) * math.cos(th_p) / p


def disc_condition(pot: Potential, lam: float, hbar: float, x0: float,
                   tol: float = TOL_QUAD) -> float:
    """F(lam) = p sin(theta+) cos(theta-) + p^-1 cos(theta+) sin(theta-) for
    the jump at x0; its roots are the discontinuous-well levels."""
    return _disc_f(*_disc_angles(pot, lam, hbar, x0, None, tol))


def disc_levels(pot: Potential, window: tuple[float, float], hbar: float,
                cert: Optional[WellCertificate] = None) -> list[SemiclassicalLevel]:
    """Solve the generalized quantization condition for a well with one
    interior singular point.  Reduces to bs_levels when v(x0+0) = v(x0-0)."""
    if hbar <= 0.0:
        raise QuantizeError("hbar must be positive")
    a1, a2 = window
    cert = cert or certified(pot, a1, a2)
    x0 = disc_point(cert)
    _jump_factor(pot, x0, a1)  # validates the window bottom
    F = lambda lam: disc_condition(pot, lam, hbar, x0, _ROOT_QUAD_TOL)

    dphi = [phi_prime(pot, lam) for lam in np.linspace(a1, a2, 5)]
    dmin, dmax = min(dphi), max(dphi)
    expected = (phi_value(pot, a2) - phi_value(pot, a1)) / (math.pi * hbar)
    step = min(hbar * dmin / 4.0, math.pi * hbar / (8.0 * dmax))
    for _ in range(4):
        grid = np.linspace(a1, a2, max(int(math.ceil((a2 - a1) / step)) + 1, 8))
        vals = np.array([F(float(g)) for g in grid])
        sign = np.sign(vals)
        idx = np.nonzero(sign[1:] * sign[:-1] < 0)[0]
        roots = []
        for i in idx:
            lam = brentq(F, grid[i], grid[i + 1], xtol=LAMBDA_TOL, rtol=4 * np.finfo(float).eps)
            roots.append(float(lam))
        roots.extend(float(g) for g in grid[sign == 0])
        roots.sort()
        if len(roots) >= math.floor(expected) - 1:
            break
        step *= 0.5  # adjacent roots unseparated: re-scan finer
    else:
        raise QuantizeError("root scan kept missing roots after grid refinement")

    sep = LAMBDA_TOL * 100 * max(1.0, abs(a2))
    for r1, r2 in zip(roots, roots[1:]):
        if r2 - r1 < sep:
            warnings.warn(f"near-coincident quantization roots at lam={r1!r} and {r2!r}")

    out = []
    if roots:
        n0 = int(round(phi_value(pot, roots[0]) / (math.pi * hbar) - 0.5))
        for k, lam in enumerate(roots):
            th_p, th_m, p = _disc_angles(pot, lam, hbar, x0, None, _ROOT_QUAD_TOL)
            a2_lead = (p * math.cos(th_m)) ** 2 + (math.sin(th_m) / p) ** 2
            a_signed = math.copysign(math.sqrt(a2_lead), _a_sign(th_p, th_m, p))
            out.append(SemiclassicalLevel(n=n0 + k, hbar=hbar, lam=lam,
                                          residual=abs(_disc_f(th_p, th_m, p)),
                                          kind="discontinuous", amplitude_a=a_signed))
    return out


def _a_sign(th_p: float, th_m: float, p: float) -> float:
    # a = sin(theta-)/(p sin(theta+)) = -p cos(theta-)/cos(theta+) at a root;
    # use whichever form is better conditioned
    sp, sm = math.sin(th_p), math.sin(th_m)
    if abs(sp) > 0.1:
        return sm / (p * sp)
    return -p * math.cos(th_m) / math.cos(th_p)


@dataclass(frozen=True)
class DiscNormalization:
    c_plus: float  # |c_+|
    c_minus: float  # |c_-|
    a_squared: float
    a_signed: float


def disc_normalization(pot: Potential, level: SemiclassicalLevel, hbar: float,
                       tol: float = 1e-10,
                       cert: Optional[WellCertificate] = None) -> DiscNormalization:
    """Leading-order normalization constants for a discontinuous-well level.

    a^2 = p^2 cos^2(theta-) + p^-2 sin^2(theta-); the half-well integrals
    I_pm of (lam - v)^(-1/2) then give
    |c_+| = (2/pi)^(1/2) hbar^(-1/6) (I_+ + a^-2 I_-)^(-1/2) and the mirrored
    expression for |c_-|.  x0 comes from cert, by default the certificate
    of the single energy level.lam.
    """
    if level.kind != "discontinuous":
        raise QuantizeError("disc_normalization expects a discontinuous-kind level")
    lam = level.lam
    x0 = disc_point(cert or certified(pot, lam, lam))
    tp = turning_points(pot, lam)
    th_p, th_m, p = _disc_angles(pot, lam, hbar, x0, tp, TOL_QUAD)
    a2 = (p * math.cos(th_m)) ** 2 + (math.sin(th_m) / p) ** 2
    i_plus, _ = well_integral(pot, lam, -0.5, x0, tp.x_plus, False, True, tol)
    i_minus, _ = well_integral(pot, lam, -0.5, tp.x_minus, x0, True, False, tol)
    pref = math.sqrt(2.0 / math.pi) * hbar ** (-1.0 / 6.0)
    c_plus = pref / math.sqrt(i_plus + i_minus / a2)
    c_minus = pref / math.sqrt(a2 * i_plus + i_minus)
    return DiscNormalization(c_plus=c_plus, c_minus=c_minus, a_squared=a2,
                             a_signed=math.copysign(math.sqrt(a2), _a_sign(th_p, th_m, p)))


# ---------------------------------------------------------------------------
# exports and diagnostics


def levels_to_csv(levels, path) -> None:
    """Level table export: one row (n, hbar, lambda, residual, kind) per level."""
    with open(path, "w") as fh:
        fh.write("n,hbar,lambda,residual,kind\n")
        for l in levels:
            fh.write(f"{l.n},{float(l.hbar)!r},{float(l.lam)!r},{float(l.residual)!r},{l.kind}\n")


def levels_to_json(levels, path) -> None:
    import json

    doc = [
        {"n": l.n, "hbar": float(l.hbar), "lambda": float(l.lam),
         "residual": float(l.residual), "kind": l.kind}
        for l in levels
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def interlacing_diagnostic(levels, reference) -> list[str]:
    """Heuristic sanity check: level k should lie between reference levels
    k-1 and k+1.  Failures are reported, not raised; this ordering is a
    diagnostic expectation, not a guaranteed property."""
    ref = np.asarray(reference, dtype=float)
    msgs = []
    for k, l in enumerate(levels):
        lo = ref[k - 1] if k - 1 >= 0 else -math.inf
        hi = ref[k + 1] if k + 1 < len(ref) else math.inf
        if not lo < l.lam < hi:
            msgs.append(f"level n={l.n} at lam={l.lam!r} outside reference bracket ({lo}, {hi})")
    return msgs


# ---------------------------------------------------------------------------
# half-line problems


_BC_OFFSETS = {"dirichlet": 0.75, "robin": 0.25}


def halfline_levels(pot: Potential, window: tuple[float, float], hbar: float,
                    bc: str = "dirichlet", robin_b: float = 0.0,
                    cert: Optional[HalfLineCertificate] = None) -> list[SemiclassicalLevel]:
    """Levels of the half-line problem with psi(0)=0 or psi'(0) = b psi(0).

    Solves int_0^{x+} (lam-v)^(1/2) = pi hbar (n + offset) with offset 3/4
    (Dirichlet) or 1/4 (Robin, independent of b at this order).
    """
    if hbar <= 0.0:
        raise QuantizeError("hbar must be positive")
    if bc not in _BC_OFFSETS:
        raise QuantizeError(f"unknown boundary condition {bc!r}")
    a1, a2 = window
    cert = cert or certified_halfline(pot, a1, a2)
    offset = _BC_OFFSETS[bc]
    value = lambda lam: halfline_action(pot, lam, tol=_ROOT_QUAD_TOL)

    def profile(lam):
        x_plus, _ = cert.turning_map(lam)
        return (halfline_action(pot, lam, _ROOT_QUAD_TOL, x_plus),
                halfline_action_prime(pot, lam, _ROOT_QUAD_TOL, x_plus))

    s1, s2 = value(a1), value(a2)
    n_lo = math.ceil(s1 / (math.pi * hbar) - offset)
    n_hi = math.floor(s2 / (math.pi * hbar) - offset)
    kind = "halfline_dirichlet" if bc == "dirichlet" else "halfline_robin"
    out = []
    lo, s_lo = a1, s1
    for n in range(max(n_lo, 0), n_hi + 1):
        target = math.pi * (n + offset) * hbar
        if not s1 < target < s2:
            continue
        lam, s_lo, resid = _solve_action_root(value, profile, target, lo, a2, s_lo, s2)
        out.append(SemiclassicalLevel(n=n, hbar=hbar, lam=lam, residual=resid, kind=kind,
                                      robin_b=(robin_b if bc == "robin" else None)))
        lo = lam
    return out
