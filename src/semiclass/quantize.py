"""Quantization conditions: smooth Bohr-Sommerfeld, Weyl counts, the
generalized condition for a jump inside the well, and half-line problems.

Every kind is one action condition G(lam) = pi (n + mu) hbar, with the Maslov
offset mu from MASLOV_OFFSETS and (G, G') from quantization_condition, solved
for each n by the same safeguarded Newton iteration on a bracket.

Smooth case: G = Phi, mu = 1/2; Phi' > 0 gives exactly one root per n.

Jump at x0: with theta_pm = phi_pm(x0; lam)/hbar + pi/4 and
p = ((lam - v(x0-0)) / (lam - v(x0+0)))^(1/4), eigenvalues solve
F(lam) = p sin(theta+) cos(theta-) + p^(-1) cos(theta+) sin(theta-) = 0,
which holds exactly when the phase-corrected action G = Phi + hbar delta
equals pi (n + 1/2) hbar (see jump_action).  |hbar delta| < pi hbar / 2, and
delta vanishes with the jump (p = 1), where the condition is Bohr-Sommerfeld.
G' can turn negative close to the top of the jump; the sign-change bracket
keeps the iteration safe there.

Half line: int_0^{x+} (lam - v)^(1/2) = pi hbar (n + 3/4) for a Dirichlet
condition at 0 and pi hbar (n + 1/4) for a Robin condition psi'(0) = b psi(0);
the value of b does not enter at leading order (it is recorded anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .action import TOL_QUAD, phi, phi_value
from .potential import (
    HalfLineCertificate,
    Potential,
    WellCertificate,
    certify_halfline_well,
    certify_well,
    turning_points,
)
from .quadrature import well_integral

__all__ = [
    "MASLOV_OFFSETS",
    "SemiclassicalLevel",
    "CountResult",
    "JumpAction",
    "QuantizeError",
    "bs_levels",
    "weyl_count",
    "disc_levels",
    "disc_point",
    "jump_action",
    "quantization_condition",
    "halfline_levels",
]

# A returned lam is accurate to about LAMBDA_TOL relative plus
# _ROOT_QUAD_TOL / G'(lam) absolute.  Its last bits are rounding noise: near
# the root G - target is flat at ulp scale and not monotone, so which
# neighbouring double the solver stops on may differ between numpy/BLAS builds.
LAMBDA_TOL = 1e-12  # relative root tolerance in lam
_ROOT_QUAD_TOL = 1e-12  # absolute quadrature tolerance on G while root solving

# Maslov offset mu of the condition G(lam) = pi (n + mu) hbar, per level kind
MASLOV_OFFSETS = {
    "smooth": 0.5,
    "discontinuous": 0.5,
    "halfline_dirichlet": 0.75,
    "halfline_robin": 0.25,
}


class QuantizeError(RuntimeError):
    """Quantization request outside the method's validity or solver failure."""


@dataclass(frozen=True)
class SemiclassicalLevel:
    """One predicted eigenvalue.

    residual is the defect |G - pi(n + mu) hbar| of the quantization
    condition at the returned lam, in action units for every kind: G is Phi
    (smooth), the half-line action (half-line kinds) or the phase-corrected
    action of jump_action (discontinuous kind, where the paper's jump
    function is |F| = a |sin(residual/hbar)|).  amplitude_a is the relative
    factor u_- = a u_+, (-1)^n times its magnitude (None for half-line
    problems, which carry a single solution).

    lam is the root of the quantization condition to about LAMBDA_TOL
    relative plus _ROOT_QUAD_TOL / G' absolute.  Its last bits are rounding
    noise and may differ between numpy/BLAS builds; on one build they repeat.
    """

    n: int
    hbar: float
    lam: float
    residual: float
    kind: str  # a key of MASLOV_OFFSETS
    amplitude_a: Optional[float] = None
    robin_b: Optional[float] = None


@dataclass(frozen=True)
class CountResult:
    """Weyl count over a window: predicted pi^-1 dPhi / hbar vs an integer count."""

    predicted: float
    count: int
    epsilon: float
    phase_volume: float  # measure of {a1 <= p^2 + v <= a2}, i.e. 2 dPhi


def _solve_action_root(profile, target: float, lo: float, hi: float,
                       g_lo: float, g_hi: float) -> tuple[float, float, float]:
    """Solve G(lam) = target on [lo, hi] with g_lo <= target <= g_hi.

    profile(lam) returns (G, G'); g_lo and g_hi are G(lo) and G(hi).  Newton
    iterations with the analytic derivative, safeguarded by the shrinking
    sign-change bracket (bisection where the step leaves it or the
    derivative is not positive); returns (root, G(root), |G(root) - target|).
    """
    f_lo = g_lo - target
    f_hi = g_hi - target
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
        nxt = lam - f / der if der > 0.0 else 0.5 * (a + b)
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - lam) <= LAMBDA_TOL * max(1.0, abs(lam)):
            lam = nxt
            val, _ = profile(lam)
            f = val - target
            break
        lam = nxt
        val, der = profile(lam)
        f = val - target
    return lam, val, abs(f)


def _action_levels(pot: Potential, window: tuple[float, float], hbar: float, kind: str,
                   cert: WellCertificate | HalfLineCertificate, magnitude=None,
                   robin_b: Optional[float] = None) -> list[SemiclassicalLevel]:
    """Every level of one kind in the window: for each n with
    pi (n + mu) hbar strictly between G(a1) and G(a2), the root of
    G(lam) = pi (n + mu) hbar, mu = MASLOV_OFFSETS[kind], solved left to
    right (G from quantization_condition).  magnitude(lam) is |amplitude_a|
    (no amplitude when None)."""
    profile = lambda lam: quantization_condition(pot, lam, kind, hbar, cert, _ROOT_QUAD_TOL)
    a1, a2 = window
    (g1, _), (g2, _) = profile(a1), profile(a2)
    mu = MASLOV_OFFSETS[kind]
    n_lo = math.ceil(g1 / (math.pi * hbar) - mu)
    n_hi = math.floor(g2 / (math.pi * hbar) - mu)
    out = []
    lo, g_lo = a1, g1
    for n in range(max(n_lo, 0), n_hi + 1):
        target = math.pi * (n + mu) * hbar
        if not g1 < target < g2:
            continue
        lam, g_lo, resid = _solve_action_root(profile, target, lo, a2, g_lo, g2)
        lam = float(lam)
        amp = None if magnitude is None else (-1.0) ** (n % 2) * float(magnitude(lam))
        out.append(SemiclassicalLevel(n=n, hbar=hbar, lam=lam, residual=float(resid),
                                      kind=kind, amplitude_a=amp, robin_b=robin_b))
        lo = lam  # the next target lies above this one: so does its root
    return out


def quantization_condition(pot: Potential, lam: float, kind: str, hbar: float,
                           cert: WellCertificate | HalfLineCertificate,
                           tol: float = TOL_QUAD) -> tuple[float, float]:
    """(G, G') at lam for the condition G = pi (n + mu) hbar of a level kind.

    G is Phi (smooth), the phase-corrected action of jump_action at
    disc_point(cert) (discontinuous) or the half-line action
    int_0^{x+} (lam - v)^(1/2) (half-line kinds), with the turning points
    from cert.turning_map.
    """
    if kind == "smooth":
        prof = phi(pot, lam, cert.turning_map(lam), tol)
        return prof.phi, prof.phi_prime
    if kind == "discontinuous":
        ja = jump_action(pot, lam, hbar, disc_point(cert), tol)
        return ja.g, ja.g_prime
    if kind not in MASLOV_OFFSETS:
        raise QuantizeError(f"unknown level kind {kind!r}")
    x_plus, _ = cert.turning_map(lam)
    (val, der), _ = well_integral(pot, lam, 0.0, x_plus, False, True, tol)
    return val, 0.5 * der


def bs_levels(pot: Potential, window: tuple[float, float], hbar: float,
              cert: Optional[WellCertificate] = None) -> list[SemiclassicalLevel]:
    """All Bohr-Sommerfeld levels with pi(n+1/2) hbar inside (Phi(a1), Phi(a2)).

    Requires a well without an interior jump of v itself; kinks and
    curvature jumps are allowed (they only degrade the remainder class).
    """
    if hbar <= 0.0:
        raise QuantizeError("hbar must be positive")
    cert = cert or certify_well(pot, *window)
    if cert.interior_jump is not None:
        raise QuantizeError("potential jumps inside the well; use disc_levels")
    return _action_levels(pot, window, hbar, "smooth", cert, magnitude=lambda lam: 1.0)


def weyl_count(pot: Potential, a1: float, a2: float, hbar: float,
               count: Optional[int] = None,
               cert: Optional[WellCertificate] = None) -> CountResult:
    """Predicted level count pi^-1 (Phi(a2)-Phi(a1))/hbar over (a1, a2).

    count defaults to the number of quantization points pi(n+1/2) hbar in
    (Phi(a1), Phi(a2)); pass an observed (e.g. brute-force) count to get its
    epsilon against the same prediction.
    """
    cert = cert or certify_well(pot, a1, a2)
    phi1 = phi_value(pot, a1, cert.turning_map(a1))
    phi2 = phi_value(pot, a2, cert.turning_map(a2))
    predicted = float((phi2 - phi1) / (math.pi * hbar))
    if count is None:
        mu = MASLOV_OFFSETS["smooth"]
        n_lo = math.ceil(phi1 / (math.pi * hbar) - mu)
        n_hi = math.floor(phi2 / (math.pi * hbar) - mu)
        count = max(0, n_hi - max(n_lo, 0) + 1)
    return CountResult(predicted=predicted, count=int(count), epsilon=float(count - predicted),
                       phase_volume=float(2.0 * (phi2 - phi1)))


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


def _jump_factor(pot: Potential, x0: float, lam: float) -> tuple[float, float]:
    """p = ((lam - v(x0-0)) / (lam - v(x0+0)))^(1/4) and (ln p)'(lam)."""
    gap_m = lam - pot.eval(x0, "-")[0]
    gap_p = lam - pot.eval(x0, "+")[0]
    if gap_m <= 0.0 or gap_p <= 0.0:
        raise QuantizeError(f"lam={lam} does not exceed both one-sided limits of v at {x0}")
    return (gap_m / gap_p) ** 0.25, 0.25 * (1.0 / gap_m - 1.0 / gap_p)


@dataclass(frozen=True)
class JumpAction:
    """The jump condition at one energy, written as an action (jump_action)."""

    g: float  # G = Phi + hbar delta
    g_prime: float  # dG/dlam
    a_squared: float  # a^2 = p^2 cos^2(theta-) + p^-2 sin^2(theta-)
    i_plus: float  # int_{x0}^{x+} (lam-v)^(-1/2)
    i_minus: float  # int_{x-}^{x0} (lam-v)^(-1/2)


def jump_action(pot: Potential, lam: float, hbar: float, x0: float,
                tol: float = TOL_QUAD) -> JumpAction:
    """Phase-corrected action G whose level sets pi (n + 1/2) hbar are the
    roots of F = p sin(theta+) cos(theta-) + p^-1 cos(theta+) sin(theta-).

    With a cos(chi) = p cos(theta-), a sin(chi) = p^-1 sin(theta-) and a > 0,
    F = a sin(theta+ + chi).  delta = chi - theta-
    = atan((1-p^2) sin(theta-) cos(theta-) / (p^2 cos^2(theta-) + sin^2(theta-)))
    lies in (-pi/2, pi/2), and theta+ + chi = G/hbar + pi/2 with
    G = Phi + hbar delta.  So F = 0 exactly when G = pi (n + 1/2) hbar, and
    there a = sin(theta-) / (p sin(theta+)) has the sign (-1)^n.
    G' = (1/2)(I+ + I-/a^2) - hbar sin(2 theta-) (ln p)' / a^2, where I_pm
    integrate (lam-v)^(-1/2) on each side of x0.
    """
    p, dlnp = _jump_factor(pot, x0, lam)
    tp = turning_points(pot, lam)
    (phi_plus, i_plus), _ = well_integral(pot, lam, x0, tp.x_plus, False, True, tol)
    (phi_minus, i_minus), _ = well_integral(pot, lam, tp.x_minus, x0, True, False, tol)
    th_m = phi_minus / hbar + 0.25 * math.pi
    c, s = math.cos(th_m), math.sin(th_m)
    p2 = p * p
    a2 = p2 * c * c + s * s / p2
    delta = math.atan((1.0 - p2) * s * c / (p2 * c * c + s * s))
    return JumpAction(
        g=phi_plus + phi_minus + hbar * delta,
        g_prime=0.5 * (i_plus + i_minus / a2) - hbar * math.sin(2.0 * th_m) * dlnp / a2,
        a_squared=a2, i_plus=i_plus, i_minus=i_minus,
    )


def disc_levels(pot: Potential, window: tuple[float, float], hbar: float,
                cert: Optional[WellCertificate] = None) -> list[SemiclassicalLevel]:
    """Solve the generalized quantization condition G = pi (n + 1/2) hbar
    (jump_action) for a well with one interior singular point.  Reduces to
    bs_levels when v(x0+0) = v(x0-0)."""
    if hbar <= 0.0:
        raise QuantizeError("hbar must be positive")
    cert = cert or certify_well(pot, *window)
    x0 = disc_point(cert)
    return _action_levels(
        pot, window, hbar, "discontinuous", cert,
        magnitude=lambda lam: math.sqrt(jump_action(pot, lam, hbar, x0, _ROOT_QUAD_TOL).a_squared))


# ---------------------------------------------------------------------------
# half-line problems


def halfline_levels(pot: Potential, window: tuple[float, float], hbar: float,
                    bc: str = "dirichlet", robin_b: float = 0.0,
                    cert: Optional[HalfLineCertificate] = None) -> list[SemiclassicalLevel]:
    """Levels of the half-line problem with psi(0)=0 or psi'(0) = b psi(0).

    Solves int_0^{x+} (lam-v)^(1/2) = pi hbar (n + offset) with offset 3/4
    (Dirichlet) or 1/4 (Robin, independent of b at this order).
    """
    if hbar <= 0.0:
        raise QuantizeError("hbar must be positive")
    kind = f"halfline_{bc}"
    if kind not in MASLOV_OFFSETS:
        raise QuantizeError(f"unknown boundary condition {bc!r}")
    cert = cert or certify_halfline_well(pot, *window)
    return _action_levels(pot, window, hbar, kind, cert,
                          robin_b=(robin_b if bc == "robin" else None))
