"""Quantization conditions: smooth Bohr-Sommerfeld, Weyl counts, the
generalized condition for a jump inside the well, and half-line problems.

Every kind is one action condition G(lam) = pi (n + mu) hbar, with the Maslov
offset mu from MASLOV_OFFSETS.  levels is the one level solver: the well
picks the kind (half line, else a jump inside the well, else smooth).
_target is the one place where the target pi (n + mu) hbar is formed: the
solver and weyl_count take their n from _quantum_numbers, and defect is
G - target at any lam (the residual of a level against an oracle
eigenvalue).  Only levels and weyl_count, which take a window, take a cert:
it must certify pot over a window holding theirs (_certificate).  Records
at single energies take none.  quantization_condition is the one place
where a level kind becomes numbers: its Condition record carries (G, G')
for the solver, the well integrals I_pm and the jump amplitude a^2 that
give the eigenfunction's constants c_pm, and the turning points and
matching point its Langer charts are built on (langer.eigenfunctions).
All n of a window, at every hbar asked for, are solved together by one
safeguarded Newton iteration (_action_levels): G and G' are array-valued
in lam and hbar, so each sweep is one evaluation for every unfinished
level, and each level keeps its own sign-change bracket, taken from one
sample of G across the window.  The well integrals depend on lam alone,
so that sample costs one set of integrals for all hbar.

Smooth case: G = Phi, mu = 1/2; Phi' > 0 gives exactly one root per n.

Jump at x0: with theta_pm = phi_pm(x0; lam)/hbar + pi/4 and
p = ((lam - v(x0-0)) / (lam - v(x0+0)))^(1/4), eigenvalues solve
F(lam) = p sin(theta+) cos(theta-) + p^(-1) cos(theta+) sin(theta-) = 0,
which holds exactly when the phase-corrected action G = Phi + hbar delta
equals pi (n + 1/2) hbar (see jump_action).  |hbar delta| < pi hbar / 2, and
delta vanishes with the jump (p = 1), where the condition is Bohr-Sommerfeld.
G' can turn negative close to the top of the jump; the sign-change bracket
keeps the iteration safe there.

Half line: the wall x = 0 is the left end of the well (turning_points), and
int_0^{x+} (lam - v)^(1/2) = pi hbar (n + 3/4) for a Dirichlet condition at
0 and pi hbar (n + 1/4) for a Robin condition psi'(0) = b psi(0); the value
of b does not enter at leading order (it is recorded anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potential import (
    CertificationError,
    Potential,
    TurningPoints,
    WellCertificate,
    _inside_well,
    certify_well,
    turning_points,
)
from .quadrature import TOL_QUAD, well_integral

__all__ = [
    "MASLOV_OFFSETS",
    "SemiclassicalLevel",
    "CountResult",
    "Condition",
    "QuantizeError",
    "levels",
    "defect",
    "weyl_count",
    "jump_action",
    "quantization_condition",
]

# A returned lam is accurate to about LAMBDA_TOL relative plus
# _ROOT_QUAD_TOL / G'(lam) absolute.  Its last bits are rounding noise: near
# the root G - target is flat at ulp scale and not monotone, so which
# neighbouring double the solver stops on may differ between numpy/BLAS builds.
LAMBDA_TOL = 1e-12  # relative root tolerance in lam
_ROOT_QUAD_TOL = 1e-12  # absolute quadrature tolerance on G while root solving
_NEWTON_STEPS = 80  # evaluations of G per level before the solve gives up
_SAMPLE_POINTS = 33  # energies, window ends included, in the sample of G that starts the solve
_MAX_LEVELS = 10**6  # levels of one window at one hbar, checked before any array is built
# why levels (half line) and the CLI's levels study (full line) refuse a jump inside the well
_NO_JUMP_TERM = "potential jumps inside the well; only the discontinuous kind has a jump term"

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
    relative plus _ROOT_QUAD_TOL / G' absolute, so residual is at most
    |G'| LAMBDA_TOL max(1, |lam|) + _ROOT_QUAD_TOL; it is the defect that
    quantization_condition at tol _ROOT_QUAD_TOL gives at lam.  The last
    bits of lam are rounding noise and may differ between numpy/BLAS builds;
    on one build they repeat.
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


def _target(n, kind: str, hbar: float):
    """pi (n + mu) hbar, mu = MASLOV_OFFSETS[kind]: the value of G at level n
    of the kind (n an int or an integer array).  Every quantization target
    is formed here."""
    return math.pi * (n + MASLOV_OFFSETS[kind]) * hbar


def _certificate(pot: Potential, lam_lo: float, lam_hi: float, cert) -> WellCertificate:
    """certify_well(pot, lam_lo, lam_hi) when cert is None, else cert if it
    certifies pot over a window holding [lam_lo, lam_hi]."""
    if cert is None:
        return certify_well(pot, lam_lo, lam_hi)
    if not (isinstance(cert, WellCertificate) and cert.potential == pot
            and cert.lambda_window[0] <= lam_lo <= lam_hi <= cert.lambda_window[1]):
        raise CertificationError("window", f"cert does not hold [{lam_lo}, {lam_hi}] for this well")
    return cert


def _quantum_numbers(g_lo: float, g_hi: float, kind: str, hbar: float):
    """(ns, targets): every n >= 0 whose target _target(n, kind, hbar) lies
    strictly inside (g_lo, g_hi), ascending, with those targets.  Where the
    n + mu of (g_lo, g_hi) / (pi hbar) span more than _MAX_LEVELS (a tiny
    hbar), QuantizeError, before any array is built."""
    mu = MASLOV_OFFSETS[kind]
    a, b = g_lo / (math.pi * hbar) - mu, g_hi / (math.pi * hbar) - mu
    if not b - max(a, 0.0) <= _MAX_LEVELS:
        raise QuantizeError(f"the window holds more than {_MAX_LEVELS} levels at hbar={hbar}")
    # one candidate past each end, so that rounding in the quotients drops no n
    n_lo = math.ceil(a) - 1
    n_hi = math.floor(b) + 1
    ns = np.arange(max(n_lo, 0), n_hi + 1)
    targets = _target(ns, kind, hbar)
    keep = (g_lo < targets) & (targets < g_hi)
    return ns[keep], targets[keep]


def defect(pot: Potential, lam, n, kind: str, hbar: float):
    """G(lam) - pi (n + mu) hbar, the signed defect of level n's quantization
    condition at lam (e.g. an oracle eigenvalue), in action units; lam and n
    may be arrays of one shape.  G is quantization_condition's at TOL_QUAD,
    so a kind is taken as asked for: the smooth defect of a jump well is
    Phi's, and refusing it is the caller's choice."""
    return quantization_condition(pot, lam, kind, hbar).g - _target(n, kind, hbar)


def _brackets(lam, g, g_prime, targets):
    """Per-target sign-change brackets and Newton starts from a sample of G.

    lam is an ascending sample of energies with G = g, G' = g_prime there,
    g[0] < every target < g[-1].  Each target takes the first sample
    interval whose right end reaches it, [lam_j, lam_j+1] with
    g_j < target <= g_j+1: its lowest up-crossing, the one a solve from
    the left meets first.  The start inverts the cubic Hermite interpolant
    of lam as a function of G on that interval, or the chord where G' <= 0
    at an end; a start off the open interval falls back to the chord.
    """
    j = np.argmax(g[1:] >= targets[:, None], axis=1)
    lo, hi = lam[j], lam[j + 1]
    g_lo, g_hi = g[j], g[j + 1]
    u = (targets - g_lo) / (g_hi - g_lo)
    chord = lo + (hi - lo) * u
    d_lo, d_hi = g_prime[j], g_prime[j + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        span = g_hi - g_lo
        hermite = ((2 * u**3 - 3 * u**2 + 1) * lo + (u**3 - 2 * u**2 + u) * span / d_lo
                   + (3 * u**2 - 2 * u**3) * hi + (u**3 - u**2) * span / d_hi)
    start = np.where((d_lo > 0) & (d_hi > 0) & (lo < hermite) & (hermite < hi), hermite, chord)
    return lo, hi, start


def _action_levels(pot: Potential, window: tuple[float, float], hbars: list, kind: str,
                   robin_b: Optional[float] = None) -> list[SemiclassicalLevel]:
    """Every level of one kind in the window at each hbar of hbars, ordered
    by hbar as given, then by n: for each n with pi (n + mu) hbar strictly
    between G(a1) and G(a2), the root of G(lam) = pi (n + mu) hbar,
    mu = MASLOV_OFFSETS[kind].

    All levels are solved at once: each evaluation of quantization_condition
    takes the arrays of lam and hbar of every unfinished level.  One sample
    of G across the window, at every hbar, gives each level a sign-change
    bracket and a start (_brackets); then each level takes Newton steps with
    the analytic derivative, safeguarded by its shrinking bracket (bisection
    where a step leaves it or G' <= 0), until a step is below LAMBDA_TOL
    relative, and G is evaluated once more at the last iterate, which is
    returned with |G - target| and, for the full-line kinds, a from that
    same evaluation.  A level still open after _NEWTON_STEPS evaluations
    raises QuantizeError naming its n and hbar.  Each level's steps read only
    its own entries, so a level is the one a solve at its hbar alone returns.
    It takes no certificate: levels certifies the window and picks the kind.
    """
    cond = lambda lam, h: quantization_condition(pot, lam, kind, h, _ROOT_QUAD_TOL)
    sample = np.linspace(*window, _SAMPLE_POINTS)
    s = cond(sample, np.reshape(hbars, (-1, 1)))
    g, g_prime = (np.broadcast_to(v, (len(hbars), _SAMPLE_POINTS)) for v in (s.g, s.g_prime))
    per_hbar = []  # (hbar, ns, targets, lo, hi, start) of every hbar with a level
    for h, g_h, g_prime_h in zip(hbars, g, g_prime):
        ns, targets = _quantum_numbers(float(g_h[0]), float(g_h[-1]), kind, h)
        if ns.size:
            per_hbar.append((h, ns, targets, *_brackets(sample, g_h, g_prime_h, targets)))
    if not per_hbar:
        return []
    level_hbar = [h for h, ns, *_ in per_hbar for _ in range(ns.size)]
    hb = np.array(level_hbar, dtype=float)
    ns, targets, lo, hi, lam = (np.concatenate(col) for col in list(zip(*per_hbar))[1:])

    c = cond(lam, hb)
    f, der, a_sq = c.g - targets, c.g_prime, c.a_squared
    resid = np.zeros(ns.shape)
    final = np.zeros(ns.shape, dtype=bool)  # lam is the last iterate, and f was taken there
    for step in range(_NEWTON_STEPS + 1):
        done = final | (f == 0.0)
        resid[done] = np.abs(f[done])
        todo = np.flatnonzero(~done)
        if not todo.size:
            break
        if step == _NEWTON_STEPS:
            raise QuantizeError(f"level n={int(ns[todo[0]])} at hbar={float(hb[todo[0]])} not converged "
                                f"to LAMBDA_TOL={LAMBDA_TOL} in {_NEWTON_STEPS} steps")
        x, fx, dx, a, b = lam[todo], f[todo], der[todo], lo[todo], hi[todo]
        b = np.where(fx > 0.0, x, b)
        a = np.where(fx > 0.0, a, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(dx > 0.0, x - fx / dx, 0.5 * (a + b))
        nxt = np.where((a < nxt) & (nxt < b), nxt, 0.5 * (a + b))
        final[todo] = np.abs(nxt - x) <= LAMBDA_TOL * np.maximum(1.0, np.abs(x))
        lam[todo], lo[todo], hi[todo] = nxt, a, b
        c = cond(nxt, hb[todo])
        f[todo], der[todo], a_sq[todo] = c.g - targets[todo], c.g_prime, c.a_squared

    out = []
    for k, (n, h) in enumerate(zip(ns.tolist(), level_hbar)):
        amp = None
        if kind in ("smooth", "discontinuous"):
            amp = (-1.0) ** (n % 2) * math.sqrt(float(a_sq[k]))
        out.append(SemiclassicalLevel(n=n, hbar=h, lam=float(lam[k]), residual=float(resid[k]),
                                      kind=kind, amplitude_a=amp, robin_b=robin_b))
    return out


@dataclass(frozen=True)
class Condition:
    """The quantization condition of a level kind at one energy, with the
    well integrals that normalize its eigenfunction and the points its
    Langer charts are built on (quantization_condition).  Fields are floats,
    or arrays of the shape of an array of energies (tp has array fields);
    g, g_prime and a_squared of the discontinuous kind, which hbar enters,
    take the shape of energies and hbar broadcast together."""

    g: float  # G of G = pi (n + mu) hbar
    g_prime: float  # dG/dlam
    a_squared: float  # a^2 of u_- = a u_+; 1 without a jump
    i_plus: float  # int (lam-v)^(-1/2) from the jump point to x+; over the well without a jump
    i_minus: float  # int (lam-v)^(-1/2) from x- to the jump point; 0 without a jump
    tp: TurningPoints  # the ends x_- < x_+ of the well and the slopes of v there
    x1: float  # matching point: the jump point, the wall x_- = 0, or mid-well for the smooth kind


def quantization_condition(pot: Potential, lam, kind: str, hbar,
                           tol: float = TOL_QUAD) -> Condition:
    """The Condition record of a level kind at lam, a float or an array;
    hbar, a float or an array, broadcasts against lam.  The turning points
    and well integrals depend on lam alone and are taken once per entry of
    lam, whatever the shape of hbar.

    smooth: G = Phi, I_+ = int (lam-v)^(-1/2) over the well = 2 G', matched
    at the midpoint of the well; hbar does not enter (the fields keep lam's
    shape), so this record is also the one source of the whole-well
    integrals (Phi, Phi' and I) that the averages and the kinetic energy of
    action read.
    discontinuous: jump_action at x0, the one singular point inside the
    well (certify_well's rule) at every entry of lam: a jump, or a kink
    where the condition reduces to Bohr-Sommerfeld; else QuantizeError.
    halfline_*: the same integrals from the wall x_- = 0, matched there.
    Without a jump a^2 = 1 and I_- = 0.  A kind that does not fit
    pot.domain raises CertificationError("domain").  No kind refuses a jump
    inside the well; the callers that pick a kind do (levels).
    """
    if kind not in MASLOV_OFFSETS:
        raise QuantizeError(f"unknown level kind {kind!r}")
    if kind.startswith("halfline") != (pot.domain == "half_line"):
        raise CertificationError("domain", f"level kind {kind!r} does not fit a {pot.domain} well")
    if kind == "discontinuous":
        # an array even for a float lam, the shape jump_action computes on
        tp = turning_points(pot, np.asarray(lam, dtype=float).reshape(np.shape(lam) or (1,)))
        inside = _inside_well(pot, tp)
        if len(inside) != 1:
            raise QuantizeError(
                f"the discontinuous condition needs exactly one interior singular point, found {len(inside)}")
        (s, where), = inside
        if not np.all(where):
            raise QuantizeError(f"the singular point at {s.x} lies inside the well at only some energies")
        return _jump_condition(pot, lam, hbar, s.x, tol, tp)
    tp = turning_points(pot, lam)
    (g, i_plus), _ = well_integral(pot, lam, tp.x_minus, tp.x_plus, kind == "smooth", True, tol)
    x1 = 0.5 * (tp.x_minus + tp.x_plus) if kind == "smooth" else tp.x_minus
    if np.ndim(lam) == 0:
        return Condition(g, 0.5 * i_plus, 1.0, i_plus, 0.0, tp, x1)
    return Condition(g, 0.5 * i_plus, np.ones(np.shape(lam)), i_plus, np.zeros(np.shape(lam)), tp, x1)


def levels(pot: Potential, window: tuple[float, float], hbar,
           robin_b: Optional[float] = None,
           cert: Optional[WellCertificate] = None) -> list[SemiclassicalLevel]:
    """Every level in the window of the condition the well picks: the
    half-line one on a half-line well (robin_b None is the Dirichlet wall
    psi(0) = 0, a number b the Robin wall psi'(0) = b psi(0)), the jump one
    when v jumps inside the well of cert (the certificate of the window by
    default), else Bohr-Sommerfeld.  A robin_b on a full-line well raises
    CertificationError("domain"), a jump inside a half-line well QuantizeError.

    hbar is a float or a sequence of floats.  The levels of every hbar are
    solved in one batch and returned ordered by hbar as given, then by n;
    each is the level a call with its hbar alone returns.  A window of more
    than _MAX_LEVELS (10^6) levels at some hbar raises QuantizeError.
    """
    hbars = [hbar] if np.ndim(hbar) == 0 else list(hbar)
    if any(h <= 0.0 for h in hbars):
        raise QuantizeError("hbar must be positive")
    if robin_b is not None and pot.domain != "half_line":
        raise CertificationError("domain", "a Robin wall (robin_b) needs a half-line well")
    cert = _certificate(pot, *window, cert)
    if pot.domain == "half_line":
        if cert.interior_jump is not None:
            raise QuantizeError(_NO_JUMP_TERM)
        kind = "halfline_dirichlet" if robin_b is None else "halfline_robin"
    else:
        kind = "smooth" if cert.interior_jump is None else "discontinuous"
    return _action_levels(pot, window, hbars, kind, robin_b) if hbars else []


def weyl_count(pot: Potential, a1: float, a2: float, hbar,
               cert: Optional[WellCertificate] = None):
    """Predicted level count pi^-1 (Phi(a2)-Phi(a1))/hbar over (a1, a2), Phi
    the smooth-kind G of quantization_condition (so a full-line well only),
    against the number of quantization points pi(n+1/2) hbar in
    (Phi(a1), Phi(a2)).  cert, if given, stands for certifying the well
    over [a1, a2].

    hbar is a float, which gives one CountResult, or a sequence of floats,
    which gives a list of them in its order; Phi does not depend on hbar,
    so one pair of integrals Phi(a1), Phi(a2) serves every hbar.
    """
    _certificate(pot, a1, a2, cert)  # raises off a single well
    phi1, phi2 = quantization_condition(pot, np.array([a1, a2]), "smooth", 1.0).g  # no hbar in Phi

    def count(h: float) -> CountResult:
        predicted = float((phi2 - phi1) / (math.pi * h))
        n = len(_quantum_numbers(phi1, phi2, "smooth", h)[0])
        return CountResult(predicted=predicted, count=n, epsilon=float(n - predicted),
                           phase_volume=float(2.0 * (phi2 - phi1)))

    return count(hbar) if np.ndim(hbar) == 0 else [count(h) for h in hbar]


# ---------------------------------------------------------------------------
# discontinuous wells


def _jump_factor(pot: Potential, x0: float, lam):
    """p = ((lam - v(x0-0)) / (lam - v(x0+0)))^(1/4) and (ln p)'(lam)."""
    gap_m = lam - pot.value(x0, left=True)
    gap_p = lam - pot.value(x0)
    below = np.atleast_1d((gap_m <= 0.0) | (gap_p <= 0.0))
    if below.any():
        bad = np.ravel(lam)[np.argmax(below)]
        raise QuantizeError(f"lam={bad} does not exceed both one-sided limits of v at {x0}")
    return (gap_m / gap_p) ** 0.25, 0.25 * (1.0 / gap_m - 1.0 / gap_p)


def jump_action(pot: Potential, lam, hbar, x0: float,
                tol: float = TOL_QUAD) -> Condition:
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

    The record is matched at x0.  lam and hbar may be arrays; they
    broadcast in G, G' and a^2, and the turning points and well integrals
    are taken once per entry of lam.  A float lam is computed as an array of
    one, so that it takes the same numpy kernels as an entry of an array.
    """
    return _jump_condition(pot, lam, hbar, x0, tol, None)


def _jump_condition(pot: Potential, lam, hbar, x0: float, tol: float, tp) -> Condition:
    """jump_action's record; tp, when not None, holds the turning points of lams."""
    shape = np.shape(lam)
    lams = np.asarray(lam, dtype=float).reshape(shape or (1,))
    p, dlnp = _jump_factor(pot, x0, lams)
    tp = turning_points(pot, lams) if tp is None else tp
    (phi_plus, i_plus), _ = well_integral(pot, lams, x0, tp.x_plus, False, True, tol)
    (phi_minus, i_minus), _ = well_integral(pot, lams, tp.x_minus, x0, True, False, tol)
    th_m = phi_minus / hbar + 0.25 * math.pi
    c, s = np.cos(th_m), np.sin(th_m)
    p2 = p * p
    a2 = p2 * c * c + s * s / p2
    delta = np.arctan((1.0 - p2) * s * c / (p2 * c * c + s * s))
    g = phi_plus + phi_minus + hbar * delta
    g_prime = 0.5 * (i_plus + i_minus / a2) - hbar * np.sin(2.0 * th_m) * dlnp / a2

    def cast(out_shape, *vs):  # each v has out_shape, or (1,) where a float is due
        return [v if out_shape else float(v[0]) for v in vs]

    f = cast(np.broadcast_shapes(shape, np.shape(hbar)), g, g_prime, a2)
    f += cast(shape, i_plus, i_minus, tp.x_minus, tp.x_plus, tp.slope_minus, tp.slope_plus,
              np.full(lams.shape, x0))
    return Condition(*f[:5], TurningPoints(*f[5:9]), f[9])
