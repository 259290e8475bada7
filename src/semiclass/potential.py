"""Potentials for -hbar^2 d^2/dx^2 + v(x): definition, evaluation, certification.

A Potential is an ordered set of smooth branches partitioning the domain,
plus the markers it derives for the piece boundaries where v, v' or v''
jumps.  All operations here are pure, and Potential instances are
immutable.
Potential.value, deriv and deriv2 are the one evaluator of v, v' and v'':
each takes a point (and returns a float) or an array, and left selects the
limit from the left at a piece boundary.  Each branch owns its one-sided
limits: deriv(x, sgn) and deriv2(x, sgn) take the limit from the side sgn
(-1 from below) where a branch is not smooth, so every evaluation of v',
v'' goes through the branch methods.  On the half line [0, inf) the wall
x = 0 is the left end of the well, so one turning-point solver and one
certificate serve both domains.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "PolyBranch",
    "PowerBranch",
    "ExpQuadBranch",
    "Piece",
    "SingularPoint",
    "Potential",
    "TurningPoints",
    "WellCertificate",
    "PotentialError",
    "CertificationError",
    "TurningPointError",
    "make_power_law",
    "halfline_power_law",
    "make_polynomial",
    "turning_points",
    "certify_well",
    "potential_from_spec",
    "TOL_X",
]

TOL_X = 1e-12  # absolute tolerance for turning-point location


class PotentialError(ValueError):
    """Invalid potential construction or evaluation request."""


class TurningPointError(RuntimeError):
    """Turning-point search failed (wrong crossing count or critical point)."""


class CertificationError(RuntimeError):
    """Single-well certification failed; .clause names the violated condition."""

    def __init__(self, clause: str, message: str):
        super().__init__(f"{clause}: {message}")
        self.clause = clause


# ---------------------------------------------------------------------------
# polynomials in ascending coefficients, each operation in the order of
# numpy.polynomial.polynomial's, so bit for bit its result


def _polyval(x, c):
    """sum_k c[k] x^k by Horner's rule, as polyval: c[-1] + x * 0, then
    c[-i] + acc * x for each lower coefficient."""
    c = np.array(c, dtype=float, ndmin=1)
    if isinstance(x, (tuple, list)):
        x = np.asarray(x)
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc


def _polyder(c, m: int = 1):
    """The coefficients of the m-th derivative, as polyder: m passes of
    c[j] -> j c[j], and one 0 (c[0] * 0) when m is at least len(c)."""
    c = np.array(c, dtype=float, ndmin=1)
    if m >= len(c):
        return c[:1] * 0
    for _ in range(m):
        c = np.arange(1, len(c)) * c[1:]
    return c


def _companion(c):
    """The companion matrix of the coefficients c (degree at least 2, c[-1]
    nonzero), as polycompanion: ones below the diagonal, and the last
    column 0 - c[:-1] / c[-1]."""
    n = len(c) - 1
    mat = np.zeros((n, n))
    mat.reshape(-1)[n::n + 1] = 1
    mat[:, -1] -= c[:-1] / c[-1]
    return mat


def _polyroots(c):
    """The roots of the trimmed float coefficients c (degree at least 1),
    as polyroots: the eigenvalues of the companion matrix, sorted."""
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    r = np.linalg.eigvals(_companion(c))
    r.sort()
    return r


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True)
class PolyBranch:
    """Polynomial branch, coefficients in ascending order."""

    coeffs: tuple[float, ...]

    def value(self, x, sgn=1.0):
        return _polyval(x, self.coeffs)

    def deriv(self, x, sgn=1.0):
        c = _polyder(self.coeffs)
        return _polyval(x, c) if len(c) else np.zeros_like(np.asarray(x, float))

    def deriv2(self, x, sgn=1.0):
        c = _polyder(self.coeffs, 2)
        return _polyval(x, c) if len(c) else np.zeros_like(np.asarray(x, float))


@dataclass(frozen=True)
class PowerBranch:
    """offset + coeff * |x|^exponent (one side of a power-law well); at its
    center x = 0, deriv and deriv2 give the exact limits from the side sgn."""

    offset: float
    coeff: float
    exponent: float

    def value(self, x, sgn=1.0):
        x = np.asarray(x, dtype=float)
        return self.offset + self.coeff * np.abs(x) ** self.exponent

    def deriv(self, x, sgn=1.0):
        x = np.asarray(x, dtype=float)
        a, c = self.exponent, self.coeff
        with np.errstate(divide="ignore", invalid="ignore"):
            out = c * a * np.abs(x) ** (a - 1.0) * np.sign(x)
            center = 0.0 if a > 1.0 else sgn * c * (1.0 if a == 1.0 else math.inf)
        return np.where(x == 0.0, center, out)

    def deriv2(self, x, sgn=1.0):
        x = np.asarray(x, dtype=float)
        a = self.exponent
        with np.errstate(divide="ignore", invalid="ignore"):
            # at x = 0 this is the limit: 0 above a = 2, 2 coeff at a = 2 (0^0 = 1), +-inf below
            out = self.coeff * a * (a - 1.0) * np.abs(x) ** (a - 2.0)
        return np.zeros_like(out) if a == 1.0 else out  # where x = 0 would take 0 * inf


@dataclass(frozen=True)
class ExpQuadBranch:
    """offset + amplitude * exp(c2 x^2 + c1 x + c0)."""

    offset: float
    amplitude: float
    c2: float
    c1: float
    c0: float

    def _expq(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(self.c2 * x * x + self.c1 * x + self.c0)

    def value(self, x, sgn=1.0):
        return self.offset + self._expq(x)

    def deriv(self, x, sgn=1.0):
        x = np.asarray(x, dtype=float)
        return (2.0 * self.c2 * x + self.c1) * self._expq(x)

    def deriv2(self, x, sgn=1.0):
        x = np.asarray(x, dtype=float)
        g = 2.0 * self.c2 * x + self.c1
        return (g * g + 2.0 * self.c2) * self._expq(x)


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    branch: PolyBranch | PowerBranch | ExpQuadBranch


@dataclass(frozen=True)
class SingularPoint:
    """Interior point where the potential loses smoothness.

    kind: "jump" (v itself jumps), "kink" (v continuous, v' jumps),
    "curvature" (v, v' continuous, v'' jumps or is unbounded).
    """

    x: float
    kind: str


@dataclass(frozen=True)
class Potential:
    """The pieces partition the domain in order; the singular points are
    derived from them, one per piece boundary where the two branches do
    not agree to second order (_classify_boundary)."""

    pieces: tuple[Piece, ...]
    domain: str = "full_line"  # or "half_line", meaning [0, inf)
    singular_points: tuple[SingularPoint, ...] = field(init=False)

    def __post_init__(self):
        if self.domain not in ("full_line", "half_line"):
            raise PotentialError(f"unknown domain {self.domain!r}")
        if not self.pieces:
            raise PotentialError("potential needs at least one piece")
        lo0 = self.pieces[0].lo
        hi_last = self.pieces[-1].hi
        if self.domain == "full_line" and lo0 != -math.inf:
            raise PotentialError("full-line potential must start at -inf")
        if self.domain == "half_line" and lo0 != 0.0:
            raise PotentialError("half-line potential must start at 0")
        if hi_last != math.inf:
            raise PotentialError("potential must extend to +inf")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.hi != b.lo:
                raise PotentialError("pieces must partition the domain without gaps")
        marks = (_classify_boundary(a.branch, b.branch, a.hi) for a, b in zip(self.pieces, self.pieces[1:]))
        object.__setattr__(self, "singular_points", tuple(m for m in marks if m is not None))

    def _boundaries(self) -> tuple[float, ...]:
        return tuple(p.hi for p in self.pieces[:-1])

    def _evaluate(self, fn_name: str, x, left=None):
        """One branch method at x: a float for a point, an array for an array.

        An x on a piece boundary takes the piece to its right and its limit
        from the right, or the piece to its left and its limit from the
        left where left is true (left broadcasts against x).  A point is
        evaluated as a 0-d value on the branch it selects: on some numpy
        builds a power of a 0-d value and the same power of an array of one
        differ in the last bit.  x < 0 on a half-line well raises.
        """
        x = np.asarray(x, dtype=float)
        if self.domain == "half_line" and np.any(x < 0.0):
            raise PotentialError(f"x={np.min(x)} outside half-line domain")
        bounds = self._boundaries()
        if x.ndim == 0:
            b = self.pieces[np.searchsorted(bounds, x, "left" if left else "right")].branch
            return float(getattr(b, fn_name)(x, -1.0 if left else 1.0))
        out = np.empty_like(x)
        idx = np.searchsorted(bounds, x, side="right")
        sides = ()  # no side array on the path without left, the quadrature's integrand
        if left is not None:
            left = np.broadcast_to(left, x.shape)
            idx = np.where(left, np.searchsorted(bounds, x, side="left"), idx)
            sides = (np.where(left, -1.0, 1.0),)
        for i, piece in enumerate(self.pieces):
            m = idx == i
            if m.any():
                out[m] = getattr(piece.branch, fn_name)(x[m], *(s[m] for s in sides))
        return out

    def value(self, x, left=None):
        return self._evaluate("value", x, left)

    def deriv(self, x, left=None):
        return self._evaluate("deriv", x, left)

    def deriv2(self, x, left=None):
        return self._evaluate("deriv2", x, left)


# ---------------------------------------------------------------------------
# constructors


def _classify_boundary(left, right, x: float) -> Optional[SingularPoint]:
    (vl, dl, d2l), (vr, dr, d2r) = (
        (float(b.value(x)), float(b.deriv(x, sgn)), float(b.deriv2(x, sgn)))
        for b, sgn in ((left, -1.0), (right, 1.0)))
    if abs(vl - vr) > 1e-14 * (1.0 + abs(vl) + abs(vr)):
        return SingularPoint(x, "jump")
    if not np.isfinite(dl) or not np.isfinite(dr) or abs(dl - dr) > 1e-12 * (1.0 + abs(dl) + abs(dr)):
        return SingularPoint(x, "kink")
    if not np.isfinite(d2l) or not np.isfinite(d2r) or abs(d2l - d2r) > 1e-12 * (1.0 + abs(d2l) + abs(d2r)):
        return SingularPoint(x, "curvature")
    return None


def make_power_law(a_plus: float, v_plus: float, alpha_plus: float,
                   a_minus: float, v_minus: float, alpha_minus: float) -> Potential:
    """Two-branch power-law well a_+- + v_+- |x|^alpha_+- glued at x=0.

    x=0 is singular unless the branches agree there to second order, as
    for any Potential.
    """
    if v_plus <= 0 or v_minus <= 0:
        raise PotentialError("v_plus and v_minus must be positive")
    if alpha_plus <= 0 or alpha_minus <= 0:
        raise PotentialError("alpha_plus and alpha_minus must be positive")
    left = PowerBranch(a_minus, v_minus, alpha_minus)
    right = PowerBranch(a_plus, v_plus, alpha_plus)
    return Potential(pieces=(Piece(-math.inf, 0.0, left), Piece(0.0, math.inf, right)))


def halfline_power_law(a: float, v: float, alpha: float) -> Potential:
    """Power-law potential a + v x^alpha on the half line [0, inf)."""
    if v <= 0 or alpha <= 0:
        raise PotentialError("v and alpha must be positive")
    return Potential(
        pieces=(Piece(0.0, math.inf, PowerBranch(a, v, alpha)),),
        domain="half_line",
    )


def make_polynomial(coeffs, domain: str = "full_line") -> Potential:
    """Single polynomial branch over the whole domain."""
    lo = -math.inf if domain == "full_line" else 0.0
    return Potential(
        pieces=(Piece(lo, math.inf, PolyBranch(tuple(float(c) for c in coeffs))),),
        domain=domain,
    )


# ---------------------------------------------------------------------------
# turning points and certification


@dataclass(frozen=True)
class TurningPoints:
    """The two ends x_- < x_+ of the well and the slopes v' there: floats for
    one energy, arrays of its shape for an array of energies.  On the half
    line x_- is the wall x = 0, with slope_minus = -inf."""

    x_minus: float
    x_plus: float
    slope_minus: float
    slope_plus: float

    def __post_init__(self):
        if not np.all(self.x_minus < self.x_plus):
            raise TurningPointError("turning points out of order")
        if not np.all((self.slope_minus < 0.0) & (0.0 < self.slope_plus)):
            raise TurningPointError(
                f"critical turning point: v'(x-)={self.slope_minus}, v'(x+)={self.slope_plus}"
            )

    @property
    def width(self) -> float:
        return self.x_plus - self.x_minus


# Level sets v(x) = lam are solved branch by branch in closed form, for a
# whole array of energies at once.  The candidates (every branch root inside
# its piece, and every piece boundary) cut the domain into gaps on which
# v - lam has no zero, so one evaluation per gap gives its sign and the
# crossings are exactly the sign changes.

_GROWTH_MARGIN = 10.0  # truncation bounds sit where v reaches lam_hi + this


def _real_roots(coeffs, c0: np.ndarray) -> np.ndarray:
    """Real parts of all roots of the polynomial with ascending coefficients
    coeffs, its constant term replaced by each entry of c0: one row per entry.

    The roots are the eigenvalues of the rotated companion matrix, as
    _polyroots takes them, one matrix per row.
    Complex pairs contribute their real part as well: a spare candidate
    costs one sign evaluation, and it keeps a near-double real root from
    going missing when rounding turns it into a complex pair.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    deg = len(c) - 1
    if deg < 1:
        return np.empty((c0.size, 0))
    if deg == 1:
        return (-c0 / c[1])[:, None]
    base = _companion(np.r_[0.0, c[1:]])[::-1, ::-1]
    mats = np.repeat(base[None], c0.size, axis=0)
    mats[:, -1, 0] = -c0 / c[-1]
    return np.linalg.eigvals(mats).real


def _branch_roots(branch, lam: np.ndarray) -> np.ndarray:
    """Solutions of branch(x) = lam on the whole real line, in closed form:
    one row per energy, nan where a root does not exist."""
    if isinstance(branch, PowerBranch):
        if branch.coeff == 0.0:
            return np.empty((lam.size, 0))
        mu = (lam - branch.offset) / branch.coeff
        with np.errstate(invalid="ignore"):
            r = np.where(mu >= 0.0, mu ** (1.0 / branch.exponent), np.nan)
        return np.column_stack((-r, r))
    if isinstance(branch, ExpQuadBranch):
        if branch.amplitude == 0.0:
            return np.empty((lam.size, 0))
        ratio = (lam - branch.offset) / branch.amplitude
        ok = (0.0 < ratio) & (ratio < math.inf)
        roots = _real_roots((0.0, branch.c1, branch.c2),
                            branch.c0 - np.log(np.where(ok, ratio, 1.0)))
        roots[~ok] = np.nan
        return roots
    c = list(branch.coeffs) or [0.0]
    return _real_roots(c, c[0] - lam)


def _gap_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A point strictly inside each gap (a, b) of the rows of edges a[:, k],
    b[:, k] = a[:, k + 1]; only a[:, 0] may be -inf and only b may be +inf.
    A gap (-inf, inf) samples x = 0."""
    a = a.copy()
    a[:, 0] = np.where(a[:, 0] == -math.inf, b[:, 0] - 2.0 * np.maximum(1.0, np.abs(b[:, 0])), a[:, 0])
    with np.errstate(invalid="ignore"):
        b = np.where(b == math.inf, a + 2.0 * np.maximum(1.0, np.abs(a)), b)
        s = 0.5 * (a + b)
    return np.where(np.isnan(s), 0.0, s)


def _polish(branch, lam, x, lo, hi, sgn) -> tuple[np.ndarray, np.ndarray]:
    """Newton-polish roots of branch(x) = lam without leaving [lo, hi].

    Returns the roots and the slopes there, taken from the side sgn (-1
    from below) where a root is a branch's non-smooth point.
    """
    live = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            d = branch.deriv(x)
            nxt = x - (branch.value(x) - lam) / d
            live &= (d != 0.0) & np.isfinite(d) & (lo <= nxt) & (nxt <= hi)
            x = np.where(live, nxt, x)
    return x, np.asarray(branch.deriv(x, sgn), dtype=float)


def _crossing_at(pot: Potential, lam, edges, s, f, i, bounds) -> tuple[np.ndarray, np.ndarray]:
    """The crossing at candidate edges[:, i + 1] between the gaps i and i + 1
    of each row (the rows of lam): (x, slope), slope = v'(x) on the branch
    that carries the root, or nan where v jumps across lam at a piece
    boundary."""
    rows = np.arange(len(lam))
    c, sa, sb, fa, fb = edges[rows, i + 1], s[rows, i], s[rows, i + 1], f[rows, i], f[rows, i + 1]
    left = np.searchsorted(bounds, sa, side="right")
    right = np.searchsorted(bounds, sb, side="right")
    with np.errstate(all="ignore"):  # a branch evaluated beyond its piece is never selected
        f_c = np.array([p.branch.value(c) for p in pot.pieces]) - lam
    f_left, f_right = f_c[left, rows], f_c[right, rows]
    # c is the one candidate in (sa, sb): the root sits at c, on the branch
    # whose value at c still differs in sign from its gap sample
    on_left = (f_left == 0.0) | ((f_left > 0.0) != (fa > 0.0))
    on_right = ~on_left & ((f_right == 0.0) | ((f_right > 0.0) != (fb > 0.0)))
    idx = np.where(on_left, left, np.where(on_right, right, -1))
    x, slope = c.copy(), np.full(c.shape, math.nan)  # idx -1: v jumps across lam at c
    lo, hi, sgn = np.where(on_left, sa, c), np.where(on_left, c, sb), np.where(on_left, -1.0, 1.0)
    for k, piece in enumerate(pot.pieces):
        on = idx == k
        if on.any():
            x[on], slope[on] = _polish(piece.branch, lam[on], c[on], lo[on], hi[on], sgn[on])
    return x, slope


def _crossings(pot: Potential, lam: np.ndarray):
    """Points where v - lam changes sign, for each entry of the 1-d array lam.

    Returns (count, first, last, (f_first, f_last)): count is the number of
    crossings per energy, first and last are (x, slope) arrays of the first
    and the last crossing from the left (meaningless where count is 0), with
    slope = v'(x) on the branch that carries the root, or nan where v jumps
    across lam at a piece boundary; f_first and f_last are v - lam in the
    first and last gap, so their signs hold out to the ends of the domain.
    """
    pieces = pot.pieces
    bounds = pot._boundaries()
    m = lam.size
    cols = [np.tile(np.array(bounds), (m, 1))]
    for p in pieces:
        r = _branch_roots(p.branch, lam)
        with np.errstate(invalid="ignore"):
            cols.append(np.where((p.lo < r) & (r < p.hi), r, math.inf))
    cands = np.sort(np.concatenate(cols, axis=1), axis=1)
    cands[:, 1:][cands[:, 1:] == cands[:, :-1]] = math.inf  # a repeated candidate counts once
    cands.sort(axis=1)
    edges = np.column_stack((np.full(m, pieces[0].lo), cands, np.full(m, math.inf)))
    a, b = edges[:, :-1], edges[:, 1:]
    valid = a < math.inf  # gaps (inf, inf) only pad the rows
    s = _gap_points(a, b)
    f = np.where(valid, pot.value(np.where(valid, s, s[:, :1])) - lam[:, None], math.nan)
    hit = valid & (f == 0.0)
    if hit.any():
        k, g = np.argwhere(hit)[0]
        raise TurningPointError(
            f"v = lam={lam[k]} at x={s[k, g]}, away from any isolated crossing")

    change = valid[:, 1:] & ((f[:, :-1] > 0.0) != (f[:, 1:] > 0.0))
    count = change.sum(axis=1)
    i_first = np.argmax(change, axis=1)
    i_last = change.shape[1] - 1 - np.argmax(change[:, ::-1], axis=1)
    ends = (f[:, 0], f[np.arange(m), valid.sum(axis=1) - 1])
    some = np.flatnonzero(count > 0)
    both = np.full((4, m), math.nan)  # x and slope of the first, then the last crossing
    if some.size:
        # the first and the last crossing of each row, solved as one stack of rows
        pick = np.concatenate((some, some))
        x, slope = _crossing_at(pot, lam[pick], edges[pick], s[pick], f[pick],
                                np.concatenate((i_first[some], i_last[some])), bounds)
        k = some.size
        both[:, some] = x[:k], x[k:], slope[:k], slope[k:]
    return count, (both[0], both[2]), (both[1], both[3]), ends


def _energies(lam) -> np.ndarray:
    return np.asarray(lam, dtype=float).reshape(-1)


def turning_points(pot: Potential, lam) -> TurningPoints:
    """Locate the ends of the well {v < lam} and the slopes there.

    Each branch solves v = lam in closed form; the sign of v - lam between
    neighbouring roots and piece boundaries counts the crossings exactly,
    and each root is Newton-polished on its own branch.  A half-line well
    has v(0) < lam and one crossing, x_+.  lam may be an array: every
    energy is solved at once and the fields are arrays of its shape, each
    entry the one a call with that energy alone returns.
    """
    lams = _energies(lam)
    halfline = pot.domain == "half_line"
    if halfline:
        v0 = pot.value(0.0)
        if not np.all(v0 < lams):
            raise TurningPointError(f"v(0)={v0} is not below lam={lams[np.argmin(v0 < lams)]}")
    count, first, (x_plus, slope_plus), _ = _crossings(pot, lams)
    need = 1 if halfline else 2
    bad = count != need
    if np.any(bad):
        k = int(np.argmax(bad))
        raise TurningPointError(
            f"expected exactly {need} crossing{'s' * (need > 1)} of v(x)={lams[k]}, found {count[k]}"
        )
    x_minus, slope_minus = (np.zeros_like(lams), np.full_like(lams, -math.inf)) if halfline else first
    for x, slope in ((x_minus, slope_minus), (x_plus, slope_plus)):
        jump = np.isnan(slope)
        if np.any(jump):
            k = int(np.argmax(jump))
            raise TurningPointError(f"v jumps across lam={lams[k]} at x={x[k]}")
    fields = (x_minus, x_plus, slope_minus, slope_plus)
    if np.ndim(lam) == 0:
        return TurningPoints(*(float(v[0]) for v in fields))
    return TurningPoints(*(v.reshape(np.shape(lam)) for v in fields))


@dataclass(frozen=True)
class WellCertificate:
    """Single-well geometry verified for every lam in lambda_window.

    The crossing count of v = lam is exact (closed-form roots per branch)
    and can change only at a critical value of v: a branch critical point,
    a one-sided limit at a piece boundary, v(0) on the half line, or an
    asymptote.  certify_well checks the window edges, every critical value
    inside the window and one energy between each pair of neighbouring
    ones, so for every lam in the window: turning_points succeeds (on the
    half line its x_- is the wall), so neither crossing is at a jump of v
    and v'(x-) < 0 < v'(x+); no critical point of v at level lam strictly
    inside the well; x_pm monotone in lam; no singular point entering the
    well; and v above lam_hi + 10 beyond x_bounds.  The only inexactness
    left is the rounding of the closed-form roots.
    """

    potential: Potential
    lambda_window: tuple[float, float]
    interior_singularities: tuple[SingularPoint, ...]
    criticality_margin: float
    x_bounds: tuple[float, float]

    @property
    def interior_jump(self) -> Optional[float]:
        """x of the jump of v inside the well, or None for a well without one."""
        return next((s.x for s in self.interior_singularities if s.kind == "jump"), None)


def _critical_points(pot: Potential) -> list[tuple[float, float]]:
    """(x, v) wherever the crossing count of v = lam can change.

    These are the critical points of each branch inside its piece (x = 0
    for a power branch, the vertex of an exp-quadratic, the real roots of a
    polynomial's derivative), both one-sided limits at each piece boundary
    and v(0) on the half line.  Energies that mark no point of the well get
    x = nan: the asymptote of an exp-quadratic branch, and v at the real
    part of each complex root of a polynomial's derivative (a spare check
    energy in case rounding turned a near-double real root complex).
    """
    out = []
    for p in pot.pieces:
        b = p.branch
        if isinstance(b, PowerBranch):
            xs = [(0.0, True)]
        elif isinstance(b, ExpQuadBranch):
            xs = [(-b.c1 / (2.0 * b.c2), True)] if b.c2 != 0.0 else []
            out.append((math.nan, b.offset))
        else:
            d = np.trim_zeros(_polyder(b.coeffs or (0.0,)), "b")
            roots = _polyroots(d) if len(d) > 1 else ()
            xs = [(float(r.real), r.imag == 0.0) for r in roots]
        out.extend((x if real else math.nan, float(b.value(x)))
                   for x, real in xs if p.lo < x < p.hi)
    for b in pot._boundaries():
        out += [(b, pot.value(b, left=True)), (b, pot.value(b))]
    if pot.domain == "half_line":
        out.append((0.0, pot.value(0.0)))
    return out


def _check_energies(crit, lam_lo: float, lam_hi: float) -> list[float]:
    """The window edges, each critical value inside the window and one
    energy between neighbours, ascending; between neighbouring critical
    values the crossing count is constant, so these stand for the window."""
    if lam_lo == lam_hi:
        return [lam_lo]
    edges = [lam_lo, *sorted({v for _, v in crit if lam_lo < v < lam_hi}), lam_hi]
    out = [lam_lo]
    for a, b in zip(edges, edges[1:]):
        out += [0.5 * (a + b), b]
    return out


def _no_critical_inside(crit, lam: float, lo: float, hi: float) -> None:
    for x, v in crit:
        if v == lam and lo < x < hi:
            raise CertificationError(
                "criticality", f"v has a critical point at x={x} with value lam={lam} inside the well"
            )


def _truncation_bounds(pot: Potential, lam_hi: float) -> tuple[float, float]:
    """Outermost solutions of v = lam_hi + margin; v stays above that level
    beyond them (the 'infinity' proxy)."""
    target = lam_hi + _GROWTH_MARGIN
    try:
        count, (x_first, _), (x_last, _), (f_first, f_last) = _crossings(pot, np.array([target]))
    except TurningPointError as exc:
        raise CertificationError("growth", str(exc)) from exc
    if not f_last[0] > 0.0 or (pot.domain == "full_line" and not f_first[0] > 0.0):
        raise CertificationError("growth", f"v does not stay above {target} toward infinity")
    if not count[0]:
        raise CertificationError("well-geometry", f"v > {target} everywhere: no well")
    lo = 0.0 if pot.domain == "half_line" else float(x_first[0])
    return lo, float(x_last[0])


def certify_well(pot: Potential, lam_lo: float, lam_hi: float) -> WellCertificate:
    """Check the single-well assumptions for every lam in [lam_lo, lam_hi].

    See WellCertificate for what is checked and why the check energies
    cover the whole window; lam_lo == lam_hi certifies a single energy.
    """
    if not lam_lo <= lam_hi:
        raise CertificationError("window", f"need lam_lo <= lam_hi, got ({lam_lo}, {lam_hi})")
    x_bounds = _truncation_bounds(pot, lam_hi)
    crit = _critical_points(pot)
    tps = []
    for lam in _check_energies(crit, lam_lo, lam_hi):
        try:
            tp = turning_points(pot, lam)
        except TurningPointError as exc:
            raise CertificationError("well-geometry", f"lam={lam}: {exc}") from exc
        _no_critical_inside(crit, lam, tp.x_minus, tp.x_plus)
        tps.append(tp)
    for a, b in zip(tps, tps[1:]):
        if not (b.x_plus >= a.x_plus - TOL_X and b.x_minus <= a.x_minus + TOL_X):
            raise CertificationError("monotonicity", "x_pm(lam) not monotone across the window")
    margin = min(min(-tp.slope_minus, tp.slope_plus) for tp in tps)

    tp_lo, tp_hi = tps[0], tps[-1]
    interior = tuple(
        s for s in pot.singular_points if tp_lo.x_minus < s.x < tp_lo.x_plus
    )
    crossing = [
        s for s in pot.singular_points
        if s not in interior and tp_hi.x_minus < s.x < tp_hi.x_plus
    ]
    if crossing:
        raise CertificationError(
            "singularity", f"singular point at {crossing[0].x} enters the well inside the window"
        )
    return WellCertificate(
        potential=pot,
        lambda_window=(lam_lo, lam_hi),
        interior_singularities=interior,
        criticality_margin=float(margin),
        x_bounds=x_bounds,
    )


# ---------------------------------------------------------------------------
# JSON ingestion


def _real(v, what: str) -> float:
    """v as a float when it is a finite JSON number (a bool is not one)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise PotentialError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _field(d: dict, key: str, default: Optional[float] = None) -> float:
    """The number d[key], or default when the key is absent and default is given."""
    if key not in d and default is None:
        raise PotentialError(f"missing key {key!r}")
    return _real(d.get(key, default), repr(key))


def _coeffs(d: dict) -> tuple[float, ...]:
    if not isinstance(d.get("coeffs"), list):
        raise PotentialError(f"'coeffs' must be a list of numbers, got {d.get('coeffs')!r}")
    return tuple(_real(c, "a 'coeffs' entry") for c in d["coeffs"])


_BRANCH_BUILDERS = {
    "poly": lambda d: PolyBranch(_coeffs(d)),
    "power": lambda d: PowerBranch(_field(d, "offset", 0.0), _field(d, "coeff"), _field(d, "exponent")),
    "exp-quadratic": lambda d: ExpQuadBranch(
        _field(d, "offset", 0.0), _field(d, "amplitude"),
        _field(d, "c2", 0.0), _field(d, "c1", 0.0), _field(d, "c0", 0.0),
    ),
}


def _parse_bound(v) -> float:
    if isinstance(v, str):
        if v in ("inf", "+inf"):
            return math.inf
        if v == "-inf":
            return -math.inf
        raise PotentialError(f"bad interval bound {v!r}")
    return _real(v, "an interval bound")


def potential_from_spec(spec: dict) -> Potential:
    """Build a Potential from its JSON document form.

    Three kinds are accepted: {"kind": "power_law", "a_plus": ..., ...},
    {"kind": "halfline_power_law", "a": ..., "v": ..., "alpha": ...} and
    {"kind": "table", "branches": [{"lo", "hi", "type", ...}, ...]}.  Values
    must be JSON numbers; keys a kind does not use are ignored.
    """
    if not isinstance(spec, dict):
        raise PotentialError(f"a potential spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "power_law":
        return make_power_law(*(_field(spec, k) for k in (
            "a_plus", "v_plus", "alpha_plus", "a_minus", "v_minus", "alpha_minus")))
    if kind == "halfline_power_law":
        return halfline_power_law(_field(spec, "a", 0.0), _field(spec, "v"), _field(spec, "alpha"))
    if kind != "table":
        raise PotentialError(f"unknown potential kind {kind!r}")
    branches = spec.get("branches")
    if not isinstance(branches, list) or not all(isinstance(b, dict) for b in branches):
        raise PotentialError("'branches' must be a list of objects")
    pieces = []
    for b in branches:
        btype = b.get("type")
        if not isinstance(btype, str) or btype not in _BRANCH_BUILDERS:
            raise PotentialError(f"unknown branch type {btype!r}")
        pieces.append(Piece(_parse_bound(b.get("lo")), _parse_bound(b.get("hi")),
                            _BRANCH_BUILDERS[btype](b)))
    pieces.sort(key=lambda p: p.lo)
    return Potential(pieces=tuple(pieces), domain=spec.get("domain", "full_line"))
