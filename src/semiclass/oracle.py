"""Brute-force reference spectra by grid diagonalization.

Independent of every semiclassical module: the operator
-hbar^2 d^2/dx^2 + v is discretized with the 3-point Laplacian on a uniform
grid with Dirichlet truncation, and eigenvalues inside the requested window
are extracted by Sturm-sequence bisection (LAPACK dstebz; eigenvectors by
LAPACK's inverse iteration, dstein).  Both are called through scipy's
compiled LAPACK extension, loaded from its file so that the oracle does not
import the scipy.linalg package, whose import costs more than a count's
solves.
Grids are doubled until a Romberg table of each level's raw values on the
last three grids meets the requested tolerance.  The eigenvalue error of
the scheme expands in even powers of the spacing h, with an h^2
coefficient that grows with the level (like k^4 for the k-th level; Paine,
de Hoog & Anderssen, Computing 26 (1981) 123-139), so the second (h^4)
column is taken per level, and only where that level's raw differences
shrink by 4 per doubling; every other level keeps the first (h^2) column.
Eigenvectors (dstein on the grid one doubling finer than the last one
solved, built once per spectrum) are positive at the last node
where v < lam.  A Numerov shooting solver cross-checks the default scheme.

Each raw eigenvalue carries its index in the grid spectrum.  The k-th
lowest eigenvalue of a Jacobi matrix with negative off-diagonals is simple
and its eigenvector has k sign changes (Gantmacher & Krein, Oscillation
Matrices and Kernels), so levels are matched across grids by index, and
`OracleSpectrum.index` is the node count n of each window level.

Both grid solvers run one loop (`_refine`) on energy ranges of a width w,
at first four times the leading raw shift on the first grid, which doubles
on the first grid alone while some range holds no level.  With three
doubled grids solved, w widens to max(need, 2 w), need = 4 max |e0 - e2|
over the levels matched on all three, while need > w or some range holds
no matched level, until 2 w spans the well's depth; otherwise the caller's
stop rule ends the loop or the grid doubles.  `solve_spectrum` solves the
window padded by w; `count_levels`, which needs only the levels that could
cross a window edge, one band (c - 2 w, c + 2 w] per edge c, counting the
levels below a band by its first index.  The count first bisects its bands
coarsely, to about w / 1000, on three grids, and an edge is decided where
each level near it lies farther from it than twice an error bar; an edge
left in doubt runs the loop again at LAPACK's tolerance on its own band,
under the stop rule of `solve_spectrum`.  All solvers share one setup
(`_domain`): argument checks, truncation (the oracle's one turning-point
solve, at the window top), the spectrum-edge check and the first grid.

The half-line wall x = 0 is one argument, `robin_b`: None is the Dirichlet
wall psi(0) = 0, a number b the Robin wall psi'(0) = b psi(0); a full-line
well takes no robin_b.  An `OracleSpectrum` keeps the request (`_Domain`)
it was solved on.

Interior jump points of v are snapped onto grid nodes, where v takes the
mean of its one-sided limits; on the half line the boundary x = 0 stays a
node as well.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .potential import Potential, turning_points

__all__ = [
    "OracleSpectrum",
    "OracleError",
    "solve_spectrum",
    "count_levels",
    "eigenvector",
    "observable",
    "kinetic_energy",
    "numerov_levels",
]

DEFAULT_TOL = 1e-8
_MIN_TOL = 1e-10  # smallest tol_oracle the scheme resolves
_MAX_N = 2**22
_COARSE = 1e-3  # count_levels' first-pass bisection tolerance, as a share of start_width
_TAIL_DECADES = 20.0  # WKB tail exponent required beyond the window top
# raw differences between grids below this share of max(1, |lam|) are rounding
_ROUNDING = 1e3 * np.finfo(float).eps


class OracleError(RuntimeError):
    """Non-convergence or an invalid oracle request."""


# ---------------------------------------------------------------------------
# domain and grid construction


def _tail_bound(pot: Potential, lam: float, hbar: float, x_t: float, side: int) -> float:
    """Truncation point beyond x_t: v >= lam + 1 and WKB tail integral >= _TAIL_DECADES*hbar."""
    x = x_t + side * 0.25
    need = _TAIL_DECADES * hbar
    for _ in range(400):
        if pot.value(x) >= lam + 1.0:
            g = np.linspace(min(x_t, x), max(x_t, x), 257)
            s = float(np.trapezoid(np.sqrt(np.maximum(pot.value(g) - lam, 0.0)), g))
            if s >= need:
                return x
        x = x_t + (x - x_t) * 1.3
    raise OracleError("could not place the truncation bound")


def _grid(pot: Potential, x_lo: float, x_hi: float, n: int):
    """Uniform grid with any jump point snapped onto a node.

    On the full line the grid slides by up to one spacing so that the jump
    is a node.  On the half line x_lo is the boundary and stays a node: the
    spacing divides x0 - x_lo, and the right end moves by up to one spacing.
    The m intervals left of x0 are about n (x0 - x_lo) / (x_hi - x_lo),
    computed on the leading 12 bits of n and shifted back by the trailing
    zero bits dropped, so that doubling an n of 12 or more bits (n0 >= 2048
    in solve_spectrum) halves the spacing exactly.
    """
    jumps = [s.x for s in pot.singular_points if s.kind == "jump" and x_lo < s.x < x_hi]
    if jumps:
        x0 = jumps[0]
        if pot.domain == "half_line":
            p = min((n & -n).bit_length() - 1, max(n.bit_length() - 12, 0))
            m = max(math.ceil((n >> p) * (x0 - x_lo) / (x_hi - x_lo)), 1) << p
            h = (x0 - x_lo) / m
            k = int(math.ceil((x_hi - x0) / h))
            return np.concatenate((np.linspace(x_lo, x0, m + 1), x0 + h * np.arange(1, k + 1)))
        h = (x_hi - x_lo) / n
        m = int(math.ceil((x0 - x_lo) / h))
        k = int(math.ceil((x_hi - x0) / h))
        x_lo = x0 - m * h
        x_hi = x0 + k * h
        n = m + k
    return np.linspace(x_lo, x_hi, n + 1)


def _potential_on_grid(pot: Potential, x: np.ndarray) -> np.ndarray:
    v = pot.value(x)
    for s in pot.singular_points:
        hit = np.isclose(x, s.x, rtol=0.0, atol=1e-12 * max(1.0, abs(s.x)))
        v[hit] = 0.5 * (pot.value(s.x, left=True) + pot.value(s.x))
    return v


def _tridiag(pot: Potential, hbar: float, x: np.ndarray, robin_b: Optional[float] = None):
    """Symmetric tridiagonal (d, e) on the grid x.

    With robin_b None both end nodes are Dirichlet zeros and are dropped.
    With a Robin wall psi'(x[0]) = robin_b psi(x[0]) the x[0] node stays,
    with the ghost-point row symmetrized by the half-cell weight (the
    physical psi_0 is sqrt(2) times the eigenvector entry)."""
    h = x[1] - x[0]
    c = hbar * hbar / (h * h)
    v = _potential_on_grid(pot, x)
    if robin_b is None:
        return 2.0 * c + v[1:-1], np.full(len(x) - 3, -c)
    d = np.concatenate(([2.0 * c + 2.0 * hbar * hbar * robin_b / h + v[0]], 2.0 * c + v[1:-1]))
    e = np.full(len(x) - 2, -c)
    e[0] = -math.sqrt(2.0) * c
    return d, e


# LAPACK is reached through scipy's compiled wrappers (scipy/linalg/_flapack),
# loaded from their file on the first solve: `import scipy.linalg` runs the
# package __init__, which loads numpy.testing, numpy.f2py and numpy.ma and
# takes longer than a count's grid solves, and the file is found from the
# spec of the scipy package without running scipy/__init__ either.  The
# extension is registered in sys.modules under its own name, so a later
# `import scipy.linalg` reuses it, though it is not set as the attribute
# _flapack of scipy.linalg.  The oracle reaches LAPACK only through
# eigh_tridiagonal and _stein, which pass dstebz and dstein the arguments of
# scipy.linalg.eigh_tridiagonal(select="v", eigvals_only=True) and of its
# eigenvector step for one eigenvalue of a matrix that does not split, with
# its checks, so the results are scipy's to the bit.


def _flapack():
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        package = importlib.util.find_spec("scipy")
        spec = package and importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(path, "linalg") for path in package.submodule_search_locations or ()])
        if spec is None:
            raise ImportError(f"the oracle needs scipy's LAPACK extension {name}, which was not "
                              "found: is scipy installed?", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _finite(*arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, select_range: tuple[float, float],
                     tol: float = 0.0) -> np.ndarray:
    """Eigenvalues in (vl, vu] = select_range of the symmetric tridiagonal
    (d, e), ascending, by bisection to the absolute tolerance tol (0: to
    LAPACK's own)."""
    _finite(d, e)
    vl, vu = select_range
    if not vl < vu:
        raise ValueError(f"select_range ({vl}, {vu}) is not increasing")
    m, w, _, _, info = _flapack().dstebz(d, e, 1, vl, vu, 1, 1, float(tol), "E")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dstebz")
    if info > 0:
        raise np.linalg.LinAlgError(f"dstebz did not converge (LAPACK info={info})")
    return w[:m]


def _stein(d: np.ndarray, e: np.ndarray, lam: float):
    """(v, rho, resid): dstein's unit eigenvector v of the symmetric
    tridiagonal (d, e) at the eigenvalue lam, its Rayleigh quotient rho and
    its residual |(T - rho) v|.  Every e is nonzero (the oracle's are -c, or
    -sqrt(2) c on a Robin row), so T is one block: iblock all 1, isplit[0] = n.
    The sums are np.sum's, which no BLAS build or thread count changes."""
    _finite(d, e, lam)
    n = len(d)
    iblock, isplit = np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32)
    z, info = _flapack().dstein(d, e, [lam], iblock, isplit)
    if info != 0:
        raise OracleError(f"dstein failed at lam={lam} (LAPACK info={info})")
    v = z[:, 0]
    rho = float(np.sum(d * v * v) + 2.0 * np.sum(e * v[:-1] * v[1:]))
    r = d * v - rho * v
    r[:-1] += e * v[1:]
    r[1:] += e * v[:-1]
    return v, rho, math.sqrt(float(np.sum(r * r)))


def _count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal (d, e) at or below x: the
    Sturm count of *stebz, which it takes at the lower end of every range on
    (d, e), whatever the tolerance (Barth, Martin & Wilkinson, Numer. Math. 9
    (1967) 386-393).  The range starts below a Gershgorin bound, and its
    width as tolerance stops the bisection at once."""
    floor = float(np.min(d)) - 2.0 * float(np.max(np.abs(e)))
    floor -= 1.0 + abs(floor)  # room for rounding below the Gershgorin bound
    if x <= floor:
        return 0
    return len(eigh_tridiagonal(d, e, select_range=(floor, x), tol=x - floor))


def _matched(*raw):
    """(index, e0, e1, e2): the raw values of the levels present on all
    three grids, matched by their indices."""
    index = raw[0][1]
    for r in raw[1:]:
        index = np.intersect1d(index, r[1], assume_unique=True)
    return (index, *(r[0][np.isin(r[1], index)] for r in raw))


def _romberg(e0: np.ndarray, e1: np.ndarray, e2: np.ndarray):
    """(eigenvalues, error estimates, h^4 flags) from raw values on three
    successive doubled grids.

    R1a and R1b are the first Richardson column (h^2 removed) on the first
    and last two grids; R2 = R1b + (R1b - R1a)/15 is the second (h^4
    removed).  A level takes R2, with the estimate |R2 - R1b|, only where its
    raw differences shrink by 4 per doubling, (e0 - e1)/(e1 - e2) in
    [3.5, 4.5], with e1 - e2 above rounding.  Every other level keeps R1b,
    with the estimate |R1b - R1a|.
    """
    r1a = e1 + (e1 - e0) / 3.0
    r1b = e2 + (e2 - e1) / 3.0
    r2 = r1b + (r1b - r1a) / 15.0
    d = e1 - e2
    resolved = np.abs(d) > _ROUNDING * np.maximum(1.0, np.abs(e2))
    ratio = np.divide(e0 - e1, d, out=np.zeros_like(d), where=resolved)
    h4 = (ratio >= 3.5) & (ratio <= 4.5)
    return np.where(h4, r2, r1b), np.where(h4, np.abs(r2 - r1b), np.abs(r1b - r1a)), h4


@dataclass
class OracleSpectrum:
    """Converged reference eigenvalues in a window, with the checked request
    they were solved on, which builds grid, v on it, the finer grid's operator
    (_fine) and each level's eigenvector (_vectors) once, on demand."""

    domain: _Domain
    window: tuple[float, float]
    n_trail: tuple[int, ...]  # intervals of every grid solved, in order
    eigenvalues: np.ndarray  # Romberg-extrapolated, ascending
    index: np.ndarray  # per level: its index in the grid spectrum, its node count
    est_error: np.ndarray
    h4_column: np.ndarray  # per level: True where the h^4 column was taken
    _vectors: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        """Intervals of the last grid solved; eigenvectors use 2n."""
        return self.n_trail[-1]

    @functools.cached_property
    def grid(self) -> np.ndarray:
        return _read_only(self.domain.grid(self.n))

    @functools.cached_property
    def v(self) -> np.ndarray:
        """v on grid, read-only; a jump node takes the mean of its limits, as in the operator."""
        return _read_only(_potential_on_grid(self.domain.pot, self.grid))

    @functools.cached_property
    def _fine(self):
        """(xf, d, e, nodes), read-only: the grid of 2n intervals, its (d, e)
        and each grid node's index on xf (-1 beyond it)."""
        xf, d, e = self.domain.matrix(2 * self.n)
        i = np.rint((self.grid - xf[0]) / (xf[1] - xf[0])).astype(int)
        nodes = np.where((i >= 0) & (i < len(xf)), i, -1)
        return tuple(_read_only(a) for a in (xf, d, e, nodes))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Domain:
    """A checked oracle request: the well, hbar, the wall (robin_b, None
    for Dirichlet; always None on the full line), the truncated interval
    [x_lo, x_hi], the height of the window top above min v there, and the
    first grid's intervals n0."""

    pot: Potential
    hbar: float
    robin_b: Optional[float]
    x_lo: float
    x_hi: float
    depth: float
    n0: int

    @property
    def start_width(self) -> float:
        """Four times the leading raw shift h0^2 depth^2 / (12 hbar^2) of a
        level at the window top on the first grid, of spacing h0."""
        h0 = (self.x_hi - self.x_lo) / self.n0
        return (h0 * self.depth / self.hbar) ** 2 / 3.0

    def grid(self, n: int) -> np.ndarray:
        return _grid(self.pot, self.x_lo, self.x_hi, n)

    def matrix(self, n: int):
        """(x, d, e): the grid of n intervals and its tridiagonal (d, e)."""
        x = self.grid(n)
        return (x, *_tridiag(self.pot, self.hbar, x, self.robin_b))

    def eigs(self, n: int, ranges, tol: float = 0.0):
        """(values, index, first) of the grid of n intervals: the raw
        eigenvalues in the ranges (a, b], bisected to the absolute tolerance
        tol (0: to LAPACK's own), each level once and ascending, their
        indices in the grid spectrum (0 for the lowest), and per range the
        count of eigenvalues at or below a, the index of its first value."""
        d, e = self.matrix(n)[1:]  # the grid is freed before the solves
        values = [eigh_tridiagonal(d, e, select_range=r, tol=tol) for r in ranges]
        first = [_count(d, e, a) for a, _ in ranges]
        index, at = np.unique(np.concatenate([k + np.arange(len(v)) for v, k in zip(values, first)]),
                              return_index=True)
        return np.concatenate(values)[at], index, first


def _domain(pot: Potential, hbar: float, window: tuple[float, float],
            robin_b: Optional[float] = None, tol_oracle: Optional[float] = None,
            x_span: Optional[tuple[float, float]] = None, n0: Optional[int] = None) -> _Domain:
    """The one setup of every oracle solver: argument checks (a robin_b
    needs a half-line well), the truncation (x_span, or where the WKB tail
    beyond the window top has decayed), the check that the window stays
    below the truncation-induced spectrum edge, and the first grid: n0, or
    at least 2048 intervals and 24 per shortest wavelength in the window,
    with an OracleError before any solve if three grids would pass _MAX_N."""
    if hbar <= 0.0:
        raise OracleError("hbar must be positive")
    if tol_oracle is not None and tol_oracle < _MIN_TOL:
        raise OracleError(f"tol_oracle below {_MIN_TOL} is not resolvable by this scheme")
    lo, hi = window
    if not lo < hi:
        raise OracleError("empty window")
    if robin_b is not None and pot.domain != "half_line":
        raise OracleError("a Robin wall (robin_b) needs a half-line well")
    if x_span is not None:
        x_lo, x_hi = x_span
    else:
        tp = turning_points(pot, hi)
        x_lo = _tail_bound(pot, hi, hbar, tp.x_minus, -1) if pot.domain == "full_line" else 0.0
        x_hi = _tail_bound(pot, hi, hbar, tp.x_plus, +1)
    for edge in (x_lo, x_hi):
        if pot.domain == "half_line" and edge == 0.0:
            continue
        if pot.value(edge) < hi:
            raise OracleError("window reaches the truncation-induced spectrum edge")

    vg = pot.value(np.linspace(x_lo, x_hi, 513))
    depth = max(hi - float(vg.min()), 1e-12)
    if n0 is None:
        wavelength = math.pi * hbar / math.sqrt(depth)
        n0 = max(2048, int(24.0 * (x_hi - x_lo) / wavelength))
        _doubled(_doubled(n0, tol_oracle, None), tol_oracle, None)  # three grids must fit
    return _Domain(pot, hbar, robin_b, x_lo, x_hi, depth, n0)


def _doubled(n: int, tol_oracle: float, est) -> int:
    """The next grid, 2n intervals, or an OracleError past _MAX_N."""
    if 2 * n > _MAX_N:
        last = np.max(est, initial=0.0) if est is not None else math.nan
        raise OracleError(f"no convergence below tol={tol_oracle} by N={_MAX_N}; last estimate {last}")
    return 2 * n


def _refine(dom: _Domain, tol_oracle: float, ranges: Callable, width: float, stop: Callable,
            tol: float = 0.0):
    """(value, n_trail) of the grid loop of the module docstring on the
    ranges (a, b] = ranges(width), bisected to the tolerance tol of
    `_Domain.eigs`.  stop(width, need, matched, last), with matched =
    _matched of the last three grids and last the last grid's eigs, gives
    (value, est): value None to double the grid, est for the error past
    _MAX_N."""
    def holds(values) -> bool:
        return all(np.any((values > a) & (values <= b)) for a, b in ranges(width))

    n_trail = [dom.n0, 2 * dom.n0, 4 * dom.n0]  # _domain checked that three grids fit
    raw = [dom.eigs(dom.n0, ranges(width), tol)]
    while not holds(raw[0][0]) and 2.0 * width < dom.depth:
        width *= 2.0
        raw = [dom.eigs(dom.n0, ranges(width), tol)]
    raw += [dom.eigs(n, ranges(width), tol) for n in n_trail[1:]]
    while True:
        matched = _matched(*raw)
        need = 4.0 * np.max(np.abs(matched[1] - matched[3]), initial=0.0)
        if 2.0 * width < dom.depth and (need > width or not holds(matched[3])):
            width = max(need, 2.0 * width)
            raw = [dom.eigs(n, ranges(width), tol) for n in n_trail[-3:]]
            continue
        value, est = stop(width, need, matched, raw[-1])
        if value is not None:
            return value, tuple(n_trail)
        n_trail.append(_doubled(n_trail[-1], tol_oracle, est))
        raw = raw[1:] + [dom.eigs(n_trail[-1], ranges(width), tol)]


def solve_spectrum(pot: Potential, hbar: float, window: tuple[float, float],
                   tol_oracle: float = DEFAULT_TOL, robin_b: Optional[float] = None,
                   x_span: Optional[tuple[float, float]] = None) -> OracleSpectrum:
    """Reference eigenvalues of -hbar^2 psi'' + v psi = lam psi in a window.

    `_refine` solves the window padded by pad, at least 5% of it, on both
    sides, so that a window level has its raw values in range on all three
    grids.  Each level's raw values on the last three grids give a Romberg
    table (`_romberg`), and the doubling stops once every window level's
    estimate is at most tol_oracle; the result's n is the last grid, and
    `eigenvector` solves on the grid one doubling finer.
    """
    dom = _domain(pot, hbar, window, robin_b, tol_oracle, x_span)
    lo, hi = window

    def converged(pad, need, matched, last):
        index, *e = matched
        eigs, est, h4 = _romberg(*e)
        inside = (eigs > lo) & (eigs < hi)
        kept = [a[inside] for a in (eigs, index, est, h4)]
        return (kept if np.all(kept[2] <= tol_oracle) else None), kept[2]

    (eigs, index, est, h4), n_trail = _refine(dom, tol_oracle, lambda pad: [(lo - pad, hi + pad)],
                                              max(0.05 * (hi - lo), dom.start_width), converged)
    return OracleSpectrum(dom, (lo, hi), n_trail, eigs, index, est, h4)


def count_levels(pot: Potential, hbar: float, window: tuple[float, float],
                 tol_oracle: float = DEFAULT_TOL, robin_b: Optional[float] = None) -> int:
    """Number of reference eigenvalues in the window, the count of
    `solve_spectrum`: the levels below hi less the levels at or below lo.

    `_refine` solves one band (c - 2 delta, c + 2 delta] per edge c, and an
    edge is counted only with need <= delta.  A level then moves by less
    than delta / 4 between its raw value on the last grid and its Romberg
    value.  So the levels below an edge's band, counted by the band's first
    index, and the band levels more than delta below the edge lie below it.
    A band level within delta of the edge lies below it where its Romberg
    value R does, and each must be matched on all three grids.

    The count reads R only for its side of the edge, so a first pass
    bisects the band levels to tau = _COARSE delta0, about delta / 1000, on
    the first three grids, and never doubles them; delta starts at delta0,
    start_width or, where that is below rounding at the edges, _ROUNDING
    max(1, |lo|, |hi|).  An edge is decided
    there when each level within delta of it has |R - c| > 2 bar, with bar
    = |R1b - R1a| + 4 tau: |R1b - R1a| is the larger of the two estimates of
    `_romberg`, since |R2 - R1b| = |R1b - R1a| / 15.  A dstebz value lies
    within tau / 2 of its raw eigenvalue.  R2 = (e0 - 20 e1 + 64 e2) / 45,
    whose absolute coefficients sum to 85/45, so tau moves R2 by less than
    tau, R1b = (4 e2 - e1) / 3 by 5 tau / 6, and |R1b - R1a| = |e0 - 5 e1 +
    4 e2| / 3 by 5 tau / 3; 4 tau holds both.  tau can flip the h^4 test,
    which moves R by |R2 - R1b| at most, and |R1b - R1a| holds that.  The
    factor 2 covers an estimate that is off by up to a factor 2 either way.
    need, 4 max |e0 - e2|, moves by 4 tau at most, far inside the delta / 4
    argument above.  On the 30 counts of the count-oracle benchmark's seeds
    0-9, a _COARSE of 1e-2 (about delta / 100) decides 24, 1e-3 decides 29,
    and 1e-4 all 30 but bisects 20% longer than 1e-3; 1e-3 is as fast as
    1e-2 there and on small random windows, and leaves fewer edges to the
    full-precision pass.

    An edge left in doubt is counted again on its own band, from the first
    pass's delta, at LAPACK's tolerance and under the rule of
    `solve_spectrum`: the grid doubles until each window level within delta
    of the edge has an estimate of at most tol_oracle.  `solve_spectrum`
    keeps LAPACK's tolerance throughout, since it prints its values.
    """
    dom = _domain(pot, hbar, window, robin_b, tol_oracle)
    lo, hi = window
    # a band narrower than rounding at its edge is empty: start_width
    # underflows where hbar dwarfs the well (4.7e-41 at hbar 1e8)
    delta0 = max(dom.start_width, _ROUNDING * max(1.0, abs(lo), abs(hi)))
    tau = _COARSE * delta0

    def below(edges, delta, need, matched, last, doubt):
        """(per edge c, the levels below it, at or below lo, or None where a
        level within delta of c is not matched on all three grids or is in
        doubt(c, (e0, e1, e2), eigs, est); the estimates of the window
        levels within delta of an edge)."""
        index, *e = matched
        values, last_index, first = last
        eigs, est, _ = _romberg(*e)
        value = values.copy()
        value[np.isin(last_index, index)] = eigs
        counts, close = [], np.zeros(len(eigs), dtype=bool)
        for c, k in zip(edges, first):
            near = np.abs(e[2] - c) <= delta
            close |= near
            if (need > delta or np.count_nonzero(np.abs(values - c) <= delta) != np.count_nonzero(near)
                    or np.any(near & doubt(c, e, eigs, est))):
                counts.append(None)
            else:
                rest = value[last_index >= k]
                counts.append(k + np.count_nonzero(rest < c if c == hi else rest <= c))
        return counts, est[close & (eigs > lo) & (eigs < hi)]

    def coarse(delta, need, matched, last):
        side = lambda c, e, eigs, est: (
            np.abs(eigs - c) <= 2.0 * (np.abs(e[0] - 5.0 * e[1] + 4.0 * e[2]) / 3.0 + 4.0 * tau))
        return (delta, below(window, delta, need, matched, last, side)[0]), None

    def converged(edges):
        unconverged = lambda c, e, eigs, est: (est > tol_oracle) & (eigs > lo) & (eigs < hi)

        def stop(delta, need, matched, last):
            counts, est = below(edges, delta, need, matched, last, unconverged)
            return (None if None in counts else counts), est
        return stop

    bands = lambda edges: lambda delta: [(c - 2.0 * delta, c + 2.0 * delta) for c in edges]
    (delta, counts), _ = _refine(dom, tol_oracle, bands(window), delta0, coarse, tau)
    undecided = [c for c, k in zip(window, counts) if k is None]
    if undecided:
        again = iter(_refine(dom, tol_oracle, bands(undecided), delta, converged(undecided))[0])
        counts = [next(again) if k is None else k for k in counts]
    return int(counts[1] - counts[0])


# ---------------------------------------------------------------------------
# eigenvectors and observables


def eigenvector(spec: OracleSpectrum, k: int):
    """(x, psi) for the k-th window level on spec.grid, trapezoid-normalized to 1.

    dstein (`_stein`) takes the eigenvector at lam on the grid of 2 spec.n
    intervals, one doubling finer than the last grid solved, and again at
    its Rayleigh quotient rho where the residual reaches 1e-10 max(1, |rho|);
    a residual past 1e-6 max(1, |lam|) is an OracleError.  psi is normalized
    on that grid and returned at the nodes of spec.grid, which are every
    other node of the finer grid; a node of spec.grid beyond the finer
    grid's ends (a jump well anchors both grids at the jump) is a Dirichlet
    zero.  psi is positive at the last node of spec.grid where v < lam (an
    OracleError if none is), the lobe that the decaying right tail
    continues.  The finer grid's operator is shared, unwritten, by every
    level (spec._fine).
    """
    if k < 0 or k >= len(spec.eigenvalues):
        raise OracleError(f"level index {k} outside the window list")
    if k in spec._vectors:
        return spec._vectors[k]
    xf, d, e, nodes = spec._fine
    lam = float(spec.eigenvalues[k])
    v, rho, resid = _stein(d, e, lam)
    if resid >= 1e-10 * max(1.0, abs(rho)):
        v, rho, resid = _stein(d, e, rho)
    if resid > 1e-6 * max(1.0, abs(lam)):
        raise OracleError(f"inverse iteration stagnated: residual {resid}")

    if spec.domain.robin_b is not None:
        psi_f = np.concatenate((v, [0.0]))
        psi_f[0] *= math.sqrt(2.0)  # undo the half-cell symmetrization weight
    else:
        psi_f = np.concatenate(([0.0], v, [0.0]))
    psi_f /= math.sqrt(float(np.trapezoid(psi_f * psi_f, xf)))
    psi = np.where(nodes >= 0, psi_f[nodes], 0.0)

    allowed = np.flatnonzero(spec.v < lam)
    if not allowed.size:
        raise OracleError(f"level {k} lies below v at every node of the grid")
    if psi[allowed[-1]] < 0.0:
        psi = -psi
    spec._vectors[k] = (spec.grid, psi)
    return spec._vectors[k]


def observable(spec: OracleSpectrum, k: int, w: Callable) -> float:
    """Trapezoid integral of w(x) psi_k(x)^2 on the oracle grid."""
    x, psi = eigenvector(spec, k)
    wx = np.asarray(w(x), dtype=float)
    return float(np.trapezoid(wx * psi * psi, x))


def kinetic_energy(spec: OracleSpectrum, k: int) -> float:
    """hbar^2 int psi'^2 via energy conservation: lam - int v psi^2."""
    return float(spec.eigenvalues[k]) - observable(spec, k, lambda x: spec.v)


# ---------------------------------------------------------------------------
# Numerov shooting cross-check


def _numerov_sweep(f: np.ndarray, h: float, u0: float, u1: float) -> np.ndarray:
    """March (1 + h^2 f/12) u via the Numerov recurrence for u'' = -f u."""
    n = len(f)
    u = np.empty(n)
    u[0], u[1] = u0, u1
    c = 1.0 + (h * h / 12.0) * f
    for i in range(1, n - 1):
        u[i + 1] = ((12.0 - 10.0 * c[i]) * u[i] - c[i - 1] * u[i - 1]) / c[i + 1]
        if abs(u[i + 1]) > 1e250:
            u[: i + 2] *= 1e-250
    return u


def _numerov_nodes(pot: Potential, hbar: float, lam: float, x: np.ndarray,
                   v: np.ndarray, robin_b: Optional[float] = None) -> int:
    """Sturm count: sign changes of the left shooting solution equal the
    number of discrete eigenvalues below lam."""
    h = x[1] - x[0]
    f = (lam - v) / (hbar * hbar)
    if robin_b is not None:
        u0 = 1.0
        f0p = pot.deriv(x[0] + 1e-9) / (hbar * hbar)
        u1 = u0 * (1.0 + h * robin_b - h * h * f[0] / 2.0 - h**3 * (f0p + f[0] * robin_b) / 6.0)
    else:
        u0, u1 = 0.0, h
    ul = _numerov_sweep(f, h, u0, u1)
    s = np.sign(ul[1:])
    s = s[s != 0]
    return int(np.sum(s[1:] * s[:-1] < 0))


def numerov_levels(pot: Potential, hbar: float, window: tuple[float, float],
                   n: int = 6000, robin_b: Optional[float] = None) -> np.ndarray:
    """Eigenvalues in the window from two-sided Numerov shooting.

    Node-count bisection: the count of sign changes of the glued solution
    increments by one exactly at each discrete eigenvalue, so bisection on
    it converges to the eigenvalue itself, here to 1e-10 relative.  O(h^4)
    scheme; used to cross-validate the default finite-difference oracle.
    """
    dom = _domain(pot, hbar, window, robin_b, n0=n)
    lo, hi = window
    x = dom.grid(n)
    v = _potential_on_grid(pot, x)
    count = lambda lam: _numerov_nodes(pot, hbar, lam, x, v, robin_b)
    k_lo, k_hi = count(lo), count(hi)
    out = []
    for k in range(k_lo, k_hi):
        a, b = lo, hi
        while b - a > 1e-10 * max(1.0, abs(b)):
            mid = 0.5 * (a + b)
            if count(mid) <= k:
                a = mid
            else:
                b = mid
        out.append(0.5 * (a + b))
    return np.array(out)
