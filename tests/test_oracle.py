import csv
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from semiclass import oracle
from semiclass.oracle import (
    OracleError,
    count_levels,
    eigenvector,
    kinetic_energy,
    numerov_levels,
    observable,
    solve_spectrum,
)
from semiclass.potential import (
    TurningPointError,
    halfline_power_law,
    make_power_law,
    potential_from_spec,
    turning_points,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

HARM = make_power_law(0, 1, 2, 0, 1, 2)
QUART = make_power_law(0, 1, 4, 0, 1, 4)
DISC = make_power_law(0.5, 1, 2, 0, 1, 2)
HL = halfline_power_law(0, 1, 2)


@pytest.fixture(scope="module")
def harm_spec():
    return solve_spectrum(HARM, 1.0, (0.0, 10.0), tol_oracle=1e-9)


def test_harmonic_exact_levels(harm_spec):
    assert np.abs(harm_spec.eigenvalues - np.array([1.0, 3.0, 5.0, 7.0, 9.0])).max() <= 1e-8
    assert np.all(np.diff(harm_spec.eigenvalues) > 0)
    assert np.all(harm_spec.est_error <= 1e-9)


def test_against_committed_fixture():
    spec = solve_spectrum(HARM, 1.0, (0.0, 10.0))
    with open(FIXTURES / "oracle_harmonic_hbar1.csv") as fh:
        rows = list(csv.DictReader(fh))
    ref = np.array([float(r["lambda"]) for r in rows])
    assert len(ref) == len(spec.eigenvalues)
    assert np.abs(spec.eigenvalues - ref).max() <= 2e-8


def test_quartic_ground_state_stability():
    a = solve_spectrum(QUART, 1.0, (0.0, 3.0))
    lam0 = a.eigenvalues[0]
    b = solve_spectrum(QUART, 1.0, (0.0, 3.0), x_span=(a.domain.x_lo - 2.0, a.domain.x_hi + 2.0))
    assert abs(b.eigenvalues[0] - lam0) <= 1e-8


def test_truncation_independence():
    spec = solve_spectrum(QUART, 0.1, (0.5, 2.0))
    wide = solve_spectrum(QUART, 0.1, (0.5, 2.0),
                          x_span=(1.2 * spec.domain.x_lo, 1.2 * spec.domain.x_hi))
    assert len(spec.eigenvalues) == len(wide.eigenvalues)
    assert np.abs(spec.eigenvalues - wide.eigenvalues).max() <= 1e-8


def test_grid_refinement_order_is_second():
    # raw eigenvalue error ratio between N and 2N in [3.5, 4.5]
    dom = oracle._domain(HARM, 1.0, (0.5, 9.5), x_span=(-8.0, 8.0), n0=3000)
    exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    e1 = dom.eigs(3000, [(0.5, 9.5)])[0] - exact
    e2 = dom.eigs(6000, [(0.5, 9.5)])[0] - exact
    ratios = np.abs(e1) / np.abs(e2)
    assert np.all(ratios >= 3.5) and np.all(ratios <= 4.5)


def test_halfline_dirichlet_odd_levels():
    spec = solve_spectrum(halfline_power_law(0, 1, 2), 1.0, (0.0, 12.0))
    assert spec.domain.robin_b is None
    assert np.abs(spec.eigenvalues - np.array([3.0, 7.0, 11.0])).max() <= 1e-7


def test_halfline_neumann_even_levels():
    spec = solve_spectrum(halfline_power_law(0, 1, 2), 1.0, (0.0, 12.0), robin_b=0.0)
    assert np.abs(spec.eigenvalues - np.array([1.0, 5.0, 9.0])).max() <= 1e-6


def test_eigenvector_matches_gaussian(harm_spec):
    x, psi = eigenvector(harm_spec, 0)
    exact = math.pi ** (-0.25) * np.exp(-x * x / 2.0)
    assert np.abs(psi - exact).max() <= 1e-7


def test_eigenvector_normalization_and_cache(harm_spec):
    x, psi = eigenvector(harm_spec, 1)
    assert abs(np.trapezoid(psi * psi, x) - 1.0) <= 1e-10
    assert eigenvector(harm_spec, 1)[1] is psi


def test_eigenvector_node_counts(harm_spec):
    for k in range(5):
        _, psi = eigenvector(harm_spec, k)
        s = np.sign(psi[np.abs(psi) > 1e-8])
        assert int(np.sum(s[1:] * s[:-1] < 0)) == k


def test_eigenvector_sign_convention(harm_spec):
    # positive at the node nearest the right turning point
    for k in range(5):
        x, psi = eigenvector(harm_spec, k)
        x_plus = math.sqrt(harm_spec.eigenvalues[k])
        assert psi[int(np.argmin(np.abs(x - x_plus)))] > 0


def _sign_changes(psi):
    s = np.sign(psi[np.abs(psi) > 1e-8 * np.abs(psi).max()])
    return int(np.count_nonzero(s[1:] != s[:-1]))


@pytest.mark.parametrize("pot, hbar, window, robin_b", [
    (HARM, 1.0, (0.0, 10.0), None),
    (DISC, 0.05, (0.8, 1.8), None),
    (HL, 0.05, (0.04, 1.3), 5.0),
    (HL, 0.05, (0.04, 1.3), None),
], ids=["harmonic", "jump", "halfline_robin", "halfline_dirichlet"])
def test_the_index_of_a_level_is_the_node_count_of_its_eigenvector(pot, hbar, window, robin_b):
    spec = solve_spectrum(pot, hbar, window, robin_b=robin_b)
    assert len(spec.index) == len(spec.eigenvalues) > 0
    nodes = [_sign_changes(eigenvector(spec, k)[1]) for k in range(len(spec.index))]
    assert nodes == spec.index.tolist()


def test_eigenvector_index_guard(harm_spec):
    with pytest.raises(OracleError):
        eigenvector(harm_spec, 99)


def test_observable_normalization(harm_spec):
    assert abs(observable(harm_spec, 0, lambda x: np.ones_like(x)) - 1.0) <= 1e-12


def test_observable_virial(harm_spec):
    assert abs(observable(harm_spec, 0, lambda x: x * x) - 0.5) <= 1e-6
    assert abs(kinetic_energy(harm_spec, 0) - 0.5) <= 1e-6


def test_observable_indicator_parity(harm_spec):
    # a jump placed between grid nodes costs O(h); weighting the on-node jump
    # point by 1/2 makes the parity value exact on a symmetric grid
    def w(x):
        x = np.asarray(x)
        return (x > 0) + 0.5 * (x == 0.0)

    assert abs(observable(harm_spec, 2, w) - 0.5) <= 1e-9


def test_numerov_agrees_with_default_scheme():
    spec = solve_spectrum(QUART, 0.5, (0.0, 3.0), tol_oracle=1e-9)
    nv = numerov_levels(QUART, 0.5, (0.0, 3.0), n=6000)
    assert len(nv) == len(spec.eigenvalues)
    assert np.abs(nv - spec.eigenvalues).max() <= 1e-7


def test_numerov_disc_agrees():
    spec = solve_spectrum(DISC, 0.05, (0.8, 1.8))
    nv = numerov_levels(DISC, 0.05, (0.8, 1.8), n=12000)
    assert len(nv) == len(spec.eigenvalues)
    assert np.abs(nv - spec.eigenvalues).max() <= 3e-7


def test_disc_grid_contains_jump_node():
    spec = solve_spectrum(DISC, 0.05, (0.8, 1.8))
    x = spec.grid
    assert np.min(np.abs(x - 0.0)) <= 1e-12


HALF_JUMP = potential_from_spec({"kind": "table", "domain": "half_line", "branches": [
    {"lo": 0.0, "hi": 0.3, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
    {"lo": 0.3, "hi": "inf", "type": "poly", "coeffs": [0.5, 0.0, 1.0]},
]})


def test_halfline_jump_grid_keeps_the_boundary_and_the_jump_as_nodes():
    x = oracle._grid(HALF_JUMP, 0.0, 3.0, 4097)
    assert x[0] == 0.0
    assert 0.3 in x
    # the spacing halves exactly at each doubling: the coarse grid is every
    # other node of the fine one
    for n in (2048, 3000):
        coarse, fine = oracle._grid(HALF_JUMP, 0.0, 3.0, n), oracle._grid(HALF_JUMP, 0.0, 3.0, 2 * n)
        assert fine[1] - fine[0] == 0.5 * (coarse[1] - coarse[0])
        m = min(len(coarse), (len(fine) + 1) // 2)
        assert np.array_equal(fine[::2][:m], coarse[:m])


def test_window_edge_guard():
    with pytest.raises(OracleError):
        solve_spectrum(HARM, 0.1, (0.5, 1.5), x_span=(-1.0, 1.0))


def test_tolerance_guard():
    with pytest.raises(OracleError):
        solve_spectrum(HARM, 0.1, (0.5, 1.5), tol_oracle=1e-13)


@pytest.mark.parametrize("solve", [solve_spectrum, count_levels, numerov_levels])
def test_a_robin_wall_needs_a_half_line_well(solve):
    with pytest.raises(OracleError, match="half-line"):
        solve(HARM, 0.1, (0.5, 1.5), robin_b=1.0)


def test_disc_fixture_reproducible():
    spec = solve_spectrum(DISC, 0.05, (0.8, 1.8))
    with open(FIXTURES / "oracle_disc_hbar005.csv") as fh:
        ref = np.array([float(r["lambda"]) for r in csv.DictReader(fh)])
    assert len(ref) == len(spec.eigenvalues)
    assert np.abs(spec.eigenvalues - ref).max() <= 2e-8


# -- LAPACK bindings -------------------------------------------------------------


def _jacobi(rows: int, seed: int):
    """A random symmetric tridiagonal (d, e) like the oracle's: a dominant
    diagonal with a varying potential, and negative off-diagonals."""
    rng = np.random.default_rng(seed)
    return 2.0 + rng.uniform(0.0, 1.0, rows), -rng.uniform(0.5, 1.0, rows - 1)


@pytest.mark.parametrize("rows", [2, 5, 100, 8191])
def test_the_lapack_bindings_equal_scipy_bit_for_bit(rows):
    d, e = _jacobi(rows, rows)
    # a narrow range around the middle level, and the Sturm count's whole-range call
    mid = float(scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)[rows // 2])
    floor = float(np.min(d)) - 2.0 * float(np.max(np.abs(e)))
    floor -= 1.0 + abs(floor)
    for select_range, tol in (((mid - 1e-3, mid + 1e-3), 0.0), ((floor, mid), mid - floor)):
        ours = oracle.eigh_tridiagonal(d, e, select_range=select_range, tol=tol)
        ref = scipy.linalg.eigh_tridiagonal(d, e, select="v", select_range=select_range,
                                            eigvals_only=True, tol=tol)
        assert len(ours) and ours.dtype == ref.dtype and np.array_equal(ours, ref)
    b = np.random.default_rng(rows + 1).standard_normal(rows)
    ab = np.zeros((3, rows))
    ab[0, 1:], ab[1], ab[2, :-1] = e, d - mid, e
    args = (d - mid, e.copy(), b.copy())
    x = oracle.solve_banded(*args)
    assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))
    assert np.array_equal(args[0], d - mid) and np.array_equal(args[1], e)
    assert np.array_equal(args[2], b)  # the inverse iteration reuses its inputs


def test_the_lapack_bindings_name_scipy_when_it_is_missing(monkeypatch):
    import importlib.util
    import sys

    find_spec = importlib.util.find_spec
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    with pytest.raises(ImportError, match="is scipy installed"):
        oracle._flapack()


def test_the_lapack_bindings_keep_scipys_checks():
    d, e = _jacobi(5, 0)
    b = np.ones(5)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        oracle.solve_banded(np.ones(2), np.ones(1), np.ones(2))
    for bad in ("d", "e", "b"):
        args = {"d": d.copy(), "e": e.copy(), "b": b.copy()}
        args[bad][1] = math.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            oracle.solve_banded(args["d"], args["e"], args["b"])
        if bad != "b":
            with pytest.raises(ValueError, match="infs or NaNs"):
                oracle.eigh_tridiagonal(args["d"], args["e"], select_range=(0.0, 4.0))
    with pytest.raises(ValueError, match="not increasing"):
        oracle.eigh_tridiagonal(d, e, select_range=(2.0, 2.0))


# -- Romberg stopping rule -----------------------------------------------------


def _raw_on(spec, n):
    """(values, index, first) of the raw window eigenvalues (with the solver's
    padding) on the grid of n intervals."""
    lo, hi = spec.window
    pad = 0.05 * (hi - lo)
    return spec.domain.eigs(n, [(lo - pad, hi + pad)])


def _first_column(spec, n):
    """Window levels of the first Richardson column on the grids of n and 2n intervals."""
    _, coarse, fine = oracle._matched(_raw_on(spec, n), _raw_on(spec, 2 * n))
    r1 = fine + (fine - coarse) / 3.0
    lo, hi = spec.window
    return r1[(r1 > lo) & (r1 < hi)]


def test_romberg_guard_keeps_the_first_column_off_ratio():
    cfg = json.loads((pathlib.Path(__file__).parent.parent / "configs"
                      / "halfline_robin.json").read_text())
    pot = potential_from_spec(cfg["potential"])
    spec = solve_spectrum(pot, 0.1, tuple(cfg["window"]), robin_b=cfg["robin_b"])
    assert spec.n_trail == (2048, 4096, 8192)
    index, e0, e1, e2 = oracle._matched(*(_raw_on(spec, n) for n in spec.n_trail))
    window_levels = np.isin(index, spec.index)
    e0, e1, e2 = e0[window_levels], e1[window_levels], e2[window_levels]
    ratio = (e0 - e1) / (e1 - e2)
    # the ground state's raw differences shrink by 4.52 per doubling
    assert ratio[0] > 4.5 and np.all(np.abs(ratio[1:] - 4.0) < 0.01)
    assert spec.h4_column.tolist() == [False, True, True]
    r1a, r1b = e1 + (e1 - e0) / 3.0, e2 + (e2 - e1) / 3.0
    assert spec.eigenvalues[0] == r1b[0]
    assert spec.est_error[0] == abs(r1b[0] - r1a[0])
    r2 = r1b + (r1b - r1a) / 15.0
    assert np.array_equal(spec.eigenvalues[1:], r2[1:])


def test_romberg_rounding_level_differences_fall_back_quietly():
    lam = np.array([0.25, 0.7, 1.3, 40.0])
    ulp = np.spacing(lam)
    with np.errstate(all="raise"):
        for e0, e1, e2 in [(lam, lam, lam), (lam + ulp, lam, lam),
                           (lam, lam + 3 * ulp, lam - 2 * ulp), (lam + 8 * ulp, lam + 2 * ulp, lam),
                           (lam + 5 * ulp, lam + ulp, lam)]:  # ratio 4, but at rounding level
            eigs, est, h4 = oracle._romberg(e0, e1, e2)
            assert not h4.any()
            assert np.all(np.abs(eigs - lam) <= 1e-13 * lam)
            assert np.all(est <= 1e-13 * lam)


def test_rounding_level_differences_stop_on_three_grids(monkeypatch):
    # a scheme whose raw values differ between grids only by rounding
    rng = np.random.default_rng(7)
    lam = np.array([0.6, 0.9, 1.2])
    monkeypatch.setattr(oracle._Domain, "eigs", lambda *a: (
        lam + np.spacing(lam) * rng.integers(-4, 5, lam.size), np.arange(lam.size), [0]))
    spec = solve_spectrum(HARM, 0.1, (0.5, 1.5))
    assert len(spec.n_trail) == 3
    assert not spec.h4_column.any()
    assert np.all(np.abs(spec.eigenvalues - lam) <= 1e-14)


def test_romberg_agrees_with_numerov_and_four_grid_reference():
    tol = oracle.DEFAULT_TOL
    spec = solve_spectrum(QUART, 0.2, (0.5, 2.0), tol_oracle=tol)
    nv = numerov_levels(QUART, 0.2, (0.5, 2.0), n=4000)
    assert len(nv) == len(spec.eigenvalues) == 3
    assert np.abs(nv - spec.eigenvalues).max() <= tol
    for hbar in (0.2, 0.02):
        spec = solve_spectrum(QUART, hbar, (0.5, 2.0), tol_oracle=tol)
        ref = _first_column(spec, 4 * spec.n_trail[0])  # first column on grids 3 and 4
        assert len(ref) == len(spec.eigenvalues)
        assert np.abs(ref - spec.eigenvalues).max() <= tol


def test_quartic_stops_on_three_grids():
    spec = solve_spectrum(QUART, 0.02, (0.5, 2.0))
    assert spec.n_trail == (2048, 4096, 8192)
    assert spec.n == spec.n_trail[-1]
    assert spec.h4_column.all() and len(spec.h4_column) == len(spec.eigenvalues) == 30
    assert np.all(spec.est_error <= oracle.DEFAULT_TOL)


def test_a_tight_tolerance_doubles_the_grid():
    # tol_oracle 1e-10 takes a fourth grid on the quartic at hbar 0.05; the
    # default solve stops on the first three, with values within 1.9e-11
    tight = solve_spectrum(QUART, 0.05, (0.5, 2.0), 1e-10)
    default = solve_spectrum(QUART, 0.05, (0.5, 2.0))
    assert tight.n_trail == (2048, 4096, 8192, 16384) == default.n_trail + (16384,)
    assert np.all(tight.est_error <= 1e-10)
    assert list(tight.index) == list(default.index) and len(tight.index) == 12
    assert np.abs(tight.eigenvalues - default.eigenvalues).max() <= 5e-11


def _first_column_stop(spec):
    """The grid the first-column rule stops on: successive first-column
    extrapolants agree to the spectrum's tolerance (here DEFAULT_TOL)."""
    n = spec.n_trail[0]
    prev = _first_column(spec, n)
    while True:
        n *= 2
        cur = _first_column(spec, n)
        if len(cur) == len(prev) and np.abs(cur - prev).max() <= oracle.DEFAULT_TOL:
            return 2 * n
        prev = cur


@pytest.mark.parametrize("pot, hbar, window", [(QUART, 0.02, (0.5, 2.0)), (DISC, 0.035, (0.8, 1.8))])
def test_eigenvector_grid_is_at_least_the_first_column_stop_grid(monkeypatch, pot, hbar, window):
    spec = solve_spectrum(pot, hbar, window)
    sizes = []
    solve = oracle.solve_banded
    monkeypatch.setattr(oracle, "solve_banded",
                        lambda d, e, b: sizes.append(len(d)) or solve(d, e, b))
    k = len(spec.eigenvalues) - 1
    x, psi = eigenvector(spec, k)
    fine = oracle._grid(pot, spec.domain.x_lo, spec.domain.x_hi, 2 * spec.n)
    assert set(sizes) == {len(fine) - 2}  # Dirichlet: interior nodes only
    assert 2 * spec.n >= _first_column_stop(spec)
    # psi sits on spec.grid's own nodes, and on a jump well the finer grid is
    # anchored at the jump as well: compare with the eigenvector of spec.grid
    assert np.array_equal(x, spec.grid)
    assert psi[0] == psi[-1] == 0.0
    d, e = oracle._tridiag(pot, hbar, x, spec.domain.robin_b)
    _, vec = eigh_tridiagonal(d, e, select="v",
                              select_range=(spec.eigenvalues[k] - 1e-3, spec.eigenvalues[k] + 1e-3))
    coarse = np.concatenate(([0.0], vec[:, 0], [0.0]))
    coarse *= np.sign(coarse @ psi) / math.sqrt(np.trapezoid(coarse * coarse, x))
    assert np.abs(coarse - psi).max() <= 1e-3 * np.abs(psi).max()


# -- counts ----------------------------------------------------------------------


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def count_requests(draw):
    """(potential, robin_b, hbar, window): a two-branch power-law well, a
    jump well, or a half-line power-law well with a Dirichlet or Robin end."""
    kind = draw(st.sampled_from(["power", "jump", "halfline_dirichlet", "halfline_robin"]))
    robin_b = None
    if kind in ("power", "jump"):
        a_plus = draw(_floats(0.1, 0.8)) if kind == "jump" else 0.0
        pot = make_power_law(a_plus, draw(_floats(0.5, 3.0)), draw(_floats(1.0, 5.0)),
                             0.0, draw(_floats(0.5, 3.0)), draw(_floats(1.0, 5.0)))
        bottom = a_plus
    else:
        pot = halfline_power_law(0.0, draw(_floats(0.5, 3.0)), draw(_floats(1.0, 5.0)))
        bottom = 0.0
        if kind == "halfline_robin":
            robin_b = draw(_floats(-1.0, 2.0))
    lo = bottom + draw(_floats(0.05, 1.0))
    return pot, robin_b, draw(_floats(0.04, 0.2)), (lo, lo + draw(_floats(0.1, 1.5)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(count_requests(), st.data())
def test_count_levels_equals_the_solved_count(request, data):
    pot, robin_b, hbar, (lo, hi) = request
    try:
        levels = solve_spectrum(pot, hbar, (lo, hi), robin_b=robin_b).eigenvalues
    except OracleError:
        assume(False)
    edge = data.draw(st.sampled_from(["none", "lo", "hi"]))
    if edge != "none" and len(levels):
        # an edge 1e-6 above or below a level of the window
        lam = float(levels[data.draw(st.integers(0, len(levels) - 1))])
        lam += data.draw(st.sampled_from([-1e-6, 1e-6]))
        lo, hi = (lam, hi) if edge == "lo" else (lo, lam)
        assume(lo < hi)
        levels = solve_spectrum(pot, hbar, (lo, hi), robin_b=robin_b).eigenvalues
    assert count_levels(pot, hbar, (lo, hi), robin_b=robin_b) == len(levels)


def test_a_narrow_window_keeps_a_level_whose_raw_values_lie_below_it():
    # the level's raw value on the first grid lies 2e-4 below it, beyond 5% of
    # a window that starts 1e-6 below the level
    pot = make_power_law(0.765625, 0.5, 3.375, 0.0, 1.3125, 1.5)
    hbar = 0.04325779515563774
    lam = float(solve_spectrum(pot, hbar, (1.765625, 2.015625)).eigenvalues[2])
    window = (lam - 1e-6, 2.015625)
    spec = solve_spectrum(pot, hbar, window)
    assert list(spec.index) == [19]
    assert spec.eigenvalues[0] == pytest.approx(lam, abs=1e-8)
    assert count_levels(pot, hbar, window) == 1


def test_an_empty_window_widens_on_the_first_grid_alone(monkeypatch):
    # no level lies in (0.31, 0.32): the padded window widens on the cheapest
    # grid until it holds one, and the finer grids are solved once each
    sizes = []
    solve = oracle.eigh_tridiagonal
    monkeypatch.setattr(oracle, "eigh_tridiagonal",
                        lambda d, e, **kw: sizes.append(len(d)) or solve(d, e, **kw))
    spec = solve_spectrum(HARM, 0.1, (0.31, 0.32))
    assert len(spec.eigenvalues) == 0 and len(spec.n_trail) == 3
    first, second, third = (len(spec.domain.grid(n)) - 2 for n in spec.n_trail)
    # a range solve and a Sturm count per grid solve
    assert sizes == [first] * 12 + [second] * 2 + [third] * 2


def _full_solves(monkeypatch):
    """The list that each full-accuracy band solve of the oracle appends
    (its grid's matrix size, its number of levels) to."""
    solved = []
    solve = oracle.eigh_tridiagonal

    def spy(d, e, **kw):
        w = solve(d, e, **kw)
        if "tol" not in kw:  # full accuracy; the loose index counts pass a tol
            solved.append((len(d), len(w)))
        return w

    monkeypatch.setattr(oracle, "eigh_tridiagonal", spy)
    return solved


def test_count_levels_solves_only_the_edge_bands(monkeypatch):
    solved = _full_solves(monkeypatch)
    count = count_levels(QUART, 0.01, (0.5, 2.0))
    assert count == 61
    assert len(solved) == 6  # two bands on each of three grids
    assert max(k for _, k in solved) <= 0.1 * count


def test_count_levels_widens_a_band_that_holds_no_level_on_the_last_grid(monkeypatch):
    pot = make_power_law(0.0, 0.861853451622294, 4.208196882375038,
                         0.0, 0.8624441497018673, 2.8729730408545158)
    hbar, window = 0.028466514758836083, (0.8329410792851237, 1.6726175927565228)
    solved = _full_solves(monkeypatch)
    count = count_levels(pot, hbar, window)
    assert len(solved) > 6
    sizes = [n for n, _ in solved]
    assert sizes != sorted(sizes)  # the last grids were solved again, with wider bands
    assert count == len(solve_spectrum(pot, hbar, window).eigenvalues) == 13


def test_count_levels_doubles_the_grid_until_its_edge_levels_converge(monkeypatch):
    # at tol_oracle 1e-10 the count is not converged on three grids, nor on four
    solved = _full_solves(monkeypatch)
    count = count_levels(QUART, 0.02, (0.5, 2.0), 1e-10)
    grids = sorted({n + 1 for n, _ in solved})  # intervals: the matrix drops both end nodes
    assert grids == [2048, 4096, 8192, 16384, 32768]
    monkeypatch.undo()
    assert count == len(solve_spectrum(QUART, 0.02, (0.5, 2.0), 1e-10).eigenvalues) == 30


def test_oracle_fails_before_it_solves_when_three_grids_cannot_fit(monkeypatch):
    # at hbar 2e-5 the first grid has about 1.6M intervals, so the third would pass _MAX_N
    def no_solve(*args, **kwargs):
        raise AssertionError("a grid was solved")

    monkeypatch.setattr(oracle, "eigh_tridiagonal", no_solve)
    for solve in (solve_spectrum, count_levels):
        with pytest.raises(OracleError, match="no convergence"):
            solve(HARM, 2e-5, (0.03, 1.57))


def test_count_levels_raises_past_max_n(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_N", 4096)
    with pytest.raises(OracleError, match="no convergence"):
        count_levels(QUART, 0.01, (0.5, 2.0))


@pytest.mark.parametrize("pot, hbar, window, robin_b", [
    (DISC, 0.05, (0.8, 1.8), None),
    (HL, 0.05, (0.04, 1.3), 5.0),
], ids=["jump", "halfline_robin"])
def test_eigenvectors_do_not_depend_on_the_order_they_are_asked_in(pot, hbar, window, robin_b):
    # the operator, the start vector and the grid are built once per spectrum
    # and shared by every level: no level may write into them
    down = solve_spectrum(pot, hbar, window, robin_b=robin_b)
    up = solve_spectrum(pot, hbar, window, robin_b=robin_b)
    ks = range(len(down.eigenvalues))
    assert len(ks) > 2
    first = eigenvector(down, ks[-1])
    fine = [a.copy() for a in down._fine if a is not None]
    got = {k: eigenvector(down, k) for k in reversed(ks)}
    for k in ks:
        x, psi = eigenvector(up, k)
        assert np.array_equal(x, got[k][0]) and np.array_equal(psi, got[k][1])
        assert x is up.grid
    assert got[ks[-1]][1] is first[1]
    assert all(np.array_equal(a, b) for a, b in zip(fine, (a for a in down._fine if a is not None)))
    for a in (down.grid, *(a for a in down._fine if a is not None)):
        assert not a.flags.writeable


def test_a_window_level_without_turning_points_fails_alone():
    # below the jump's top (v(0+) = 0.5) the right crossing of v = lam is the
    # jump itself, so that level has no turning points; the others keep theirs
    spec = solve_spectrum(DISC, 0.05, (0.3, 1.0))
    below = spec.eigenvalues < 0.5
    assert below.any() and not below.all()
    k = int(np.flatnonzero(~below)[0])
    x, psi = eigenvector(spec, k)
    assert psi[np.argmin(np.abs(x - turning_points(DISC, spec.eigenvalues[k]).x_plus))] > 0
    with pytest.raises(TurningPointError, match="jumps across"):
        eigenvector(spec, int(np.flatnonzero(below)[0]))
