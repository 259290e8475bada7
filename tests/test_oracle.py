import csv
import math
import pathlib

import numpy as np
import pytest

from semiclass import oracle
from semiclass.oracle import (
    OracleError,
    eigenvector,
    kinetic_energy,
    numerov_levels,
    observable,
    solve_spectrum,
)
from semiclass.potential import halfline_power_law, make_power_law

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

HARM = make_power_law(0, 1, 2, 0, 1, 2)
QUART = make_power_law(0, 1, 4, 0, 1, 4)
DISC = make_power_law(0.5, 1, 2, 0, 1, 2)


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
    b = solve_spectrum(QUART, 1.0, (0.0, 3.0), x_span=(a.x_min - 2.0, a.x_max + 2.0))
    assert abs(b.eigenvalues[0] - lam0) <= 1e-8


def test_truncation_independence():
    spec = solve_spectrum(QUART, 0.1, (0.5, 2.0))
    wide = solve_spectrum(QUART, 0.1, (0.5, 2.0),
                          x_span=(1.2 * spec.x_min, 1.2 * spec.x_max))
    assert len(spec.eigenvalues) == len(wide.eigenvalues)
    assert np.abs(spec.eigenvalues - wide.eigenvalues).max() <= 1e-8


def test_grid_refinement_order_is_second():
    # raw eigenvalue error ratio between N and 2N in [3.5, 4.5]
    x_lo, x_hi, n = -8.0, 8.0, 3000
    exact = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    e1 = oracle._window_eigs(HARM, 1.0, oracle._grid(HARM, x_lo, x_hi, n),
                             "dirichlet_both", 0.0, 0.5, 9.5) - exact
    e2 = oracle._window_eigs(HARM, 1.0, oracle._grid(HARM, x_lo, x_hi, 2 * n),
                             "dirichlet_both", 0.0, 0.5, 9.5) - exact
    ratios = np.abs(e1) / np.abs(e2)
    assert np.all(ratios >= 3.5) and np.all(ratios <= 4.5)


def test_halfline_dirichlet_odd_levels():
    spec = solve_spectrum(halfline_power_law(0, 1, 2), 1.0, (0.0, 12.0))
    assert spec.bc == "halfline_dirichlet"
    assert np.abs(spec.eigenvalues - np.array([3.0, 7.0, 11.0])).max() <= 1e-7


def test_halfline_neumann_even_levels():
    spec = solve_spectrum(halfline_power_law(0, 1, 2), 1.0, (0.0, 12.0),
                          bc="halfline_robin", robin_b=0.0)
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


def test_window_edge_guard():
    with pytest.raises(OracleError):
        solve_spectrum(HARM, 0.1, (0.5, 1.5), x_span=(-1.0, 1.0))


def test_tolerance_guard():
    with pytest.raises(OracleError):
        solve_spectrum(HARM, 0.1, (0.5, 1.5), tol_oracle=1e-13)


def test_disc_fixture_reproducible():
    spec = solve_spectrum(DISC, 0.05, (0.8, 1.8))
    with open(FIXTURES / "oracle_disc_hbar005.csv") as fh:
        ref = np.array([float(r["lambda"]) for r in csv.DictReader(fh)])
    assert len(ref) == len(spec.eigenvalues)
    assert np.abs(spec.eigenvalues - ref).max() <= 2e-8
