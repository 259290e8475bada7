"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s` to see them).

Reference values come from the brute-force grid solver; semiclassical
predictions come from the quantization/eigenfunction pipeline.  Remainder
classes are checked as fitted log-log slopes, never as absolute constants.
"""

import csv
import math
import pathlib
import time

import numpy as np
import pytest

from semiclass import action, airy, langer, oracle, quantize
from semiclass.potential import halfline_power_law, make_power_law, turning_points
from support import levels_of_kind, peak_coefficient

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

HARM = make_power_law(0, 1, 2, 0, 1, 2)
QUART = make_power_law(0, 1, 4, 0, 1, 4)
DISC = make_power_law(0.5, 1, 2, 0, 1, 2)
HALF_HARM = halfline_power_law(0, 1, 2)


def smooth(pot, lam):
    """The smooth quantization_condition record: Phi is its g and Phi' its g_prime."""
    return quantize.quantization_condition(pot, lam, "smooth", 1.0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def quartic_data():
    """Quartic window data shared by the residual, eigenfunction and
    observable criteria: per hbar, the matched (level, oracle) pair nearest
    lam = 1 plus the full spectrum."""
    out = {}
    for hbar in (0.2, 0.1, 0.05, 0.025):
        spec = oracle.solve_spectrum(QUART, hbar, (0.5, 2.0))
        levels = quantize.levels(QUART, (0.5, 2.0), hbar)
        l = min(levels, key=lambda z: abs(z.lam - 1.0))
        k = int(np.argmin(np.abs(spec.eigenvalues - l.lam)))
        out[hbar] = (spec, levels, l, k)
    return out


def test_ac1_harmonic_exactness():
    t0 = time.time()
    worst = 0.0
    for hbar in (0.1, 0.05):
        lv = quantize.levels(HARM, (0.03, 1.97), hbar)
        spec = oracle.solve_spectrum(HARM, hbar, (0.03, 1.97))
        assert len(lv) == len(spec.eigenvalues)
        worst = max(worst, float(np.max(np.abs(
            np.array([l.lam for l in lv]) - spec.eigenvalues))))
    elapsed = time.time() - t0
    report("AC1", worst <= 1e-7 and elapsed < 10.0,
           f"max |lambda_BS - lambda_oracle| = {worst:.3e} (<= 1e-7), t = {elapsed:.1f}s")


def test_ac2_hbar_squared_residual_law(quartic_data):
    t0 = time.time()
    hbars = [0.2, 0.1, 0.05, 0.025]
    rs = []
    for hbar in hbars:
        spec = quartic_data[hbar][0]
        worst = 0.0
        for lam in spec.eigenvalues:
            frac = smooth(QUART, float(lam)).g / (math.pi * hbar) - 0.5
            worst = max(worst, abs(frac - round(frac)) * math.pi * hbar)
        rs.append(worst)
    slope = float(np.polyfit(np.log(hbars), np.log(rs), 1)[0])
    elapsed = time.time() - t0
    report("AC2", slope >= 1.8 and elapsed < 120.0,
           f"r(hbar) = {[f'{r:.2e}' for r in rs]}, slope = {slope:.3f} (>= 1.8), t = {elapsed:.1f}s")


def test_ac3_weyl_remainder():
    t0 = time.time()
    windows_harm = [(0.21, 0.93), (0.33, 1.41), (0.52, 1.73), (0.17, 1.08), (0.81, 1.89)]
    windows_quart = [(0.61, 1.18), (0.53, 1.92), (0.71, 1.53), (0.57, 1.31), (0.66, 1.77)]
    cases = [(HARM, w, h) for w in windows_harm for h in (0.05, 0.04)]
    cases += [(QUART, w, h) for w in windows_quart for h in (0.05, 0.025)]
    assert len(cases) == 20
    eps = []
    for pot, (a1, a2), hbar in cases:
        spec = oracle.solve_spectrum(pot, hbar, (a1, a2))
        cr = quantize.weyl_count(pot, a1, a2, hbar)
        eps.append(len(spec.eigenvalues) - cr.predicted)
    worst = max(abs(e) for e in eps)
    elapsed = time.time() - t0
    report("AC3", worst <= 1.0 and elapsed < 180.0,
           f"20 cases, max |epsilon| = {worst:.3f} (<= 1), t = {elapsed:.1f}s")


def test_ac4_uniform_eigenfunction(quartic_data):
    t0 = time.time()
    sups, peaks = [], {}
    for hbar in (0.1, 0.05, 0.025):
        spec, _, l, k = quartic_data[hbar]
        psi = langer.eigenfunction(QUART, l)
        xg, po = oracle.eigenvector(spec, k)
        tp = turning_points(QUART, l.lam)
        mask = (xg >= psi.x1) & (xg <= tp.x_plus + 1.0)
        sup = float(np.max(np.abs(psi(xg[mask]) - po[mask])))
        sups.append(sup)
        peaks[hbar] = (float(np.interp(tp.x_plus, xg, po)),
                       peak_coefficient(QUART, l.lam) * hbar ** (-1.0 / 6.0),
                       float(np.max(np.abs(po[mask]))))
    monotone = sups[0] > sups[1] > sups[2]
    sup_ok = sups[2] <= 0.15 * peaks[0.025][2]
    peak_obs, peak_pred, _ = peaks[0.025]
    peak_ok = abs(peak_obs / peak_pred - 1.0) <= 0.15
    elapsed = time.time() - t0
    report("AC4", monotone and sup_ok and peak_ok and elapsed < 120.0,
           f"sup errors {[f'{s:.4f}' for s in sups]} monotone={monotone}, "
           f"sup/max_psi = {sups[2] / peaks[0.025][2]:.4f} (<= 0.15), "
           f"peak obs/pred - 1 = {peak_obs / peak_pred - 1.0:+.4f} (|.| <= 0.15), t = {elapsed:.1f}s")


def test_ac5_observables(quartic_data):
    t0 = time.time()
    hbars = [0.1, 0.05, 0.025]
    w_v = lambda x: QUART.value(np.asarray(x, dtype=float))
    w_ind = lambda x: (np.asarray(x) > 0.2).astype(float)
    errs = {"v": [], "ind": [], "kin": []}
    for hbar in hbars:
        spec, _, l, k = quartic_data[hbar]
        errs["v"].append(abs(oracle.observable(spec, k, w_v)
                             - action.classical_average(QUART, l.lam, w_v)))
        errs["ind"].append(abs(oracle.observable(spec, k, w_ind)
                               - action.classical_average(QUART, l.lam, w_ind, (0.2,))))
        errs["kin"].append(abs(oracle.kinetic_energy(spec, k)
                               - action.kinetic_cl(QUART, l.lam)))
    ok = True
    msgs = []
    for name, es in errs.items():
        slope = float(np.polyfit(np.log(hbars), np.log(es), 1)[0])
        dec = es[0] > es[1] > es[2]
        ok = ok and dec and slope >= 0.25
        msgs.append(f"{name}: slope={slope:.2f} decreasing={dec}")
    elapsed = time.time() - t0
    report("AC5", ok, "; ".join(msgs) + f" (slopes >= 0.25), t = {elapsed:.1f}s")


def test_ac6_airy_correctness():
    t = np.linspace(-30.0, 30.0, 10_000)
    ai, aip, bi, bip = airy.airy_many(t)
    wr = float(np.max(np.abs(aip * bi - ai * bip + 1.0 / np.pi)) * np.pi)
    with open(FIXTURES / "airy_golden.csv") as fh:
        rows = {float(r["t"]): r for r in csv.DictReader(fh)}
    v0 = airy.airy_eval(0.0)
    d_ai0 = abs(v0.ai - float(rows[0.0]["ai"]))
    d_aip0 = abs(v0.ai_prime - float(rows[0.0]["ai_prime"]))
    hand = []
    for ts in (airy.T_SWITCH_PLUS, airy.T_SWITCH_MINUS):
        core = airy._core_eval(np.array([ts]))
        if ts > 0:
            a, ap, b, bp, z = airy._asym_plus_scaled(np.array([ts]))
            other = (a * np.exp(-z), ap * np.exp(-z), b * np.exp(z), bp * np.exp(z))
        else:
            other = airy._asym_minus(np.array([ts]))
        hand.append(max(abs(c[0] - o[0]) / abs(o[0]) for c, o in zip(core, other)))
    ok = wr <= 1e-12 and d_ai0 <= 1e-13 and d_aip0 <= 1e-13 and max(hand) <= 1e-11
    report("AC6", ok,
           f"wronskian rel = {wr:.2e} (<= 1e-12), dAi(0) = {d_ai0:.1e}, dAi'(0) = {d_aip0:.1e} "
           f"(<= 1e-13), handoff = {max(hand):.2e} (<= 1e-11)")


def test_ac7_discontinuous_quantization():
    t0 = time.time()
    hbars = [0.05, 0.025, 0.0125]
    errs, bars = [], []
    for hbar in hbars:
        dl = quantize.levels(DISC, (0.8, 1.8), hbar)
        spec = oracle.solve_spectrum(DISC, hbar, (0.8, 1.8))
        count_ok = len(dl) == len(spec.eigenvalues)
        assert count_ok, f"count mismatch at hbar={hbar}"
        errs.append(float(np.max(np.abs(np.array([l.lam for l in dl]) - spec.eigenvalues))))
        bars.append(float(np.max(spec.est_error)))
    # decreasing, allowing the reference error bar once the semiclassical
    # error drops below what the oracle can resolve
    dec = all(errs[i + 1] <= errs[i] + 3.0 * (bars[i] + bars[i + 1]) for i in range(2))
    slope = float(np.polyfit(np.log(hbars), np.log(errs), 1)[0])
    # continuous limit: equal offsets make the jump condition collapse onto
    # Bohr-Sommerfeld (the well itself, with only a curvature jump, picks the latter)
    cont = make_power_law(0, 1, 2, 0, 4, 2)
    bs = quantize.levels(cont, (0.3, 1.2), 0.05)
    dd = levels_of_kind(cont, (0.3, 1.2), 0.05, "discontinuous")
    dev = max(abs(a.lam - b.lam) for a, b in zip(bs, dd))
    elapsed = time.time() - t0
    ok = dec and slope >= 1.3 and dev <= 1e-10 and elapsed < 120.0
    report("AC7", ok,
           f"errors {[f'{e:.2e}' for e in errs]} decreasing(within bars)={dec}, "
           f"slope = {slope:.2f} (>= 1.3), continuous-limit dev = {dev:.1e} (<= 1e-10), "
           f"t = {elapsed:.1f}s")


def test_ac8_halfline_offsets():
    t0 = time.time()
    # Dirichlet reproduces the odd full-line harmonic levels (4n+3) hbar
    d_resid = []
    for hbar in (0.1, 0.05):
        lv = quantize.levels(HALF_HARM, (0.04, 1.3), hbar)
        odd = np.array([(4 * l.n + 3) * hbar for l in lv])
        spec = oracle.solve_spectrum(HALF_HARM, hbar, (0.04, 1.3))
        assert len(lv) == len(spec.eigenvalues)
        assert np.abs(np.array([l.lam for l in lv]) - odd).max() <= 1e-10
        d_resid.append(float(np.abs(np.array([l.lam for l in lv]) - spec.eigenvalues).max()))
    dirichlet_ok = all(r <= 1e-6 * h**2 for r, h in zip(d_resid, (0.1, 0.05)))

    # Robin reproduces the even levels (4n+1) hbar at leading order; the true
    # b-dependence is an hbar^2-class correction
    r_resid = []
    for hbar in (0.1, 0.05):
        lv = quantize.levels(HALF_HARM, (0.42, 1.38), hbar, robin_b=2.0)
        even = np.array([(4 * l.n + 1) * hbar for l in lv])
        assert np.abs(np.array([l.lam for l in lv]) - even).max() <= 1e-10
        spec = oracle.solve_spectrum(HALF_HARM, hbar, (0.42, 1.38), robin_b=2.0)
        assert len(lv) == len(spec.eigenvalues)
        r_resid.append(float(np.abs(np.array([l.lam for l in lv]) - spec.eigenvalues).max()))
    robin_slope = math.log(r_resid[0] / r_resid[1]) / math.log(2.0)

    # any two b values give identical tables
    t1 = quantize.levels(HALF_HARM, (0.42, 1.38), 0.05, robin_b=0.5)
    t2 = quantize.levels(HALF_HARM, (0.42, 1.38), 0.05, robin_b=50.0)
    b_indep = [l.lam for l in t1] == [l.lam for l in t2]
    elapsed = time.time() - t0
    ok = dirichlet_ok and robin_slope >= 1.5 and b_indep
    report("AC8", ok,
           f"dirichlet residuals {[f'{r:.1e}' for r in d_resid]} (hbar^2-class), "
           f"robin residual slope = {robin_slope:.2f} (>= 1.5), b-independent = {b_indep}, "
           f"t = {elapsed:.1f}s")


def test_ac9_classical_identities():
    worst_id = 0.0
    for pot in (HARM, QUART):
        for lam in (0.6, 0.9, 1.2, 1.6, 2.0):
            k = action.kinetic_cl(pot, lam)
            prof = smooth(pot, lam)
            avg_v = action.classical_average(pot, lam, lambda x: pot.value(x))
            worst_id = max(worst_id, abs(k - prof.g / (2.0 * prof.g_prime)),
                           abs(k + avg_v - lam))
    worst_beta = 0.0
    for ap, am in ((2, 2), (2, 4), (1, 3)):
        pot = make_power_law(0, 1, ap, 0, 1, am)
        for lam in (0.8, 1.5):
            forms = action.power_law_closed_forms(0, 1, ap, 0, 1, am, lam)
            worst_beta = max(
                worst_beta,
                abs(forms.phi - smooth(pot, lam).g) / forms.phi,
                abs(forms.phi_prime - smooth(pot, lam).g_prime) / forms.phi_prime,
            )
    ok = worst_id <= 1e-8 and worst_beta <= 1e-8
    report("AC9", ok,
           f"kinetic identity defect = {worst_id:.2e} (<= 1e-8), "
           f"beta closed-form rel dev = {worst_beta:.2e} (<= 1e-8)")
