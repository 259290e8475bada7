"""Seeded workloads and the independent checks of their output tables.

Each workload is one `semiclass` CLI command on a generated JSON config.
The seed perturbs the well coefficients and the energy window; the
perturbations keep the action integral Phi(lam) (and so the level count,
the oracle grid sizes and the row count) at or near the seed-0 values, so
that runs with different seeds measure the same amount of work.  Seed 0 is
the unperturbed workload.

The checks recompute what they need from the Beta-function closed form of
Phi for two-branch power-law wells, with `math.lgamma`; nothing here
imports semiclass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("levels-sweep", "count-oracle", "wavefunction-jump")

# Relative accuracy the closed forms are held to.  The program solves
# Phi(lam) = pi (n + 1/2) hbar to a quadrature tolerance of 1e-12 and a
# root tolerance of 1e-12 relative, and reports Weyl predictions from
# quadratures at 1e-10 absolute.
LEVEL_RTOL = 1e-9
PREDICTED_RTOL = 1e-9

# Bound on sup |psi - psi_oracle| for one level, as a share of that level's
# peak |psi_oracle|.  The leading uniform approximation has an O(hbar)
# relative remainder; the worst level of wavefunction-jump at seed 0 sits at
# 1.3% (hbar = 0.05, n = 5).
PSI_ERR_SHARE = 0.05

# Largest difference allowed between two runs of one config.  Every column
# must repeat byte for byte except the two below: the Langer charts are
# interpolated with scipy's BarycentricInterpolator, which draws from the
# global numpy RNG (rng=None), so psi moves in the last digits (about
# 1.5e-14) between fresh processes.  The jitter is reported, not hidden.
PSI_JITTER = 1e-12
PSI_JITTER_REASON = ("langer.build_chart's BarycentricInterpolator draws from the "
                     "unseeded global numpy RNG, so psi differs in the last digits "
                     "between fresh processes")


def beta(p: float, q: float) -> float:
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


@dataclass(frozen=True)
class PowerWell:
    """v = a_pm + v_pm |x|^alpha on the two half lines."""

    a_plus: float
    v_plus: float
    a_minus: float
    v_minus: float
    alpha: float

    def spec(self) -> dict:
        return {"kind": "power_law",
                "a_plus": self.a_plus, "v_plus": self.v_plus, "alpha_plus": self.alpha,
                "a_minus": self.a_minus, "v_minus": self.v_minus, "alpha_minus": self.alpha}

    def phi(self, lam: float) -> float:
        """Phi(lam) = int (lam - v)^(1/2) dx over the well, in closed form."""
        e = 0.5 + 1.0 / self.alpha
        c = beta(1.5, 1.0 / self.alpha) / self.alpha
        return sum(c * (lam - a) ** e * v ** (-1.0 / self.alpha)
                   for a, v in ((self.a_plus, self.v_plus), (self.a_minus, self.v_minus)))

    def bs_level(self, n: int, hbar: float) -> float:
        """Root of Phi(lam) = pi (n + 1/2) hbar; needs a_plus == a_minus."""
        e = 0.5 + 1.0 / self.alpha
        k = self.phi(self.a_plus + 1.0)
        return self.a_plus + (math.pi * (n + 0.5) * hbar / k) ** (1.0 / e)


@dataclass
class Workload:
    name: str
    command: str
    flags: list
    well: PowerWell
    hbars: list
    window: tuple

    def config(self) -> dict:
        return {"potential": self.well.spec(), "hbar": self.hbars, "window": list(self.window)}

    def check(self, header: list, rows: list) -> list:
        """Errors found in the output table (empty when it is correct)."""
        try:
            return _CHECKS[self.name](self, header, rows)
        except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
            return [f"unreadable table: {type(exc).__name__}: {exc}"]


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` for `seed`; tiny=True gives a sub-second variant."""
    rng = random.Random(f"{name}:{seed}")
    jitter = (lambda: 0.0) if seed == 0 else (lambda: rng.uniform(-1.0, 1.0))
    # Phi, and with it every count, is invariant under a common shift of v
    # and the window; the window also slides by up to 0.2% of its width
    shift = 0.2 * jitter()
    slide = 0.002 * jitter()
    if name in ("levels-sweep", "count-oracle"):
        # s_pm = v_pm^(-1/alpha) enters Phi only through s_+ + s_-, held at 2
        eps = 0.03 * jitter()
        alpha = 4.0
        well = PowerWell(shift, (1 + eps) ** -alpha, shift, (1 - eps) ** -alpha, alpha)
        lo, hi = 0.5, 2.0
        hbars = [0.1, 0.05] if tiny else [0.02, 0.01, 0.005]
    elif name == "wavefunction-jump":
        # Seed 0 sits near two edges: at hbar = 0.05 the lowest level is
        # 0.008 above the window bottom, and at hbar = 0.035 the oracle's
        # error estimate on N = 8192 is 17% above its tolerance, which an
        # asymmetric v_pm can undercut, halving the grid.  So v_pm stay equal,
        # the jump only grows (by up to 2%) and the window only slides down;
        # that keeps 10 + 14 levels and N = 8192, 16384 on every seed.
        jump = 0.5 * (1.0 + 0.02 * abs(jitter()))
        slide = -0.002 * abs(jitter())
        well = PowerWell(shift + jump, 1.0, shift, 1.0, 2.0)
        lo, hi = 0.8, 1.8
        hbars = [0.1] if tiny else [0.05, 0.035]
    else:
        raise ValueError(f"unknown workload {name!r}")
    window = (shift + lo + slide * (hi - lo), shift + hi + slide * (hi - lo))
    command, flags = {"levels-sweep": ("levels", ["--no-oracle"]), "count-oracle": ("count", []),
                      "wavefunction-jump": ("wavefunction", [])}[name]
    return Workload(name, command, flags, well, hbars, window)


# ---------------------------------------------------------------------------
# checks


def _columns(header: list, expected: list) -> list:
    if header != expected:
        return [f"columns {header} != {expected}"]
    return []


def _bs_range(wl: Workload, hbar: float):
    """Quantum numbers n >= 0 with pi (n + 1/2) hbar strictly inside
    (Phi(a1), Phi(a2)), split into those the closed form settles and those
    within rounding of a window edge."""
    p1, p2 = (wl.well.phi(a) / (math.pi * hbar) - 0.5 for a in wl.window)
    tol = 1e-9 * max(1.0, abs(p2))
    sure = set(range(max(math.floor(p1 + tol) + 1, 0), math.ceil(p2 - tol)))
    near = {n for n in (round(p1), round(p2)) if n >= 0 and min(abs(n - p1), abs(n - p2)) <= tol}
    return sure, near


def _check_levels(wl: Workload, header: list, rows: list) -> list:
    errs = _columns(header, ["hbar", "n", "kind", "lambda_sc", "residual",
                             "lambda_oracle", "delta", "action_residual"])
    if errs:
        return errs
    by_hbar: dict = {}
    for r in rows:
        by_hbar.setdefault(float(r[0]), []).append(r)
    if sorted(by_hbar) != sorted(wl.hbars):
        errs.append(f"hbar values {sorted(by_hbar)} != {sorted(wl.hbars)}")
    for hbar, rs in by_hbar.items():
        ns = [int(r[1]) for r in rs]
        if ns != list(range(ns[0], ns[0] + len(ns))):
            errs.append(f"hbar={hbar}: quantum numbers have gaps or repeats")
        sure, near = _bs_range(wl, hbar)
        if not sure <= set(ns) <= sure | near:
            errs.append(f"hbar={hbar}: n in [{min(ns)}, {max(ns)}], closed form gives "
                        f"[{min(sure)}, {max(sure)}]")
        for r in rs:
            lam, want = float(r[3]), wl.well.bs_level(int(r[1]), hbar)
            if r[2] != "smooth" or abs(lam - want) > LEVEL_RTOL * max(1.0, abs(want)):
                errs.append(f"hbar={hbar} n={r[1]}: lambda {lam!r} ({r[2]}) vs closed form {want!r}")
    return errs


def _check_count(wl: Workload, header: list, rows: list) -> list:
    errs = _columns(header, ["hbar", "a1", "a2", "predicted", "count_sc", "epsilon_sc",
                             "count_oracle", "epsilon_oracle", "phase_volume"])
    if errs:
        return errs
    if sorted(float(r[0]) for r in rows) != sorted(wl.hbars):
        errs.append("hbar values differ from the config")
    a1, a2 = wl.window
    dphi = wl.well.phi(a2) - wl.well.phi(a1)
    for r in rows:
        hbar = float(r[0])
        want = dphi / (math.pi * hbar)
        predicted, count_o, eps_o = float(r[3]), int(r[6]), float(r[7])
        if (float(r[1]), float(r[2])) != (a1, a2):
            errs.append(f"hbar={hbar}: window ({r[1]}, {r[2]}) != {wl.window}")
        if abs(predicted - want) > PREDICTED_RTOL * want:
            errs.append(f"hbar={hbar}: predicted {predicted!r} vs closed form {want!r}")
        if abs(float(r[8]) - 2.0 * dphi) > PREDICTED_RTOL * dphi:
            errs.append(f"hbar={hbar}: phase_volume {r[8]} vs closed form {2.0 * dphi!r}")
        sure, near = _bs_range(wl, hbar)
        if not len(sure) <= int(r[4]) <= len(sure | near):
            errs.append(f"hbar={hbar}: count_sc {r[4]} vs closed form {len(sure)}")
        if not -1.0 <= eps_o <= 1.0:
            errs.append(f"hbar={hbar}: epsilon_oracle {eps_o!r} outside the Weyl bound [-1, 1]")
        if abs(eps_o - (count_o - predicted)) > 1e-9 * max(1.0, want):
            errs.append(f"hbar={hbar}: epsilon_oracle != count_oracle - predicted")
    return errs


def _check_wavefunction(wl: Workload, header: list, rows: list) -> list:
    errs = _columns(header, ["hbar", "n", "x", "psi", "psi_oracle", "abs_err"])
    if errs:
        return errs
    levels: dict = {}
    for r in rows:
        levels.setdefault((float(r[0]), int(r[1])), []).append(r)
    hbars = sorted({h for h, _ in levels})
    if hbars != sorted(wl.hbars):
        errs.append(f"hbar values {hbars} != {sorted(wl.hbars)}")
    a1, a2 = wl.window
    dphi = wl.well.phi(a2) - wl.well.phi(a1)
    for hbar in hbars:
        ns = sorted(n for h, n in levels if h == hbar)
        predicted = dphi / (math.pi * hbar)
        if ns != list(range(ns[0], ns[0] + len(ns))):
            errs.append(f"hbar={hbar}: quantum numbers have gaps")
        if not -1.0 <= len(ns) - predicted <= 1.0:
            errs.append(f"hbar={hbar}: {len(ns)} levels vs Weyl prediction {predicted!r}")
        matched = set()
        for n in ns:
            rs = levels[(hbar, n)]
            if any(r[4] == "" for r in rs):
                errs.append(f"hbar={hbar} n={n}: rows without an oracle match")
                continue
            oracle_col = tuple(r[4] for r in rs)
            if oracle_col in matched:
                errs.append(f"hbar={hbar} n={n}: oracle eigenvector shared with another level")
            matched.add(oracle_col)
            peak = max(abs(float(v)) for v in oracle_col)
            sup = 0.0
            for r in rs:
                err = abs(float(r[3]) - float(r[4]))
                if float(r[5]) != err:
                    errs.append(f"hbar={hbar} n={n} x={r[2]}: abs_err {r[5]} != |psi - psi_oracle|")
                    break
                sup = max(sup, err)
            if sup > PSI_ERR_SHARE * peak:
                errs.append(f"hbar={hbar} n={n}: sup|psi - psi_oracle| = {sup!r} exceeds "
                            f"{PSI_ERR_SHARE} x peak {peak!r}")
    return errs


_CHECKS = {"levels-sweep": _check_levels, "count-oracle": _check_count,
           "wavefunction-jump": _check_wavefunction}

# columns allowed to differ between two runs of one config, with the bound
REPEAT_TOLERANCE = {"wavefunction-jump": {"psi": PSI_JITTER, "abs_err": PSI_JITTER}}
