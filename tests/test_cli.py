import dataclasses
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semiclass.cli import run

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def invoke(args, tmp_path, name="out.csv", **env):
    out = tmp_path / name
    environ = dict(os.environ, **{k: str(v) for k, v in env.items()})
    proc = subprocess.run(
        [sys.executable, "-m", "semiclass.cli", *args, "--out", str(out)],
        capture_output=True, text=True, env=environ, cwd=REPO,
    )
    return proc, out


def write_config(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


HARM_POT = {"kind": "power_law", "a_plus": 0.0, "v_plus": 1.0, "alpha_plus": 2.0,
            "a_minus": 0.0, "v_minus": 1.0, "alpha_minus": 2.0}


def test_levels_harmonic_no_oracle(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": 0.1,
                                            "window": [0.03, 0.77]})
    rc = run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv"), "--no-oracle"])
    assert rc == 0
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0].startswith("hbar,n,kind,lambda_sc")
    assert len(lines) == 5  # levels 0.1 0.3 0.5 0.7
    # Bohr-Sommerfeld is exact here: lam_n = (2n+1) hbar, to the documented
    # root accuracy (LAMBDA_TOL plus _ROOT_QUAD_TOL / Phi'), not to the last bit
    for k, line in enumerate(lines[1:]):
        _, n, kind, lam = line.split(",")[:4]
        assert int(n) == k
        assert kind == "smooth"
        assert abs(float(lam) - (2 * k + 1) * 0.1) <= 1e-11
        assert lam == repr(float(lam))  # shortest round-trip form


def test_levels_with_oracle_delta_small(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": 0.1,
                                            "window": [0.03, 0.57]})
    rc = run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    rows = (tmp_path / "t.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        delta = abs(float(row.split(",")[6]))
        assert delta <= 1e-7  # Bohr-Sommerfeld is exact for the harmonic well


def test_empty_window_exits_zero(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": 0.1,
                                            "window": [0.74, 0.86]})
    rc = run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv"), "--no-oracle"])
    assert rc == 0
    assert len((tmp_path / "t.csv").read_text().strip().splitlines()) == 1


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"hbar": 0.1, "window": [0.1, 1.0]})
    assert run(["levels", "--config", str(cfg)]) == 2
    cfg2 = write_config(tmp_path, "c2.json", {"potential": HARM_POT, "hbar": [0.1, 0.1],
                                              "window": [0.1, 1.0]})
    assert run(["levels", "--config", str(cfg2)]) == 2
    assert run(["levels", "--config", str(tmp_path / "missing.json")]) == 2


def test_certification_failure_exit_code(tmp_path):
    double_well = {"kind": "table", "branches": [
        {"lo": "-inf", "hi": "inf", "type": "poly", "coeffs": [0.0, 0.0, -1.0, 0.0, 1.0]}
    ]}
    cfg = write_config(tmp_path, "c.json", {"potential": double_well, "hbar": 0.05,
                                            "window": [-0.2, -0.1]})
    assert run(["levels", "--config", str(cfg), "--no-oracle"]) == 3


HL_JUMP_POT = {"kind": "table", "domain": "half_line", "branches": [
    {"lo": 0.0, "hi": 0.3, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
    {"lo": 0.3, "hi": "inf", "type": "poly", "coeffs": [0.5, 0.0, 1.0]},
]}


def test_halfline_jump_inside_the_well_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"potential": HL_JUMP_POT, "hbar": 0.02,
                                            "window": [0.6, 1.5]})
    assert run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                "--no-oracle"]) == 4
    assert "jumps inside the well" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["levels", "wavefunction", "count"])
def test_a_robin_wall_on_a_full_line_well_exits_3(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": 0.1, "robin_b": 3.0,
                                            "window": [0.03, 0.57]})
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err.startswith("certification failure: domain:")
    assert not (tmp_path / "t.csv").exists()


def test_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    # a quadrature that never converges names one interval on one line
    from semiclass import quadrature

    cfg = str(CONFIGS / "harmonic_levels.json")
    for attr, command in (("_GL_N_MAX", "levels"), ("_CUMSUM_DEG_MAX", "wavefunction")):
        with monkeypatch.context() as m:
            m.setattr(quadrature, attr, 16)
            rc = run([command, "--config", cfg, "--no-oracle", "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("numerical non-convergence: no convergence to tol=")
        assert err.count("\n") == 1 and " on [" in err


def test_count_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": [0.1],
                                            "window": [0.05, 0.75]})
    rc = run(["count", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    row = (tmp_path / "t.csv").read_text().strip().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(3.5, abs=1e-9)
    assert row[4] == "4" and row[6] == "4"
    assert abs(float(row[7])) <= 1.0


def test_wavefunction_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": [0.1],
                                            "window": [0.45, 0.55]})
    proc, out = invoke(["wavefunction", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "hbar,n,x,psi,psi_oracle,abs_err"
    assert len(lines) > 100
    assert "sup|psi-psi_oracle|" in proc.stderr
    # reported sup error is the wavefunction-level approximation error
    sup = float(proc.stderr.split("=")[-1])
    assert 0.0 < sup < 0.2


def test_observable_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "potential": HARM_POT, "hbar": [0.1], "window": [0.45, 0.55],
        "weights": [{"name": "v", "kind": "potential"},
                    {"name": "right", "kind": "indicator", "lo": 0.2}],
    })
    rc = run(["observable", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    names = [l.split(",")[2] for l in lines[1:]]
    assert names == ["v", "right", "kinetic"]
    for l in lines[1:]:
        assert float(l.split(",")[5]) <= 0.1


def test_scaling_command_json(tmp_path):
    rc = run(["scaling", "--config", str(CONFIGS / "quartic_scaling.json"),
              "--format", "json", "--out", str(tmp_path / "t.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["study"] == "levels"
    assert doc["predicted_class"] == 2.0
    assert doc["fitted_slope"] >= 1.5
    assert len(doc["rows"]) == 3
    _assert_json_dumps_layout(tmp_path / "t.json")


def test_determinism_two_runs_byte_identical(tmp_path):
    # two processes with different hash seeds write the same bytes, for the
    # oracle commands on a jump well too
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": [0.1, 0.05],
                                            "window": [0.03, 0.77]})
    jump = CONFIGS / "table_jump.json"
    for command, config in [("levels", cfg), ("wavefunction", jump), ("count", jump),
                            ("observable", jump)]:
        p1, o1 = invoke([command, "--config", str(config)], tmp_path, "a.csv", PYTHONHASHSEED=0)
        p2, o2 = invoke([command, "--config", str(config)], tmp_path, "b.csv", PYTHONHASHSEED=1)
        assert p1.returncode == p2.returncode == 0, command
        assert o1.read_bytes() == o2.read_bytes(), command


def test_count_oracle_non_convergence_exit_code(tmp_path, monkeypatch, capsys):
    from semiclass import oracle

    monkeypatch.setattr(oracle, "_MAX_N", 1024)
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": 0.1,
                                            "window": [0.03, 0.77]})
    assert run(["count", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical non-convergence:") and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_disc_routing_from_committed_config(tmp_path):
    proc, out = invoke(["levels", "--config", str(CONFIGS / "disc_levels.json")], tmp_path)
    assert proc.returncode == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(r.split(",")[2] == "discontinuous" for r in rows)
    assert all(abs(float(r.split(",")[6])) < 1e-3 for r in rows)


KINK_JUMP_POT = {"kind": "table", "branches": [
    {"lo": "-inf", "hi": -3.0, "type": "poly", "coeffs": [-27.0, -12.0]},
    {"lo": -3.0, "hi": 0.0, "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
    {"lo": 0.0, "hi": "inf", "type": "power", "offset": 0.5, "coeff": 1.0, "exponent": 2.0},
]}


def test_disc_levels_with_a_kink_outside_the_well(tmp_path):
    # the first singular point (the kink at -3) is not the jump the levels need
    cfg = write_config(tmp_path, "c.json", {"potential": KINK_JUMP_POT, "hbar": 0.05,
                                            "window": [0.8, 1.8]})
    assert run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
    rows = [r.split(",") for r in (tmp_path / "t.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == 10
    assert all(r[2] == "discontinuous" and abs(float(r[6])) < 1e-3 for r in rows)
    assert all(float(r[7]) < 1e-2 for r in rows)


def test_jump_outside_the_well_routes_to_bs(tmp_path):
    pot = {"kind": "table", "branches": [
        {"lo": "-inf", "hi": -3.0, "type": "poly", "coeffs": [-26.0, -12.0]},
        {"lo": -3.0, "hi": "inf", "type": "poly", "coeffs": [0.0, 0.0, 1.0]},
    ]}
    cfg = write_config(tmp_path, "c.json", {"potential": pot, "hbar": 0.1,
                                            "window": [0.03, 0.77]})
    assert run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv"), "--no-oracle"]) == 0
    rows = (tmp_path / "t.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4 and all(r.split(",")[2] == "smooth" for r in rows)


def test_levels_certifies_once_per_run(tmp_path, monkeypatch):
    from semiclass import cli, potential, quantize

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return potential.certify_well(*args, **kwargs)

    for mod in (cli, quantize):
        monkeypatch.setattr(mod, "certify_well", counting)
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": [0.1, 0.05, 0.025],
                                            "window": [0.03, 0.77]})
    assert run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv"), "--no-oracle"]) == 0
    assert calls == [(0.03, 0.77)]


def test_halfline_routing_from_committed_config(tmp_path):
    proc, out = invoke(["levels", "--config", str(CONFIGS / "halfline_robin.json"),
                        "--no-oracle"], tmp_path)
    assert proc.returncode == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(r.split(",")[2] == "halfline_robin" for r in rows)


def test_halfline_wavefunction_reaches_past_each_turning_point(tmp_path):
    # v = x^2 on the half line: the turning point of level lam is sqrt(lam)
    cfg = str(CONFIGS / "halfline_robin.json")
    assert run(["levels", "--config", cfg, "--no-oracle", "--out", str(tmp_path / "l.csv")]) == 0
    assert run(["wavefunction", "--config", cfg, "--no-oracle", "--out", str(tmp_path / "w.csv")]) == 0
    lam = {(r[0], r[1]): float(r[3]) for r in
           (line.split(",") for line in (tmp_path / "l.csv").read_text().splitlines()[1:])}
    x_max = {}
    for r in (line.split(",") for line in (tmp_path / "w.csv").read_text().splitlines()[1:]):
        x_max[r[0], r[1]] = max(x_max.get((r[0], r[1]), 0.0), float(r[2]))
    assert x_max.keys() == lam.keys()
    assert all(x_max[k] > math.sqrt(lam[k]) for k in lam)


def test_potential_path_resolved_relative_to_config(tmp_path):
    proc, out = invoke(["levels", "--config", str(CONFIGS / "harmonic_levels.json"),
                        "--no-oracle"], tmp_path)
    assert proc.returncode == 0


def test_cli_import_loads_no_root_finder_or_interpolator():
    code = ("import sys, semiclass.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.interpolate', 'scipy.linalg') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_oracle_commands_load_no_scipy_linalg(tmp_path):
    # the oracle loads scipy's LAPACK extension alone, not the scipy.linalg
    # package, nor even the scipy package
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": [0.1],
                                             "window": [0.03, 0.6]})
    code = ("import sys; from semiclass.cli import run; "
            f"print([run([c, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r} + '/' + c]) "
            "for c in ('count', 'wavefunction')], 'scipy.linalg' in sys.modules, "
            "'scipy.linalg._flapack' in sys.modules, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] False True False"
    assert (tmp_path / "count").read_text().splitlines()[1].split(",")[6] == "3"  # count_oracle
    assert "psi_oracle" in (tmp_path / "wavefunction").read_text().splitlines()[0]


def test_wavefunction_on_a_jump_well_with_a_steep_wall_exits_0(tmp_path, capsys):
    # x^2 left of a jump at 0.3 and exp(x^2) - 0.7 right of it: the outer
    # action of a chart grows to about 1e5 on the exp(x^2) wall, and level
    # n = 12 at hbar 0.05 exited 4 while the fits of that action were asked
    # to agree to 1e-10 absolute
    out = tmp_path / "w.csv"
    assert run(["wavefunction", "--config", str(CONFIGS / "table_jump.json"), "--out", str(out)]) == 0
    sup = {line.split()[1]: float(line.split("=")[-1])
           for line in capsys.readouterr().err.splitlines() if line.startswith("hbar=0.05 ")}
    assert set(sup) == {f"n={n}" for n in range(4, 13)} and sup["n=12"] <= 5e-3
    assert "0.05,12," in out.read_text()


def test_cli_matrix_names_a_file_that_is_not_a_run_config(tmp_path):
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "cli_matrix.py"), str(tmp_path),
                           str(CONFIGS / "potentials" / "harmonic.json")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr == "not a run config: harmonic.json: every run exits 2\n"


def test_scaling_without_levels_exits_4(tmp_path):
    # at hbar = 0.1 the window holds no level of the harmonic well
    cfg = write_config(tmp_path, "c.json", {
        "potential_path": str(CONFIGS / "potentials" / "harmonic.json"), "hbar": [0.1, 0.05],
        "window": [0.74, 0.86], "study": "kinetic"})
    proc, _ = invoke(["scaling", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 4
    assert "numerical non-convergence" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_disc_levels_scaling_without_levels_exits_4(tmp_path, capsys):
    # neither side has a level in the window at hbar = 0.1
    cfg = write_config(tmp_path, "c.json", {
        "potential_path": str(CONFIGS / "potentials" / "harmonic.json"), "hbar": [0.1, 0.05],
        "window": [0.74, 0.86], "study": "disc-levels"})
    assert run(["scaling", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 4
    assert "no levels in window at hbar=0.1" in capsys.readouterr().err


HALFLINE_CFG = json.loads((CONFIGS / "halfline_robin.json").read_text())


@pytest.mark.parametrize("command,study,flags", [
    ("observable", None, []),
    ("observable", None, ["--no-oracle"]),
    ("scaling", "levels", []),
    ("scaling", "kinetic", []),
    ("scaling", "observable", []),
    ("scaling", "wavefunction", []),
])
def test_full_line_commands_on_a_half_line_well_exit_3(tmp_path, capsys, command, study, flags):
    doc = dict(HALFLINE_CFG, **({"study": study} if study else {}))
    cfg = write_config(tmp_path, "c.json", doc)
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "t.csv"), *flags]) == 3
    assert "domain" in capsys.readouterr().err


def test_disc_levels_scaling_runs_on_a_half_line_well(tmp_path):
    cfg = write_config(tmp_path, "c.json", dict(HALFLINE_CFG, study="disc-levels"))
    assert run(["scaling", "--config", str(cfg), "--format", "json",
                "--out", str(tmp_path / "t.json")]) == 0
    assert len(json.loads((tmp_path / "t.json").read_text())["rows"]) == 2


def _committed(name):
    doc = json.loads((CONFIGS / name).read_text())
    if isinstance(doc.get("potential_path"), str):  # resolve it from anywhere
        doc["potential_path"] = str(CONFIGS / doc["potential_path"])
    return doc


DISC_CFG = _committed("disc_levels.json")



def _table(tmp_path, command, doc, name):
    """The CSV rows, as lists of cells, of one successful run on doc."""
    cfg = write_config(tmp_path, f"{name}.json", doc)
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / f"{name}.csv")]) == 0
    return [r.split(",") for r in (tmp_path / f"{name}.csv").read_text().splitlines()[1:]]


QUARTIC_CFG = _committed("quartic_scaling.json")


@pytest.mark.parametrize("study", ["levels", "disc-levels", "observable", "kinetic", "wavefunction"])
def test_every_scaling_study_gives_one_row_per_hbar(tmp_path, study):
    rows = _table(tmp_path, "scaling", dict(QUARTIC_CFG, study=study), "s")
    assert [float(r[0]) for r in rows] == sorted(QUARTIC_CFG["hbar"])
    assert all(float(r[1]) > 0.0 for r in rows)


def test_the_scaling_errors_are_cells_of_the_levels_and_observable_tables(tmp_path):
    # kinetic and observable read the level nearest lambda_ref (the window's
    # midpoint here), disc-levels the worst |delta| of the window
    levels = _table(tmp_path, "levels", QUARTIC_CFG, "l")
    obs = {(r[0], r[1], r[2]): r[5] for r in _table(tmp_path, "observable", QUARTIC_CFG, "o")}
    lam_ref = 0.5 * sum(QUARTIC_CFG["window"])
    for study in ("kinetic", "observable", "disc-levels", "levels"):
        for h, err in _table(tmp_path, "scaling", dict(QUARTIC_CFG, study=study), study):
            at_h = [r for r in levels if r[0] == h]
            n = min(at_h, key=lambda r: abs(float(r[3]) - lam_ref))[1]
            if study == "disc-levels":
                assert err == repr(max(abs(float(r[6])) for r in at_h))
            elif study == "levels":  # one quantize.defect for the table and the study
                assert err == repr(max(float(r[7]) for r in at_h))
            else:
                assert err == obs[h, n, "kinetic" if study == "kinetic" else "v"]


def test_the_wavefunction_study_is_the_sup_error_from_the_matching_point_to_x_plus_1(tmp_path):
    from semiclass import langer, oracle, quantize
    from semiclass.potential import certify_well, potential_from_spec

    pot = potential_from_spec(QUARTIC_CFG["potential"])
    window = tuple(QUARTIC_CFG["window"])
    cert = certify_well(pot, *window)
    lam_ref = 0.5 * sum(window)
    for h, err in _table(tmp_path, "scaling", dict(QUARTIC_CFG, study="wavefunction"), "s"):
        level = min(quantize.levels(pot, window, float(h), cert=cert),
                    key=lambda l: abs(l.lam - lam_ref))
        spec = oracle.solve_spectrum(pot, float(h), window, oracle.DEFAULT_TOL)
        psi = langer.eigenfunction(pot, level, cert)
        xg, po = oracle.eigenvector(spec, int(np.flatnonzero(spec.index == level.n)[0]))
        on = (xg >= psi.x1) & (xg <= psi.plus.x_tp + 1.0)
        assert err == repr(float(np.max(np.abs(psi(xg[on]) - po[on]))))


@pytest.mark.parametrize("command", ["levels", "wavefunction"])
def test_an_n_filter_keeps_the_unfiltered_rows_of_its_levels(tmp_path, command):
    doc = dict(DISC_CFG, hbar=[0.1, 0.05])
    every = _table(tmp_path, command, doc, "every")
    some = _table(tmp_path, command, dict(doc, n=[5, 7]), "some")
    assert some == [r for r in every if r[1] in ("5", "7")]
    assert {(r[0], r[1]) for r in some} == {(h, n) for h in ("0.05", "0.1") for n in ("5", "7")}


def test_the_disc_levels_study_compares_only_the_levels_an_n_filter_admits(tmp_path):
    doc = _committed("disc_scaling.json")
    levels = _table(tmp_path, "levels", doc, "l")
    assert {r[1] for r in levels} == {"5", "7"}
    rows = _table(tmp_path, "scaling", doc, "s")
    assert rows == [[h, repr(max(abs(float(r[6])) for r in levels if r[0] == h))]
                    for h in ("0.05", "0.1")]



def test_the_levels_study_compares_only_the_levels_an_n_filter_admits(tmp_path):
    # the committed window starts at n = 2 (hbar 0.2) or higher, so it is
    # widened down to n = 0, the worst level of every hbar; n = 1 is not it
    doc = dict(QUARTIC_CFG, window=[0.01, 2.0])
    every = _table(tmp_path, "scaling", doc, "every")
    some = _table(tmp_path, "scaling", dict(doc, n=[1]), "some")
    levels = _table(tmp_path, "levels", dict(doc, n=[1]), "l")
    assert [r[0] for r in some] == [r[0] for r in every] == [r[0] for r in levels]
    for (_, err), (_, worst), level in zip(some, every, levels):
        assert float(err) == pytest.approx(float(level[7]), rel=1e-9)  # the n = 1 defect
        assert float(err) < float(worst)


def test_the_levels_study_on_a_jump_inside_the_well_exits_4(tmp_path, capsys):
    # the smooth defect has no jump term; the study used to fit it anyway
    cfg = write_config(tmp_path, "c.json", dict(DISC_CFG, hbar=[0.1, 0.05, 0.025], study="levels"))
    assert run(["scaling", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 4
    assert "jumps inside the well" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_the_levels_study_without_an_admitted_level_exits_4(tmp_path, capsys):
    # the committed window holds no n = 0 at any hbar
    cfg = write_config(tmp_path, "c.json", dict(QUARTIC_CFG, n=[0]))
    assert run(["scaling", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 4
    assert "no levels in window at hbar=0.05" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["quartic_scaling.json", "disc_scaling.json"])
def test_the_scaling_output_does_not_depend_on_the_blas_kernel(tmp_path, name):
    # where numpy's OpenBLAS picks its kernel at run time, Nehalem's differs
    # from the default one in its last bits; no printed number may see it
    args = ["scaling", "--config", str(CONFIGS / name), "--format", "json"]
    default, _ = invoke(args, tmp_path, "a.json")
    nehalem, _ = invoke(args, tmp_path, "b.json", OPENBLAS_CORETYPE="Nehalem")
    assert default.returncode == nehalem.returncode == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert default.stderr == nehalem.stderr and "fitted_slope=" in default.stderr


def test_the_printed_output_does_not_depend_on_the_blas_build():
    # no printed number, psi included, depends on the BLAS build (the
    # Langer action's Chebyshev kernel and the oracle's sums are np.sum
    # forms): neither the thread count nor the kernel OpenBLAS picks at run
    # time changes a byte of stdout or stderr, for the eigenfunction table,
    # the observable table and the wavefunction scaling study
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    settings = {"default": {}, "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
                "nehalem": {"OPENBLAS_CORETYPE": "Nehalem"}}
    for command, config in (("wavefunction", "disc_levels.json"), ("observable", "disc_levels.json"),
                            ("scaling", "quartic_wavefunction.json")):
        out = {}
        for name, env in settings.items():
            proc = subprocess.run(
                [sys.executable, "-m", "semiclass.cli", command, "--config", str(CONFIGS / config)],
                capture_output=True, text=True, env=dict(base, **env), cwd=REPO, timeout=300)
            assert proc.returncode == 0, proc.stderr
            out[name] = (proc.stdout, proc.stderr)
        assert out["default"][0].count("\n") > 2, command
        assert out["one-thread"] == out["default"] == out["nehalem"], command


@pytest.mark.parametrize("out", ["missing/t.csv", "."], ids=["missing-directory", "a-directory"])
def test_an_unwritable_out_exits_2(tmp_path, capsys, out):
    rc = run(["levels", "--config", str(CONFIGS / "harmonic_levels.json"), "--no-oracle",
              "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: cannot write --out {tmp_path / out}: ")
    assert err.count("\n") == 1


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # the table (3.5 MB) is far larger than a pipe's buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "semiclass.cli", "wavefunction", "--config",
         str(CONFIGS / "disc_levels.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO)
    assert proc.stdout.readline() == b"hbar,n,x,psi,psi_oracle,abs_err\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert err.startswith("hbar=0.05 n=5 sup|psi-psi_oracle|=")


@pytest.mark.parametrize("base,change,command,field", [
    (HALFLINE_CFG, {"robin_b": "x"}, "levels", "robin_b"),
    (HALFLINE_CFG, {"bc": "neumann"}, "levels", "bc"),
    (DISC_CFG, {"hbar": "abc"}, "levels", "hbar"),
    (DISC_CFG, {"window": ["a", 1]}, "levels", "window"),
    (DISC_CFG, {"tol_oracle": "q"}, "levels", "tol_oracle"),
    (DISC_CFG, {"tol_oracle": 1e-12}, "levels", "tol_oracle"),
    (DISC_CFG, {"oracle": "no"}, "levels", "oracle"),
    (DISC_CFG, {"weights": 3}, "observable", "weights"),
    (DISC_CFG, {"weights": [{"kind": "poly"}]}, "observable", "weights"),
    (DISC_CFG, {"weights": [{"kind": "indicator", "lo": "a"}]}, "observable", "weights"),
    (DISC_CFG, {"grid": [1]}, "wavefunction", "grid"),
    (DISC_CFG, {"grid": {"n": "x"}}, "wavefunction", "grid"),
    (HALFLINE_CFG, {"grid": {"lo": -0.5}}, "wavefunction", "grid"),
    (DISC_CFG, {"grid": {"n": 1e18}}, "wavefunction", "grid"),
    (DISC_CFG, {"grid": {"lo": 2, "hi": 1}}, "wavefunction", "grid"),
    (DISC_CFG, {"study": []}, "scaling", "study"),
    (DISC_CFG, {"study": "kinetic", "lambda_ref": "x"}, "scaling", "lambda_ref"),
    (DISC_CFG, {"potential": "x"}, "levels", "potential"),
    (HALFLINE_CFG, {"potential": dict(HALFLINE_CFG["potential"], v="z")}, "levels", "potential"),
], ids=["robin_b", "bc", "hbar", "window", "tol_oracle-type", "tol_oracle-floor", "oracle",
        "weights-type", "weights-poly", "weights-indicator", "grid-type", "grid-n",
        "grid-halfline", "grid-n-max", "grid-empty", "study", "lambda_ref", "potential", "potential-v"])
def test_malformed_config_fields_exit_2(tmp_path, capsys, base, change, command, field):
    cfg = write_config(tmp_path, "c.json", dict(base, **change))
    flags = [] if field in ("tol_oracle", "oracle", "study", "lambda_ref") else ["--no-oracle"]
    rc = run([command, "--config", str(cfg), "--out", str(tmp_path / "t.csv"), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"field '{field}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("base,change", [
    (DISC_CFG, {"method": "auto"}),
    (HALFLINE_CFG, {"bc": "robin"}),
    (DISC_CFG, {"oracle": False}),
    ({k: v for k, v in HALFLINE_CFG.items() if k != "robin_b"}, {"robinb": 5.0}),
], ids=["method", "bc", "oracle", "robinb"])
def test_an_unknown_field_exits_2(tmp_path, capsys, base, change):
    # settings the program works out itself, or a misspelling, never run a different problem
    cfg = write_config(tmp_path, "c.json", dict(base, **change))
    assert run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"config error: unknown field {next(iter(change))!r}\n"
    assert not (tmp_path / "t.csv").exists()


def test_robin_b_alone_states_the_wall(tmp_path):
    # absent or null is the Dirichlet wall, a number b the Robin wall (0: Neumann)
    doc = {k: v for k, v in HALFLINE_CFG.items() if k != "robin_b"}
    absent, null, neumann = (_table(tmp_path, "levels", dict(doc, **extra), name) for name, extra in
                             (("absent", {}), ("null", {"robin_b": None}), ("neumann", {"robin_b": 0})))
    assert absent == null
    assert {r[2] for r in null} == {"halfline_dirichlet"}
    assert {r[2] for r in neumann} == {"halfline_robin"}
    assert max(abs(float(r[6])) for r in null + neumann) < 1e-6  # the oracle has the same wall


def test_a_poly_weight_is_the_polynomial_it_names(tmp_path):
    # v = x^2 on the harmonic well: the poly weight [0, 0, 1] is the potential weight
    doc = _committed("harmonic_levels.json")
    tables = [_table(tmp_path, "observable", dict(doc, weights=[dict(w, name="v")]), w["kind"])
              for w in ({"kind": "potential"}, {"kind": "poly", "coeffs": [0, 0, 1]})]
    assert tables[0] == tables[1]
    assert len(tables[0]) == 16  # 8 levels, a v row and a kinetic row each


@pytest.mark.parametrize("grid", [{"lo": 50}, {"hi": -50}, {"lo": 2, "hi": 1}],
                         ids=["lo-past-the-grid", "hi-before-the-grid", "lo-above-hi"])
def test_an_empty_grid_range_exits_cleanly(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, "c.json", dict(_committed("harmonic_levels.json"), grid=grid))
    rc = run(["wavefunction", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if "hi" in grid and "lo" in grid:
        assert rc == 2 and "field 'grid'" in err
    else:
        assert rc == 0 and "sup|psi-psi_oracle|" not in err
        assert (tmp_path / "t.csv").read_text().splitlines() == ["hbar,n,x,psi,psi_oracle,abs_err"]


@pytest.mark.parametrize("grid", [{"lo": 50, "n": 3}, {"hi": -50}],
                         ids=["lo-past-the-default-hi", "hi-before-the-default-lo"])
def test_an_empty_grid_range_without_the_oracle_gives_no_rows(tmp_path, grid):
    # lo and hi default to the level's matching point and x_+ + 1
    cfg = write_config(tmp_path, "c.json", dict(_committed("harmonic_levels.json"), grid=grid))
    rc = run(["wavefunction", "--config", str(cfg), "--no-oracle", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert (tmp_path / "t.csv").read_text().splitlines() == ["hbar,n,x,psi,psi_oracle,abs_err"]


def test_the_levels_scaling_study_reads_only_the_oracle(tmp_path, monkeypatch):
    from semiclass import cli, quantize

    cfg = str(CONFIGS / "quartic_scaling.json")
    assert run(["scaling", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0

    def no_levels(*args, **kwargs):
        raise quantize.QuantizeError("the semiclassical levels were solved")

    monkeypatch.setattr(quantize, "levels", no_levels)
    assert run(["scaling", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "b.csv").read_text() == (tmp_path / "a.csv").read_text()


def test_a_level_without_an_oracle_partner_gets_empty_oracle_cells(tmp_path, monkeypatch):
    from semiclass import oracle

    solve = oracle.solve_spectrum

    def without_first_level(*args, **kwargs):
        spec = solve(*args, **kwargs)
        return dataclasses.replace(spec, eigenvalues=spec.eigenvalues[1:], index=spec.index[1:],
                                   est_error=spec.est_error[1:], h4_column=spec.h4_column[1:])

    monkeypatch.setattr(oracle, "solve_spectrum", without_first_level)
    cfg = write_config(tmp_path, "c.json", {"potential": HARM_POT, "hbar": 0.1,
                                            "window": [0.03, 0.77]})
    assert run(["levels", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
    rows = [r.split(",") for r in (tmp_path / "t.csv").read_text().strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "1", "2", "3"]
    assert rows[0][5:] == ["", "", ""]
    assert all(abs(float(r[6])) <= 1e-7 for r in rows[1:])  # the others keep their own level


_WRONG_TYPES = ["x", [], {}, None, True, 3, [1, "a"], {"n": "x"}]
_OUT_OF_RANGE = {
    "hbar": [0.0, -0.1, [0.1, 0.1]],
    "window": [[1.8, 0.8], [1.0, 1.0]],
    "n": [[-1], [0.5]],
    "tol_oracle": [1e-12, 0.0],
    "grid": [{"n": 0}, {"lo": -0.5}, {"n": 1e18}, {"lo": 2, "hi": 1}],
    "weights": [[], [{"kind": "poly", "coeffs": []}]],
}
_FIELDS = ["potential", "potential_path", "hbar", "window", "n", "robin_b", "tol_oracle",
           "weights", "lambda_ref", "study", "grid"]


@st.composite
def _mutated_configs(draw):
    name = draw(st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))))
    doc = _committed(name)
    target = doc
    fields = _FIELDS + [f"potential.{k}" for k in doc.get("potential", {})]
    field = draw(st.sampled_from(fields))
    if "." in field:
        target = doc["potential"] = dict(doc["potential"])
        field = field.split(".", 1)[1]
    how = draw(st.sampled_from(["delete", "wrong type", "out of range"]))
    if how == "delete":
        target.pop(field, None)
    elif how == "wrong type" or field not in _OUT_OF_RANGE:
        target[field] = draw(st.sampled_from(_WRONG_TYPES))
    else:
        target[field] = draw(st.sampled_from(_OUT_OF_RANGE[field]))
    return doc


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_configs(), st.sampled_from(["levels", "count", "wavefunction", "observable", "scaling"]))
def test_one_mutated_field_of_a_committed_config_never_crashes(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(pathlib.Path(tmp), "c.json", doc)
        rc = run([command, "--config", str(cfg), "--out", str(pathlib.Path(tmp) / "t.csv"),
                  "--no-oracle"])
    assert rc in (0, 2, 3, 4)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_the_levels_of_a_run_are_quantize_levels_with_the_n_filter(name):
    from semiclass import cli, quantize

    cfg = cli.RunConfig(_committed(name), CONFIGS, use_oracle=False)
    run_levels = cli._run_levels(cfg)
    assert list(run_levels) == cfg.hbars
    for hbar in cfg.hbars:
        lv = quantize.levels(cfg.potential, cfg.window, hbar, cfg.robin_b)
        assert lv
        admitted = [l for l in lv if cfg.n_filter is None or l.n in cfg.n_filter]
        assert run_levels[hbar] == admitted


@pytest.mark.parametrize("command,fmt,flags", [
    ("levels", "csv", []),
    ("levels", "json", []),
    ("wavefunction", "csv", ["--no-oracle"]),
])
def test_a_run_over_three_hbar_writes_the_rows_of_three_one_hbar_runs(tmp_path, command, fmt, flags):
    # the levels of every hbar come from one batch; each row is the byte
    # string a run at its hbar alone writes, in ascending hbar
    doc = _committed("table_jump.json")

    def head_and_rows(hbar, name):
        cfg = write_config(tmp_path, name + ".json", dict(doc, hbar=hbar))
        out = tmp_path / f"{name}.{fmt}"
        assert run([command, "--config", str(cfg), "--format", fmt, "--out", str(out), *flags]) == 0
        text = out.read_text()
        if fmt == "csv":
            return text.split("\n", 1)
        head, body = text.split('"rows": [\n')
        return head, body[:body.rindex("\n  ]")]

    head, rows = head_and_rows([0.1, 0.07, 0.05], "three")
    singles = [head_and_rows([h], f"one{k}") for k, h in enumerate([0.05, 0.07, 0.1])]
    assert all(h == head and r for h, r in singles)
    assert rows == ("" if fmt == "csv" else ",\n").join(r for _, r in singles)


def test_a_levels_run_solves_every_hbar_in_one_batch(tmp_path, monkeypatch):
    # the quartic at three hbar: one sample of G, a start and two Newton
    # sweeps serve every level
    from semiclass import quantize

    sizes = []
    condition = quantize.quantization_condition

    def counting(pot, lam, *args):
        sizes.append(np.size(lam))
        return condition(pot, lam, *args)

    monkeypatch.setattr(quantize, "quantization_condition", counting)
    cfg = write_config(tmp_path, "c.json", dict(_committed("quartic_scaling.json"),
                                                hbar=[0.02, 0.01, 0.005]))
    assert run(["levels", "--config", str(cfg), "--no-oracle", "--out", str(tmp_path / "t.csv")]) == 0
    rows = len((tmp_path / "t.csv").read_text().splitlines()) - 1
    assert rows > 200
    assert len(sizes) <= 4 and sizes[:2] == [33, rows]


def test_levels_with_the_oracle_take_one_defect_call_per_block(monkeypatch):
    from semiclass import cli, quantize

    sizes = []
    defect = quantize.defect

    def counting(pot, lam, *args):
        sizes.append(np.size(lam))
        return defect(pot, lam, *args)

    monkeypatch.setattr(quantize, "defect", counting)
    cfg = cli.RunConfig(_committed("halfline_robin.json"), CONFIGS, use_oracle=True)
    table = cli.cmd_levels(cfg)
    assert [size for size, _ in table["rows"].blocks] == sizes
    assert len(sizes) == len(cfg.hbars) and sum(sizes) == len(table["rows"])


@pytest.mark.parametrize("command,name,use_oracle", [
    ("levels", "harmonic_levels.json", True),
    ("count", "harmonic_levels.json", True),
    ("wavefunction", "harmonic_levels.json", True),
    ("wavefunction", "halfline_robin.json", False),
    ("observable", "harmonic_levels.json", True),
    ("scaling", "quartic_scaling.json", True),
])
def test_the_row_count_of_a_table_is_its_number_of_csv_lines(tmp_path, command, name, use_oracle):
    from semiclass import cli

    table = cli._COMMANDS[command](cli.RunConfig(_committed(name), CONFIGS, use_oracle))
    cli._emit(table, tmp_path / "t.csv", "csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == ",".join(table["columns"])
    assert len(table["rows"]) == len(lines) - 1 > 0


@pytest.mark.parametrize("command,flags", [("wavefunction", []), ("wavefunction", ["--no-oracle"]),
                                           ("levels", [])])
def test_csv_and_json_hold_the_same_cells(tmp_path, command, flags):
    cfg = str(CONFIGS / "disc_levels.json")
    for fmt in ("csv", "json"):
        assert run([command, "--config", cfg, "--format", fmt, "--out", str(tmp_path / f"t.{fmt}"),
                    *flags]) == 0
    header, *rows = [r.split(",") for r in (tmp_path / "t.csv").read_text().splitlines()]
    doc = json.loads((tmp_path / "t.json").read_text())
    assert header == doc["columns"]
    assert rows == [["" if v is None else str(v) for v in r] for r in doc["rows"]]  # null is empty
    assert len(rows) > 1 and any(r[-1] == "" for r in rows) == ("--no-oracle" in flags)
    _assert_json_dumps_layout(tmp_path / "t.json")


def _assert_json_dumps_layout(path):
    """The README's promise: the JSON text is that of json.dumps(table, indent=2)."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_output_has_the_layout_of_json_dumps_indent_2(tmp_path):
    # an empty table, and a table with string cells
    empty = write_config(tmp_path, "empty.json", {
        "potential_path": str(CONFIGS / "potentials" / "harmonic.json"),
        "hbar": 0.1, "window": [0.31, 0.32]})
    for command, cfg in [("levels", empty), ("observable", CONFIGS / "quartic_observable.json")]:
        out = tmp_path / f"{command}.json"
        assert run([command, "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
        _assert_json_dumps_layout(out)
    assert json.loads((tmp_path / "levels.json").read_text())["rows"] == []


@pytest.mark.parametrize("out", ["t.csv", None])
def test_a_failure_after_some_levels_writes_nothing(tmp_path, capsys, monkeypatch, out):
    from semiclass import langer
    from semiclass.quadrature import QuadratureError

    # the per-level step of the window path: a level's charts and psi
    assemble, calls = langer._eigenfunction, []

    def fails_on_the_second_level(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise QuadratureError("no convergence on the second level")
        return assemble(*args, **kwargs)

    monkeypatch.setattr(langer, "_eigenfunction", fails_on_the_second_level)
    argv = ["wavefunction", "--config", str(CONFIGS / "disc_levels.json")]
    assert run(argv + (["--out", str(tmp_path / out)] if out else [])) == 4
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_cells_that_slice_one_array_give_the_bytes_of_copied_cells(tmp_path):
    from semiclass import cli

    grid = np.linspace(-1.0, 1.0, 41) ** 3  # an array that owns its data
    other = np.linspace(0.1, 0.7, 7)
    shared, copied = cli.Rows(), cli.Rows()
    for k, (a, b) in enumerate([(0, 10), (5, 30), (5, 30), (30, 41), (12, 13), (0, 41)]):
        x = grid[a:b]
        for rows, cell in ((shared, x), (copied, x.copy())):
            rows.append(0.1, k, cell, np.sqrt(np.abs(cell)), None, math.pi)
    for rows in (shared, copied):
        rows.append(0.2, 9, other[2:5], other[1:4], "z", None)  # slices of an array used once
        rows.append(0.3, 10, grid[::-2][:4], grid[1:5], 1, None)  # a reversed slice
    for fmt in ("csv", "json"):
        texts = []
        for name, rows in (("shared", shared), ("copied", copied)):
            cli._emit({"command": "t", "columns": list("abcdef"), "rows": rows},
                      tmp_path / f"{name}.{fmt}", fmt)
            texts.append((tmp_path / f"{name}.{fmt}").read_bytes())
        assert texts[0] == texts[1]
    doc = json.loads(texts[0])
    assert [r[2] for r in doc["rows"]][:10] == grid[:10].tolist()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_two_wavefunction_runs_in_one_process_give_the_same_bytes(tmp_path, fmt):
    out = [tmp_path / f"{k}.{fmt}" for k in range(2)]
    for path in out:
        assert run(["wavefunction", "--config", str(CONFIGS / "disc_levels.json"), "--format", fmt,
                    "--out", str(path)]) == 0
    assert out[0].read_bytes() == out[1].read_bytes()


def test_the_writer_gives_str_and_json_dumps_of_every_cell(tmp_path):
    from semiclass import cli

    tiny = np.nextafter(0.0, 1.0)
    edge = [math.nan, math.inf, -math.inf, 0.0, -0.0, tiny, -2 * tiny, 3 * tiny, 1e-310,
            2.2250738585072014e-308, 2.225073858507201e-308, 1e-4, 9.999999999999999e-05, 1e-5,
            1e16, 9999999999999998.0, 123.0, -0.1, 2.0**53]
    rng = np.random.default_rng(3)
    grid = np.concatenate([edge, rng.standard_normal(1000) * 10.0 ** rng.integers(-20, 20, 1000)])
    ints = np.arange(len(grid)) - 7
    assert len(grid) - 500 >= cli._KERNEL_MIN  # the long float cells take the kernel, the short ones repr
    rows = cli.Rows()
    rows.append(0.5, "smooth", grid[:500], ints[:500], None, grid[:500].copy())  # a slice beside its copy
    rows.append(None, "x", grid[500:], ints[500:], 1.5, np.sqrt(np.abs(grid[500:])))
    rows.append(math.nan, None, grid[3:5], np.array([1, 2]), -0.0, grid[::-1][:2])  # short and reversed
    rows.append(1e-7, "no array", 2, 3, None, 4.5)
    table = {"command": "t", "columns": list("abcdef"), "rows": rows}
    cells = [[c.tolist()[i] if isinstance(c, np.ndarray) else c for c in block]
             for size, block in rows.blocks for i in range(size)]
    assert len(cells) == len(rows) == 1022
    for fmt in ("csv", "json"):
        cli._emit(table, tmp_path / f"t.{fmt}", fmt)
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines == ["a,b,c,d,e,f"] + [",".join("" if v is None else str(v) for v in row)
                                       for row in cells] + [""]
    doc = {"command": "t", "columns": list("abcdef"), "rows": cells}
    assert (tmp_path / "t.json").read_text() == json.dumps(doc, indent=2) + "\n"


def test_a_count_run_takes_the_weyl_integrals_once(tmp_path, monkeypatch):
    from semiclass import cli, quantize

    condition, kinds = quantize.quantization_condition, []

    def spy(pot, lam, kind, *args, **kwargs):
        kinds.append(kind)
        return condition(pot, lam, kind, *args, **kwargs)

    monkeypatch.setattr(quantize, "quantization_condition", spy)
    cfg = cli.RunConfig({"potential": HARM_POT, "hbar": [0.1, 0.025, 0.05], "window": [0.5, 1.5]},
                        tmp_path, use_oracle=False)
    table = cli.cmd_count(cfg)
    assert kinds == ["smooth"]
    monkeypatch.undo()
    blocks = table["rows"].blocks
    assert [cells[0] for _, cells in blocks] == [0.025, 0.05, 0.1]
    for _, cells in blocks:
        cr = quantize.weyl_count(cfg.potential, 0.5, 1.5, cells[0])
        assert cells[3:6] + cells[8:] == (cr.predicted, cr.count, cr.epsilon, cr.phase_volume)


def test_runs_of_committed_configs_load_no_numpy_polynomial():
    # polynomial branches, a poly weight and the Gauss-Legendre rules all
    # come from the package's own code
    runs = [("levels", "table_levels.json", "--no-oracle"), ("count", "table_levels.json"),
            ("wavefunction", "table_levels.json"), ("levels", "table_jump.json", "--no-oracle"),
            ("count", "harmonic_levels.json"), ("wavefunction", "harmonic_levels.json"),
            ("observable", "quartic_observable.json", "--no-oracle")]
    code = ("import contextlib, io, sys\n"
            "from semiclass import cli\n"
            f"for command, config, *flags in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run([command, '--config', config, *flags]) == 0, (command, config)\n"
            "print('numpy.polynomial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                          cwd=CONFIGS, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert not any("np.polynomial" in p.read_text() for p in (REPO / "src" / "semiclass").glob("*.py"))


def test_a_cusp_well_past_the_largest_rule_fails_with_exit_4(tmp_path, capsys):
    # v = |x|^(1/2) has a cusp at x = 0, where Gauss-Legendre converges only
    # algebraically: gl_adaptive doubles up to its 4096-point rule, which
    # _gl_newton builds, and stops
    pot = {"kind": "power_law", "a_plus": 0, "v_plus": 1, "alpha_plus": 0.5,
           "a_minus": 0, "v_minus": 1, "alpha_minus": 0.5}
    cfg = write_config(tmp_path, "cusp.json", {"potential": pot, "hbar": 0.1, "window": [0.5, 1.5]})
    assert run(["levels", "--config", str(cfg), "--no-oracle"]) == 4
    assert capsys.readouterr().err == ("numerical non-convergence: no convergence to tol=5e-13 "
                                       "by n=4096 nodes on [0.0, 0.5]\n")
