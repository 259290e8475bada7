"""Batch front end: levels, counts, eigenfunction exports, observables and
hbar-scaling studies driven by a JSON config.

Exit codes: 0 success, 2 config error, 3 certification failure,
4 numerical non-convergence.  Output tables are deterministic: floats are
written as their shortest round-trip repr and sweep results are assembled
in sorted order of hbar.

A table is written after its command has returned, so a failed run writes
nothing.  Its rows are blocks of numpy columns (`Rows`): one block per
level for `wavefunction`, and for `levels` one per run of levels of one hbar
that all have an oracle partner, or all lack one.  The one writer `_emit`
writes block by block, in CSV or JSON: a float64 array cell of at least
_KERNEL_MIN entries becomes rows of text by floattext.render (repr's bytes,
in numpy passes), any other array cell by str or json of its list, the
shared cells and separators once, and floattext.join makes the block's
text in one pass.
A run holds the table's arrays and the text of one block, and the rendered
text of an array that several blocks slice (the oracle grid of an hbar)
once.  The levels of every hbar of a run come from one quantize.levels call
(_run_levels), and its Weyl counts from one quantize.weyl_count call.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import action, floattext, langer, oracle, quantize
from .potential import (
    CertificationError,
    PolyBranch,
    PotentialError,
    _real,
    certify_well,
    potential_from_spec,
)
from .quadrature import QuadratureError

__all__ = ["main", "run"]


class ConfigError(ValueError):
    pass


def _fmt(v) -> str:
    return "" if v is None else str(v)  # str of a float is its shortest round-trip form


class Rows:
    """A table's rows, held as blocks.  A block has one cell per column: one
    value shared by every row of the block, or a 1-D numpy array with one
    value per row.  len() is the number of rows."""

    def __init__(self):
        self.blocks = []  # (row count, cells)
        self._len = 0

    def append(self, *cells) -> None:
        size = next((len(c) for c in cells if isinstance(c, np.ndarray)), 1)
        self.blocks.append((size, cells))
        self._len += size

    def __len__(self) -> int:
        return self._len


_json = json.JSONEncoder(default=float).encode

# (text of a shared cell, texts of a list of an array's entries, row start,
# cell separator, row end) per format; a JSON row starts with the ",\n"
# that ends the row before it, and the table's first row drops it
_FORMATS = {
    "csv": (_fmt, lambda col: list(map(str, col)), "", ",", "\n"),
    "json": (_json, lambda col: _json(col)[1:-1].split(", ") if col else [],
             ",\n    [\n      ", ",\n      ", "\n    ]"),
}
# a float array shorter than this is written by its format's column text
# (repr of each entry): the kernel's fixed cost, about 0.25 ms a call, is
# repr's for about 370 numbers (17-digit values, 2-vCPU x86-64 VM)
_KERNEL_MIN = 384


def _render(c, column):
    """The rows of text (a floattext matrix) of the array cell c: a float64
    one of at least _KERNEL_MIN entries by the floattext kernel, any other
    by column(c.tolist())."""
    if c.dtype == np.float64 and len(c) >= _KERNEL_MIN:
        return floattext.render(c, special=lambda v: column([v])[0])
    return floattext.strings(column(c.tolist()))


def _sliced(c):
    """The 1-D array that the cell c is a contiguous slice of, or None."""
    b = c.base if isinstance(c, np.ndarray) else None
    ok = isinstance(b, np.ndarray) and b.ndim == c.ndim == 1 and b.dtype == c.dtype
    return b if ok and b.flags.c_contiguous and c.strides == b.strides else None


def _array_text(blocks, render):
    """text(c), the rows of text of an array cell c of blocks (render(array)
    gives them); cells that slice one array take row slices of its text,
    rendered on first use and dropped after the last."""
    left = {}  # id of a sliced array -> its cells not yet rendered
    for _, cells in blocks:
        for b in filter(lambda b: b is not None, map(_sliced, cells)):
            left[id(b)] = left.get(id(b), 0) + 1
    memo = {}

    def text(c):
        b = _sliced(c)
        if b is None or (left[id(b)] == 1 and id(b) not in memo):
            return render(c)
        if id(b) not in memo:
            memo[id(b)] = render(b)
        i = (c.__array_interface__["data"][0] - b.__array_interface__["data"][0]) // c.itemsize
        left[id(b)] -= 1
        return (memo[id(b)] if left[id(b)] else memo.pop(id(b)))[i:i + len(c)]

    return text


def _block(size: int, cells, fmt: str, text) -> str:
    """The text of a block's rows: its array cells by text, its shared
    cells and separators once, all joined in one floattext pass."""
    one, _, start, sep, end = _FORMATS[fmt]
    parts, pending = [], start
    for j, c in enumerate(cells):
        pending += sep if j else ""
        if isinstance(c, np.ndarray):
            parts += [floattext.constant(pending, size), text(c)]
            pending = ""
        else:
            pending += one(c)
    if not parts:  # shared cells only: a block of one row
        return pending + end
    parts.append(floattext.constant(pending + end, size))
    return floattext.join(parts)


def _write_rows(rows: Rows, fh, fmt: str) -> None:
    column = _FORMATS[fmt][1]
    text = _array_text(rows.blocks, lambda c: _render(c, column))
    for j, block in enumerate(rows.blocks):
        out = _block(*block, fmt, text)
        fh.write(out[2:] if fmt == "json" and j == 0 else out)


def _write_json(table: dict, fh) -> None:
    """table in the layout of json.dumps(table, indent=2, default=float),
    its rows block by block."""
    for i, (key, value) in enumerate(table.items()):
        fh.write(("{" if i == 0 else ",") + "\n  " + _json(key) + ": ")
        if key != "rows":
            fh.write(json.dumps(value, indent=2, default=float).replace("\n", "\n  "))
        elif not value.blocks:
            fh.write("[]")
        else:
            fh.write("[\n")
            _write_rows(value, fh, "json")
            fh.write("\n  ]")
    fh.write("\n}\n")


def _emit(table: dict, out_path, fmt: str) -> None:
    """Write a command's table (its "rows" a Rows) to out_path, or to stdout
    if None, one block at a time."""
    with (open(out_path, "w") if out_path is not None else contextlib.nullcontext(sys.stdout)) as fh:
        if fmt == "json":
            _write_json(table, fh)
        else:
            fh.write(",".join(table["columns"]) + "\n")
            _write_rows(table["rows"], fh, "csv")


# ---------------------------------------------------------------------------
# config


def _number(v, field: str, key: str = "") -> float:
    """v as a float if it is a finite JSON number (a bool is not); else a ConfigError."""
    try:
        return _real(v, f"field {field!r}" + (f": {key!r}" if key else ""))
    except PotentialError as exc:
        raise ConfigError(str(exc))


_FIELDS = frozenset({"potential", "potential_path", "hbar", "window", "n", "robin_b",
                     "tol_oracle", "weights", "lambda_ref", "study", "grid"})


class RunConfig:
    """Validated view of the JSON run configuration; every field is checked here, once."""

    def __init__(self, raw: dict, base_dir: Path, use_oracle: bool):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        if "potential" in raw:
            try:
                self.potential = potential_from_spec(raw["potential"])
            except PotentialError as exc:
                raise ConfigError(f"field 'potential': {exc}")
        elif "potential_path" in raw:
            if not isinstance(raw["potential_path"], str):
                raise ConfigError("field 'potential_path' must be a string")
            path = base_dir / raw["potential_path"]
            try:
                self.potential = potential_from_spec(json.loads(path.read_text()))
            except FileNotFoundError:
                raise ConfigError(f"field 'potential_path': no such file {path}")
            except (OSError, ValueError) as exc:  # ValueError covers JSON and PotentialError
                raise ConfigError(f"field 'potential_path': {exc}")
        else:
            raise ConfigError("config needs 'potential' or 'potential_path'")
        unknown = [k for k in raw if k not in _FIELDS]
        if unknown:
            raise ConfigError(f"unknown field {unknown[0]!r}")

        hbar = raw.get("hbar")
        if hbar is None:
            raise ConfigError("field 'hbar' is required")
        # ascending: every sweep runs, and assembles its table, in this order
        self.hbars = sorted(_number(h, "hbar") for h in (hbar if isinstance(hbar, list) else [hbar]))
        if not self.hbars or any(h <= 0 for h in self.hbars) or len(set(self.hbars)) != len(self.hbars):
            raise ConfigError("field 'hbar': values must be positive and distinct")

        window = raw.get("window")
        if (not isinstance(window, list)) or len(window) != 2 or not (
                _number(window[0], "window") < _number(window[1], "window")):
            raise ConfigError("field 'window' must be [lo, hi] with lo < hi")
        self.window = (float(window[0]), float(window[1]))

        ns = raw.get("n", "all")
        if ns == "all":
            self.n_filter = None
        elif isinstance(ns, list) and all(type(k) is int and k >= 0 for k in ns):
            self.n_filter = sorted(set(ns))
        else:
            raise ConfigError("field 'n' must be 'all' or a list of nonnegative integers")

        # the half-line wall: None is Dirichlet, a number b is psi'(0) = b psi(0)
        robin_b = raw.get("robin_b")
        self.robin_b = None if robin_b is None else _number(robin_b, "robin_b")
        self.oracle = use_oracle
        self.tol_oracle = _number(raw.get("tol_oracle", oracle.DEFAULT_TOL), "tol_oracle")
        if self.tol_oracle < oracle._MIN_TOL:
            raise ConfigError(f"field 'tol_oracle' must be at least {oracle._MIN_TOL!r}")
        weights = raw.get("weights", [{"name": "v", "kind": "potential"}])
        if not (isinstance(weights, list) and weights and all(isinstance(w, dict) for w in weights)):
            raise ConfigError("field 'weights' must be a non-empty list of objects")
        self.weights = [(w.get("name", w.get("kind")), *_weight_fn(self.potential, w)) for w in weights]
        lam_ref = raw.get("lambda_ref")
        self.lambda_ref = None if lam_ref is None else _number(lam_ref, "lambda_ref")
        self.study = raw.get("study", "levels")
        if not isinstance(self.study, str) or self.study not in _STUDY_CLASSES:
            raise ConfigError(f"field 'study': unknown study {self.study!r}")
        grid = raw.get("grid", {})
        if not isinstance(grid, dict):
            raise ConfigError("field 'grid' must be an object")
        self.grid = {k: _number(grid[k], "grid", k) for k in ("lo", "hi", "n") if k in grid}
        if not 1 <= self.grid.setdefault("n", 801) <= oracle._MAX_N or self.grid["n"] % 1:
            raise ConfigError(f"field 'grid': 'n' must be an integer from 1 to {oracle._MAX_N}")
        if not self.grid.get("lo", -math.inf) < self.grid.get("hi", math.inf):
            raise ConfigError("field 'grid' must have lo < hi")
        if self.potential.domain == "half_line" and self.grid.get("lo", 0.0) < 0.0:
            raise ConfigError("field 'grid': 'lo' lies left of the half-line domain x >= 0")

        if self.robin_b is not None and self.potential.domain != "half_line":
            raise CertificationError("domain", "a Robin wall (robin_b) needs a half-line well")
        # one certificate for the whole run, shared by every hbar task
        self.cert = certify_well(self.potential, *self.window)

    def oracle_for(self, hbar: float):
        return oracle.solve_spectrum(self.potential, hbar, self.window, self.tol_oracle,
                                     robin_b=self.robin_b)

    def oracle_count(self, hbar: float) -> int:
        return oracle.count_levels(self.potential, hbar, self.window, self.tol_oracle,
                                   robin_b=self.robin_b)


def _partner(spec, level):
    """Window position of the oracle level with level.n nodes, or None."""
    k = np.flatnonzero(spec.index == level.n) if spec is not None else []
    return int(k[0]) if len(k) else None


def _run_levels(cfg: RunConfig) -> dict:
    """{hbar: levels} for every hbar of the run, in order: the levels of the
    condition the well picks that the n filter admits, from one
    quantize.levels call over every hbar."""
    by_hbar = {hbar: [] for hbar in cfg.hbars}
    for l in quantize.levels(cfg.potential, cfg.window, cfg.hbars, cfg.robin_b, cfg.cert):
        if cfg.n_filter is None or l.n in cfg.n_filter:
            by_hbar[l.hbar].append(l)
    return by_hbar


def _windows(cfg: RunConfig):
    """(hbar, levels, spec) for every hbar, in order: spec is the oracle
    spectrum of that hbar (None without the oracle or without levels)."""
    for hbar, lv in _run_levels(cfg).items():
        yield hbar, lv, cfg.oracle_for(hbar) if (cfg.oracle and lv) else None


def _paired_levels(cfg: RunConfig):
    """(hbar, level, spec, k) for every level of every hbar, in order, k the
    window position of the level's partner in spec or None."""
    for hbar, lv, spec in _windows(cfg):
        for l in lv:
            yield hbar, l, spec, _partner(spec, l)


def _psi_vs_oracle(psi, spec, k: int, lo: float, hi: float):
    """(x, psi(x), psi_oracle(x), |psi - psi_oracle|) on the oracle's nodes x
    in [lo, hi], psi_oracle the eigenvector of window position k.  The
    nodes ascend, so x is one slice of the oracle's grid array."""
    xg, po = oracle.eigenvector(spec, k)
    on = slice(np.searchsorted(xg, lo, "left"), np.searchsorted(xg, hi, "right"))
    xs, po = xg[on], po[on]
    ps = psi(xs)
    return xs, ps, po, np.abs(ps - po)


def _versus(classical: float, reference):
    """[classical, reference, |reference - classical|], the last two None
    without a reference."""
    return [classical, reference, None if reference is None else abs(reference - classical)]


def _average_vs_oracle(pot, level, spec, k, w, breaks):
    """The microcanonical average of w at the level against <w> in the
    oracle state k (None without a partner), as _versus cells."""
    return _versus(action.classical_average(pot, level.lam, w, breaks),
                   None if k is None else oracle.observable(spec, k, w))


def _kinetic_vs_oracle(pot, level, spec, k):
    """The classical kinetic energy at the level against the kinetic energy
    of the oracle state k (None without a partner), as _versus cells."""
    return _versus(action.kinetic_cl(pot, level.lam),
                   None if k is None else oracle.kinetic_energy(spec, k))


def _need_full_line(cfg: RunConfig, what: str) -> None:
    if cfg.potential.domain != "full_line":
        raise CertificationError("domain", f"{what} needs a full-line well")


# ---------------------------------------------------------------------------
# commands


def cmd_levels(cfg: RunConfig) -> dict:
    rows = Rows()
    for hbar, lv, spec in _windows(cfg):
        # one block per run of levels that all have an oracle partner, or all lack one
        partners = [_partner(spec, l) for l in lv]
        for paired, group in itertools.groupby(zip(lv, partners), key=lambda lk: lk[1] is not None):
            block, ks = zip(*group)
            kind, n = block[0].kind, np.array([l.n for l in block])
            lam = np.array([l.lam for l in block])
            cells = [hbar, n, kind, lam, np.array([l.residual for l in block]), None, None, None]
            if paired:
                lam_o = spec.eigenvalues[list(ks)]
                act_res = np.abs(quantize.defect(cfg.potential, lam_o, n, kind, hbar, cfg.cert))
                cells[5:] = lam_o, lam - lam_o, act_res
            rows.append(*cells)
    return {
        "command": "levels",
        "columns": ["hbar", "n", "kind", "lambda_sc", "residual", "lambda_oracle",
                    "delta", "action_residual"],
        "rows": rows,
    }


def cmd_count(cfg: RunConfig) -> dict:
    a1, a2 = cfg.window
    _need_full_line(cfg, "count")
    rows = Rows()
    for hbar, cr in zip(cfg.hbars, quantize.weyl_count(cfg.potential, a1, a2, cfg.hbars, cert=cfg.cert)):
        count_o = eps_o = None
        if cfg.oracle:
            count_o = cfg.oracle_count(hbar)
            eps_o = count_o - cr.predicted
        rows.append(hbar, a1, a2, cr.predicted, cr.count, cr.epsilon, count_o, eps_o,
                    cr.phase_volume)
    return {
        "command": "count",
        "columns": ["hbar", "a1", "a2", "predicted", "count_sc", "epsilon_sc",
                    "count_oracle", "epsilon_oracle", "phase_volume"],
        "rows": rows,
    }


def cmd_wavefunction(cfg: RunConfig) -> dict:
    rows = Rows()  # one block per level
    sup_lines = []
    for hbar, lv, spec in _windows(cfg):
        for l, psi in zip(lv, langer.eigenfunctions(cfg.potential, lv, cfg.cert)):
            k = _partner(spec, l)
            lo = float(cfg.grid.get("lo", psi.x1))
            if k is not None:
                xs, ps, po, err = _psi_vs_oracle(psi, spec, k, lo, float(cfg.grid.get("hi", math.inf)))
                if not len(xs):  # no oracle node in [lo, hi]
                    continue
                sup = float(np.max(err))
                sup_lines.append(f"hbar={hbar!r} n={l.n} sup|psi-psi_oracle|={sup!r}")
                rows.append(hbar, l.n, xs, ps, po, err)
            else:
                hi = float(cfg.grid.get("hi", psi.plus.x_tp + 1.0))
                if lo > hi:  # [lo, hi] is empty
                    continue
                xs = np.linspace(lo, hi, int(cfg.grid["n"]))
                rows.append(hbar, l.n, xs, psi(xs), None, None)
    for line in sup_lines:
        print(line, file=sys.stderr)
    return {
        "command": "wavefunction",
        "columns": ["hbar", "n", "x", "psi", "psi_oracle", "abs_err"],
        "rows": rows,
    }


def _weight_fn(pot, wspec: dict):
    """(w, breaks) for one entry of the 'weights' field."""
    kind = wspec.get("kind")
    if kind == "potential":
        return pot.value, ()
    if kind == "indicator":
        lo = _number(wspec["lo"], "weights", "lo") if "lo" in wspec else -math.inf
        hi = _number(wspec["hi"], "weights", "hi") if "hi" in wspec else math.inf
        breaks = tuple(b for b in (lo, hi) if math.isfinite(b))
        return (lambda x: ((np.asarray(x) > lo) & (np.asarray(x) <= hi)).astype(float)), breaks
    if kind == "poly":
        coeffs = wspec.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("field 'weights': a poly weight needs a non-empty list 'coeffs'")
        poly = PolyBranch(tuple(_number(c, "weights", "coeffs") for c in coeffs))
        return (lambda x: poly.value(np.asarray(x, dtype=float))), ()
    raise ConfigError(f"field 'weights': unknown weight kind {kind!r}")


def cmd_observable(cfg: RunConfig) -> dict:
    _need_full_line(cfg, "observable")
    rows = Rows()
    for hbar, l, spec, k in _paired_levels(cfg):
        # classical column at the semiclassical level, reference column at
        # the matched brute-force state: both sides come from their own
        # pipeline end to end
        for name, w, breaks in cfg.weights:
            rows.append(hbar, l.n, name, *_average_vs_oracle(cfg.potential, l, spec, k, w, breaks))
        rows.append(hbar, l.n, "kinetic", *_kinetic_vs_oracle(cfg.potential, l, spec, k))
    return {
        "command": "observable",
        "columns": ["hbar", "n", "weight", "classical", "oracle", "abs_err"],
        "rows": rows,
    }


_STUDY_CLASSES = {"levels": 2.0, "disc-levels": 5.0 / 3.0, "observable": 1.0 / 3.0,
                  "kinetic": 1.0 / 3.0, "wavefunction": 1.0 / 6.0}


def cmd_scaling(cfg: RunConfig) -> dict:
    """Fit the log-log slope of an error metric against hbar."""
    study = cfg.study
    if len(cfg.hbars) < 2:
        raise ConfigError("scaling study needs at least two hbar values")
    if not cfg.oracle:
        raise ConfigError("scaling studies require the oracle")
    if study != "disc-levels":
        _need_full_line(cfg, f"the {study} scaling study")
    lam_ref = cfg.lambda_ref
    if lam_ref is None:
        lam_ref = 0.5 * (cfg.window[0] + cfg.window[1])
    by_hbar = None if study == "levels" else _run_levels(cfg)  # the levels study reads only the oracle

    def err_for(hbar: float) -> float:
        spec = cfg.oracle_for(hbar)
        # the reference levels the n filter admits, as _run_levels admits the predicted ones
        admit = slice(None) if cfg.n_filter is None else np.isin(spec.index, cfg.n_filter)
        ref = spec.index[admit]
        if study == "levels":
            if not ref.size:
                raise quantize.QuantizeError(f"no levels in window at hbar={hbar}")
            return float(np.max(np.abs(quantize.defect(cfg.potential, spec.eigenvalues[admit], ref,
                                                       "smooth", hbar, cfg.cert))))
        lv = by_hbar[hbar]
        if study == "disc-levels" and len(lv) != len(ref):
            raise quantize.QuantizeError(
                f"count mismatch at hbar={hbar}: {len(lv)} predicted vs {len(ref)} reference levels"
            )
        if not lv:
            raise quantize.QuantizeError(f"no levels in window at hbar={hbar}")

        def partner(level) -> int:
            k = _partner(spec, level)
            if k is None:
                raise quantize.QuantizeError(f"no reference level with n={level.n} at hbar={hbar}")
            return k

        if study == "disc-levels":
            return float(max(abs(l.lam - spec.eigenvalues[partner(l)]) for l in lv))
        l = min(lv, key=lambda x: abs(x.lam - lam_ref))
        k = partner(l)
        if study == "kinetic":
            return _kinetic_vs_oracle(cfg.potential, l, spec, k)[2]
        if study == "observable":
            _, w, breaks = cfg.weights[0]
            return _average_vs_oracle(cfg.potential, l, spec, k, w, breaks)[2]
        psi = langer.eigenfunction(cfg.potential, l, cfg.cert)
        return float(np.max(_psi_vs_oracle(psi, spec, k, psi.x1, psi.plus.x_tp + 1.0)[3]))

    errs = [err_for(h) for h in cfg.hbars]
    rows = Rows()
    for h, e in zip(cfg.hbars, errs):
        rows.append(h, e)
    # the least-squares slope of log error on log hbar, in Python floats so
    # that no BLAS or SIMD kernel touches it
    xs = [math.log(h) for h in cfg.hbars]
    ys = [math.log(max(e, 1e-300)) for e in errs]
    xm, ym = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    slope = (math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
             / math.fsum((x - xm) ** 2 for x in xs))
    predicted = _STUDY_CLASSES[study]
    print(f"study={study} fitted_slope={slope!r} predicted_class={predicted!r}", file=sys.stderr)
    return {
        "command": "scaling",
        "study": study,
        "columns": ["hbar", "error"],
        "rows": rows,
        "fitted_slope": slope,
        "predicted_class": predicted,
    }


_COMMANDS = {
    "levels": cmd_levels,
    "count": cmd_count,
    "wavefunction": cmd_wavefunction,
    "observable": cmd_observable,
    "scaling": cmd_scaling,
}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semiclass",
        description="Semiclassical spectra and eigenfunctions of 1D Schrodinger operators",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--no-oracle", action="store_true", help="skip reference computations")
    args = parser.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        try:
            raw = json.loads(cfg_path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"no such config file: {cfg_path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON (line {exc.lineno}, col {exc.colno})")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {cfg_path}: {exc}")
        cfg = RunConfig(raw, cfg_path.resolve().parent, use_oracle=not args.no_oracle)
        table = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except (QuadratureError, oracle.OracleError, quantize.QuantizeError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 4
    try:
        _emit(table, args.out, args.format)
    except OSError as exc:
        where = "stdout" if args.out is None else f"--out {args.out}"
        print(f"config error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    import signal  # only the command-line entry point sets a handler

    # a reader that closes stdout early (`| head`) ends the process quietly,
    # as it ends any filter, instead of raising BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
