"""Cold-process benchmark of the semiclass CLI.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from anywhere; the program is imported from `src/` next to this
directory.  Each repetition is a fresh interpreter (worker.py) that imports
`semiclass.cli` and runs one CLI command on a config generated from --seed
(workloads.py), because the program keeps process-wide caches
(`quantize.certified`, `langer.chart_for`, `quadrature._leggauss`, all keyed
by value) that a CLI user never finds warm.  Repetitions go on for
--seconds; every output table is checked independently and against the
first repetition's.

--trace 0 reports the end-to-end metrics: setup_s (median import time of
`semiclass.cli`), wall_s (median time of one `cli.run`) and peak_rss_mb
(median peak resident memory of the worker).  --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics (layers.py) and the
tracing overhead.  Without --workload every workload runs in turn.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with the environment
fingerprint, goes to `.bench_work/BENCH_<workload>_seed<N>_trace<T>.json`.
The benchmark leaves SEMICLASS_THREADS, OMP_* and PYTHONHASHSEED as they
are: it measures the defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_CYCLES = {False: 3, True: 2}  # fewest repetitions (pairs, when traced) in a run

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "potential.turning_points.calls": "count",
    "potential.turning_points.self_s": "s",
    "potential.certify.self_s": "s",
    "quadrature.well_integral.calls": "count",
    "quadrature.integrand_points": "count",
    "quadrature.self_s": "s",
    "action.calls": "count",
    "action.self_s": "s",
    "quantize.levels": "count",
    "quantize.self_s": "s",
    "quantize.s_per_level": "s",
    "quantize.cert_cache_lookups": "count",
    "quantize.cert_cache_hit_ratio": "ratio",
    "oracle.solve_spectrum.self_s": "s",
    "oracle.grid_solves": "count",
    "oracle.grid_points": "count",
    "oracle.grid_n_max": "count",
    "oracle.eigenvector.calls": "count",
    "oracle.eigenvector.self_s": "s",
    "langer.build_chart.calls": "count",
    "langer.build_chart.self_s": "s",
    "langer.chart_cache_lookups": "count",
    "langer.chart_cache_hit_ratio": "ratio",
    "langer.psi_eval.points": "count",
    "langer.psi_eval.self_s": "s",
    "airy.points": "count",
    "airy.self_s": "s",
    "cli.rows": "count",
    "cli.emit_s": "s",
    "cli.self_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_scipy_s": "s",
    "setup.import_semiclass_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or it does not import)."""


# ---------------------------------------------------------------------------
# cold runs


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _worker(report: Path, tail: list, timeout: float, importtime: bool = False):
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(WORKER), str(report), str(SRC)] + tail
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    data = json.loads(report.read_text()) if proc.returncode == 0 and report.is_file() else None
    return proc, data


def _fingerprint(tmp: Path) -> dict:
    """Warm-up import (fills __pycache__) that also reports the environment."""
    try:
        proc, data = _worker(tmp / "warmup.json", [], timeout=60.0)
    except subprocess.TimeoutExpired:
        raise BenchError("importing semiclass.cli took more than 60 s")
    if data is None:
        raise BenchError(f"cannot import semiclass.cli from {SRC}: {proc.stderr.strip()[-2000:]}")
    fp = data["fingerprint"]
    fp["nproc"] = os.cpu_count()
    fp["nproc_affinity"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    fp["cpu_model"] = _cpu_model()
    fp.update(_git())
    fp["env"] = {k: os.environ.get(k) for k in
                 ("SEMICLASS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "PYTHONHASHSEED")}
    return fp


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=20).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel") or "/nonexistent").resolve() != ROOT:
            return {"git_commit": None, "git_dirty": None}
        return {"git_commit": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}


def _import_breakdown(stderr: str) -> dict:
    """Self import time by top-level package from `python -X importtime`."""
    out = {"numpy": 0.0, "scipy": 0.0, "semiclass": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cum, pkg = line[len("import time:"):].split("|")
        top = pkg.strip().split(".")[0]
        if top in out and self_us.strip().isdigit():
            out[top] += int(self_us) * 1e-6
    return out


# ---------------------------------------------------------------------------
# output checks


class Outputs:
    """Checks each output table and compares it with the first one."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.tolerance = workloads.REPEAT_TOLERANCE.get(wl.name, {})
        self.first = None
        self.digests: list = []
        self.max_diff: dict = {}  # column -> largest difference seen against the first run
        self.rows_differing = 0

    def check(self, path: Path) -> list:
        data = path.read_bytes()
        self.digests.append(hashlib.sha256(data).hexdigest())
        lines = data.decode().splitlines()
        if not lines:
            return ["empty output table"]
        header = lines[0].split(",")
        errs = self.wl.check(header, [ln.split(",") for ln in lines[1:]])
        if self.first is None:
            self.first = lines
        else:
            errs += self._compare(header, lines)
        return errs

    def _compare(self, header: list, lines: list) -> list:
        if len(lines) != len(self.first):
            return [f"{len(lines)} lines, first run had {len(self.first)}"]
        diff: dict = {}
        rows = 0
        for a, b in zip(self.first, lines):
            if a == b:
                continue
            rows += 1
            for col, x, y in zip(header, a.split(","), b.split(",")):
                if x != y:
                    try:
                        d = abs(float(x) - float(y))
                    except ValueError:
                        d = float("inf")
                    diff[col] = max(diff.get(col, 0.0), d)
        self.rows_differing = max(self.rows_differing, rows)
        for col, d in diff.items():
            self.max_diff[col] = max(self.max_diff.get(col, 0.0), d)
        return [f"column {col} differs from the first run by {d!r} "
                f"(allowed {self.tolerance.get(col, 0.0)!r})"
                for col, d in diff.items() if d > self.tolerance.get(col, 0.0)]

    def report(self) -> dict:
        return {"digests": sorted(set(self.digests)), "runs": len(self.digests),
                "most_rows_differing_from_first": self.rows_differing,
                "max_diff_per_column": self.max_diff,
                "tolerance": self.tolerance,
                "tolerance_reason": workloads.PSI_JITTER_REASON if self.tolerance else None}


# ---------------------------------------------------------------------------
# metrics


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(trace: dict, imports: dict) -> dict:
    """Per-layer values from one traced run's summary (see layers.py)."""
    spans, counts, caches = trace["spans"], trace["counts"], trace["caches"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def layer_s(*names):  # time in these functions and their same-layer callees
        return sum(spans.get(n, {}).get("layer_s", 0.0) for n in names)

    def layer_self(layer):  # time in the layer, each moment counted once
        return sum((s["self_s"] for n, s in spans.items() if n.startswith(layer + ".")), 0.0)

    def cache(*names):
        hits = sum(caches.get(n, {}).get("hits", 0) for n in names)
        misses = sum(caches.get(n, {}).get("misses", 0) for n in names)
        return hits + misses, (hits / (hits + misses) if hits + misses else 0.0)

    levels = counts.get("quantize.levels", 0)
    solve_cpu = sum(spans.get(n, {}).get("cpu_s", 0.0)
                    for n in ("quantize.bs_levels", "quantize.disc_levels", "quantize.halfline_levels"))
    cert_lookups, cert_ratio = cache("quantize.certified", "quantize.certified_halfline")
    chart_lookups, chart_ratio = cache("langer.chart_for")
    tp = ("potential.turning_points", "potential.halfline_turning_point")
    return {
        "potential.turning_points.calls": calls(*tp),
        "potential.turning_points.self_s": layer_s(*tp),
        "potential.certify.self_s": layer_s("potential.certify_well", "potential.certify_halfline_well"),
        "quadrature.well_integral.calls": calls("quadrature.well_integral"),
        "quadrature.integrand_points": counts.get("quadrature.integrand_points", 0),
        "quadrature.self_s": layer_self("quadrature"),
        "action.calls": sum(s["calls"] for n, s in spans.items() if n.startswith("action.")),
        "action.self_s": layer_self("action"),
        "quantize.levels": levels,
        "quantize.self_s": layer_self("quantize"),
        "quantize.s_per_level": solve_cpu / levels if levels else 0.0,
        "quantize.cert_cache_lookups": cert_lookups,
        "quantize.cert_cache_hit_ratio": cert_ratio,
        "oracle.solve_spectrum.self_s": layer_s("oracle.solve_spectrum"),
        "oracle.grid_solves": counts.get("oracle.grid_solves", 0),
        "oracle.grid_points": counts.get("oracle.grid_points", 0),
        "oracle.grid_n_max": max(trace["grid_n"], default=0),
        "oracle.eigenvector.calls": calls("oracle.eigenvector"),
        "oracle.eigenvector.self_s": layer_s("oracle.eigenvector"),
        "langer.build_chart.calls": calls("langer.build_chart"),
        "langer.build_chart.self_s": layer_s("langer.build_chart"),
        "langer.chart_cache_lookups": chart_lookups,
        "langer.chart_cache_hit_ratio": chart_ratio,
        "langer.psi_eval.points": counts.get("langer.psi_eval.points", 0),
        "langer.psi_eval.self_s": layer_s("langer.psi_eval"),
        "airy.points": counts.get("airy.points", 0),
        "airy.self_s": layer_self("airy"),
        "cli.rows": counts.get("cli.rows", 0),
        "cli.emit_s": spans.get("cli.emit", {}).get("wall_s", 0.0),
        "cli.self_s": layer_self("cli"),
        "setup.import_numpy_s": imports["numpy"],
        "setup.import_scipy_s": imports["scipy"],
        "setup.import_semiclass_s": imports["semiclass"],
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    tmp = WORK / f"tmp-{name}-{os.getpid()}"
    tmp.mkdir()
    try:
        return _run(name, seed, seconds, trace, tiny, tmp, started, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _rep(kind, report, spans, out, tail, outputs, deadline) -> dict:
    """One cold repetition; its errors are empty when the output is correct."""
    rep = {"kind": kind, "errors": []}
    if out.exists():
        out.unlink()
    traced = kind == "traced"
    try:
        proc, data = _worker(report, (["--trace", str(spans)] if traced else []) + tail,
                             timeout=deadline - time.monotonic(), importtime=traced)
    except subprocess.TimeoutExpired:
        rep["errors"].append("timed out")
        return rep
    if data is None:
        rep["errors"].append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return rep
    rep.update(data)
    if traced:
        rep["imports"] = _import_breakdown(proc.stderr)
    if data["rc"] != 0:
        rep["errors"].append(f"cli exit code {data['rc']}: {proc.stderr.strip()[-2000:]}")
    elif not out.is_file():
        rep["errors"].append("cli wrote no output table")
    else:
        rep["errors"] += outputs.check(out)
    return rep


def _run(name, seed, seconds, trace, tiny, tmp, started, deadline) -> dict:
    wl = workloads.make(name, seed, tiny=tiny)
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(wl.config(), indent=1))
    out = tmp / "out.csv"
    tail = ["--", wl.command, "--config", str(cfg), "--out", str(out), *wl.flags]
    fingerprint = _fingerprint(tmp)
    outputs = Outputs(wl)
    spans = tmp / "spans.json"
    reps: list = []
    kinds = ("plain", "traced") if trace else ("plain",)
    measuring = time.monotonic()
    while True:
        for kind in kinds:
            reps.append(_rep(kind, tmp / f"rep{len(reps)}.json", spans, out, tail, outputs, deadline))
        if "timed out" in reps[-1]["errors"]:
            break
        cycles = len(reps) // len(kinds)
        elapsed = time.monotonic() - measuring
        if time.monotonic() + elapsed / cycles > deadline:
            break
        if cycles >= MIN_CYCLES[trace] and elapsed * (cycles + 1) / cycles > seconds:
            break

    if spans.is_file():
        spans.replace(WORK / f"spans_{name}_seed{seed}.json")
    failed = sum(1 for r in reps if r["errors"])
    plain = [r for r in reps if r["kind"] == "plain" and "wall_s" in r]
    traced = [r for r in reps if r["kind"] == "traced" and "trace" in r]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
              "config": wl.config(), "command": wl.command, "flags": wl.flags,
              "fingerprint": fingerprint, "attempted": len(reps), "failed": failed,
              "failed_frac": failed / len(reps) if reps else 1.0,
              "repeatability": outputs.report(),
              "run_s": time.monotonic() - started, "reps": reps}
    if not plain or (trace and not traced):
        raise BenchError(f"{name}: no repetition completed: "
                         f"{next((r['errors'] for r in reps if r['errors']), [])}")
    if not trace:
        samples = {"setup_s": [r["import_s"] for r in plain], "wall_s": [r["wall_s"] for r in plain],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        units = END_TO_END
    else:
        per_rep = [layer_metrics(r["trace"], r["imports"]) for r in traced]
        samples = {k: [m[k] for m in per_rep] for k in per_rep[0]}
        counts = [k for k, u in PER_LAYER.items() if u == "count"]
        result["counts_repeat"] = all(m[k] == per_rep[0][k] for m in per_rep for k in counts)
        samples["trace.overhead_frac"] = [_median([r["wall_s"] for r in traced])
                                          / _median([r["wall_s"] for r in plain]) - 1.0]
        units = PER_LAYER
        for r in traced:  # keep the results file small: the span summary of the first run only
            r["trace"] = r["trace"] if r is traced[0] else {"grid_trail": r["trace"]["grid_trail"]}
    result["samples"] = samples
    # counts repeat exactly (see counts_repeat): report the first one, as an integer
    result["metrics"] = {k: {"value": samples[k][0] if units[k] == "count" else _median(samples[k]),
                             "unit": units[k]} for k in units}
    (WORK / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def _summary(res: dict) -> str:
    lines = [f"{res['workload']}: seed {res['seed']}, trace {res['trace']}, "
             f"{res['attempted']} cold runs in {res['run_s']:.1f} s, "
             f"failed_frac {res['failed_frac']:.3g} ({res['failed']} of {res['attempted']})"]
    for k, m in res["metrics"].items():
        xs = res["samples"][k]
        lines.append(f"  {k:34s} {m['value']:.6g} {m['unit']}  (n={len(xs)}; "
                     f"min {min(xs):.6g}, max {max(xs):.6g})")
    rep = res["repeatability"]
    lines.append(f"  output digests: {len(rep['digests'])} distinct in {rep['runs']} runs; "
                 f"largest difference per column: {rep['max_diff_per_column'] or 'none'}")
    for r in res["reps"]:
        for e in r["errors"][:5]:
            lines.append(f"  FAILED ({r['kind']}): {e}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="sub-second inputs, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "semiclass" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'semiclass'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny)
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print(_summary(res))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
