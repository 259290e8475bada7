"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

For every workload: one untraced and two traced runs of run.py --tiny must
exit 0 with a correct result line that carries every metric named in
BENCHMARK.json with its declared unit, and the traced counts must repeat
exactly.  Then run.py must fail, without a result line, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc, errors: list, label: str):
    if proc.returncode != 0:
        errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(res)}")
    if not (res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1):
        errors.append(f"{label}: not correct: {proc.stdout[-2000:]}")
    return res


def check_metrics(res: dict, declared: list, errors: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = res["metrics"]
    if sorted(got) != sorted(want):
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(want))} not both declared and emitted")
    for name, unit in want.items():
        m = got.get(name, {})
        if m.get("unit") != unit:
            errors.append(f"{label}: {name} has unit {m.get('unit')!r}, declared {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{label}: {name} value {v!r} is not a finite number")


def main() -> int:
    errors: list = []
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for wl in (w["name"] for w in SPEC["workloads"]):
        common = ["--workload", wl, "--seed", "1", "--seconds", "1", "--tiny"]
        res = result(bench(*common, "--trace", "0"), errors, f"{wl} trace 0")
        if res:
            check_metrics(res, SPEC["end_to_end"], errors, f"{wl} trace 0")
        traced = [result(bench(*common, "--trace", "1"), errors, f"{wl} trace 1") for _ in range(2)]
        for res in filter(None, traced):
            check_metrics(res, SPEC["per_layer"], errors, f"{wl} trace 1")
        if all(traced):
            a, b = (t["metrics"] for t in traced)
            for name in counts:
                if a.get(name) != b.get(name):
                    errors.append(f"{wl}: traced count {name} differs: {a.get(name)} vs {b.get(name)}")
        print(f"{wl}: checked", flush=True)

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", SPEC["workloads"][0]["name"], "--seconds", "1", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
