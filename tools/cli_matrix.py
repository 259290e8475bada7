#!/usr/bin/env python3
"""Run every CLI command on every config and keep each run's output.

    python3 tools/cli_matrix.py OUTDIR [CONFIG ...]

CONFIG defaults to configs/*.json.  Each command runs on each config in
both formats (csv, json), with and without --no-oracle, from the config's
own directory, and its stdout, stderr and exit code go to
OUTDIR/<config name>/<command>.<format>[.no-oracle].{out,err,rc}.  The
program is imported from the src/ next to this script, so running two
trees' copies into two directories and `diff -r` compares their output.

Exits 1 when any run exits with a code outside {0, 2, 3, 4} (success and
the documented failures), prints a Python traceback, prints a Python
warning ("...Warning:" on stderr) or exits 0 with a malformed table, and
names those runs on stderr; the program promises none of these.  A table is
well formed when its JSON parses and each row has one cell per column, or
when each of its CSV lines has as many comma-separated cells as the header.
It also exits 1 and names each config on which every run exits 2 (a config
error): such a file is not a run config (a potential document, say), so its
runs check nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("levels", "count", "wavefunction", "observable", "scaling")
EXIT_CODES = (0, 2, 3, 4)


def well_formed(out: bytes, fmt: str) -> bool:
    """Whether the table a run wrote (in fmt, csv or json) has one cell per column in every row."""
    try:
        if fmt == "json":
            table = json.loads(out)
            return all(len(row) == len(table["columns"]) for row in table["rows"])
        header, *rows = out.decode().splitlines()
    except (ValueError, KeyError, TypeError):  # no JSON, no table, or no header line
        return False
    return all(row.count(",") == header.count(",") for row in rows)


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    configs = [Path(c).resolve() for c in sys.argv[2:]] or sorted((ROOT / "configs").glob("*.json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bad = []
    for cfg in configs:
        (out / cfg.stem).mkdir(parents=True, exist_ok=True)
        codes = set()
        for command in COMMANDS:
            for fmt in ("csv", "json"):
                for flags in ([], ["--no-oracle"]):
                    run = subprocess.run(
                        [sys.executable, "-m", "semiclass.cli", command, "--config", cfg.name,
                         "--format", fmt, *flags],
                        cwd=cfg.parent, env=env, capture_output=True)
                    base = out / cfg.stem / ".".join([command, fmt] + [f[2:] for f in flags])
                    base.with_name(base.name + ".out").write_bytes(run.stdout)
                    base.with_name(base.name + ".err").write_bytes(run.stderr)
                    base.with_name(base.name + ".rc").write_text(f"{run.returncode}\n")
                    codes.add(run.returncode)
                    where = f"undocumented failure: {base.relative_to(out)}"
                    if run.returncode not in EXIT_CODES or b"Traceback" in run.stdout + run.stderr:
                        bad.append(f"{where}: exit {run.returncode}")
                    elif b"Warning:" in run.stderr:
                        bad.append(f"{where}: a Python warning on stderr")
                    elif run.returncode == 0 and not well_formed(run.stdout, fmt):
                        bad.append(f"{where}: a malformed {fmt} table")
        if codes == {2}:
            bad.append(f"not a run config: {cfg.name}: every run exits 2")
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
