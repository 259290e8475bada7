"""One cold run of the semiclass CLI in a fresh interpreter.

    python3 bench/worker.py REPORT.json SRC_DIR [--trace SPANS.json] [-- CLI ARGS...]

Times the import of `semiclass.cli` from SRC_DIR and one `cli.run(CLI ARGS)`,
and writes a JSON report with both times, the exit code and the peak
resident memory of this process.  With --trace the run goes through the
layer tracer (layers.py): its summary lands in the report and every span in
SPANS.json.  Without CLI ARGS only the import is timed, and the report also
carries the numpy/scipy versions and BLAS configuration.

Nothing but sys and time is imported before the timed import, so that the
import pays for every module it needs, as it does for a CLI user.
"""

import sys
import time


def _fingerprint() -> dict:
    import platform

    import numpy as np
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {})
        return {k: deps.get(k, {}).get("openblas configuration") or deps.get(k, {}).get("name")
                for k in ("blas", "lapack")}

    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.__config__.CONFIG), "scipy_blas": blas(scipy.__config__.CONFIG)}


def main() -> int:
    args, cli_args = sys.argv[1:], []
    if "--" in args:
        i = args.index("--")
        args, cli_args = args[:i], args[i + 1:]
    report_path, src = args[0], args[1]
    spans_path = args[3] if args[2:3] == ["--trace"] else None

    t0 = time.perf_counter()
    import semiclass.cli as cli
    import_s = time.perf_counter() - t0

    import json
    import resource
    from pathlib import Path

    origin = Path(sys.modules["semiclass"].__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        print(f"semiclass imported from {origin}, not from {src}", file=sys.stderr)
        return 3

    report = {"import_s": import_s}
    if not cli_args:
        report["fingerprint"] = _fingerprint()
    else:
        tracer = None
        if spans_path is not None:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        report["rc"] = cli.run(cli_args)
        report["wall_s"] = time.perf_counter() - t1
        if tracer is not None:
            report["trace"] = tracer.summary()
            Path(spans_path).write_text(json.dumps(tracer.span_records()))
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
