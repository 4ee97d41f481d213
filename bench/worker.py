"""One repetition of one workload, in a fresh process.

Writes the workload's generated inputs, imports the package, calls
`pcompliance.cli.main` once per command with `--jobs 1`, and writes a JSON
record of timings, exit codes and captured output.  run.py starts this
script with the BLAS thread variables already set, so they hold before
NumPy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    commands = workloads.plan(args.workload, args.seed, bool(args.toy))
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    workloads.write_inputs(commands, Path("."))
    from pcompliance import cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = time.time() - args.spawn_time

    records = []
    started = time.perf_counter()
    for cmd in commands:
        argv = [cmd.subcommand, "--config", f"{cmd.label}.ini", "--out", cmd.label,
                "--jobs", "1", "--seed", str(args.seed)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails this command, not the benchmark
                traceback.print_exc()
                code = 1
        records.append({"label": cmd.label, "exit_code": code,
                        "seconds": time.perf_counter() - t0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall_s = time.perf_counter() - started

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "commands": records, "environment": _environment()}
    if tracer is not None:
        Path("spans.json").write_text(json.dumps([s.as_json() for s in tracer.spans]))
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.missing)
        result["missing_entry_points"] = tracer.missing
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
