"""Benchmark of the `pcompliance` command line, end to end and per layer.

    python3 bench/run.py --workload crack-ladder --seed 0 --seconds 30 --trace 0

Each repetition of a workload runs in a fresh process (bench/worker.py)
with BLAS pinned to one thread.  A run repeats the workload until
`--seconds` would be exceeded, at least three times without tracing,
and reports medians.  With `--trace 1` the run alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones
plus the tracing overhead.  Outputs are checked after every repetition.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Workloads and metrics
are described in BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_UNTRACED = 3
# every run must end well inside three minutes, builds included
RUN_LIMIT_S = 165.0

# metric name -> unit, as declared next to the workloads
UNITS = {m["name"]: m["unit"]
         for kind in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def run_worker(workload: str, seed: int, workdir: Path, traced: bool,
               toy: bool, timeout: float) -> dict | None:
    """One repetition in a fresh process; None if it crashed or timed out."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **{name: "1" for name in THREAD_VARIABLES})
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir),
            "--result", str(result_path), "--trace", str(int(traced)),
            "--toy", str(int(toy)), "--spawn-time", repr(time.time())]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=max(timeout, 5.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited with {proc.returncode}:\n{stderr}", file=sys.stderr)
        return None
    if stderr:
        print(stderr, file=sys.stderr, end="")
    return json.loads(result_path.read_text())


def check_repetition(commands, record: dict | None, workdir: Path,
                     seed: int, toy: bool) -> list[list[str]]:
    """The failures of each command of one repetition."""
    if record is None:
        return [[f"{cmd.label}: no result"] for cmd in commands]
    failures = []
    for cmd, result in zip(commands, record["commands"]):
        found = workloads.check(cmd, workdir, result["exit_code"],
                                result["stdout"], seed, toy)
        if found and result["stderr"]:
            found.append(f"{cmd.label}: {result['stderr'].strip()}")
        failures.append(found)
    return failures


def tail_percentile(n: int) -> int | None:
    """Highest percentile with at least ten samples beyond it, if any is
    at or above the median."""
    q = math.floor(100 * (1 - 10 / n)) if n > 10 else None
    return q if q is not None and q >= 50 else None


def _median(values):
    return None if any(v is None for v in values) else statistics.median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> dict:
    commands = workloads.plan(workload, seed, toy)
    base = WORK / f"{workload}-{seed}{'-toy' if toy else ''}"
    shutil.rmtree(base, ignore_errors=True)
    modes = (False, True) if trace else (False,)
    samples = {False: [], True: []}
    attempted = failed = 0
    messages: list[str] = []
    started = time.perf_counter()
    cycle = 0.0
    previous = None
    repetition = 0
    while True:
        cycle_start = time.perf_counter()
        for traced in modes:
            workdir = base / f"rep{repetition}"
            repetition += 1
            remaining = RUN_LIMIT_S - (time.perf_counter() - started)
            record = run_worker(workload, seed, workdir, traced, toy, remaining)
            failures = check_repetition(commands, record, workdir, seed, toy)
            attempted += len(commands)
            failed += sum(map(bool, failures))
            messages.extend(f for found in failures for f in found)
            if record is not None:
                record["gap_digits"] = workloads.gap_digits(commands, workdir)
                samples[traced].append(record)
            # keep only the latest repetition's outputs on disk
            if previous is not None:
                shutil.rmtree(previous, ignore_errors=True)
            previous = workdir
        cycle = max(cycle, time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - started
        enough = len(samples[False]) >= (1 if trace else MIN_UNTRACED)
        if (enough and elapsed + cycle > seconds) or elapsed + cycle > RUN_LIMIT_S:
            break
        if not samples[False] and failed == attempted:
            break  # nothing runs at all; do not spin until the deadline

    untraced = samples[False]
    walls = [r["wall_s"] for r in untraced]
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "samples": len(untraced),
               "wall_s_samples": walls,
               "traced_wall_s_samples": [r["wall_s"] for r in samples[True]],
               "environment": (untraced or samples[True] or [{}])[-1].get("environment")}
    if trace:
        layers = [r["layers"] for r in samples[True]]
        metrics = {name: _median([m[name] for m in layers])
                   for name in (layers[0] if layers else {})}
        if walls and samples[True]:
            metrics["trace.overhead_s"] = (
                statistics.median(summary["traced_wall_s_samples"])
                - statistics.median(walls))
    else:
        metrics = {}
        if untraced:
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(r["setup_s"] for r in untraced),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                "gap_digits": statistics.median(r["gap_digits"] for r in untraced),
            }
        metrics["pass_ratio"] = 1.0 - failed / attempted
        tail = tail_percentile(len(walls))
        summary["wall_s_tail"] = (
            {"percentile": tail,
             "value": statistics.quantiles(walls, n=100, method="inclusive")[tail - 1]}
            if tail else None)
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    summary["failed_ratio"] = failed / attempted
    summary["failures"] = messages
    (base / "summary.json").write_text(json.dumps(summary, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "summary": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pcompliance" / "cli.py").is_file():
        print(f"error: no pcompliance sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = result.pop("summary")
    for failure in summary["failures"]:
        print(f"FAIL {failure}")
    print(f"environment: {json.dumps(summary['environment'])}")
    tail = summary.get("wall_s_tail") or "none: a percentile above the median needs 20 samples"
    print(f"wall_s: {len(summary['wall_s_samples'])} untraced samples "
          f"{summary['wall_s_samples']}, tail {tail}")
    print(f"failed_ratio: {summary['failed_ratio']} (ratio)")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
