"""Fast self-check of the benchmark harness.

    python3 bench/selfcheck.py

Checks the self-time arithmetic on a synthetic span tree, runs every
workload at toy size through run.py (untraced and traced), and
checks that the printed metric names are exactly the ones BENCHMARK.json
declares.  Prints every failure and exits 1 if there is any.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class _Result:
    iterations, evaluations, converged = 4, 7, True


def _synthetic_spans() -> tracing.Tracer:
    """cli.main(10) > solver.solve(8) > descent.minimize(6) > 2 objectives(1.5 each),
    with one rasterize(1) under cli.main, on a clock that ticks by hand."""
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    def objective(x):
        advance(1.5)
        return 0.0, x

    def minimize(fun, x0):
        advance(1.0)
        fun(x0)
        advance(1.0)
        fun(x0)
        advance(1.0)
        return _Result()

    traced_minimize = tracer.wrap("descent.minimize", minimize)

    class _Nodes:
        size = 100

    def solve():
        advance(1.0)
        traced_minimize(objective, _Nodes())
        advance(1.0)

    traced_solve = tracer.wrap("solver.solve", solve)
    traced_rasterize = tracer.wrap("geometry.rasterize", lambda: advance(1.0))

    def main():
        traced_rasterize()
        traced_solve()
        advance(1.0)

    tracer.wrap("cli.main", main)()
    return tracer


def check_span_arithmetic(failures: list[str]) -> None:
    tracer = _synthetic_spans()
    own = dict(zip((s.name for s in tracer.spans), tracing.self_times(tracer.spans)))
    expected = {"cli.main": 1.0, "geometry.rasterize": 1.0, "solver.solve": 2.0,
                "descent.minimize": 3.0, "descent.objective": 1.5}
    for name, value in expected.items():
        if abs(own[name] - value) > 1e-12:
            failures.append(f"self time of {name}: {own[name]} != {value}")
    metrics = tracing.layer_metrics(tracer.spans)
    for name, value in {"cli.self_s": 1.0, "descent.minimize_s": 6.0,
                        "descent.self_s": 3.0, "descent.iterations": 4,
                        "descent.extra_evals": 2, "solver.solve_s": 8.0,
                        "solver.objective_s": 3.0, "solver.objective_calls": 2,
                        "solver.objective_ns_per_node": 1.5e7,
                        "capacity.objective_calls": 0,
                        "descent.time_share": 0.6}.items():
        if abs(metrics[name] - value) > 1e-9:
            failures.append(f"synthetic {name}: {metrics[name]} != {value}")
    nulled = tracing.layer_metrics(tracer.spans, ["quadratics.spla.splu"])
    if any(v is not None for k, v in nulled.items() if k.startswith("quadratics.")):
        failures.append("a missing quadratics entry point left its metrics set")


def check_toy_runs(failures: list[str]) -> None:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    if {w["name"] for w in declared["workloads"]} != set(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result = run.measure(workload, seed=1, seconds=0, trace=trace, toy=True)
            label = f"{workload} toy trace={int(trace)}"
            if not result["correct"]:
                failures.append(f"{label}: {result['summary']['failures']}")
            printed = set(result["metrics"])
            if printed != names:
                failures.append(f"{label}: printed but undeclared "
                                f"{sorted(printed - names)}, declared but not "
                                f"printed {sorted(names - printed)}")
            if any(m["value"] is None for m in result["metrics"].values()):
                failures.append(f"{label}: null metrics")
        print(f"{workload}: toy runs done", flush=True)


def main() -> int:
    failures: list[str] = []
    check_span_arithmetic(failures)
    check_toy_runs(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
