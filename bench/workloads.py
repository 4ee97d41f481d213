"""Benchmark workloads: seeded inputs, the CLI commands that run them, and
the checks made on what those commands write.

Everything here is standard library only, so run.py can plan and
check a workload without importing NumPy.  Seed 0 reproduces the
acceptance-test configurations.  Other seeds change the inputs only in
ways that keep every grid, and for the L-BFGS workloads every iteration
count, equal to seed 0's, so wall-time spread between seeds is run-to-run
noise and not a different amount of work.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Command:
    """One `pcompliance <subcommand>` call with its generated inputs."""

    label: str                  # output subdirectory and reference key
    subcommand: str
    config: str                 # INI text, written to <label>.ini
    check: Callable[["Command", Path, str], list[str]]
    crack_file: str = ""        # crack-file text, written to <label>.cracks


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """Comment lines (without '# ') and data rows of a CLI CSV file."""
    comments, body = [], []
    for line in path.read_text().splitlines():
        (comments.append(line[2:]) if line.startswith("# ") else body.append(line))
    return comments, list(csv.DictReader(body))


def failed_check_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines()
            if line.startswith("check ") and not line.endswith(": ok")]


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * abs(expected)


def _reference_failures(label: str, values: dict[str, list[float]]) -> list[str]:
    """Compare seed-0 outputs with the values recorded in reference.json."""
    reference = json.loads(REFERENCE_FILE.read_text())[label]
    rtol = reference["rtol"]
    failures = []
    for key, expected in reference["values"].items():
        actual = values.get(key, [])
        if len(actual) != len(expected) or not all(
                _close(a, e, rtol) for a, e in zip(actual, expected)):
            failures.append(f"{key} {actual} differs from reference "
                            f"{expected} (rtol {rtol})")
    return failures


def reference_values(cmd: Command, out: Path, stdout: str) -> dict[str, list[float]]:
    """The numbers of a command's output that seed 0 pins to reference.json."""
    if cmd.subcommand == "sweep-vanishing":
        _, rows = read_csv(out / "vanishing.csv")
        return {"flux_pnorm": [float(r["flux_pnorm"]) for r in rows],
                "penalized_value": [float(r["penalized_value"]) for r in rows],
                "baseline": [_baseline_value(stdout)]}
    if cmd.subcommand == "capacity-sweep":
        _, rows = read_csv(out / "capacity_sweep.csv")
        return {"capacity": [float(r["capacity"]) for r in rows]}
    if cmd.subcommand == "solve":
        _, rows = read_csv(out / "solve.csv")
        return {"compliance_energy_form":
                [float(r["compliance_energy_form"]) for r in rows]}
    _, rows = read_csv(out / "poincare.csv")
    return {"constant": [float(r["constant"]) for r in rows]}


_BASELINE = re.compile(r"connected baseline penalized value (\S+) vs crack grid (\S+)")


def _baseline_value(stdout: str) -> float:
    match = _BASELINE.search(stdout)
    return float(match.group(1)) if match else math.nan


# --- crack-ladder ---------------------------------------------------------

def _check_ladder(cmd: Command, out: Path, stdout: str) -> list[str]:
    comments, rows = read_csv(out / "vanishing.csv")
    wanted = [int(n) for n in re.search(r"n_list = (.*)", cmd.config).group(1).split()]
    if [int(r["n"]) for r in rows] != wanted:
        return [f"ladder rows {[r['n'] for r in rows]} != n_list {wanted}"]
    failures = []
    fluxes = [float(r["flux_pnorm"]) for r in rows]
    if not all(b < a for a, b in zip(fluxes, fluxes[1:])):
        failures.append(f"fluxes not strictly decreasing: {fluxes}")
    safety = float(next(c.split("=", 1)[1] for c in comments
                        if c.startswith("bound_safety=")))
    if not all(f <= float(r["bound_rhs"]) * safety + 1e-15
               for f, r in zip(fluxes, rows)):
        failures.append("capacity bound violated on some row")
    # the length penalty is 1, so the objective approaches the total length
    final = float(rows[-1]["penalized_value"])
    length = float(rows[-1]["crack_length"])
    if abs(final - length) > 0.1 * length:
        failures.append(f"penalized value {final} not within 10% of {length}")
    base = _baseline_value(stdout)
    if not final < base:
        failures.append(f"ladder {final} does not beat baseline {base}")
    return failures


def _crack_ladder(rng: random.Random, seed: int, toy: bool) -> list[Command]:
    # every epsilon in [0.25, 0.2575] keeps 33, 33, 33 and 65 nodes per
    # cube side on the four rungs, so seeds move the inputs, not the work
    epsilon = 0.25 if seed == 0 else rng.uniform(0.25, 0.2575)
    config = _ini({
        "problem": {"p": 2.0},
        "sweep-vanishing": {"n_list": "1 2 4" if toy else "1 2 4 8",
                            "epsilon": repr(epsilon),
                            "compare_baseline": "yes",
                            "baseline_nodes": 65 if toy else 129}})
    return [Command("ladder", "sweep-vanishing", config, _check_ladder)]


# --- capacity-sweep -------------------------------------------------------

def _check_capacity(cmd: Command, out: Path, stdout: str) -> list[str]:
    _, rows = read_csv(out / "capacity_sweep.csv")
    xs = [math.log(float(r["t"])) for r in rows]
    ys = [math.log(float(r["capacity"])) for r in rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    if abs(slope - 0.5) > 0.15:
        return [f"capacity slope {slope:.4f} outside 0.5 +/- 0.15"]
    return []


def _capacity_sweep(rng: random.Random, seed: int, toy: bool) -> list[Command]:
    # the acceptance sweep's three longest lengths, in an order drawn from the
    # seed.  Scaling the lengths instead (even by 0.1%) moves the L-BFGS
    # iteration total by up to 8% between seeds, more than the run-to-run
    # noise the wall-time bound has to absorb.
    lengths = [0.32, 0.48, 0.64] if toy else [0.08, 0.16, 0.32]
    if seed != 0:
        rng.shuffle(lengths)
    config = _ini({
        "problem": {"p": 1.5},
        "solver": {"grad_tolerance": 1e-4 if toy else 1e-6,
                   "regularization_eps": 1e-3},
        "capacity-sweep": {"lengths": " ".join(map(repr, lengths))}})
    return [Command("capacity", "capacity-sweep", config, _check_capacity)]


# --- single-solves --------------------------------------------------------

def _duality_gap(row: dict[str, str]) -> float:
    """|C_energy - C_work| / C_energy of one solve.csv row."""
    energy_form = float(row["compliance_energy_form"])
    return abs(energy_form - float(row["compliance_work_form"])) / energy_form


def _check_solve(cmd: Command, out: Path, stdout: str) -> list[str]:
    _, rows = read_csv(out / "solve.csv")
    tolerance = float(re.search(r"grad_tolerance = (\S+)", cmd.config).group(1))
    failures = []
    for row in rows:
        gap = _duality_gap(row)
        if not gap <= 1e-3:
            failures.append(f"duality gap {gap:.3e} above 1e-3")
        if not float(row["residual"]) <= tolerance:
            failures.append(f"residual {row['residual']} above {tolerance}")
    return failures if rows else ["empty solve.csv"]


def _check_poincare(cmd: Command, out: Path, stdout: str) -> list[str]:
    _, rows = read_csv(out / "poincare.csv")
    if len(rows) != 2 or not all(float(r["constant"]) > 0 for r in rows):
        return ["expected two positive constants"]
    return []


def _single_solves(rng: random.Random, seed: int, toy: bool) -> list[Command]:
    # the acceptance crack (-0.5, 0.2) -> (0.5, 0.2).  Other seeds write it
    # as two collinear pieces split at a drawn point, in a drawn order: the
    # masks, and so the iteration counts, stay those of seed 0, because
    # moving the crack even by 0.01 moves the descent iteration totals by up
    # to 10% between seeds.  The command order stays fixed, since it moves
    # the peak resident memory by up to 9%.
    if seed == 0:
        cracks = "-0.5 0.2 0.5 0.2\n"
    else:
        split = repr(-0.5 + rng.uniform(0.25, 0.75))
        pieces = [f"-0.5 0.2 {split} 0.2", f"0.5 0.2 {split} 0.2"]
        rng.shuffle(pieces)
        cracks = "\n".join(pieces) + "\n"
    small, large = (33, 65) if toy else (129, 433)
    commands = []
    for label, p, nodes, extra in (
            ("solve_p1.5", 1.5, small, {}),
            ("solve_p2", 2.0, small, {}),
            ("solve_p3", 3.0, small, {}),
            # above 80 000 free nodes the p = 2 path runs Jacobi CG; the toy
            # grid is too small for that, so it asks for CG explicitly
            ("solve_p2_cg", 2.0, large, {"prefer_direct": "no"} if toy else {})):
        config = _ini({
            "problem": {"p": p},
            "solver": {"grad_tolerance": 1e-8, **extra},
            "solve": {"nodes_per_side": nodes, "source": "bump",
                      "cracks_file": f"{label}.cracks"}})
        commands.append(Command(label, "solve", config, _check_solve, cracks))
    # acceptance criterion 6 at p = 3: the quotient descent on two cubes
    config = _ini({
        "problem": {"p": 3.0},
        "solver": {"grad_tolerance": 1e-7},
        "poincare": {"deltas": "1.0 2.0", "relative_lengths": 0.25,
                     "nodes_per_side": 17, "with_capacity": "no"}})
    commands.append(Command("poincare_p3", "poincare", config, _check_poincare))
    return commands


WORKLOADS: dict[str, Callable[[random.Random, int, bool], list[Command]]] = {
    "crack-ladder": _crack_ladder,
    "capacity-sweep": _capacity_sweep,
    "single-solves": _single_solves,
}


def plan(workload: str, seed: int, toy: bool = False) -> list[Command]:
    """The commands of one workload; the same seed gives the same inputs."""
    return WORKLOADS[workload](random.Random(seed), seed, toy)


def write_inputs(commands: list[Command], workdir: Path) -> None:
    for cmd in commands:
        (workdir / f"{cmd.label}.ini").write_text(cmd.config)
        if cmd.crack_file:
            (workdir / f"{cmd.label}.cracks").write_text(cmd.crack_file)


def check(cmd: Command, workdir: Path, exit_code: int, stdout: str,
          seed: int, toy: bool) -> list[str]:
    """Failures of one finished command, each prefixed with its label;
    empty when it passed."""
    out = workdir / cmd.label
    failures = failed_check_lines(stdout)
    if exit_code != 0:
        failures.insert(0, f"exit code {exit_code}")
    else:
        try:
            failures += cmd.check(cmd, out, stdout)
            if seed == 0 and not toy:
                failures += _reference_failures(
                    cmd.label, reference_values(cmd, out, stdout))
        except (OSError, KeyError, ValueError, ZeroDivisionError,
                AttributeError, StopIteration) as exc:
            failures.append(f"unreadable output ({exc!r})")
    return [f"{cmd.label}: {f}" for f in failures]


def gap_digits(commands: list[Command], workdir: Path) -> float:
    """min over the solve.csv files of -log10(|C_energy - C_work| / C_energy).

    Workloads that write no solve.csv, and gaps below float64 resolution,
    read as 16 digits, the float64 ceiling.
    """
    digits = 16.0
    for cmd in commands:
        path = workdir / cmd.label / "solve.csv"
        if cmd.subcommand != "solve" or not path.is_file():
            continue
        for row in read_csv(path)[1]:
            digits = min(digits, -math.log10(max(_duality_gap(row), 1e-16)))
    return digits
