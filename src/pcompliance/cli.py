"""Command-line front end: configs in, CSV/SVG reports out.

Exit codes: 0 all checks pass, 1 failed checks or runtime errors,
2 configuration problems.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path
from typing import Optional

from . import capacity as capacity_mod
from . import construction, poincare, reporting, stability
from .config import ExperimentConfig, load_config
from .errors import ConfigError, NonConvergence, ResolutionTooCoarse
from .geometry import CrackSet, build_grid, load_segments
from .solver import solve_cracks
from .sources import GaussianBump, named_source


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    parser.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="worker process cap for capacity-sweep; "
                             "other commands ignore it")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="seed override (recorded in output headers)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcompliance",
        description="grid experiments on compliance, capacity, and crack sets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        _common_flags(cmd)
        cmd.set_defaults(handler=handler)
    return parser


def _columns(record) -> tuple[str, ...]:
    """CSV header of a record dataclass: its field names, in order."""
    return tuple(f.name for f in fields(record))


def _check(label: str, ok: bool) -> bool:
    print(f"check {label}: {'ok' if ok else 'FAIL'}")
    return ok


def cmd_solve(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    """one energy solve with compliance report, binary field, optional SVG"""
    job = cfg.solve
    spec = cfg.problem
    if job.cracks_file:
        if not Path(job.cracks_file).is_file():
            raise ConfigError(f"cracks_file not found: {job.cracks_file}")
        cracks = load_segments(job.cracks_file)
    else:
        cracks = CrackSet.empty()
    u, report, _ = solve_cracks(
        spec, cracks, named_source(job.source, spec.dim, spec.half_width),
        job.nodes_per_side, cfg.solver)
    reporting.write_compliance_report(out / "solve.csv", report, seed=cfg.seed)
    reporting.write_field(out / "solution.npy", u)
    if job.heatmap:
        if spec.dim == 2:
            reporting.write_heatmap(out / "solution.svg", u)
        else:
            print("note: heatmaps are 2d only, skipped")
    print(f"compliance {reporting.format_value(report.compliance_energy_form)} "
          f"(residual {report.residual:.3e}, {report.iterations} iterations)")
    return 0


def cmd_capacity_sweep(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    """segment capacities over a sweep of lengths, plus scaling fits"""
    job = cfg.capacity_sweep
    p = cfg.problem.p
    dim = cfg.problem.dim
    results = capacity_mod.capacity_sweep(
        job.lengths, p, dim, job.resolution, job.box_half_width,
        cfg.solver, jobs=jobs)
    rows = [(p, dim, t, r.grid_h, r.box_half_width, r.value)
            for t, r in zip(job.lengths, results)]
    reporting.write_csv(out / "capacity_sweep.csv",
                        ("p", "dim", "t", "h", "box_half_width", "capacity"),
                        rows, seed=cfg.seed)
    values = [r.value for r in results]
    power = capacity_mod.scaling_fit(job.lengths, values)
    print(f"power fit: slope {power.slope:.4f}, r2 {power.r_squared:.6f}")
    ok = True
    if p < dim:
        target = dim - p
        ok &= _check(
            f"slope within {target:.2f} +/- {job.slope_tolerance:.2f}",
            abs(power.slope - target) <= job.slope_tolerance)
    elif p == dim:
        logfit = capacity_mod.logarithmic_fit(job.lengths, values, p)
        print(f"log fit: amplitude {logfit.amplitude:.4f}, "
              f"scale {logfit.scale:.4f}, r2 {logfit.linear_r_squared:.6f}")
        ok &= _check("log model beats power law",
                     logfit.linear_r_squared > power.linear_r_squared)
    else:
        print("note: p above dim, capacities level off; no slope band declared")
    return 0 if ok else 1


def cmd_sweep_vanishing(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    """crack-grid decay ladder with capacity bound and baseline comparison"""
    job = cfg.sweep_vanishing
    spec = cfg.problem
    report = construction.vanishing_sequence_experiment(
        job.n_list, job.epsilon, spec.p,
        length_penalty=job.length_penalty, dim=spec.dim,
        half_width=spec.half_width, config=cfg.solver,
        local_nodes=job.local_nodes,
        capacity_resolution=job.capacity_resolution,
        bound_safety=job.bound_safety,
        divergence_samples=job.divergence_samples,
        seed=cfg.seed)
    reporting.write_csv(out / "vanishing.csv", _columns(construction.VanishingRow),
                        [astuple(r) for r in report.rows],
                        seed=cfg.seed,
                        comments=(f"tilde_c={reporting.format_value(report.tilde_c)}",
                                  f"bound_safety={reporting.format_value(report.bound_safety)}"))
    for r in report.rows:
        print(f"n={r.n}: flux {r.flux_pnorm:.6f}, penalized {r.penalized_value:.6f}, "
              f"bound_rhs {r.bound_rhs:.6f}")
    if report.decay is not None:
        print(f"decay fit: exponent {report.decay.slope:.3f}, r2 {report.decay.r_squared:.5f}")
    ok = True
    if report.aborted_at is not None:
        print(f"aborted at n={report.aborted_at}: cube resolution too coarse",
              file=sys.stderr)
        ok = False
    target = 2 ** spec.dim * spec.half_width * job.epsilon
    ok &= _check("crack length identity",
                 all(abs(r.crack_length - target) <= 1e-12 * target
                     for r in report.rows))
    fluxes = [r.flux_pnorm for r in report.rows]
    ok &= _check("flux strictly decreasing",
                 all(b < a for a, b in zip(fluxes, fluxes[1:])))
    ok &= _check(f"capacity bound with safety {report.bound_safety}",
                 report.bound_satisfied)
    if job.compare_baseline and report.rows:
        base = construction.connected_baseline(
            job.epsilon, spec.p, length_penalty=job.length_penalty,
            dim=spec.dim, half_width=spec.half_width,
            nodes_per_side=job.baseline_nodes, config=cfg.solver)
        print(f"connected baseline penalized value "
              f"{base.penalized_objective:.6f} vs crack grid "
              f"{report.rows[-1].penalized_value:.6f}")
        ok &= _check("crack grid beats connected baseline",
                     report.rows[-1].penalized_value < base.penalized_objective)
    return 0 if ok else 1


def cmd_poincare(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    """best-constant sweep over cube sizes and relative crack lengths"""
    job = cfg.poincare
    spec = cfg.problem
    p = spec.p
    if not job.deltas or not job.relative_lengths:
        print("empty sweep, nothing to do")
        return 0
    rows = []
    results = {}
    capacities = {}
    for a in job.relative_lengths:
        capacities[a] = (capacity_mod.segment_capacity(
                             a, p, spec.dim, resolution=job.capacity_resolution,
                             config=cfg.solver).value
                         if job.with_capacity else float("nan"))
        for delta in job.deltas:
            res = poincare.crack_poincare(delta, a, job.nodes_per_side, p,
                                          spec.dim, cfg.solver)
            results[(a, delta)] = res
            rows.append((p, delta, a, res.grid_h, res.best_constant,
                         capacities[a]))
    reporting.write_csv(out / "poincare.csv",
                        ("p", "delta", "a", "h", "constant", "capacity"),
                        rows, seed=cfg.seed)
    ok = True
    scale_target = 2.0 ** p
    for a in job.relative_lengths:
        for d1, d2 in zip(job.deltas, job.deltas[1:]):
            if abs(d2 - 2.0 * d1) > 1e-12 * d1:
                continue
            ratio = results[(a, d2)].best_constant / results[(a, d1)].best_constant
            ok &= _check(
                f"doubling delta={d1} a={a}: ratio/2^p = {ratio / scale_target:.4f}",
                abs(ratio / scale_target - 1.0) <= job.doubling_tolerance)
    if job.with_capacity and len(job.relative_lengths) >= 2:
        products = [results[(a, job.deltas[0])].best_constant * capacities[a]
                    for a in job.relative_lengths]
        spread = max(products) / min(products)
        ok &= _check(f"constant tracks 1/capacity (spread {spread:.3f})",
                     spread <= 2.0)
    return 0 if ok else 1


def cmd_stability(cfg: ExperimentConfig, out: Path, jobs: int) -> int:
    """pairwise stability inequality: calibrate A, count holdout violations"""
    job = cfg.stability
    spec = cfg.problem
    if job.pairs == 0:
        print("empty sweep, nothing to do")
        return 0
    bound = stability.stability_experiment(
        spec.p, spec.dim, job.nodes_per_side, spec.half_width,
        pairs=job.pairs, calibration_count=job.calibration,
        seed=cfg.seed, calibration_safety=job.calibration_safety,
        config=cfg.solver)
    factor = 2.0 ** (spec.p - 1.0)
    rows = []
    for index, record in enumerate(bound.calibration + bound.holdout):
        rhs = factor * record.compliance_2 + bound.measured_A * record.z_value
        rows.append((index, spec.p, record.compliance_1, record.compliance_2,
                     record.z_value, record.compliance_1, rhs,
                     record.satisfied(bound.measured_A)))
    reporting.write_csv(out / "stability.csv",
                        ("pair", "p", "c1", "c2", "z", "lhs", "rhs", "satisfied"),
                        rows, seed=cfg.seed,
                        comments=(f"measured_A={reporting.format_value(bound.measured_A)}",
                                  f"z_form={bound.z_form}",
                                  f"q0={reporting.format_value(bound.q0)}"))
    print(f"measured A = {bound.measured_A:.6f} ({bound.z_form}), "
          f"violations on holdout: {bound.violations}")
    ok = _check("zero holdout violations", bound.violations == 0)
    if job.truncation_levels:
        grid = build_grid(spec, job.nodes_per_side)
        tall = GaussianBump(center=(0.0,) * spec.dim,
                            width=0.1 * spec.half_width, value=50.0)
        trows = stability.truncation_bounds(tall, job.truncation_levels,
                                            spec.p, grid, bound.measured_A)
        reporting.write_csv(out / "truncation.csv", _columns(stability.TruncationRow),
                            [astuple(r) for r in trows], seed=cfg.seed)
        bounds = [r.bound for r in trows]
        ok &= _check("truncation bounds non-increasing",
                     all(b <= a + 1e-15 for a, b in zip(bounds, bounds[1:])))
    return 0 if ok else 1


_HANDLERS = {
    "solve": cmd_solve,
    "capacity-sweep": cmd_capacity_sweep,
    "sweep-vanishing": cmd_sweep_vanishing,
    "poincare": cmd_poincare,
    "stability": cmd_stability,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = Path(args.out) if args.out else Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output directory {out} not writable: {exc}") from exc
        return args.handler(cfg, out, max(1, args.jobs))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, ResolutionTooCoarse, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
