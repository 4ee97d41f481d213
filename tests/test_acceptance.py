"""End-to-end acceptance gate for the package headline claims.

Each test exercises one capability at production scale and prints a
single scoreboard line (run with -s to see them all at once):

    ACCEPTANCE <k> <name>: PASS|FAIL

Numerical anchors and tolerances are frozen from calibration runs of
this exact discretization; they are regression guards, not wishes.
"""

from contextlib import contextmanager

import numpy as np

from pcompliance import (
    Constant,
    ConstructionParams,
    CrackSet,
    GaussianBump,
    GridDiscretization,
    ProblemSpec,
    SolverConfig,
    axis_segment,
    capacity_sweep,
    connected_baseline,
    crack_grid_construction,
    crack_poincare,
    logarithmic_fit,
    rasterize,
    refinement_ratio,
    scaling_fit,
    segment_capacity,
    solve_cracks,
    stability_experiment,
    total_length,
    truncation_bounds,
    vanishing_sequence_experiment,
)
from pcompliance.solver import cell_means, cell_means_adjoint, energy, energy_and_gradient


@contextmanager
def criterion(num: int, name: str):
    """Collect failure labels, print one verdict line, then assert."""
    failures: list[str] = []
    try:
        yield failures
    except Exception:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {verdict}")
    assert not failures, f"{name}: " + "; ".join(failures)


def need(failures: list, ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


def duality_gap(report) -> float:
    return abs(report.compliance_energy_form
               - report.compliance_work_form) / report.compliance_energy_form


# shared cracked-bump configuration for the duality checks
CRACK = CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0))
BUMP = GaussianBump((0.1, -0.2), 0.3)


def test_c1_crack_length_identity():
    # total length of the (2n)^2 crack grid never depends on n
    with criterion(1, "crack length identity") as failures:
        for n in (1, 2, 4, 8, 16):
            for eps in (0.4, 0.2, 0.1):
                cracks = crack_grid_construction(
                    ConstructionParams(n=n, epsilon=eps))
                got = total_length(cracks)
                want = 4.0 * eps
                need(failures, abs(got - want) <= 1e-12 * want,
                     f"n={n} eps={eps}: {got!r} != {want!r}")


def test_c2_energy_work_duality():
    with criterion(2, "energy work duality") as failures:
        config = SolverConfig(grad_tolerance=1e-8)
        for p in (1.5, 2.0, 3.0):
            for cracks, cname in ((CrackSet.empty(), "none"), (CRACK, "crack")):
                for f, fname in ((Constant(1.0), "const"), (BUMP, "bump")):
                    _, report, _ = solve_cracks(
                        ProblemSpec(p=p), cracks, f, 129, config)
                    gap = duality_gap(report)
                    need(failures, gap <= 1e-3,
                         f"p={p} {cname} {fname}: gap {gap:.3e}")
        # gap must shrink as the solver is asked for more accuracy
        for p in (1.5, 3.0):
            gaps = []
            for tol in (1e-4, 1e-6, 1e-8):
                _, report, _ = solve_cracks(
                    ProblemSpec(p=p), CRACK, BUMP, 65,
                    SolverConfig(grad_tolerance=tol))
                gaps.append(duality_gap(report))
            need(failures, gaps[0] > gaps[1] > gaps[2],
                 f"ladder p={p} not monotone: {gaps}")


def test_c3_refinement_oracle():
    # p=2, f=1, no cracks: compare against the limit extrapolated from
    # three nested grids; convergence is second order in h
    with criterion(3, "grid refinement oracle") as failures:
        config = SolverConfig(prefer_direct=True)
        values = {}
        for nodes in (129, 257, 513):
            _, report, _ = solve_cracks(
                ProblemSpec(p=2.0), CrackSet.empty(), Constant(1.0),
                nodes, config)
            values[nodes] = report.compliance_energy_form
        ratio = (values[257] - values[129]) / (values[513] - values[257])
        need(failures, 3.5 < ratio < 4.5,
             f"refinement ratio {ratio:.3f} not second order")
        oracle = values[513] + (values[513] - values[257]) / 3.0
        rel = abs(values[257] - oracle) / oracle
        need(failures, rel <= 5e-3, f"257 off oracle by {rel:.2e}")
        # frozen calibration anchor for the extrapolated limit
        need(failures, abs(oracle - 0.281154029905422) <= 1e-6 * oracle,
             f"oracle drifted to {oracle!r}")


def test_c4_capacity_scaling_laws():
    with criterion(4, "capacity scaling laws") as failures:
        ts = (0.02, 0.04, 0.08, 0.16, 0.32)
        # p=1.5 sub-quadratic needs the heavier regularization to grind
        # through the sweep; slope of cap(t) ~ t^(p-1)
        config = SolverConfig(grad_tolerance=1e-6, regularization_eps=1e-3)
        caps = [c.value for c in capacity_sweep(ts, 1.5, config=config)]
        fit = scaling_fit(ts, caps)
        need(failures, 0.35 <= fit.slope <= 0.65,
             f"p=1.5 slope {fit.slope:.4f} outside 0.5 +/- 0.15")
        # p=2 is the borderline exponent: inverse-log model, not a power
        caps2 = [c.value for c in capacity_sweep(ts, 2.0)]
        power = scaling_fit(ts, caps2)
        logfit = logarithmic_fit(ts, caps2, 2.0)
        need(failures, logfit.linear_r_squared > power.linear_r_squared,
             f"log r2 {logfit.linear_r_squared:.6f} <= "
             f"power r2 {power.linear_r_squared:.6f}")


def test_c5_removability_threshold():
    # halving h keeps segment capacity alive in 2d (p=2 > dim-1) and
    # keeps draining it in 3d (p=2 <= dim-1): removable sets have none
    with criterion(5, "removability threshold") as failures:
        flat = refinement_ratio(0.25, 2.0, 2, 2.0, 33)
        need(failures, flat.ratio >= 0.9,
             f"2d ratio {flat.ratio:.4f} below 0.9")
        deep = refinement_ratio(0.25, 2.0, 3, 2.0, 33)
        need(failures, deep.ratio <= 0.7,
             f"3d ratio {deep.ratio:.4f} above 0.7")


def test_c5_third_refinement_level():
    # a second halving of h in 3d keeps draining the segment's capacity;
    # the 129^3 box at h = 1/32 folds onto a 65^3 part
    with criterion(5, "removability, third level") as failures:
        deep = refinement_ratio(0.25, 2.0, 3, 2.0, 33)
        third = segment_capacity(0.25, 2.0, 3, resolution=8, box_half_width=2.0)
        need(failures, (third.nodes_per_side, third.grid_h) == (129, 2.0 / 64),
             f"third level on {third.nodes_per_side} nodes at h {third.grid_h}")
        caps = (deep.coarse.value, deep.fine.value, third.value)
        need(failures, caps[0] > caps[1] > caps[2],
             "3d capacities at h = 1/8, 1/16, 1/32 do not strictly decrease: "
             + ", ".join(f"{c:.6f}" for c in caps))


def test_c6_poincare_constant_scaling():
    with criterion(6, "poincare constant scaling") as failures:
        # doubling the cube side multiplies the best constant by 2^p
        for p, nodes, config in (
                (2.0, 33, None),
                (3.0, 17, SolverConfig(grad_tolerance=1e-7))):
            small = crack_poincare(1.0, 0.25, nodes, p, config=config)
            large = crack_poincare(2.0, 0.25, nodes, p, config=config)
            ratio = large.best_constant / small.best_constant
            need(failures, abs(ratio / 2 ** p - 1.0) <= 0.05,
                 f"p={p} doubling ratio {ratio:.4f} vs {2 ** p}")
        # constant * capacity stays within a factor 2 across crack sizes
        products = []
        for a in (0.125, 0.25, 0.5):
            r = crack_poincare(1.0, a, 33, 2.0)
            cap = segment_capacity(a, 2.0, resolution=8)
            products.append(r.best_constant * cap.value)
        spread = max(products) / min(products)
        need(failures, spread < 2.0,
             f"capacity tracking spread {spread:.3f} >= 2")


def test_c7_vanishing_flux_ladder():
    with criterion(7, "vanishing flux ladder") as failures:
        report = vanishing_sequence_experiment([1, 2, 4, 8], 0.25, 2.0)
        need(failures, report.aborted_at is None,
             f"ladder aborted at n={report.aborted_at}")
        fluxes = [r.flux_pnorm for r in report.rows]
        need(failures, all(a > b for a, b in zip(fluxes, fluxes[1:])),
             f"fluxes not strictly decreasing: {fluxes}")
        need(failures, report.bound_satisfied,
             "capacity bound violated on some row")
        # penalty 1 and total length 1: the objective should approach 1
        final = report.rows[-1].penalized_value
        need(failures, abs(final - 1.0) <= 0.1,
             f"penalized value {final:.6f} not within 10% of 1")
        # scattering beats one connected crack of the same total length
        base = connected_baseline(0.25, 2.0, nodes_per_side=129)
        need(failures, final < base.penalized_objective,
             f"{final:.6f} does not beat baseline "
             f"{base.penalized_objective:.6f}")


def test_c8_stability_constant_transfer():
    with criterion(8, "stability constant transfer") as failures:
        grid = GridDiscretization(33, 1.0, 2)
        spiky = GaussianBump((0.1, -0.2), 0.05, 50.0)
        for p in (1.5, 2.0, 3.0):
            bound = stability_experiment(p, nodes_per_side=65, pairs=10,
                                         calibration_count=5, seed=0)
            need(failures, bound.measured_A > 0,
                 f"p={p}: calibrated A not positive")
            need(failures, bound.violations == 0,
                 f"p={p}: {bound.violations} holdout violations")
            # truncating the source at its own peak closes the bound
            rows = truncation_bounds(spiky, (0.0, 5.0, 25.0, 50.0), p,
                                     grid, bound.measured_A)
            bounds = [r.bound for r in rows]
            need(failures, all(b >= 0 for b in bounds),
                 f"p={p}: negative bound in {bounds}")
            need(failures,
                 all(a >= b for a, b in zip(bounds, bounds[1:])),
                 f"p={p}: bounds not monotone: {bounds}")
            need(failures, bounds[-1] == 0.0,
                 f"p={p}: full truncation bound {bounds[-1]!r} != 0")


def fd_relative_error(rng: np.random.Generator, p: float, eps: float) -> float:
    grid = GridDiscretization(9, 1.0, 2)
    if rng.random() < 0.5:
        cracks = CrackSet.of(axis_segment((-0.5, 0.0), 0, 1.0))
    else:
        cracks = CrackSet.empty()
    mask = rasterize(cracks, grid)
    u = rng.standard_normal(grid.shape)
    u[mask.pinned] = 0.0
    f = 1.0 + rng.standard_normal(grid.shape)
    b = cell_means_adjoint(cell_means(f), grid.cell_volume)
    _, grad = energy_and_gradient(u, b, grid, mask.pinned, p, eps)
    free = ~mask.pinned
    step = 1e-6
    fd = np.zeros_like(u)
    for idx in map(tuple, np.argwhere(free)):
        bump = np.zeros_like(u)
        bump[idx] = step
        fd[idx] = (energy(u + bump, f, grid, p, eps)
                   - energy(u - bump, f, grid, p, eps)) / (2 * step)
    return float(np.linalg.norm(fd[free] - grad[free])
                 / np.linalg.norm(grad[free]))


def test_c9_energy_gradient_check():
    with criterion(9, "energy gradient check") as failures:
        for p, eps in ((2.0, 0.0), (3.0, 0.0), (1.5, 1e-8)):
            rng = np.random.default_rng(42)
            worst = max(fd_relative_error(rng, p, eps) for _ in range(10))
            need(failures, worst < 1e-5,
                 f"p={p} eps={eps:g}: max rel error {worst:.3e}")
