import numpy as np
import pytest

from pcompliance import construction, quadratics
from pcompliance.capacity import centered_segment, segment_capacity
from pcompliance.construction import (
    ConstructionParams,
    assemble_flux,
    connected_baseline,
    crack_grid_construction,
    local_solve,
    required_local_nodes,
    vanishing_sequence_experiment,
)
from pcompliance.errors import ResolutionTooCoarse
from pcompliance.geometry import (CrackSet, GridDiscretization, rasterize,
                                 total_length)
from pcompliance.solver import SolverConfig, cell_means, flux_pnorm, solve
from pcompliance.sources import Constant, GaussianBump, sample_on_grid


def test_params_fix_total_length_across_n():
    lengths = [ConstructionParams(n=n, epsilon=0.25).total_crack_length
               for n in (1, 2, 4, 8, 16)]
    assert all(val == lengths[0] for val in lengths)
    assert lengths[0] == pytest.approx(4 * 0.25)


def test_params_derived_quantities():
    params = ConstructionParams(n=2, epsilon=0.4, dim=2)
    assert params.cube_count == 16
    assert params.cube_side == pytest.approx(0.5)
    assert params.crack_length == pytest.approx(0.4 / 4)
    assert params.relative_crack_length == pytest.approx(0.2)
    centers = params.cube_centers()
    assert centers.shape == (16, 2)
    assert np.abs(centers).max() == pytest.approx(0.75)


def test_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(n=0, epsilon=0.25)
    with pytest.raises(ValueError):
        ConstructionParams(n=1, epsilon=1.0)
    with pytest.raises(ValueError):
        ConstructionParams(n=1, epsilon=0.25, dim=1)
    with pytest.raises(ValueError):
        ConstructionParams(n=1, epsilon=0.25, p=1.0)


def test_crack_grid_segments():
    params = ConstructionParams(n=2, epsilon=0.25, dim=2)
    cracks = crack_grid_construction(params)
    assert len(cracks) == params.cube_count
    for seg in cracks:
        assert seg.length == pytest.approx(params.crack_length, rel=1e-12)
    assert total_length(cracks) == pytest.approx(params.total_crack_length,
                                                 rel=1e-12)


def test_required_local_nodes_spans_two_cells():
    params = ConstructionParams(n=4, epsilon=0.25, dim=2)
    nodes = required_local_nodes(params, floor=3)
    h = params.cube_side / (nodes - 1)
    assert params.crack_length / h >= 2.0 - 1e-9
    assert (nodes - 1) % 2 == 0
    # the floor wins for coarse layouts
    assert required_local_nodes(ConstructionParams(n=1, epsilon=0.5)) == 33


def test_local_solve_rejects_coarse_grid():
    params = ConstructionParams(n=4, epsilon=0.25, dim=2)
    with pytest.raises(ResolutionTooCoarse):
        local_solve(params, Constant(1.0), local_nodes=9)


def test_congruent_cubes_give_identical_energies():
    # constant source: every cube is an exact translate of every other,
    # so the local energies agree to solver determinism
    params = ConstructionParams(n=2, epsilon=0.4, dim=2)
    results = local_solve(params, Constant(1.0), local_nodes=17)
    energies = np.array([r.report.flux_pnorm for r in results])
    assert energies.shape == (16,)
    assert energies.max() - energies.min() <= 1e-10 * energies.max()


def test_rung_factors_once_and_matches_standalone_solves(monkeypatch):
    # a non-constant source gives every cube its own right-hand side, but
    # the congruent masks still share one factorization per rung
    params = ConstructionParams(n=2, epsilon=0.4, dim=2)
    g = GaussianBump((0.3, -0.2), 0.5)
    calls = []
    splu = quadratics.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(quadratics.spla, "splu", counting_splu)
    results = local_solve(params, g, local_nodes=17)
    assert len(calls) == 1
    assert len(results) == 16
    energies = [r.report.flux_pnorm for r in results]
    assert max(energies) > 1.01 * min(energies)
    for result in results:
        # each cube solved on its own, with its own crack rasterized
        grid = result.grid
        crack = centered_segment(params.crack_length, grid)
        mask = rasterize(CrackSet.of(crack), grid, include_boundary=False)
        alone, _ = solve(sample_on_grid(g, grid), mask, params.p,
                         require_boundary=False)
        scale = np.abs(alone).max()
        assert np.abs(result.u - alone).max() <= 1e-12 * scale
    assert len(calls) == 17


def test_rung_assembles_stiffness_once_and_no_mass(monkeypatch):
    calls = []
    for name in ("stiffness_matrix", "mass_matrix"):
        assemble = getattr(quadratics, name)

        def counting(grid, _name=name, _assemble=assemble):
            calls.append(_name)
            return _assemble(grid)

        monkeypatch.setattr(quadratics, name, counting)
    for p in (2.0, 3.0):
        calls.clear()
        local_solve(ConstructionParams(n=2, epsilon=0.4, p=p),
                    GaussianBump((0.3, -0.2), 0.5), local_nodes=17)
        assert calls == ["stiffness_matrix"]


def test_rung_rasterizes_once(monkeypatch):
    calls = []
    real = construction.rasterize

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(construction, "rasterize", counting)
    results = local_solve(ConstructionParams(n=2, epsilon=0.4),
                          Constant(1.0), local_nodes=17)
    assert len(results) == 16
    assert calls == [results[0].grid]


class _StopRung(Exception):
    pass


@pytest.mark.parametrize("n,epsilon,half_width,dim,nodes", [
    (1, 0.25, 1.0, 2, 33),
    (2, 0.5, 0.7, 2, 33),
    (3, 0.3, 1.0, 2, 31),
    (4, 0.25, 0.5, 2, 33),
    (1, 0.5, 1.0, 3, 9),
    (2, 0.5, 0.7, 3, 17),
])
def test_every_cube_rasterizes_to_the_rung_mask(monkeypatch, n, epsilon,
                                                half_width, dim, nodes):
    # the rung solves every cube on the first cube's mask, which is only
    # right if each cube's own crack pins the same nodes of its own grid
    params = ConstructionParams(n=n, epsilon=epsilon, half_width=half_width,
                                dim=dim)
    seen = []

    def stop(sources, mask, *args, **kwargs):
        seen.append(mask)
        raise _StopRung

    monkeypatch.setattr(construction, "solve_batch", stop)
    with pytest.raises(_StopRung):
        local_solve(params, Constant(1.0), local_nodes=nodes)
    (rung_mask,) = seen
    assert rung_mask.pinned.any()
    for center in params.cube_centers():
        grid = GridDiscretization(nodes, params.cube_side / 2.0, dim,
                                  tuple(float(c) for c in center))
        crack = centered_segment(params.crack_length, grid)
        own = rasterize(CrackSet.of(crack), grid, include_boundary=False)
        assert np.array_equal(own.pinned, rung_mask.pinned)


def test_assembled_flux_norm_matches_local_energies():
    params = ConstructionParams(n=2, epsilon=0.4, dim=2, p=2.5)
    results = local_solve(params, Constant(1.0), local_nodes=17,
                          config=SolverConfig(grad_tolerance=1e-7))
    sigma, grid = assemble_flux(results, params)
    total = sum(r.report.flux_pnorm for r in results)
    assert flux_pnorm(sigma, grid, 2.5) == pytest.approx(total, rel=1e-10)
    assert grid.h == pytest.approx(results[0].grid.h)
    assert sigma.shape == (2, 64, 64)
    with pytest.raises(ValueError):
        assemble_flux(results[:3], params)


def test_cube_source_norms_sum_to_global_integral():
    # the cube grids tile the box, so the per-cube int |g_bar|^p' add up to
    # the midpoint sum on the global grid
    params = ConstructionParams(n=2, epsilon=0.4, dim=2, p=3.0)
    g = GaussianBump((0.3, -0.2), 0.5)
    results = local_solve(params, g, local_nodes=17,
                          config=SolverConfig(grad_tolerance=1e-6))
    grid = GridDiscretization(4 * 16 + 1, params.half_width, params.dim)
    g_bar = cell_means(sample_on_grid(g, grid))
    expected = grid.cell_volume * float(np.sum(np.abs(g_bar) ** 1.5))
    total = sum(r.source_dual_pnorm for r in results)
    assert total == pytest.approx(expected, rel=1e-12)


def test_zero_source_yields_zero_rows():
    report = vanishing_sequence_experiment([1, 2], 0.25, 2.0, g=Constant(0.0),
                                           local_nodes=17)
    assert all(r.flux_pnorm == 0.0 for r in report.rows)
    assert report.bound_satisfied
    assert report.decay is None


def test_n_list_must_increase():
    with pytest.raises(ValueError):
        vanishing_sequence_experiment([2, 2], 0.25, 2.0, local_nodes=17)
    with pytest.raises(ValueError):
        vanishing_sequence_experiment([4, 2], 0.25, 2.0, local_nodes=17)


def test_odd_capacity_resolution_fails_before_any_solve(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a rung was solved")

    monkeypatch.setattr(construction, "solve_batch", unreachable)
    with pytest.raises(ValueError, match="capacity_resolution"):
        vanishing_sequence_experiment([1, 2], 0.25, 2.0, local_nodes=17,
                                      capacity_resolution=3)


def test_coarse_ladder_aborts_cleanly():
    # with 17 fixed nodes the crack spans 4/n cells: fine at n <= 2, too
    # coarse at n = 4, which must cut the ladder without discarding rows
    report = vanishing_sequence_experiment([1, 2, 4], 0.25, 2.0,
                                           local_nodes=17)
    assert [r.n for r in report.rows] == [1, 2]
    assert report.aborted_at == 4


def test_flux_ladder_decays_with_bound_p2():
    report = vanishing_sequence_experiment([1, 2, 4], 0.25, 2.0,
                                           local_nodes=33)
    fluxes = [r.flux_pnorm for r in report.rows]
    assert fluxes[0] > fluxes[1] > fluxes[2] > 0
    assert report.bound_satisfied
    assert report.tilde_c > 0
    assert all(r.capacity > 0 for r in report.rows)
    assert all(r.congruence_spread <= 1e-9 for r in report.rows)
    for row in report.rows:
        assert row.penalized_value == pytest.approx(
            row.flux_pnorm / 2.0 + 1.0 * row.crack_length, rel=1e-12)
    # bound is calibrated to be tight at the first n, then frozen
    assert report.rows[0].flux_pnorm == pytest.approx(report.rows[0].bound_rhs,
                                                      rel=1e-12)


def test_divergence_residual_certifies_flux():
    coarse = vanishing_sequence_experiment([2], 0.25, 2.0, local_nodes=33,
                                           divergence_samples=20, seed=11)
    fine = vanishing_sequence_experiment([2], 0.25, 2.0, local_nodes=65,
                                         divergence_samples=20, seed=11)
    r_coarse = coarse.rows[0].divergence_max_relative
    r_fine = fine.rows[0].divergence_max_relative
    assert r_fine < r_coarse
    assert r_fine <= 0.01


def test_flux_ladder_decay_rate_p3():
    # supercritical exponent: the dual energy must fall at least like
    # n^(-1.2).  The frozen values are the converged discrete fluxes
    # (unpreconditioned L-BFGS at grad_tolerance 1e-10), so they pin the
    # ladder's solution, not the path a descent takes to it; at 1e-8 every
    # rung lies within 1e-7 of them
    report = vanishing_sequence_experiment(
        [1, 2, 4, 8], 0.25, 3.0, config=SolverConfig(grad_tolerance=1e-8))
    fluxes = [r.flux_pnorm for r in report.rows]
    assert fluxes == pytest.approx(
        [1.0311330058134756, 0.4470590683137417,
         0.1804164968022045, 0.06857909699838714], rel=1e-6)
    assert report.decay is not None
    assert report.decay.slope <= -1.2
    assert report.decay.r_squared >= 0.99
    assert report.bound_satisfied
    # rows record the default cube resolution the rung was solved at
    assert [r.local_nodes for r in report.rows] == [
        required_local_nodes(ConstructionParams(n=n, epsilon=0.25, p=3.0))
        for n in (1, 2, 4, 8)]


def test_ladder_capacity_honours_solver_config():
    # the rung's capacity solve reads the ladder's config, not the defaults
    config = SolverConfig(regularization_eps=1e-2)
    report = vanishing_sequence_experiment([1], 0.25, 1.5, config=config,
                                           local_nodes=17)
    params = ConstructionParams(n=1, epsilon=0.25, p=1.5)
    cap = segment_capacity(params.relative_crack_length, 1.5, 2, config=config)
    assert report.rows[0].capacity == cap.value


def test_ladder_solves_each_rung_through_local_solve(monkeypatch):
    # the benchmark tracer times cube solves by wrapping this module name
    rungs = []
    real = construction.local_solve

    def counting(params, *args, **kwargs):
        rungs.append(params.n)
        return real(params, *args, **kwargs)

    monkeypatch.setattr(construction, "local_solve", counting)
    report = vanishing_sequence_experiment([1, 2], 0.25, 2.0, local_nodes=17)
    assert rungs == [1, 2]
    assert [r.local_nodes for r in report.rows] == [17, 17]


def test_connected_baseline_penalized_value():
    base = connected_baseline(0.25, 2.0, nodes_per_side=65)
    assert base.crack_length == pytest.approx(1.0)
    assert base.penalized_objective == pytest.approx(
        base.compliance_energy_form + 1.0, rel=1e-12)
    with pytest.raises(ValueError):
        connected_baseline(0.5, 2.0)
