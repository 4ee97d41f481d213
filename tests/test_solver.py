import numpy as np
import pytest
import scipy.optimize

from pcompliance import descent, quadratics
from pcompliance.errors import NonConvergence, UnpinnedMask
from pcompliance.geometry import (
    ConstraintMask,
    CrackSet,
    GridDiscretization,
    axis_segment,
    rasterize,
)
from pcompliance.solver import (
    ComplianceReport,
    SolverConfig,
    _frozen_weight_matrix,
    cell_gradients,
    cell_gradients_adjoint,
    cell_means,
    cell_means_adjoint,
    density_weights,
    divergence_residual,
    energy,
    energy_and_gradient,
    energy_gradient,
    flux,
    flux_pnorm,
    gauge_shifted,
    gradient_pnorm,
    solve,
    solve_batch,
    zero_energy_modes,
)
from pcompliance.sources import GaussianBump, named_source, random_smooth, sample_on_grid


def bump_source(grid, center=(0.0, 0.0), width=0.3, value=1.0):
    return sample_on_grid(GaussianBump(center=center, width=width, value=value), grid)


def test_cell_means_bilinear_exact():
    grid = GridDiscretization(9, 1.0, 2)
    coords = grid.node_coordinates()
    u = coords[..., 0] * coords[..., 1]
    means = cell_means(u)
    x = grid.axis(0)
    mid = 0.5 * (x[:-1] + x[1:])
    expected = np.multiply.outer(mid, mid)
    assert np.allclose(means, expected, atol=1e-15)


def test_cell_gradients_linear_exact():
    grid = GridDiscretization(9, 1.0, 2)
    coords = grid.node_coordinates()
    u = 2.0 * coords[..., 0] - 3.0 * coords[..., 1]
    g = cell_gradients(u, grid.h)
    assert np.allclose(g[0], 2.0, atol=1e-13)
    assert np.allclose(g[1], -3.0, atol=1e-13)


@pytest.mark.parametrize("dim,nodes", [(2, 9), (3, 5)])
def test_stencil_transposes_pair_with_their_stencils(dim, nodes):
    rng = np.random.default_rng(dim)
    grid = GridDiscretization(nodes, 1.0, dim)
    u = rng.standard_normal(grid.shape)
    g = rng.standard_normal((dim,) + grid.cells_shape)
    v = rng.standard_normal(grid.cells_shape)
    lhs = np.vdot(cell_gradients(u, grid.h), g)
    assert np.vdot(u, cell_gradients_adjoint(g, grid.h)) == pytest.approx(lhs, rel=1e-12)
    lhs = np.vdot(cell_means(u), v)
    assert np.vdot(u, cell_means_adjoint(v)) == pytest.approx(lhs, rel=1e-12)


@pytest.mark.parametrize("dim,nodes", [(2, 6), (3, 4)])
def test_assembled_matrices_equal_dense_stencil_products(dim, nodes):
    # dense G_k and M from the forward stencils on unit node fields; their
    # transposes are the adjoint stencils, and the assembled stiffness and
    # mass are vol * sum_k G_k^T G_k and vol * M^T M, pattern and entries
    grid = GridDiscretization(nodes, 1.0, dim)
    unit = np.eye(grid.n_nodes).reshape((grid.n_nodes,) + grid.shape)
    grads = np.stack([cell_gradients(e, grid.h).reshape(dim, -1) for e in unit], axis=-1)
    means = np.stack([cell_means(e).ravel() for e in unit], axis=-1)
    n_cells = means.shape[0]
    basis = np.eye(n_cells).reshape((n_cells,) + grid.cells_shape)
    means_t = np.stack([cell_means_adjoint(e).ravel() for e in basis], axis=1)
    assert np.abs(means_t - means.T).max() <= 1e-15
    for k in range(dim):
        g = np.zeros((n_cells, dim) + grid.cells_shape)
        g[:, k] = basis
        grads_t = np.stack([cell_gradients_adjoint(e, grid.h).ravel() for e in g],
                           axis=1)
        assert np.abs(grads_t - grads[k].T).max() <= 1e-12 * np.abs(grads[k]).max()
    vol = grid.cell_volume
    stiffness = vol * sum(gk.T @ gk for gk in grads)
    for assembled, dense in [(quadratics.stiffness_matrix(grid), stiffness),
                             (quadratics.mass_matrix(grid), vol * (means.T @ means))]:
        nonzero = dense != 0
        assert assembled.nnz == nonzero.sum()
        assembled = assembled.toarray()
        assert np.array_equal(assembled != 0, nonzero)
        assert (np.abs(assembled - dense)[nonzero] <= 1e-15 * np.abs(dense[nonzero])).all()


@pytest.mark.parametrize("dim,nodes", [(2, 17), (3, 7)])
def test_linear_and_descent_paths_share_one_load(dim, nodes):
    # the kernel takes the linear path's load b = vol * M^T f_bar: at p = 2
    # its gradient is the stiffness residual K u - b on the free nodes, and
    # its value is the cell-mean energy for every p
    rng = np.random.default_rng(dim)
    grid = GridDiscretization(nodes, 1.0, dim)
    pinned = grid.boundary_mask()
    # a crack of pins from the boundary to the centre, along the last axis
    pinned[(nodes // 2,) * (dim - 1) + (slice(0, nodes // 2 + 1),)] = True
    u = rng.standard_normal(grid.shape)
    u[pinned] = 0.0
    f = rng.standard_normal(grid.shape)
    b = cell_means_adjoint(cell_means(f), grid.cell_volume)
    _, grad = energy_and_gradient(u, b, grid, pinned, 2.0, 0.0)
    free = ~pinned
    residual = (quadratics.stiffness_matrix(grid) @ u.ravel()).reshape(grid.shape) - b
    assert np.all(grad[pinned] == 0.0)
    assert np.abs(grad - residual)[free].max() <= 1e-12 * np.abs(residual[free]).max()
    for p, eps in [(1.5, 1e-3), (2.0, 0.0), (3.0, 0.0)]:
        value, _ = energy_and_gradient(u, b, grid, pinned, p, eps)
        assert value == pytest.approx(energy(u, f, grid, p, eps), rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_pnorm_linear_field(p):
    grid = GridDiscretization(17, 1.0, 2)
    coords = grid.node_coordinates()
    u = 2.0 * coords[..., 0] - 3.0 * coords[..., 1]
    expected = 13.0 ** (p / 2.0) * 4.0
    assert gradient_pnorm(u, grid, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_flux_pnorm_matches_gradient_pnorm(p):
    # |sigma|^p' = |grad u|^p pointwise, so the two integrals agree for any
    # field, minimizer or not
    rng = np.random.default_rng(7)
    grid = GridDiscretization(9, 1.0, 2)
    u = rng.standard_normal(grid.shape)
    sigma = flux(u, grid, p)
    assert flux_pnorm(sigma, grid, p) == pytest.approx(
        gradient_pnorm(u, grid, p), rel=1e-12)


@pytest.mark.parametrize("p,eps", [(1.5, 1e-3), (2.0, 0.0), (3.0, 0.0), (2.7, 1e-4)])
def test_energy_gradient_matches_finite_differences(p, eps):
    rng = np.random.default_rng(42)
    grid = GridDiscretization(7, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    f = rng.standard_normal(grid.shape)
    u = 0.5 * rng.standard_normal(grid.shape)
    u[mask.pinned] = 0.0
    grad = energy_gradient(u, f, mask, p, eps=eps)
    step = 1e-6
    for _ in range(12):
        idx = tuple(rng.integers(1, 6, size=2))
        probe = np.zeros(grid.shape)
        probe[idx] = 1.0
        plus = energy(u + step * probe, f, grid, p, eps=eps)
        minus = energy(u - step * probe, f, grid, p, eps=eps)
        fd = (plus - minus) / (2.0 * step)
        assert grad[idx] == pytest.approx(fd, rel=5e-5, abs=1e-9)
    assert np.all(grad[mask.pinned] == 0.0)


def test_density_weights_take_the_guarded_formula_bit_for_bit():
    p = 1.5
    rng = np.random.default_rng(5)
    # squares from 1e-12 to 1e4, as |grad u|^2 + eps^2 spans them
    s = 10.0 ** rng.uniform(-12.0, 4.0, (40, 40))

    def guarded(s):
        return np.where(s > 0.0, s, 1.0) ** ((p - 2.0) / 2.0) * (s > 0.0)

    assert np.array_equal(density_weights(s, p), guarded(s))
    s[3, 4], s[5, 6] = 0.0, np.nan
    w = density_weights(s, p)
    assert w[3, 4] == 0.0 and w[5, 6] == 0.0
    assert np.array_equal(w, guarded(s))


def test_energy_gradient_matches_finite_differences_3d():
    rng = np.random.default_rng(3)
    grid = GridDiscretization(5, 1.0, 3)
    mask = rasterize(CrackSet.empty(), grid)
    f = rng.standard_normal(grid.shape)
    u = rng.standard_normal(grid.shape)
    u[mask.pinned] = 0.0
    grad = energy_gradient(u, f, mask, 3.0)
    step = 1e-6
    for _ in range(8):
        idx = tuple(rng.integers(1, 4, size=3))
        probe = np.zeros(grid.shape)
        probe[idx] = 1.0
        fd = (energy(u + step * probe, f, grid, 3.0)
              - energy(u - step * probe, f, grid, 3.0)) / (2.0 * step)
        assert grad[idx] == pytest.approx(fd, rel=5e-5, abs=1e-9)


def test_energy_shape_validation():
    grid = GridDiscretization(5, 1.0, 2)
    with pytest.raises(ValueError):
        energy(np.zeros((4, 4)), np.zeros(grid.shape), grid, 2.0)


def test_p2_compliance_against_separable_solution():
    # -lap u = f with u = cos(pi x / 2) cos(pi y / 2) on [-1, 1]^2 gives
    # f = (pi^2 / 2) u and compliance (1/2) int f u = pi^2 / 4
    grid = GridDiscretization(65, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    coords = grid.node_coordinates()
    u_exact = np.cos(0.5 * np.pi * coords[..., 0]) * np.cos(0.5 * np.pi * coords[..., 1])
    f = 0.5 * np.pi ** 2 * u_exact
    _, report = solve(f, mask, 2.0)
    assert report.compliance_energy_form == pytest.approx(np.pi ** 2 / 4.0, rel=5e-3)


def test_zero_source_gives_zero_field():
    grid = GridDiscretization(17, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    u, report = solve(np.zeros(grid.shape), mask, 2.5)
    assert np.all(u == 0.0)
    assert report.compliance_energy_form == 0.0


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_duality_gap_small_at_minimizer(p):
    grid = GridDiscretization(17, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    f = bump_source(grid, center=(0.2, -0.1))
    _, report = solve(f, mask, p, SolverConfig(grad_tolerance=1e-9))
    gap = abs(report.compliance_energy_form - report.compliance_work_form)
    assert gap <= 1e-6 * report.compliance_energy_form
    assert report.energy == pytest.approx(-report.compliance_energy_form,
                                          rel=1e-6)


@pytest.mark.parametrize("p,scale,tol", [(1.5, 2.0, 1e-8), (3.0, -2.0, 1e-10)])
def test_compliance_scales_with_dual_power_of_source(p, scale, tol):
    # C(t f) = |t|^(p/(p-1)) C(f): nonlinear in the source, exactly
    # homogeneous of dual-exponent degree
    grid = GridDiscretization(17, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    f = bump_source(grid)
    cfg = SolverConfig(grad_tolerance=tol)
    _, base = solve(f, mask, p, cfg)
    _, scaled = solve(scale * f, mask, p, cfg)
    q = p / (p - 1.0)
    assert scaled.compliance_energy_form == pytest.approx(
        abs(scale) ** q * base.compliance_energy_form, rel=1e-6)


def test_crack_decreases_compliance():
    grid = GridDiscretization(33, 1.0, 2)
    f = bump_source(grid)
    free_mask = rasterize(CrackSet.empty(), grid)
    crack = CrackSet.of(axis_segment((-0.5, 0.0), 0, 1.0))
    crack_mask = rasterize(crack, grid)
    _, free = solve(f, free_mask, 2.0)
    _, cracked = solve(f, crack_mask, 2.0, crack_length=1.0, length_penalty=0.25)
    assert 0.0 < cracked.compliance_energy_form < free.compliance_energy_form
    assert cracked.penalized_objective == pytest.approx(
        cracked.compliance_energy_form + 0.25 * 1.0, rel=1e-12)
    assert cracked.crack_length == 1.0


def test_minimizer_inherits_reflection_symmetry():
    grid = GridDiscretization(17, 1.0, 2)
    crack = CrackSet.of(axis_segment((-0.5, 0.0), 0, 1.0))
    mask = rasterize(crack, grid)
    f = bump_source(grid)
    u, _ = solve(f, mask, 2.5, SolverConfig(grad_tolerance=1e-10))
    assert np.allclose(u, u[::-1, :], atol=1e-8)
    assert np.allclose(u, u[:, ::-1], atol=1e-8)


def test_linear_and_descent_paths_agree_for_p2():
    grid = GridDiscretization(33, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0)), grid)
    f = bump_source(grid, center=(0.1, -0.2))
    _, linear = solve(f, mask, 2.0)
    assert linear.method == "linear"
    # the descent path's kernel and H0, run at p = 2 where `solve` never
    # takes them
    pinned = mask.pinned
    b = cell_means_adjoint(cell_means(f), grid.cell_volume)
    factor = quadratics.PinnedFactor(quadratics.stiffness_matrix(grid), pinned)
    result = descent.minimize(
        lambda u: energy_and_gradient(u, b, grid, pinned, 2.0, 0.0),
        np.zeros(grid.shape), grad_tolerance=1e-9, max_iterations=50_000,
        precondition=factor.solve)
    assert result.converged
    compliance = gradient_pnorm(result.x, grid, 2.0) / 2.0
    assert compliance == pytest.approx(linear.compliance_energy_form, rel=1e-7)


def test_report_residual_meets_tolerance():
    grid = GridDiscretization(17, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    f = bump_source(grid)
    _, report = solve(f, mask, 3.0, SolverConfig(grad_tolerance=1e-7))
    assert report.residual <= 1e-7
    assert report.iterations > 0
    assert isinstance(report, ComplianceReport)


def test_default_eps_for_subquadratic_p():
    grid = GridDiscretization(9, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    f = 2.0 * bump_source(grid)
    _, report = solve(f, mask, 1.5, SolverConfig(grad_tolerance=1e-6))
    assert report.regularization_eps == pytest.approx(1e-8 * 2.0)
    _, report2 = solve(f, mask, 3.0, SolverConfig(grad_tolerance=1e-6))
    assert report2.regularization_eps == 0.0


def test_nonconvergence_carries_partial_report():
    grid = GridDiscretization(17, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    f = bump_source(grid)
    with pytest.raises(NonConvergence) as err:
        solve(f, mask, 3.0, SolverConfig(grad_tolerance=1e-12, max_iterations=3))
    assert err.value.report.iterations == 3
    assert err.value.reason == "iteration cap"
    assert "iteration cap" in str(err.value)
    assert err.value.field.shape == grid.shape


def test_solve_validation_errors():
    grid = GridDiscretization(9, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    f = np.zeros(grid.shape)
    with pytest.raises(ValueError):
        solve(f, mask, 1.0)
    with pytest.raises(ValueError):
        solve(np.zeros((5, 5)), mask, 2.0)
    other = rasterize(CrackSet.empty(), GridDiscretization(11, 1.0, 2))
    with pytest.raises(ValueError):
        solve(f, other, 2.0)
    bare = rasterize(CrackSet.of(axis_segment((-0.5, 0.0), 0, 1.0)),
                     grid, include_boundary=False)
    with pytest.raises(ValueError):
        solve(f, bare, 2.0)


def test_gauge_mask_p2_takes_descent():
    # four pins on one plane cover every parity of the other two axes: the
    # energy stays bounded, but a pure-gauge mode leaves the p = 2 block
    # singular, so only descent applies
    cube = GridDiscretization(5, 1.0, 3)
    pinned = np.zeros(cube.shape, dtype=bool)
    pinned[1, 1:3, 1:3] = True
    mask = ConstraintMask(cube, pinned)
    f = np.ones(cube.shape)
    _, report = solve(f, mask, 2.0, require_boundary=False)
    assert report.method == "descent"


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_non_finite_source_rejected_up_front(p):
    # p = 2 takes the linear path, p = 3 the descent path
    grid = GridDiscretization(9, 1.0, 2)
    mask = rasterize(CrackSet.empty(), grid)
    good = bump_source(grid)
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[4, 4] = bad_value
        with pytest.raises(ValueError, match="source 1 .*non-finite"):
            solve_batch([good, bad], mask, p)
        with pytest.raises(ValueError, match="source 0 .*non-finite"):
            solve(bad, mask, p)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_preconditioned_energy_descent_converges_fast(p):
    # the 129^2 solves of the single-solves benchmark workload; unpreconditioned
    # L-BFGS took 1350 (p = 1.5) and 549 (p = 3) iterations here
    grid = GridDiscretization(129, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0)), grid)
    f = sample_on_grid(named_source("bump", 2, 1.0), grid)
    _, report = solve(f, mask, p, SolverConfig(grad_tolerance=1e-8))
    assert report.residual <= 1e-8
    assert report.iterations <= 200
    _, tight = solve(f, mask, p, SolverConfig(grad_tolerance=1e-10))
    assert report.compliance_energy_form == pytest.approx(
        tight.compliance_energy_form, rel=1e-6)


def test_energy_descent_factors_once_per_batch(monkeypatch):
    calls = []
    splu = quadratics.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(quadratics.spla, "splu", counting_splu)
    grid = GridDiscretization(33, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0)), grid)
    sources = [bump_source(grid, center=c) for c in
               [(0.0, 0.0), (0.3, -0.4), (-0.2, 0.5), (0.5, 0.5)]]
    config = SolverConfig(grad_tolerance=1e-8)
    batch = solve_batch(sources, mask, 3.0, config)
    assert len(calls) == 1
    for f, (u, report) in zip(sources, batch):
        assert report.method == "descent" and report.residual <= 1e-8
        alone, _ = solve(f, mask, 3.0, config)
        np.testing.assert_array_equal(u, alone)


def crack_case(nodes, dim=2):
    grid = GridDiscretization(nodes, 1.0, dim)
    start = (-0.5, 0.2) if dim == 2 else (-0.5, 0.0, 0.0)
    mask = rasterize(CrackSet.of(axis_segment(start, 0, 1.0)), grid)
    return grid, mask, sample_on_grid(named_source("bump", dim, 1.0), grid)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_energy_descent_above_the_coarse_size_factors_no_large_block(monkeypatch, p):
    sizes = []
    splu = quadratics.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(quadratics.spla, "splu", counting_splu)
    _, mask, f = crack_case(129)
    _, report = solve(f, mask, p, SolverConfig(grad_tolerance=1e-8))
    assert report.method == "descent" and report.residual <= 1e-8
    # only the V-cycles' coarse blocks; the LU of K had 16 064 unknowns
    assert sizes and max(sizes) <= quadratics._COARSE_SIZE
    if p < 2:
        # 81 iterations with the LU of K as H0
        assert report.iterations <= 60


def test_energy_batch_above_the_coarse_size_matches_solo_solves(monkeypatch):
    cycles = []

    class CountingCycle(quadratics.LatticeCycle):
        def __init__(self, *args):
            cycles.append(1)
            super().__init__(*args)

    monkeypatch.setattr(quadratics, "LatticeCycle", CountingCycle)
    grid, mask, _ = crack_case(129)
    sources = [bump_source(grid, center=(0.0, -0.3)), bump_source(grid, center=(0.4, 0.5))]
    config = SolverConfig(grad_tolerance=1e-8)
    # p < 2: each source's own frozen weights, from one shared p = 2 solve
    batch = solve_batch(sources, mask, 1.5, config)
    for f, (u, report) in zip(sources, batch):
        alone, alone_report = solve(f, mask, 1.5, config)
        np.testing.assert_array_equal(u, alone)
        assert report == alone_report
    # p > 2: one V-cycle of K serves both sources
    cycles.clear()
    batch = solve_batch(sources, mask, 3.0, config)
    assert len(cycles) == 1
    assert all(report.residual <= 1e-8 for _, report in batch)


def lu_h0_field(f, mask, p, config, nonsingular=True):
    """The descent with the LU of its Hessian model as H0: from zero with
    K (the gauge-shifted block where K is singular), and at p < 2 on a
    nonsingular K from the p = 2 solution with the block whose weights
    are frozen there."""
    grid, pinned = mask.grid, mask.pinned
    b = cell_means_adjoint(cell_means(f), grid.cell_volume)
    eps = config.resolve_eps(p, 1e-8 * max(float(np.abs(f).max()), 1.0))
    stiffness = quadratics.stiffness_matrix(grid)
    start = np.zeros(grid.shape)
    if not nonsingular:
        factor = quadratics.PinnedFactor(gauge_shifted(grid, stiffness), pinned)
    elif p > 2:
        factor = quadratics.PinnedFactor(stiffness, pinned)
    else:
        start, _, _ = quadratics.solve_pinned(
            stiffness, b, pinned, grad_tolerance=config.grad_tolerance,
            prefer_direct=config.prefer_direct)
        factor = quadratics.PinnedFactor(_frozen_weight_matrix(start, grid, p, eps), pinned)
    result = descent.minimize(
        lambda u: energy_and_gradient(u, b, grid, pinned, p, eps),
        start, grad_tolerance=config.grad_tolerance,
        max_iterations=config.max_iterations, precondition=factor.solve)
    u = result.x
    u[pinned] = 0.0
    return u


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("case", ["33^2", "prefer_direct", "3-d", "gauge"])
def test_energy_descent_keeps_the_lu_of_k_where_the_size_rule_factors(case, p):
    # where `quadratics.approximate_inverse` factors, H0 is the LU of the
    # Hessian model: K at p > 2, and at p < 2 the frozen-weight block at
    # the p = 2 start; a singular K takes the shifted block's LU at any p
    config = SolverConfig(grad_tolerance=1e-8)
    kwargs, nonsingular = {}, True
    if case == "33^2":
        _, mask, f = crack_case(33)
    elif case == "prefer_direct":
        # 65^2 would take the V-cycle without it
        _, mask, f = crack_case(65)
        config = SolverConfig(grad_tolerance=1e-8, prefer_direct=True)
    elif case == "3-d":
        # a 3-d block has no lattice, so H0 is an LU whatever prefer_direct
        # says, while the p = 2 start runs CG
        _, mask, f = crack_case(9, dim=3)
        config = SolverConfig(grad_tolerance=1e-8, prefer_direct=False)
    else:
        # the pins of test_gauge_mask_p2_takes_descent: K is singular
        cube = GridDiscretization(5, 1.0, 3)
        pinned = np.zeros(cube.shape, dtype=bool)
        pinned[1, 1:3, 1:3] = True
        mask, f = ConstraintMask(cube, pinned), np.ones(cube.shape)
        kwargs, nonsingular = {"require_boundary": False}, False
    u, report = solve(f, mask, p, config, **kwargs)
    assert report.method == "descent"
    np.testing.assert_array_equal(u, lu_h0_field(f, mask, p, config, nonsingular))


def test_batch_reports_each_source_its_own_cg_iterations():
    # 129^2: the Schur lattices coarsen, so each column runs PCG (at 65^2
    # their LUs back-substitute every column without iterating)
    grid = GridDiscretization(129, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0)), grid)
    sources = [sample_on_grid(named_source("bump", 2, 1.0), grid), np.ones(grid.shape)]
    config = SolverConfig(grad_tolerance=1e-8, prefer_direct=False)
    batch = solve_batch(sources, mask, 2.0, config)
    alone = [solve(f, mask, 2.0, config)[1].iterations for f in sources]
    assert min(alone) > 0
    assert [report.iterations for _, report in batch] == alone


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_batch_solves_each_distinct_source_once(monkeypatch, p):
    minimize, solve_pinned = descent.minimize, quadratics.solve_pinned
    solved_columns = []

    def counting_minimize(*args, **kwargs):
        solved_columns.append(1)
        return minimize(*args, **kwargs)

    def counting_solve_pinned(matrix, rhs, *args, **kwargs):
        # a (*grid.shape, k) stack of loads, one per distinct source
        solved_columns.append(rhs.shape[-1])
        return solve_pinned(matrix, rhs, *args, **kwargs)

    monkeypatch.setattr(descent, "minimize", counting_minimize)
    monkeypatch.setattr(quadratics, "solve_pinned", counting_solve_pinned)
    grid = GridDiscretization(17, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.0), 0, 1.0)), grid)
    one, bump = np.ones(grid.shape), bump_source(grid)
    # an integer array of ones is the same source as the float one
    sources = [one, bump, one.copy(), np.ones(grid.shape, dtype=int), bump.copy()]
    config = SolverConfig(grad_tolerance=1e-8)
    batch = solve_batch(sources, mask, p, config)
    assert sum(solved_columns) == 2
    assert len(batch) == len(sources)
    for index in (2, 3):
        assert batch[index][0] is batch[0][0] and batch[index][1] is batch[0][1]
    assert batch[4][0] is batch[1][0]
    for f, (u, report) in zip(sources, batch):
        assert not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 1.0
        alone, alone_report = solve(f, mask, p, config)
        np.testing.assert_array_equal(u, alone)
        assert report == alone_report
    # a field no other source shares stays writable
    (u, _), = solve_batch([bump], mask, p, config)
    assert u.flags.writeable


def test_gauge_mask_descent_matches_unpreconditioned_energy():
    # the 3-d pins of test_gauge_mask_p2_takes_descent:
    # a pure-gauge mode leaves the stiffness block singular, so the
    # preconditioner factors it with a small node mass added
    cube = GridDiscretization(5, 1.0, 3)
    pinned = np.zeros(cube.shape, dtype=bool)
    pinned[1, 1:3, 1:3] = True
    mask = ConstraintMask(cube, pinned)
    f = np.ones(cube.shape)
    _, report = solve(f, mask, 3.0, SolverConfig(grad_tolerance=1e-10),
                      require_boundary=False)
    assert report.method == "descent" and report.residual <= 1e-10
    b = cell_means_adjoint(cell_means(f), cube.cell_volume)

    def objective(x):
        value, grad = energy_and_gradient(x.reshape(cube.shape), b, cube,
                                          pinned, 3.0, 0.0)
        return value, grad.ravel()

    # SciPy's L-BFGS-B shares no code with `descent`; identity-H0 L-BFGS
    # through `descent` stalls here at the rounding floor short of 1e-10
    plain = scipy.optimize.minimize(objective, np.zeros(cube.n_nodes),
                                    jac=True, method="L-BFGS-B",
                                    options={"gtol": 1e-12, "ftol": 0.0})
    assert plain.success
    assert np.abs(plain.jac).max() <= 1e-7
    assert report.energy == pytest.approx(plain.fun, rel=1e-9)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(regularization_eps=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(regularization_eps=0.0).resolve_eps(1.5, 1.0)


def test_zero_energy_detectors_2d():
    shape = (9, 9)
    none = np.zeros(shape, dtype=bool)
    # (unbounded, nonsingular)
    assert zero_energy_modes(none) == (True, False)

    single = none.copy()
    single[4, 4] = True
    # constant plus checkerboard matches any single pin with zero energy
    assert zero_energy_modes(single) == (True, False)

    pair = none.copy()
    pair[4, 4] = True
    pair[4, 5] = True
    # opposite checkerboard parity: no surviving mode at all
    assert zero_energy_modes(pair) == (False, True)


def test_zero_energy_detectors_3d_collinear_pins():
    # pins along one grid line share the parity of the transverse plane, so
    # a transverse checkerboard still matches them with zero energy
    shape = (5, 5, 5)
    pinned = np.zeros(shape, dtype=bool)
    pinned[1:4, 2, 2] = True
    assert zero_energy_modes(pinned) == (True, False)
    # pins spread over distinct parities restore boundedness
    spread = np.zeros(shape, dtype=bool)
    spread[1, 1, 1] = True
    spread[1, 1, 2] = True
    spread[1, 2, 1] = True
    spread[2, 1, 1] = True
    spread[2, 2, 2] = True
    assert not zero_energy_modes(spread)[0]


def test_free_boundary_unbounded_mask_rejected():
    grid = GridDiscretization(9, 1.0, 2)
    pinned = np.zeros(grid.shape, dtype=bool)
    pinned[4, 4] = True
    mask = ConstraintMask(grid, pinned)
    f = np.ones(grid.shape)
    with pytest.raises(UnpinnedMask):
        solve(f, mask, 2.0, require_boundary=False)


def test_divergence_residual_shrinks_under_refinement():
    # positive source and wide bumps: the relative residual then measures
    # quadrature error, which is O(h^2) at comparable bump radii
    f_source = random_smooth(np.random.default_rng(5), 2, 1.0, bumps=2)
    results = []
    for nodes in (33, 65):
        grid = GridDiscretization(nodes, 1.0, 2)
        mask = rasterize(CrackSet.empty(), grid)
        f = sample_on_grid(f_source, grid) + 3.0
        u, _ = solve(f, mask, 2.0)
        sigma = flux(u, grid, 2.0)
        check = divergence_residual(sigma, f, grid, CrackSet.empty(),
                                    np.random.default_rng(11), samples=10,
                                    radius_fraction=(0.2, 0.3))
        results.append(check.max_relative)
    assert results[1] < results[0]
    assert results[1] < 0.02


@pytest.mark.parametrize("dim,nodes", [(2, 17), (3, 9)])
def test_stencil_load_equals_mass_matrix_times_source(dim, nodes):
    # the linear path's load vol * M^T f_bar replaces the assembled p = 2
    # mass matrix applied to f
    grid = GridDiscretization(nodes, 1.0, dim)
    f = sample_on_grid(random_smooth(np.random.default_rng(dim), dim, 1.0), grid)
    load = cell_means_adjoint(cell_means(f), grid.cell_volume).ravel()
    expected = quadratics.mass_matrix(grid) @ f.ravel()
    assert np.abs(load - expected).max() <= 1e-14 * np.abs(expected).max()

