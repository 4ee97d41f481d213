import copy
import itertools
import re

import numpy as np
import pytest

from pcompliance import capacity, descent, quadratics
from pcompliance.capacity import (
    CapacityResult,
    _capacity_gradient,
    _frozen_weight_matrix,
    capacity_sweep,
    centered_segment,
    logarithmic_fit,
    point_capacity,
    refinement_ratio,
    scaling_fit,
    segment_box,
    segment_capacity,
    target_pins,
    variational_capacity,
)
from pcompliance.errors import DegenerateTarget, NonConvergence, ResolutionWarning
from pcompliance.geometry import CrackSet, GridDiscretization, axis_segment, rasterize
from pcompliance.poincare import crack_poincare
from pcompliance.solver import SolverConfig, solve


def mirror_gain(part: GridDiscretization) -> np.ndarray:
    """2^dim / images on a mirror part, whose mirror planes are its index-0
    sides: a node on k of them has 2^(dim - k) images, so its gain is 2^k."""
    return 2.0 ** sum(np.indices(part.shape)[k] == 0 for k in range(part.dim))


@pytest.mark.parametrize("p,eps", [(1.5, 1e-2), (2.0, 0.0), (3.0, 0.0)])
def test_capacity_gradient_matches_finite_differences(p, eps):
    rng = np.random.default_rng(17)
    grid = GridDiscretization(7, 1.0, 2)
    pinned = np.zeros(grid.shape, dtype=bool)
    pinned[3, 3] = True
    u = rng.standard_normal(grid.shape)
    u[pinned] = 1.0
    _, grad = _capacity_gradient(u, grid, pinned, p, eps)
    step = 1e-6
    for _ in range(12):
        idx = tuple(rng.integers(0, 7, size=2))
        if pinned[idx]:
            continue
        probe = np.zeros(grid.shape)
        probe[idx] = 1.0
        plus, _ = _capacity_gradient(u + step * probe, grid, pinned, p, eps)
        minus, _ = _capacity_gradient(u - step * probe, grid, pinned, p, eps)
        fd = (plus - minus) / (2.0 * step)
        assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
    assert grad[3, 3] == 0.0


def test_capacity_gradient_matches_finite_differences_3d():
    rng = np.random.default_rng(23)
    grid = GridDiscretization(5, 1.0, 3)
    pinned = np.zeros(grid.shape, dtype=bool)
    pinned[2, 2, 2] = True
    u = rng.standard_normal(grid.shape)
    _, grad = _capacity_gradient(u, grid, pinned, 2.5, 0.0)
    step = 1e-6
    for _ in range(8):
        idx = tuple(rng.integers(0, 5, size=3))
        if pinned[idx]:
            continue
        probe = np.zeros(grid.shape)
        probe[idx] = 1.0
        plus, _ = _capacity_gradient(u + step * probe, grid, pinned, 2.5, 0.0)
        minus, _ = _capacity_gradient(u - step * probe, grid, pinned, 2.5, 0.0)
        assert grad[idx] == pytest.approx((plus - minus) / (2.0 * step),
                                          rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("dim,nodes", [(2, 9), (3, 5)])
def test_p2_objective_equals_quadratic_form(dim, nodes):
    # for p = 2 the corner-quadrature energy is exactly u^T (K + M) u with
    # the edge stiffness and trapezoid node mass
    rng = np.random.default_rng(5)
    grid = GridDiscretization(nodes, 1.3, dim)
    u = rng.standard_normal(grid.shape)
    matrix = quadratics.edge_stiffness_matrix(grid) + quadratics.node_mass_matrix(grid)
    quad = float(u.ravel() @ (matrix @ u.ravel()))
    value, _ = _capacity_gradient(u, grid, np.zeros(grid.shape, dtype=bool),
                                  2.0, 0.0)
    assert value == pytest.approx(quad, rel=1e-12)


def test_empty_target_has_zero_capacity():
    grid = GridDiscretization(9, 1.0, 2)
    result = variational_capacity(CrackSet.empty(), 2.0, grid)
    assert result.value == 0.0
    assert result.pinned_nodes == 0


def test_invisible_segment_raises_degenerate_target():
    grid = GridDiscretization(9, 1.0, 2)
    thin = axis_segment((0.115, 0.125), 0, 0.02)
    with pytest.raises(DegenerateTarget), pytest.warns(ResolutionWarning):
        variational_capacity(thin, 2.0, grid)


def test_point_target_always_pins_one_node():
    grid = GridDiscretization(9, 1.0, 2)
    pins = target_pins(np.array([0.11, -0.07]), grid)
    assert pins.sum() == 1
    result = point_capacity(2.0, grid, position=(0.11, -0.07))
    assert result.pinned_nodes == 1
    assert result.value > 0.0


def test_capacity_monotone_in_target():
    grid = GridDiscretization(33, 2.0, 2)
    short = variational_capacity(axis_segment((-0.125, 0.0), 0, 0.25), 2.0, grid)
    long = variational_capacity(axis_segment((-0.25, 0.0), 0, 0.5), 2.0, grid)
    assert 0.0 < short.value < long.value


def test_capacity_between_zero_and_pin_competitor():
    # u = indicator of the pinned nodes is admissible, so the reported
    # value never exceeds that competitor's energy
    grid = GridDiscretization(17, 1.0, 2)
    seg = axis_segment((-0.25, 0.0), 0, 0.5)
    result = variational_capacity(seg, 2.0, grid)
    pins = target_pins(seg, grid)
    competitor, _ = _capacity_gradient(pins.astype(float), grid, pins, 2.0, 0.0)
    assert 0.0 < result.value <= competitor


def test_segment_box_geometry():
    grid = segment_box(0.25, 4)
    assert grid.h == pytest.approx(0.25 / 4)
    assert grid.half_width >= 4 * 0.25 + 1.0
    # half width is a whole number of cells
    cells = grid.half_width / grid.h
    assert cells == pytest.approx(round(cells))
    tight = segment_box(0.25, 4, box_half_width=2.0)
    assert tight.half_width == pytest.approx(2.0)
    with pytest.raises(ValueError):
        segment_box(0.25, 3)
    with pytest.raises(ValueError):
        segment_box(-0.1, 4)


def test_translation_invariance_on_lattice_shifts():
    base = segment_capacity(0.25, 2.0, resolution=4, box_half_width=1.0)
    h = 0.25 / 4
    shifted = segment_capacity(0.25, 2.0, resolution=4, box_half_width=1.0,
                               center=(2 * h, -4 * h))
    assert shifted.value == pytest.approx(base.value, rel=1e-9)


def test_translation_invariance_off_lattice_within_five_percent():
    base = segment_capacity(0.25, 2.0, resolution=4, box_half_width=1.0)
    shifted = segment_capacity(0.25, 2.0, resolution=4, box_half_width=1.0,
                               center=(0.3137, -0.177))
    assert shifted.value == pytest.approx(base.value, rel=0.05)


def test_linear_and_descent_capacities_agree_for_p2():
    grid = GridDiscretization(17, 1.0, 2)
    seg = axis_segment((-0.125, 0.0), 0, 0.25)
    linear = variational_capacity(seg, 2.0, grid)
    # the descent path's kernel, warm start and H0, run at p = 2 where
    # `variational_capacity` never takes them
    pinned = target_pins(seg, grid)
    matrix = (quadratics.edge_stiffness_matrix(grid)
              + quadratics.node_mass_matrix(grid))
    factor = quadratics.approximate_inverse(2.0 * matrix, pinned)
    x0 = factor.solve(-2.0 * (matrix @ pinned.ravel().astype(float)).reshape(grid.shape))
    x0[pinned] = 1.0
    result = descent.minimize(lambda x: _capacity_gradient(x, grid, pinned, 2.0, 0.0),
                              x0, grad_tolerance=1e-10, max_iterations=50_000,
                              precondition=factor.solve)
    assert result.converged
    assert result.value == pytest.approx(linear.value, rel=1e-7)


def test_collinear_pins_in_3d_keep_positive_capacity():
    # sparse collinear pins admit zero-energy checkerboards under
    # cell-averaged quadrature; the corner quadrature must not collapse
    grid = GridDiscretization(17, 2.0, 3)
    seg = axis_segment((-0.125, 0.0, 0.0), 0, 0.25)
    result = variational_capacity(seg, 2.0, grid)
    assert result.value > 0.1


def test_refinement_ratio_shares_one_box():
    record = refinement_ratio(0.25, 2.0, 2, 2.0, 33)
    assert record.coarse.box_half_width == record.fine.box_half_width
    assert record.fine.nodes_per_side == 2 * 33 - 1
    assert record.ratio == pytest.approx(record.fine.value / record.coarse.value)
    # 2d segments carry positive capacity, refinement barely moves the value
    assert record.ratio > 0.9


def test_point_capacity_above_dimension_positive_under_refinement():
    # p > dim: the capacity of a single point stays bounded away from zero
    values = []
    for nodes in (17, 33, 65):
        grid = GridDiscretization(nodes, 1.0, 2)
        result = point_capacity(3.0, grid, config=SolverConfig(grad_tolerance=1e-7))
        values.append(result.value)
    assert all(v >= 0.5 for v in values)


def test_point_capacity_above_dimension_position_independent():
    grid = GridDiscretization(33, 1.0, 2)
    cfg = SolverConfig(grad_tolerance=1e-7)
    values = [point_capacity(3.0, grid, position=pos, config=cfg).value
              for pos in [(0.0, 0.0), (0.31, -0.22), (-0.4, 0.35)]]
    assert all(v >= 0.5 for v in values)
    assert max(values) <= 2.0 * min(values)


def test_capacity_sweep_rejects_bad_lengths():
    with pytest.raises(ValueError):
        capacity_sweep([0.5, 1.5], 2.0)
    with pytest.raises(ValueError):
        capacity_sweep([0.0], 2.0)


def test_every_solver_rejects_zero_eps_below_p_2():
    # one eps rule: the energy, capacity and Poincare solvers all read
    # regularization_eps through SolverConfig.resolve_eps
    config = SolverConfig(regularization_eps=0.0)
    grid = GridDiscretization(9, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.0), 0, 1.0)), grid)
    with pytest.raises(ValueError, match="regularization_eps = 0"):
        solve(np.ones(grid.shape), mask, 1.5, config)
    with pytest.raises(ValueError, match="regularization_eps = 0"):
        crack_poincare(1.0, 0.25, 9, 1.5, config=config)
    with pytest.raises(ValueError, match="regularization_eps = 0"):
        segment_capacity(0.32, 1.5, config=config)
    assert SolverConfig().resolve_eps(1.5, 1e-4) == 1e-4
    assert SolverConfig().resolve_eps(2.0, 1e-4) == 0.0


def test_capacity_sweep_grows_with_length():
    results = capacity_sweep([0.25, 0.5], 2.0, resolution=2, box_half_width=1.0)
    assert isinstance(results[0], CapacityResult)
    assert results[0].value < results[1].value


def test_scaling_fit_recovers_power_law():
    ts = np.array([0.05, 0.1, 0.2, 0.4, 0.8])
    caps = 3.0 * ts ** 0.5
    fit = scaling_fit(ts, caps)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert np.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.linear_r_squared == pytest.approx(1.0, abs=1e-12)


def test_logarithmic_fit_recovers_synthetic_model():
    p = 2.0
    ts = np.array([0.02, 0.04, 0.08, 0.16, 0.32])
    caps = 2.0 * np.log(5.0 / ts) ** (1.0 - p)
    fit = logarithmic_fit(ts, caps, p)
    assert fit.scale == pytest.approx(5.0, rel=1e-3)
    assert fit.amplitude == pytest.approx(2.0, rel=1e-3)
    assert fit.linear_r_squared == pytest.approx(1.0, abs=1e-8)


def test_logarithmic_fit_beats_power_law_on_log_data():
    p = 2.0
    ts = np.array([0.02, 0.04, 0.08, 0.16, 0.32])
    caps = 2.0 * np.log(5.0 / ts) ** (1.0 - p)
    log_fit = logarithmic_fit(ts, caps, p)
    power_fit = scaling_fit(ts, caps)
    assert log_fit.linear_r_squared > power_fit.linear_r_squared


def test_fit_input_validation():
    with pytest.raises(ValueError):
        scaling_fit([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        scaling_fit([0.1, 0.2, -0.3], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        scaling_fit([0.1, 0.2, 0.3], [1.0, 0.0, 3.0])
    with pytest.raises(ValueError):
        logarithmic_fit([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], 1.0)


def test_capacity_rejects_bad_exponent():
    grid = GridDiscretization(9, 1.0, 2)
    with pytest.raises(ValueError):
        variational_capacity(axis_segment((-0.25, 0.0), 0, 0.5), 1.0, grid)


@pytest.mark.parametrize("t,p,dim,box,max_iterations", [
    (0.08, 1.5, 2, None, 40),    # 133^2 grid; 1871 iterations unpreconditioned
    (0.5, 3.0, 3, 1.0, 60),      # 17^3 grid; 187 iterations unpreconditioned
])
def test_preconditioned_capacity_descent_converges_fast(t, p, dim, box, max_iterations):
    def run(tol):
        config = SolverConfig(grad_tolerance=tol,
                              regularization_eps=1e-3 if p < 2 else None)
        return segment_capacity(t, p, dim, box_half_width=box, config=config)

    result = run(1e-6)
    assert result.iterations <= max_iterations
    assert result.residual <= 1e-6
    assert result.value == pytest.approx(run(1e-9).value, rel=1e-6)


@pytest.mark.parametrize("dim", [2, 3])
def test_point_target_pins_the_all_nodes_nearest_node(dim):
    # per axis the nearest node, against the first argmin of the squared
    # distance over every node: inside and outside the box, on offset
    # centers, at nodes and at midpoints between them
    rng = np.random.default_rng(dim)
    rounded_ties = 0
    for case in range(400):
        center = tuple(rng.uniform(-2.0, 2.0, dim)) if case % 2 else ()
        grid = GridDiscretization(int(rng.integers(2, 12)), float(rng.uniform(0.1, 3.0)),
                                  dim, center)
        axes = [grid.axis(k) for k in range(dim)]
        nodes = np.array([a[rng.integers(len(a))] for a in axes])
        midpoints = np.array([0.5 * (a[i] + a[i + 1]) for a, i in
                              zip(axes, rng.integers(0, grid.nodes_per_side - 1, dim))])
        outside = rng.uniform(-3.0, 3.0, dim) * grid.half_width + grid.lower_corner
        mixed = np.where(rng.random(dim) < 0.5, nodes, midpoints)
        for point in (nodes, outside, midpoints, mixed):
            offsets = grid.node_coordinates() - point
            dist_sq = (offsets * offsets).sum(axis=-1)
            [ours] = np.argwhere(target_pins(point, grid))
            theirs = np.unravel_index(np.argmin(dist_sq), grid.shape)
            if tuple(ours) == theirs:
                continue
            # only where a midpoint's summed squares round to a tie, which
            # the all-nodes pass breaks by node order: the pin is as near
            # along every axis and strictly nearer along one
            assert point is midpoints or point is mixed
            assert dist_sq[tuple(ours)] == dist_sq[theirs]
            near, far = np.abs(offsets[tuple(ours)]), np.abs(offsets[theirs])
            assert (near <= far).all() and (near < far).any()
            rounded_ties += 1
    # 0 of 1600 points in 2-d and 2 in 3-d with these seeds
    assert rounded_ties <= 8


def test_capacity_descent_factors_once(monkeypatch):
    # above the V-cycle's coarse size a p < 2 descent takes its warm start
    # from the lattice V-cycle and applies its frozen-weight H0 as one
    # V-cycle, and a p > 2 descent takes both from one V-cycle of
    # 2(K + M), building no `PinnedFactor`; with prefer_direct or at or
    # below that size a p < 2 H0 is one factor of the frozen-weight block
    # and a p > 2 descent factors 2(K + M) for both.  No descent factors
    # anything while L-BFGS iterates.  Every block is the mirror part's,
    # the quarter [0, 1]^2 of the box with the half segment from 0 pinned
    factored = []
    pinned_factor = quadratics.PinnedFactor

    class CountingFactor(pinned_factor):
        def __init__(self, matrix, pinned):
            factored.append(matrix)
            super().__init__(matrix, pinned)

    calls = []
    splu = quadratics.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    minimize = descent.minimize
    during, starts, h0s = [], [], []

    def watched_minimize(fun, x0, **kwargs):
        before = len(calls)
        starts.append(np.array(x0))
        result = minimize(fun, x0, **kwargs)
        during.append(len(calls) - before)
        return result

    approximate_inverse = quadratics.approximate_inverse

    def recorded_inverse(*args, **kwargs):
        # the descent's H0 is the one inverse the capacity solve builds
        h0s.append(approximate_inverse(*args, **kwargs))
        return h0s[-1]

    monkeypatch.setattr(quadratics, "PinnedFactor", CountingFactor)
    monkeypatch.setattr(quadratics.spla, "splu", counting_splu)
    monkeypatch.setattr(descent, "minimize", watched_minimize)
    monkeypatch.setattr(quadratics, "approximate_inverse", recorded_inverse)
    h0_kinds = set()
    for resolution, p, prefer_direct in [(24, 1.5, None), (24, 3.0, None),
                                         (24, 1.5, True), (24, 3.0, True),
                                         (4, 1.5, None), (4, 3.0, None)]:
        factored.clear()
        during.clear()
        starts.clear()
        h0s.clear()
        config = SolverConfig(grad_tolerance=1e-7, prefer_direct=prefer_direct)
        box = segment_box(0.5, resolution, box_half_width=1.0)
        grid = GridDiscretization((box.nodes_per_side + 1) // 2, 0.5, 2, (0.5, 0.5))
        pinned = target_pins(axis_segment((0.0, 0.0), 0, 0.25), grid)
        block = (quadratics.edge_stiffness_matrix(grid)
                 + quadratics.node_mass_matrix(grid))
        result = segment_capacity(0.5, p, resolution=resolution,
                                  box_half_width=1.0, config=config)
        assert result.iterations > 1
        assert during == [0]
        [h0] = h0s
        assert starts[0].shape == grid.shape
        h0_kinds.add(type(h0))
        cycle = (~pinned).sum() > quadratics._COARSE_SIZE and not prefer_direct
        if p > 2 and cycle:
            assert factored == []
            assert isinstance(h0, quadratics.LatticeCycle)
            # the cycle of 2(K + M), bit for bit
            probe = np.random.default_rng(3).standard_normal(grid.shape)
            reference = approximate_inverse(2.0 * block, pinned)
            assert h0.solve(probe).tobytes() == reference.solve(probe).tobytes()
        elif p > 2:
            assert len(factored) == 1
            assert (factored[0] != 2.0 * block).nnz == 0
            assert isinstance(h0, CountingFactor)
        elif cycle:
            assert factored == []
            assert isinstance(h0, quadratics.LatticeCycle)
        else:
            # the p = 2 warm start's LU, then the frozen-weight H0's
            assert len(factored) == 2
            assert (factored[0] != block).nnz == 0
            # the descent runs in x / gain, so its start is the warm
            # start over the gain
            frozen = _frozen_weight_matrix(starts[0] * mirror_gain(grid), grid, p, 1e-4)
            assert (factored[1] != frozen).nnz == 0
            assert isinstance(h0, CountingFactor)
    assert h0_kinds == {CountingFactor, quadratics.LatticeCycle}


def test_p3_mirror_part_descent_above_the_coarse_size_starts_at_its_h0_solve(monkeypatch):
    # the 49^2 mirror part of a t = 0.5 segment's 97^2 box at p = 3: H0 is
    # the lattice V-cycle of 2(K + M), and the descent starts at H0 applied
    # to twice the lifted load with the pins at 1, bit for bit (in x; the
    # descent runs in x / gain)
    approximate_inverse, minimize = quadratics.approximate_inverse, descent.minimize
    h0s, starts = [], []

    def recorded_inverse(*args, **kwargs):
        h0s.append(approximate_inverse(*args, **kwargs))
        return h0s[-1]

    def recorded_minimize(fun, x0, **kwargs):
        starts.append(np.array(x0))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(quadratics, "approximate_inverse", recorded_inverse)
    monkeypatch.setattr(descent, "minimize", recorded_minimize)
    config = SolverConfig(grad_tolerance=1e-7)
    result = segment_capacity(0.5, 3.0, resolution=24, box_half_width=1.0, config=config)
    assert result.residual <= 1e-7
    box = segment_box(0.5, 24, box_half_width=1.0)
    mid = box.nodes_per_side // 2
    part = GridDiscretization(mid + 1, 0.5 * box.half_width, 2)
    pinned = target_pins(centered_segment(0.5, box), box)[mid:, mid:]
    assert (~pinned).sum() > quadratics._COARSE_SIZE
    [h0], [start] = h0s, starts
    assert isinstance(h0, quadratics.LatticeCycle)
    block = quadratics.edge_stiffness_matrix(part) + quadratics.node_mass_matrix(part)
    load = -(block @ pinned.ravel().astype(float)).reshape(part.shape)
    expected = h0.solve(2.0 * load)
    expected[pinned] = 1.0
    assert (start * mirror_gain(part)).tobytes() == expected.tobytes()


def test_lattice_cycle_h0_is_symmetric_positive_definite():
    # the frozen-weight block at the warm start of C4's 133^2 length
    grid = segment_box(0.08, 4)
    pinned = target_pins(centered_segment(0.08, grid), grid)
    assert pinned.shape == (133, 133)
    matrix = (quadratics.edge_stiffness_matrix(grid)
              + quadratics.node_mass_matrix(grid))
    load = -(matrix @ pinned.ravel().astype(float)).reshape(grid.shape)
    u, _, _ = quadratics.solve_pinned(matrix, load, pinned, grad_tolerance=1e-8)
    u[pinned] = 1.0
    h0 = quadratics.approximate_inverse(_frozen_weight_matrix(u, grid, 1.5, 1e-3), pinned)
    assert isinstance(h0, quadratics.LatticeCycle)
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2,) + pinned.shape)
    hx, hy = h0.solve(x), h0.solve(y)
    assert hx.shape == x.shape
    assert not hx[pinned].any() and not hy[pinned].any()
    xhy, hxy = np.vdot(x, hy), np.vdot(hx, y)
    assert abs(xhy - hxy) <= 1e-12 * abs(xhy)
    for v, hv in ((x, hx), (y, hy), (x + y, h0.solve(x + y))):
        assert np.vdot(v, hv) > 0.0
    stack = h0.solve(np.stack([x, y], axis=-1))
    assert stack.shape == pinned.shape + (2,)
    np.testing.assert_allclose(stack, np.stack([hx, hy], axis=-1),
                               rtol=0.0, atol=1e-13 * np.abs(hx).max())


def test_lattice_cycle_h0_matches_the_lu_h0_on_the_c4_sweep():
    lengths = [0.08, 0.16, 0.32]
    runs = [capacity_sweep(lengths, 1.5, config=SolverConfig(
                grad_tolerance=1e-6, regularization_eps=1e-3,
                prefer_direct=prefer_direct))
            for prefer_direct in (None, True)]
    for cycle, lu in zip(*runs):
        assert cycle.nodes_per_side ** 2 > quadratics._COARSE_SIZE
        assert cycle.value == pytest.approx(lu.value, rel=1e-8)
        assert abs(cycle.iterations - lu.iterations) <= 2


def test_capacity_descent_computes_node_weights_once(monkeypatch):
    calls = []
    node_weights = quadratics.node_weights

    def counting(grid):
        calls.append(grid.shape)
        return node_weights(grid)

    monkeypatch.setattr(quadratics, "node_weights", counting)
    result = segment_capacity(0.5, 1.5, box_half_width=1.0,
                              config=SolverConfig(grad_tolerance=1e-7))
    assert result.iterations > 1
    assert len(calls) == 1


@pytest.mark.parametrize("dim,nodes", [(2, 9), (3, 5)])
def test_frozen_weight_matrix_at_p2_is_twice_k_plus_m(dim, nodes):
    rng = np.random.default_rng(11)
    grid = GridDiscretization(nodes, 1.3, dim)
    u = rng.standard_normal(grid.shape)
    frozen = _frozen_weight_matrix(u, grid, 2.0, 0.0)
    twice = 2.0 * (quadratics.edge_stiffness_matrix(grid)
                   + quadratics.node_mass_matrix(grid))
    assert abs(frozen - twice).max() <= 1e-14 * abs(twice).max()


@pytest.mark.parametrize("dim,nodes", [(2, 9), (3, 5)])
def test_frozen_weight_matrix_reproduces_the_gradient(dim, nodes):
    # with its weights frozen the gradient is linear in u, and this matrix
    # is that linear map
    p, eps = 1.5, 1e-2
    rng = np.random.default_rng(13)
    grid = GridDiscretization(nodes, 1.3, dim)
    pinned = np.zeros(grid.shape, dtype=bool)
    pinned[(nodes // 2,) * dim] = True
    u = rng.standard_normal(grid.shape)
    u[pinned] = 1.0
    _, grad = _capacity_gradient(u, grid, pinned, p, eps)
    product = (_frozen_weight_matrix(u, grid, p, eps) @ u.ravel()).reshape(grid.shape)
    free = ~pinned
    np.testing.assert_allclose(product[free], grad[free], rtol=0.0,
                               atol=1e-13 * np.abs(grad).max())


def test_capacity_sweep_process_pool_matches_serial():
    ts = [0.25, 0.5]
    config = SolverConfig(grad_tolerance=1e-7)
    # the pool pickles each result, a p = 2 one with the linear solve's
    # summed CG count
    for p in (1.5, 2.0):
        serial = capacity_sweep(ts, p, box_half_width=1.0, config=config)
        pooled = capacity_sweep(ts, p, box_half_width=1.0, config=config, jobs=2)
        assert [r.value for r in pooled] == [r.value for r in serial]
        assert [r.iterations for r in pooled] == [r.iterations for r in serial]
        assert copy.deepcopy(pooled) == pooled


def test_capacity_nonconvergence_names_the_iteration_cap():
    config = SolverConfig(grad_tolerance=1e-12, max_iterations=2)
    with pytest.raises(NonConvergence, match="iteration cap") as err:
        segment_capacity(0.5, 3.0, box_half_width=1.0, config=config)
    assert err.value.reason == descent.ITERATION_CAP
    assert err.value.field.shape == (17, 17)
    # the partial report's value is the objective at an admissible field,
    # so it still bounds the converged capacity from above
    report = err.value.report
    assert isinstance(report, CapacityResult)
    assert report.iterations == 2
    assert report.residual > 1e-12
    assert f"at residual {report.residual:.3e}" in str(err.value)
    converged = segment_capacity(0.5, 3.0, box_half_width=1.0)
    assert report.value >= converged.value


@pytest.mark.parametrize("dim", [2, 3])
def test_segment_capacity_failure_describes_the_full_box(dim):
    config = SolverConfig(grad_tolerance=1e-12, max_iterations=2)
    grid = segment_box(0.5, 4, dim, box_half_width=1.0)
    segment = centered_segment(0.5, grid)
    pinned = target_pins(segment, grid)
    for entry in (lambda: segment_capacity(0.5, 3.0, dim, box_half_width=1.0,
                                           config=config),
                  lambda: variational_capacity(segment, 3.0, grid, config)):
        with pytest.raises(NonConvergence, match="iteration cap") as err:
            entry()
        field, report = err.value.field, err.value.report
        # the mirror part's field, unfolded by reflection in every axis
        assert field.shape == grid.shape
        for axis in range(dim):
            np.testing.assert_array_equal(field, np.flip(field, axis))
        assert np.all(field[pinned] == 1.0)
        assert (report.nodes_per_side, report.box_half_width, report.pinned_nodes) == (
            grid.nodes_per_side, grid.half_width, int(pinned.sum()))
        # at p = 3 the descent runs at eps = 0, so the report's value and
        # residual are the full box's objective and gradient at that field
        value, grad = _capacity_gradient(field, grid, pinned, 3.0, 0.0)
        assert report.value == pytest.approx(value, rel=1e-12)
        assert report.residual == pytest.approx(float(np.abs(grad).max()), rel=1e-6)


def test_capacity_descent_at_the_rounding_floor_stalls():
    # no tolerance is reachable: once steps round back to the same point the
    # descent must report a stall, not spin until the iteration cap
    config = SolverConfig(grad_tolerance=1e-300, max_iterations=1500)
    with pytest.raises(NonConvergence, match="line-search stall") as err:
        segment_capacity(0.5, 3.0, box_half_width=1.0, config=config)
    assert err.value.reason == descent.LINE_SEARCH_STALL
    iterations = int(re.search(r"after (\d+) iterations", str(err.value)).group(1))
    assert iterations < 500


def test_capacity_nonconvergence_names_a_line_search_stall(monkeypatch):
    minimize = descent.minimize

    def stalling(fun, x0, **kwargs):
        result = minimize(fun, x0, **{**kwargs, "max_iterations": 1})
        result.reason = descent.LINE_SEARCH_STALL
        return result

    monkeypatch.setattr(descent, "minimize", stalling)
    with pytest.raises(NonConvergence, match="line-search stall") as err:
        segment_capacity(0.5, 3.0, box_half_width=1.0,
                         config=SolverConfig(grad_tolerance=1e-12))
    assert err.value.reason == descent.LINE_SEARCH_STALL


def test_capacity_linear_path_fails_loudly_when_cg_stops_early(monkeypatch):
    def unconverged(a, b, precond, grad_tolerance):
        return np.zeros(len(b)), 1

    monkeypatch.setattr(quadratics, "_pinned_cg", unconverged)
    # the single lattice has no coarse level; its stand-in LU misses the
    # tolerance, so the column falls back to the stubbed CG
    monkeypatch.setattr(quadratics, "_hierarchy", lambda a, slots: np.zeros_like)
    config = SolverConfig(grad_tolerance=1e-8, prefer_direct=False)
    with pytest.raises(NonConvergence, match="linear path residual") as err:
        segment_capacity(0.5, 2.0, box_half_width=1.0, config=config)
    assert err.value.field.shape == (17, 17)
    assert err.value.reason is None
    report = err.value.report
    assert isinstance(report, CapacityResult)
    # one stubbed CG call on the capacity block's single lattice
    assert report.iterations == 1
    assert report.residual > 1e-8
    assert f"residual {report.residual:.3e} above" in str(err.value)
    converged = segment_capacity(0.5, 2.0, box_half_width=1.0)
    assert report.value >= converged.value


# the crack-ladder rung n = 4 at a drawn epsilon: its mirror part has 80
# nodes per side, an even lattice above the V-cycle's coarse size
LADDER_T = 0.2571702570391694 / 4


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("t,resolution,box,dim,center", [
    (0.5, 4, 1.0, 2, ()),                # 17^2, part 9^2
    (0.5, 24, 1.0, 2, (0.013, -0.2)),    # 97^2 off the unit lattice, part 49^2
    (LADDER_T, 4, None, 2, ()),          # 159^2, part 80^2
    (0.5, 4, 1.0, 3, ()),                # 17^3, part 9^3
])
def test_segment_capacity_equals_the_full_box_solve(monkeypatch, t, resolution,
                                                    box, dim, center, p):
    # the full 17^3 descent stalls at its rounding floor near 4e-10
    tolerance = 1e-10 if dim == 2 else 1e-9
    config = SolverConfig(grad_tolerance=tolerance)
    grid = segment_box(t, resolution, dim, box, center)
    pinned = target_pins(centered_segment(t, grid), grid)
    # both public entries fold this box, so the reference is the unfolded
    # solve itself
    full_value, _, _, _, _, failure = capacity._solve(grid, pinned, p, config)
    assert failure is None

    fields = []
    gradient = _capacity_gradient

    def recording(u, *args, **kwargs):
        fields.append(u.copy())
        return gradient(u, *args, **kwargs)

    monkeypatch.setattr(capacity, "_capacity_gradient", recording)
    part = segment_capacity(t, p, dim, resolution, box, center, config)
    monkeypatch.undo()

    assert part.nodes_per_side == grid.nodes_per_side
    assert part.box_half_width == grid.half_width
    assert part.grid_h == grid.h
    assert part.pinned_nodes == int(pinned.sum())
    assert part.value == pytest.approx(full_value, rel=1e-12 if p == 2 else 1e-8)
    # the last evaluation is at the final field; unfolded by reflection it
    # is a full-box field whose gradient's max norm the report carries
    half = fields[-1]
    assert half.shape == ((grid.nodes_per_side + 1) // 2,) * dim
    unfold = np.abs(np.arange(1 - half.shape[0], half.shape[0]))
    u = half[np.ix_(*[unfold] * dim)]
    eps = config.resolve_eps(p, 1e-4)
    _, grad = _capacity_gradient(u, grid, pinned, p, eps)
    residual = float(np.abs(grad).max())
    assert part.residual <= tolerance
    assert part.residual == pytest.approx(residual, rel=1e-6)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_mirror_part_descent_stops_on_the_full_box_residual(monkeypatch, dim, p):
    # the part descent's iterates are the unscaled part descent's bit for
    # bit, and it stops at the first of them whose full-box residual
    # max |gain * gradient| meets the tolerance
    config = SolverConfig(grad_tolerance=1e-8)
    box = segment_box(0.5, 4, dim, box_half_width=1.0)
    mid = box.nodes_per_side // 2
    part = GridDiscretization(mid + 1, 0.5 * box.half_width, dim)
    pinned = target_pins(centered_segment(0.5, box), box)[(slice(mid, None),) * dim]
    gain = mirror_gain(part)

    approximate_inverse, gradient = quadratics.approximate_inverse, _capacity_gradient
    h0s, folded = [], []

    def recorded_inverse(*args, **kwargs):
        h0s.append(approximate_inverse(*args, **kwargs))
        return h0s[-1]

    def recorded_gradient(x, *args, **kwargs):
        folded.append(x.copy())
        return gradient(x, *args, **kwargs)

    monkeypatch.setattr(quadratics, "approximate_inverse", recorded_inverse)
    monkeypatch.setattr(capacity, "_capacity_gradient", recorded_gradient)
    _, u, iterations, residual, _, failure = capacity._solve(part, pinned, p, config, gain)
    monkeypatch.undo()
    assert failure is None and residual <= config.grad_tolerance
    # the last evaluation is the reported value's, at the final field, and
    # the first is the descent's at the warm start
    *folded, final = folded
    assert final.tobytes() == u.tobytes()
    [h0] = h0s

    # the unscaled descent from the same warm start with the same H0; H0
    # runs at the start and once per accepted step, on that iterate's
    # gradient
    eps = config.resolve_eps(p, 1e-4)
    w_node = quadratics.node_weights(part)
    unscaled, gradients = [], []

    def objective(x):
        unscaled.append(x.copy())
        return gradient(x, part, pinned, p, eps, w_node)

    def recorded_h0(r):
        gradients.append(r.copy())
        return h0.solve(r)

    result = descent.minimize(objective, folded[0], grad_tolerance=1e-300,
                              max_iterations=iterations, precondition=recorded_h0)
    assert len(folded) == len(unscaled)
    for mine, theirs in zip(folded, unscaled):
        assert mine.tobytes() == theirs.tobytes()
    assert u.tobytes() == result.x.tobytes()
    full_box_residuals = [float(np.abs(gain * r).max()) for r in gradients]
    assert len(full_box_residuals) == iterations + 1
    assert full_box_residuals[-1] == residual
    assert min(full_box_residuals[:-1]) > config.grad_tolerance


def test_mirror_part_stop_ends_the_rounding_floor_cases():
    # the 159^2 ladder box at p = 3 took 205 iterations on its 80^2 part,
    # and 17^3 at p = 1.5 took 66, while the tightened part tolerance
    # grad_tolerance / 2^(dim - 1) sat near their rounding floors
    ladder = segment_capacity(LADDER_T, 3.0, config=SolverConfig(
        grad_tolerance=1e-10, max_iterations=120))
    assert ladder.residual <= 1e-10
    cube = segment_capacity(0.5, 1.5, 3, box_half_width=1.0, config=SolverConfig(
        grad_tolerance=1e-9, max_iterations=40))
    assert cube.residual <= 1e-9


@pytest.mark.parametrize("nodes", [33, 65])
def test_refinement_ratio_boxes_fold_bit_for_bit(nodes):
    # C5's 3-d boxes: the folded capacity is the unfolded one to the last
    # bit with BLAS on one thread, as conftest sets it (other boxes agree
    # to a few ulp, the folded sums being reordered)
    grid = GridDiscretization(nodes, 2.0, 3)
    seg = centered_segment(0.25, grid)
    full_value, _, _, _, _, failure = capacity._solve(
        grid, target_pins(seg, grid), 2.0, None)
    assert failure is None
    assert variational_capacity(seg, 2.0, grid).value == full_value


@pytest.mark.parametrize("dim", [2, 3])
def test_variational_capacity_folds_exactly_the_mirror_symmetric_pins(monkeypatch, dim):
    def at(x, y):
        return (x, y) + (0.0,) * (dim - 2)

    odd = GridDiscretization(17 if dim == 2 else 9, 1.0, dim)
    even = GridDiscretization(16 if dim == 2 else 8, 1.0, dim)
    pair = CrackSet.of(axis_segment(at(-0.25, 0.25), 0, 0.5),
                       axis_segment(at(-0.25, -0.25), 0, 0.5))
    lopsided = CrackSet.of(axis_segment(at(-0.25, 0.25), 0, 0.5),
                           axis_segment(at(-0.25, -0.5), 0, 0.5))
    # segments a half cell off the center line pin a mirror-symmetric set
    # on the even grid, but no node plane halves that grid
    h = even.h
    straddling = CrackSet.of(*(axis_segment((-0.5,) + offset, 0, 1.0) for offset in
                               itertools.product((-h / 2, h / 2), repeat=dim - 1)))
    even_pins = target_pins(straddling, even)
    assert all(np.array_equal(even_pins, np.flip(even_pins, k)) for k in range(dim))
    shapes = []
    solve = capacity._solve

    def spying(grid, *args, **kwargs):
        shapes.append(grid.shape)
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(capacity, "_solve", spying)
    for solve_it in (lambda: variational_capacity(centered_segment(0.5, odd), 2.0, odd),
                     lambda: point_capacity(2.0, odd),
                     lambda: variational_capacity(pair, 2.0, odd)):
        solve_it()
        assert shapes.pop() == ((odd.nodes_per_side + 1) // 2,) * dim
    # a fully pinned box folds onto a part with no free node; its capacity
    # is the mass of the constant 1, the box volume
    tiny = GridDiscretization(3, 1.0, dim)
    rows = CrackSet.of(*(axis_segment((-1.0,) + offset, 0, 2.0) for offset in
                         itertools.product((-1.0, 0.0, 1.0), repeat=dim - 1)))
    assert variational_capacity(rows, 2.0, tiny).value == pytest.approx(2.0 ** dim)
    assert shapes.pop() == (2,) * dim
    for target, grid in ((axis_segment(at(-0.25, 0.25), 0, 0.5), odd),
                         (straddling, even),
                         (lopsided, odd)):
        variational_capacity(target, 2.0, grid)
        assert shapes.pop() == grid.shape
