import tracemalloc

import numpy as np
import pytest

from pcompliance import quadratics
from pcompliance.capacity import target_pins
from pcompliance.geometry import CrackSet, GridDiscretization, axis_segment, rasterize
from pcompliance.solver import SolverConfig, cell_means, cell_means_adjoint, solve
from pcompliance.sources import named_source, sample_on_grid


def crack_energy_case(nodes, dim):
    grid = GridDiscretization(nodes, 1.0, dim)
    start = (-0.5, 0.2) if dim == 2 else (-0.5, 0.0, 0.0)
    mask = rasterize(CrackSet.of(axis_segment(start, 0, 1.0)), grid)
    f = sample_on_grid(named_source("bump", dim, 1.0), grid)
    load = cell_means_adjoint(cell_means(f), grid.cell_volume).ravel()
    return quadratics.stiffness_matrix(grid), load, mask.pinned


def capacity_case(nodes, dim):
    grid = GridDiscretization(nodes, 1.0, dim)
    start = (-0.25,) + (0.0,) * (dim - 1)
    pins = target_pins(axis_segment(start, 0, 0.5), grid)
    matrix = (quadratics.edge_stiffness_matrix(grid)
              + quadratics.node_mass_matrix(grid))
    # the unit pins lifted into the load, as `variational_capacity` does
    return matrix, -(matrix @ pins.ravel().astype(float)), pins


def parity(pinned, bits):
    index = np.indices(pinned.shape)
    return (sum(b * i for b, i in zip(bits, index)) % 2 == 1) & ~pinned


@pytest.mark.parametrize("build,nodes,dim,bits", [
    (crack_energy_case, 33, 2, (0, 1)),
    (capacity_case, 33, 2, (1, 1)),
    (capacity_case, 9, 3, (1, 1, 1)),
    (crack_energy_case, 9, 3, None),
])
def test_eliminated_parity_class_has_a_diagonal_block(build, nodes, dim, bits):
    matrix, _, pinned = build(nodes, dim)
    csr = matrix.tocsr()
    cls = quadratics._diagonal_class(csr, pinned)
    if bits is None:
        # the 3-d cell-averaged stiffness couples every parity class to itself
        assert not cls.any()
        return
    np.testing.assert_array_equal(cls, parity(pinned, bits).ravel())
    block = csr[cls][:, cls].toarray()
    assert np.count_nonzero(block - np.diag(np.diag(block))) == 0
    assert np.all(np.diag(block) > 0)


@pytest.mark.parametrize("build,nodes,dim", [
    (crack_energy_case, 65, 2),
    (capacity_case, 33, 2),
    (capacity_case, 17, 3),
    (crack_energy_case, 13, 3),
])
def test_reduced_cg_matches_lu(build, nodes, dim):
    matrix, rhs, pinned = build(nodes, dim)
    tolerance = 1e-12
    lu, _ = quadratics.solve_pinned(matrix, rhs, pinned,
                                    grad_tolerance=tolerance, prefer_direct=True)
    cg, iterations = quadratics.solve_pinned(matrix, rhs, pinned,
                                             grad_tolerance=tolerance,
                                             prefer_direct=False)
    assert iterations > 0
    free = ~pinned.ravel()
    assert np.abs((matrix @ cg - rhs)[free]).max() <= tolerance
    assert np.all(cg[~free] == 0)
    assert np.abs(cg - lu).max() <= 1e-10 * np.abs(lu).max()


def test_reduced_cg_matches_lu_column_by_column():
    matrix, load, pinned = crack_energy_case(33, 2)
    rhs = np.column_stack([load, -2.0 * load[::-1]])
    tolerance = 1e-12
    lu, _ = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=tolerance,
                                    prefer_direct=True)
    cg, _ = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=tolerance,
                                    prefer_direct=False)
    assert cg.shape == rhs.shape
    assert np.abs(cg - lu).max() <= 1e-10 * np.abs(lu).max()


@pytest.mark.parametrize("build,nodes,dim", [
    (crack_energy_case, 33, 2),
    (capacity_case, 9, 3),
])
def test_factor_solves_a_block_column_by_column(build, nodes, dim):
    matrix, load, pinned = build(nodes, dim)
    rhs = np.column_stack([load, -2.0 * load[::-1], np.ones_like(load)])
    factor = quadratics.PinnedFactor(matrix, pinned)
    block = factor.solve(rhs)
    assert block.shape == rhs.shape
    assert block.flags.f_contiguous
    for column in range(rhs.shape[1]):
        np.testing.assert_array_equal(block[:, column], factor.solve(rhs[:, column]))
    assert np.all(block[pinned.ravel()] == 0)


@pytest.mark.parametrize("prefer_direct", [True, False])
@pytest.mark.parametrize("free_center", [False, True])
def test_tiny_free_blocks_solve(prefer_direct, free_center):
    # no free node, or one whose parity class leaves CG nothing to keep
    grid = GridDiscretization(3, 1.0, 2)
    matrix = quadratics.stiffness_matrix(grid)
    pinned = np.ones(grid.shape, dtype=bool)
    pinned[1, 1] = not free_center
    rhs = np.ones(grid.n_nodes)
    u, _ = quadratics.solve_pinned(matrix, rhs, pinned, prefer_direct=prefer_direct)
    assert np.all(u[pinned.ravel()] == 0)
    assert np.abs((matrix @ u - rhs)[~pinned.ravel()]).max(initial=0.0) <= 1e-12


def test_reduced_cg_halves_the_crack_solve_iterations():
    # the 129^2 crack of the single-solves benchmark workload; Jacobi CG on
    # the whole free block took 267 iterations here
    grid = GridDiscretization(129, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0)), grid)
    f = sample_on_grid(named_source("bump", 2, 1.0), grid)
    _, report = solve(f, grid, mask, 2.0,
                      SolverConfig(grad_tolerance=1e-8, prefer_direct=False))
    assert report.residual <= 1e-8
    assert report.iterations <= 0.6 * 267


@pytest.mark.parametrize("build", ["stiffness_matrix", "edge_stiffness_matrix",
                                   "mass_matrix"])
@pytest.mark.parametrize("nodes,dim", [(129, 2), (33, 3)])
def test_assembly_peak_memory_stays_near_the_result(build, nodes, dim):
    # the traced peak of one build stays within 3x the CSR it returns
    grid = GridDiscretization(nodes, 1.0, dim)
    tracemalloc.start()
    try:
        matrix = getattr(quadratics, build)(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert peak <= 3 * size


@pytest.mark.parametrize("dim", [2, 3])
def test_stencils_reject_tables_they_would_misapply(dim):
    rng = np.random.default_rng(dim)
    values = rng.standard_normal((5,) * dim)
    cells = rng.standard_normal((dim,) + (4,) * dim)
    table, divisor = quadratics.gradient_operator(dim, 0.25)
    zero_weight = [list(row) for row in table]
    zero_weight[1][0] = 0
    for bad in (zero_weight, table[:-1]):
        with pytest.raises(ValueError, match="cell table"):
            quadratics.cell_apply(values, bad, divisor)
        with pytest.raises(ValueError, match="cell table"):
            quadratics.cell_adjoint(cells, bad, divisor)
    for table, divisor in (quadratics.gradient_operator(dim, 0.25),
                           quadratics.mean_operator(dim)):
        rows = len(table[0])
        quadratics.cell_apply(values, table, divisor)
        quadratics.cell_adjoint(cells[:rows], table, divisor)
