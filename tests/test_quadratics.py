import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

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
    found, cls = quadratics._diagonal_class(csr, pinned)
    assert found == bits
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


@pytest.mark.parametrize("solver", ["factor", "lu", "cg"])
def test_node_shaped_right_hand_sides_match_the_flat_call(solver):
    matrix, load, pinned = crack_energy_case(33, 2)
    shape = pinned.shape

    def run(rhs):
        if solver == "factor":
            return quadratics.PinnedFactor(matrix, pinned).solve(rhs)
        return quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-12,
                                       prefer_direct=solver == "lu")[0]

    field = run(load.reshape(shape))
    assert field.shape == shape
    assert field.tobytes() == run(load).tobytes()
    block = np.column_stack([load, -2.0 * load[::-1], np.ones_like(load)])
    stack = run(block.reshape(shape + (3,)))
    assert stack.shape == shape + (3,)
    flat = run(block)
    for column in range(3):
        # each field of the stack is contiguous, and the same bits as the
        # flat call's column
        assert stack[..., column].flags.c_contiguous
        assert stack[..., column].tobytes() == flat[:, column].tobytes()


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
    _, report = solve(f, mask, 2.0,
                      SolverConfig(grad_tolerance=1e-8, prefer_direct=False))
    assert report.residual <= 1e-8
    assert report.iterations <= 0.6 * 267


# traced peaks of one warm `solve_pinned(..., prefer_direct=False)` call on
# these cases with Jacobi-preconditioned CG, the path the lattice V-cycle
# replaced (numpy 2.4, scipy 1.17, Linux x86-64)
JACOBI_PEAK_BYTES = {("capacity", 289): 13_950_000, ("energy", 257): 10_750_000}
CASES = {"energy": crack_energy_case, "capacity": capacity_case}


def lattice_solve(monkeypatch, kind, nodes):
    """The CG solve of a 2-d case, with the iterations of each lattice's
    PCG and the number of coarse levels built."""
    counts, levels = [], []
    pinned_cg, prolongation = quadratics._pinned_cg, quadratics._prolongation

    def counted_cg(*args):
        x, count = pinned_cg(*args)
        counts.append(count)
        return x, count

    def counted_prolongation(slots):
        levels.append(len(slots))
        return prolongation(slots)

    monkeypatch.setattr(quadratics, "_pinned_cg", counted_cg)
    monkeypatch.setattr(quadratics, "_prolongation", counted_prolongation)
    matrix, rhs, pinned = CASES[kind](nodes, 2)
    u, iterations = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-12,
                                            prefer_direct=False)
    assert sum(counts) == iterations
    return (matrix, rhs, pinned), u, counts, levels


@pytest.mark.parametrize("kind,lattices", [("energy", 2), ("capacity", 1)])
def test_lattice_v_cycle_matches_lu_through_two_levels(monkeypatch, kind, lattices):
    (matrix, rhs, pinned), cg, counts, levels = lattice_solve(monkeypatch, kind, 257)
    assert len(counts) == lattices
    # every lattice coarsens at least twice before its LU
    assert len(levels) >= 2 * lattices
    lu = quadratics.PinnedFactor(matrix, pinned).solve(rhs)
    free = ~pinned.ravel()
    assert np.abs((matrix @ cg - rhs)[free]).max() <= 1e-12
    assert np.all(cg[~free] == 0)
    assert np.abs(cg - lu).max() <= 1e-10 * np.abs(lu).max()


def test_lattices_that_a_matrix_couples_fall_back_to_jacobi():
    # links along j keep the odd-j block diagonal but couple the two
    # i-parity lattices through the eliminated nodes
    matrix, rhs, pinned = crack_energy_case(65, 2)
    n = pinned.shape[1]
    step = sp.diags([np.ones(n - 1), -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    matrix = (matrix + sp.kron(sp.eye(n), step.T @ step)).tocsr()
    bits, elim = quadratics._diagonal_class(matrix, pinned)
    assert bits == (0, 1)
    keep = ~pinned.ravel() & ~elim
    assert [slots for _, slots in quadratics._lattices(matrix, pinned, bits, keep)] == [None]
    cg, _ = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-12,
                                    prefer_direct=False)
    lu = quadratics.PinnedFactor(matrix, pinned).solve(rhs)
    assert np.abs(cg - lu).max() <= 1e-10 * np.abs(lu).max()


@pytest.mark.parametrize("kind", ["energy", "capacity"])
def test_lattice_v_cycle_iterations_do_not_grow_with_the_grid(monkeypatch, kind):
    # Jacobi CG doubled its count with the side: 133 and 263 iterations on
    # the energy case at 129^2 and 257^2, to 1e-8
    _, _, coarse, _ = lattice_solve(monkeypatch, kind, 129)
    _, _, fine, _ = lattice_solve(monkeypatch, kind, 257)
    assert max(coarse + fine) <= 15
    assert all(abs(a - b) <= 3 for a, b in zip(coarse, fine))


@pytest.mark.parametrize("kind,nodes", sorted(JACOBI_PEAK_BYTES))
def test_lattice_v_cycle_peak_memory_stays_below_jacobi(kind, nodes):
    matrix, rhs, pinned = CASES[kind](nodes, 2)
    quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-8,
                            prefer_direct=False)  # warm any lazy imports
    tracemalloc.start()
    try:
        quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-8,
                                prefer_direct=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= JACOBI_PEAK_BYTES[kind, nodes]


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


@pytest.mark.parametrize("nodes,dim", [(9, 2), (5, 3)])
def test_unit_cell_coefficients_assemble_the_integer_tables_bit_for_bit(nodes, dim):
    grid = GridDiscretization(nodes, 1.3, dim)
    vol, h = grid.cell_volume, grid.h
    ones = np.ones(grid.cells_shape)
    gradient, gradient_divisor = quadratics.gradient_operator(dim, h)
    mean, mean_divisor = quadratics.mean_operator(dim)
    tables = {
        "stiffness_matrix": (np.array(gradient) @ np.array(gradient).T,
                             vol / gradient_divisor ** 2),
        "mass_matrix": (np.array(mean) @ np.array(mean).T, vol / mean_divisor ** 2),
        "edge_stiffness_matrix": (quadratics.edge_table(dim, lambda a, b: 1),
                                  vol / (2 ** (dim - 1) * h * h)),
        "node_mass_matrix": (np.eye(2 ** dim), vol / 2 ** dim),
    }
    for name, (table, scale) in tables.items():
        built = getattr(quadratics, name)(grid)
        weighted = quadratics._assemble(
            grid, [[c * ones for c in row] for row in table], scale)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(weighted, part), getattr(built, part)), name
