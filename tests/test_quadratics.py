import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from pcompliance import quadratics
from pcompliance.capacity import target_pins, variational_capacity
from pcompliance.geometry import CrackSet, GridDiscretization, axis_segment, rasterize
from pcompliance.solver import (SolverConfig, _frozen_weight_matrix, cell_means,
                               cell_means_adjoint, solve)
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
    lu, _, _ = quadratics.solve_pinned(matrix, rhs, pinned,
                                       grad_tolerance=tolerance, prefer_direct=True)
    cg, iterations, _ = quadratics.solve_pinned(matrix, rhs, pinned,
                                                grad_tolerance=tolerance,
                                                prefer_direct=False)
    # these 2-d lattices have no coarse level, and their LU back-substitutes
    # every column; 3-d blocks run Jacobi PCG
    assert (iterations == 0) == (dim == 2)
    free = ~pinned.ravel()
    assert np.abs((matrix @ cg - rhs)[free]).max() <= tolerance
    assert np.all(cg[~free] == 0)
    assert np.abs(cg - lu).max() <= 1e-10 * np.abs(lu).max()


def test_reduced_cg_matches_lu_column_by_column():
    matrix, load, pinned = crack_energy_case(33, 2)
    rhs = np.column_stack([load, -2.0 * load[::-1]])
    tolerance = 1e-12
    lu, _, _ = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=tolerance,
                                       prefer_direct=True)
    cg, iterations, columns = quadratics.solve_pinned(matrix, rhs, pinned,
                                                      grad_tolerance=tolerance,
                                                      prefer_direct=False)
    assert cg.shape == rhs.shape
    assert np.abs(cg - lu).max() <= 1e-10 * np.abs(lu).max()
    # each column's field, bit for bit, and its own count, as if it had
    # been solved alone
    alone = [quadratics.solve_pinned(matrix, rhs[:, j], pinned, grad_tolerance=tolerance,
                                     prefer_direct=False) for j in range(2)]
    for j, (u, _, _) in enumerate(alone):
        assert cg[:, j].tobytes() == u.tobytes()
    counts = tuple(count for _, count, _ in alone)
    assert columns == counts
    # both lattices are back-substituted by their LU, which meets the tolerance
    assert iterations == sum(counts) and counts == (0, 0)


@pytest.mark.parametrize("extra", [0, 1])
def test_2d_blocks_above_the_coarse_size_take_the_v_cycle(monkeypatch, extra):
    calls = []
    reduced_cg = quadratics._reduced_cg

    def spy(*args):
        calls.append(1)
        return reduced_cg(*args)

    monkeypatch.setattr(quadratics, "_reduced_cg", spy)
    grid = GridDiscretization(49, 1.0, 2)
    # the boundary and the last interior nodes pinned
    pinned = grid.boundary_mask().copy()
    pinned.flat[np.flatnonzero(~pinned)[quadratics._COARSE_SIZE + extra:]] = True
    matrix = quadratics.stiffness_matrix(grid)
    rhs = np.ones(grid.shape)
    u, iterations, columns = quadratics.solve_pinned(matrix, rhs, pinned,
                                                     grad_tolerance=1e-12)
    lu = quadratics.PinnedFactor(matrix, pinned).solve(rhs)
    if extra == 0:
        assert not calls and iterations == 0 and columns == (0,)
        assert u.tobytes() == lu.tobytes()
    else:
        # both Schur lattices are at or below the coarse size, and their LU
        # back-substitutes in place of PCG
        assert calls and iterations == 0
        assert np.abs(u - lu).max() <= 1e-10 * np.abs(lu).max()


@pytest.mark.parametrize("build", [crack_energy_case, capacity_case])
def test_3d_blocks_take_the_lu_up_to_the_coarse_size_and_cg_above(monkeypatch, build):
    calls = []
    reduced_cg = quadratics._reduced_cg

    def spy(*args):
        calls.append(1)
        return reduced_cg(*args)

    monkeypatch.setattr(quadratics, "_reduced_cg", spy)
    matrix, rhs, pins = build(15, 3)
    for extra in (0, 1):
        # the last free nodes pinned, down to the coarse size plus extra
        pinned = pins.copy()
        pinned.flat[np.flatnonzero(~pinned)[quadratics._COARSE_SIZE + extra:]] = True
        assert (~pinned).sum() == quadratics._COARSE_SIZE + extra
        calls.clear()
        u, iterations, _ = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-12)
        lu = quadratics.PinnedFactor(matrix, pinned).solve(rhs)
        if extra == 0:
            assert not calls and iterations == 0
            assert u.tobytes() == lu.tobytes()
        else:
            # no lattice in 3-d: Jacobi CG
            assert calls and iterations > 0
            assert np.abs(u - lu).max() <= 1e-9 * np.abs(lu).max()


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
    u, _, _ = quadratics.solve_pinned(matrix, rhs, pinned, prefer_direct=prefer_direct)
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
    u, iterations, _ = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-12,
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


def coupled_lattices_case():
    """The 65^2 crack's `K` plus links along j, which keep the odd-j block
    diagonal but couple the two i-parity lattices through the eliminated
    nodes."""
    matrix, rhs, pinned = crack_energy_case(65, 2)
    n = pinned.shape[1]
    step = sp.diags([np.ones(n - 1), -np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    return (matrix + sp.kron(sp.eye(n), step.T @ step)).tocsr(), rhs, pinned


def test_lattices_that_a_matrix_couples_fall_back_to_jacobi():
    matrix, rhs, pinned = coupled_lattices_case()
    bits, elim = quadratics._diagonal_class(matrix, pinned)
    assert bits == (0, 1)
    keep = ~pinned.ravel() & ~elim
    assert [slots for _, slots in quadratics._lattices(matrix, pinned, bits, keep)] == [None]
    cg, _, _ = quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-12,
                                       prefer_direct=False)
    lu = quadratics.PinnedFactor(matrix, pinned).solve(rhs)
    assert np.abs(cg - lu).max() <= 1e-10 * np.abs(lu).max()


def test_approximate_inverse_is_a_v_cycle_or_an_lu_never_jacobi():
    matrix, _, pinned = capacity_case(65, 2)
    assert (~pinned).sum() > quadratics._COARSE_SIZE
    assert isinstance(quadratics.approximate_inverse(matrix, pinned),
                      quadratics.LatticeCycle)
    assert isinstance(quadratics.approximate_inverse(matrix, pinned, prefer_direct=True),
                      quadratics.PinnedFactor)
    # no lattice map: a 3-d block, or 2-d lattices that the matrix couples
    for matrix, _, pinned in (capacity_case(9, 3), coupled_lattices_case()):
        h0 = quadratics.approximate_inverse(matrix, pinned, prefer_direct=False)
        assert isinstance(h0, quadratics.PinnedFactor)


@pytest.mark.parametrize("kind", ["energy", "capacity"])
def test_lattice_v_cycle_iterations_do_not_grow_with_the_grid(monkeypatch, kind):
    # Jacobi CG doubled its count with the side: 133 and 263 iterations on
    # the energy case at 129^2 and 257^2, to 1e-8
    _, _, coarse, _ = lattice_solve(monkeypatch, kind, 129)
    _, _, fine, _ = lattice_solve(monkeypatch, kind, 257)
    assert max(coarse + fine) <= 15
    assert all(abs(a - b) <= 3 for a, b in zip(coarse, fine))


# even grids whose rotated capacity lattice had a dependent ghost column in
# its bilinear P, at level 0 of 80^2 and 100^2 and at level 1 of 142^2, so
# the Galerkin coarse matrix was singular and its LU raised
EVEN_CAPACITY_GRIDS = [80, 100, 142]


@pytest.mark.parametrize("nodes", EVEN_CAPACITY_GRIDS)
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_capacity_v_cycle_on_even_grids_matches_the_lu(nodes, p):
    grid = GridDiscretization(nodes, 1.0, 2)
    target = axis_segment((-0.25, 0.0), 0, 0.5)
    # this target's p = 1.5 descent stalls near 1e-9 on 80^2 with either H0
    cycle, lu = (variational_capacity(target, p, grid, SolverConfig(
                     grad_tolerance=1e-8, prefer_direct=prefer_direct)).value
                 for prefer_direct in (None, True))
    assert cycle == pytest.approx(lu, rel=1e-8)


@pytest.mark.parametrize("nodes", EVEN_CAPACITY_GRIDS)
def test_prolongation_has_full_column_rank_on_even_grids(monkeypatch, nodes):
    built = []
    prolongation = quadratics._prolongation

    def recorded(slots):
        p, coarse = prolongation(slots)
        built.append(p)
        return p, coarse

    monkeypatch.setattr(quadratics, "_prolongation", recorded)
    matrix, rhs, pinned = capacity_case(nodes, 2)
    quadratics.solve_pinned(matrix, rhs, pinned, grad_tolerance=1e-10,
                            prefer_direct=False)
    assert len(built) == (2 if nodes == 142 else 1)
    for p in built:
        # P^T P, exact in floating point, is SPD exactly when P has full
        # column rank; elimination on its diagonal finds no tiny pivot
        gram = (p.T @ p).tocsc()
        lu = quadratics.spla.splu(gram, permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0,
                                  options=dict(SymmetricMode=True))
        pivots = lu.U.diagonal()
        assert pivots.min() > 1e-6 * pivots.max()


@pytest.mark.parametrize("nodes,iterations,compliance", [
    (129, 14, "0x1.ef4dab1678174p-8"),
    (433, 18, "0x1.e9974cdfebe6fp-8"),
])
def test_full_rank_lattice_hierarchies_are_unchanged(nodes, iterations, compliance):
    # the p = 2 crack solves of the single-solves benchmark workload; the
    # compliances were recorded before P dropped dependent ghost columns
    grid = GridDiscretization(nodes, 1.0, 2)
    mask = rasterize(CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0)), grid)
    f = sample_on_grid(named_source("bump", 2, 1.0), grid)
    _, report = solve(f, mask, 2.0, SolverConfig(grad_tolerance=1e-8))
    assert report.iterations == iterations
    assert report.compliance_energy_form.hex() == compliance


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


# blake2b-128 of K's indptr, indices and data bytes, recorded from the
# constant-coefficient Gram builder before it took per-cell weights
STIFFNESS_FINGERPRINTS = {
    (6, 2): "89bd493caef21da696df71240c7fe73b",
    (129, 2): "97daa43cf63d467f51243d19f09cb90d",
    (433, 2): "0b06a29d6701a09d15004a999d2e20b3",
    (5, 3): "c07bfc201f10981065df7b1722bb1b68",
}


@pytest.mark.parametrize("nodes,dim", list(STIFFNESS_FINGERPRINTS))
def test_weighted_gram_builder_keeps_the_stiffness_bit_for_bit(nodes, dim):
    grid = GridDiscretization(nodes, 1.0, dim)
    stiffness = quadratics.stiffness_matrix(grid)
    digest = hashlib.blake2b(digest_size=16)
    for part in (stiffness.indptr, stiffness.indices, stiffness.data):
        digest.update(part.tobytes())
    assert digest.hexdigest() == STIFFNESS_FINGERPRINTS[nodes, dim]
    # unit weights give K itself
    weighted = quadratics._gram(grid, *quadratics.gradient_operator(dim, grid.h),
                                np.ones(grid.cells_shape))
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(weighted, part), getattr(stiffness, part)), part


def test_frozen_weight_energy_block_keeps_the_lattice_split():
    # the p = 1.5 weights at the p = 2 field span 1.9-53 here, yet the
    # block keeps K's X-shaped stencil, so the j-odd class stays diagonal
    # and the V-cycle still applies
    stiffness, load, pinned = crack_energy_case(129, 2)
    grid = GridDiscretization(129, 1.0, 2)
    u = quadratics.PinnedFactor(stiffness, pinned).solve(load.reshape(grid.shape))
    block = _frozen_weight_matrix(u, grid, 1.5, 1e-8)
    for part in ("indices", "indptr"):
        assert np.array_equal(getattr(block, part), getattr(stiffness, part)), part
    dense = block[: 3 * 129].toarray()
    for offset in (1, 129):  # edge neighbours along j and i
        node = 129 + 1
        assert dense[node, node + offset] == 0.0
        assert dense[node, node - offset] == 0.0
    assert dense[130, 130 + 129 + 1] != 0.0
    bits, _ = quadratics._diagonal_class(block, pinned)
    assert bits == (0, 1)
    assert isinstance(quadratics.approximate_inverse(block, pinned),
                      quadratics.LatticeCycle)


def mask_reference(h0, matrix, pinned, rhs):
    """h0.solve(rhs) gathered and scattered by boolean masks, with every
    transpose built on the spot: the reference that the index-array
    gathers and stored CSC views must match bit for bit."""
    columns = rhs.reshape(pinned.size, -1)
    u = np.zeros(columns.shape, order="F")
    if isinstance(h0, quadratics.PinnedFactor):
        free = ~pinned.ravel()
        u[free] = h0.lu.solve(columns[free])
        return u.reshape(rhs.shape)
    _, elim = quadratics._diagonal_class(matrix.tocsr(), pinned)
    keep = ~pinned.ravel() & ~elim
    scale = h0._scale[:, None]
    b_elim = scale * columns[elim]
    x_keep = columns[keep] - h0._w.transpose() @ b_elim
    for positions, cycle in h0._cycles:
        for j in range(x_keep.shape[1]):
            x_keep[positions, j] = cycle(x_keep[positions, j])
    u[keep] = x_keep
    u[elim] = scale * (b_elim - h0._w @ x_keep)
    return u.reshape(rhs.shape)


@pytest.mark.parametrize("build,nodes,dim,kind", [
    (crack_energy_case, 33, 2, quadratics.PinnedFactor),
    (capacity_case, 9, 3, quadratics.PinnedFactor),
    # one rotated lattice with a coarse level; two lattices, each an LU
    (capacity_case, 65, 2, quadratics.LatticeCycle),
    (crack_energy_case, 65, 2, quadratics.LatticeCycle),
])
def test_index_array_solves_match_the_mask_solves_bit_for_bit(build, nodes, dim, kind):
    matrix, load, pinned = build(nodes, dim)
    h0 = (quadratics.PinnedFactor(matrix, pinned) if kind is quadratics.PinnedFactor
          else quadratics.approximate_inverse(matrix, pinned))
    assert isinstance(h0, kind)
    block = np.column_stack([load, -2.0 * load[::-1], np.ones_like(load)])
    for rhs in (load.reshape(pinned.shape), block, load):
        u = h0.solve(rhs)
        assert u.shape == rhs.shape
        assert np.array_equal(u, mask_reference(h0, matrix, pinned, rhs))
        columns = u.reshape(pinned.size, -1)
        assert not columns[pinned.ravel()].any()


def lattice_inverses(kind, nodes):
    """(size, apply, coarse SuperLU) of each lattice inverse that the
    case's `approximate_inverse` keeps: the capacity block's whole
    `LatticeCycle` on node vectors, or each `K` lattice's V-cycle."""
    matrix, _, pinned = CASES[kind](nodes, 2)
    h0 = quadratics.approximate_inverse(matrix, pinned)
    assert isinstance(h0, quadratics.LatticeCycle)
    coarse = [(cycle.coarse if isinstance(cycle, quadratics._VCycle) else cycle).__self__
              for _, cycle in h0._cycles]
    if kind == "capacity":
        return [(pinned.size, h0.solve, coarse[0])]
    return [(len(positions), cycle, lu)
            for (positions, cycle), lu in zip(h0._cycles, coarse)]


@pytest.mark.parametrize("kind,nodes,lattices", [("capacity", 133, 1), ("energy", 257, 2)])
def test_lattice_inverses_with_a_symmetric_coarse_lu_stay_spd(kind, nodes, lattices):
    inverses = lattice_inverses(kind, nodes)
    assert len(inverses) == lattices
    rng = np.random.default_rng(nodes)
    for size, apply, lu in inverses:
        # SuperLU's symmetric mode pivots on the diagonal, so the rows are
        # permuted as the columns are
        assert np.array_equal(lu.perm_r, lu.perm_c)
        x, y = rng.standard_normal((2, size))
        cx, cy = apply(x), apply(y)
        assert abs(np.dot(x, cy) - np.dot(cx, y)) <= (
            1e-12 * np.linalg.norm(x) * np.linalg.norm(cy))
        for v, cv in ((x, cx), (y, cy), (x - y, apply(x - y))):
            assert np.dot(v, cv) > 0.0


def test_lattice_solves_build_no_sparse_matrix(monkeypatch):
    cycles = []
    for kind in ("capacity", "energy"):
        matrix, load, pinned = CASES[kind](65, 2)
        h0 = quadratics.approximate_inverse(matrix, pinned)
        cycles += [(h0.solve, load), (h0.solve, np.column_stack([load, load[::-1]]))]
        cycles += [(cycle, np.ones(len(h0._keep))) for _, cycle in h0._cycles
                   if isinstance(cycle, quadratics._VCycle)]
    assert len(cycles) == 5

    def no_transpose(*args, **kwargs):
        raise AssertionError("a lattice solve built a sparse transpose")

    for cls in (sp.csr_matrix, sp.csc_matrix):
        monkeypatch.setattr(cls, "transpose", no_transpose)
    for apply, rhs in cycles:
        apply(rhs)
