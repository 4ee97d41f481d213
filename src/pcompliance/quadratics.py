"""Cell operators G and M, and the sparse quadratic forms built from them.

A cell operator is a table of integer weights (one list per corner of
`_corners`, one weight per output row) and a divisor: G, the averaged-edge
cell gradient, and M, the cell mean.  `cell_apply` and `cell_adjoint`
apply a table or its transpose to fields, and the same tables give

    stiffness = h^dim * sum_k G_k^T G_k        (energy form  int |grad u|^2)
    mass      = h^dim * M^T M                  (mass form    int u^2, midpoint)

so the p = 2 energy is (1/2) u^T stiffness u - (mass @ f) . u.  The
capacity forms take |grad u|^2 along cell edges and u^2 at the nodes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import GridDiscretization


@functools.lru_cache(maxsize=None)
def _corners(dim: int):
    """Corner parities of a cell with the node slices selecting them."""
    table = []
    for bits in itertools.product((0, 1), repeat=dim):
        slices = tuple(slice(1, None) if b else slice(None, -1) for b in bits)
        table.append((bits, slices))
    return tuple(table)


def gradient_operator(dim: int, h: float) -> tuple[list, float]:
    """G as (table, divisor): [a][k] is +1 at the high end of axis k, else -1."""
    return [[2 * b - 1 for b in bits] for bits, _ in _corners(dim)], 2 ** (dim - 1) * h


def mean_operator(dim: int) -> tuple[list, float]:
    """M as (table, divisor): weight 1 at every corner, over 2^dim."""
    return [[1]] * 2 ** dim, 2 ** dim


def _check_table(table: list, dim: int) -> None:
    """The stencils add +1 weights, subtract every other weight and zip
    corners with rows, so any other table would be misapplied."""
    if len(table) != 2 ** dim:
        raise ValueError(f"a cell table needs one row per corner, 2^{dim} = "
                         f"{2 ** dim}, got {len(table)}")
    if any(weight not in (1, -1) for row in table for weight in row):
        raise ValueError("cell table weights must be +1 or -1")


def cell_apply(values: np.ndarray, table: list, divisor: float) -> np.ndarray:
    """table (weights +-1) applied to every cell, over divisor: shape
    (rows, *cells) for a node field of shape (n_1, ..., n_dim)."""
    _check_table(table, values.ndim)
    out = np.zeros((len(table[0]),) + tuple(n - 1 for n in values.shape))
    for weights, (_, sl) in zip(table, _corners(values.ndim)):
        for row, weight in zip(out, weights):
            (np.add if weight > 0 else np.subtract)(row, values[sl], out=row)
    out /= divisor
    return out


def cell_adjoint(v: np.ndarray, table: list, divisor: float, scale: float = 1.0) -> np.ndarray:
    """scale times the transpose of `cell_apply`: a node field paired with
    cell values v of shape (rows, *cells)."""
    _check_table(table, v.ndim - 1)
    out = np.zeros(tuple(n + 1 for n in v.shape[1:]))
    scaled = (scale / divisor) * v
    contrib = np.empty(v.shape[1:])
    for weights, (_, sl) in zip(table, _corners(v.ndim - 1)):
        # sum a corner's rows before adding them to its node: any other
        # order moves the rounding, which p < 2 descents are sensitive to
        acc = scaled[0] if weights[0] > 0 else np.negative(scaled[0], out=contrib)
        for row, weight in zip(scaled[1:], weights[1:]):
            acc = (np.add if weight > 0 else np.subtract)(acc, row, out=contrib)
        out[sl] += acc
    return out


def cell_gradients(values: np.ndarray, h: float) -> np.ndarray:
    """G: per-cell gradient vectors, shape (dim, *cells)."""
    return cell_apply(values, *gradient_operator(values.ndim, h))


def cell_gradients_adjoint(g: np.ndarray, h: float, scale: float = 1.0) -> np.ndarray:
    """scale * G^T g: node field paired with cell vectors g of shape (dim, *cells)."""
    return cell_adjoint(g, *gradient_operator(g.shape[0], h), scale)


def cell_means(values: np.ndarray) -> np.ndarray:
    """M: per-cell averages of the 2^dim corner values."""
    return cell_apply(values, *mean_operator(values.ndim))[0]


def cell_means_adjoint(v: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale * M^T v: each cell value spread evenly over its corner nodes."""
    return cell_adjoint(v[None], *mean_operator(v.ndim), scale)


def _assemble(grid: GridDiscretization, counts, scale: float) -> sp.csr_matrix:
    """scale * sum over cells of counts[a][b] at (node of corner a, node of b).

    Corners a and b of every cell sit the flat offset b - a apart, so each
    entry adds into one node-shaped diagonal.  An entry is a small integer,
    the same in every cell, or a cells-shaped array of per-cell
    coefficients (a weighted form).  Integer sums are exact, entries that
    cancel are 0 and dropped, and the scale rounds each entry once; a
    table of all-ones arrays times the integers builds the same matrix
    bit for bit.
    """
    corners = _corners(grid.dim)
    strides = grid.nodes_per_side ** np.arange(grid.dim - 1, -1, -1)
    pairs = [(int(np.dot(np.subtract(b, a), strides)), sb, c)
             for (a, _), row in zip(corners, counts)
             for (b, sb), c in zip(corners, row) if np.any(c)]
    offsets = sorted({offset for offset, _, _ in pairs})
    data = np.zeros((len(offsets),) + grid.shape)  # indexed by column node
    for offset, sb, c in pairs:
        data[(offsets.index(offset),) + sb] += c
    data *= scale
    n = grid.n_nodes
    return sp.dia_matrix((data.reshape(len(offsets), n), offsets), shape=(n, n)).tocsr()


def _gram(grid: GridDiscretization, table: list, divisor: float) -> sp.csr_matrix:
    t = np.array(table)  # [corner, row]
    return _assemble(grid, t @ t.T, grid.cell_volume / divisor ** 2)


def stiffness_matrix(grid: GridDiscretization) -> sp.csr_matrix:
    return _gram(grid, *gradient_operator(grid.dim, grid.h))


def mass_matrix(grid: GridDiscretization) -> sp.csr_matrix:
    return _gram(grid, *mean_operator(grid.dim))


def edge_table(dim: int, weight) -> list:
    """Corner-pair table of sum over the cell's edges (a, b) of
    weight(a, b) (e_a - e_b)(e_a - e_b)^T, for `_assemble`.

    The edges join corners whose parities differ on one axis; weight
    returns an integer or a cells-shaped array per edge.
    """
    bits = [b for b, _ in _corners(dim)]
    table = [[0] * len(bits) for _ in bits]
    for a, b in itertools.combinations(range(len(bits)), 2):
        if sum(x != y for x, y in zip(bits[a], bits[b])) == 1:
            c = weight(a, b)
            table[a][a] = table[a][a] + c
            table[b][b] = table[b][b] + c
            table[a][b] = table[b][a] = -c
    return table


def edge_stiffness_matrix(grid: GridDiscretization) -> sp.csr_matrix:
    """Edge-difference stiffness: int |grad u|^2 by corner quadrature.

    Each cell edge carries its squared difference quotient with weight
    1 / 2^(dim-1), the share of the edge in its cell.  Unlike
    `stiffness_matrix`, whose cell-averaged gradients annihilate
    checkerboard modes, this form's kernel is constants only, so pinning
    any single node makes the free block positive definite.
    """
    scale = grid.cell_volume / (2 ** (grid.dim - 1) * grid.h * grid.h)
    return _assemble(grid, edge_table(grid.dim, lambda a, b: 1), scale)


def node_weights(grid: GridDiscretization) -> np.ndarray:
    """Trapezoid quadrature weight per node, shaped like the grid: the
    node's share of its cells' corners, a product of 1-d shares M^T 1."""
    w = cell_means_adjoint(np.ones(grid.nodes_per_side - 1))
    return functools.reduce(np.multiply.outer, [w] * grid.dim)


def node_mass_matrix(grid: GridDiscretization) -> sp.csr_matrix:
    """Diagonal mass: int u^2 by trapezoid quadrature at the nodes."""
    corners = 2 ** grid.dim
    return _assemble(grid, np.eye(corners), grid.cell_volume / corners)


class PinnedFactor:
    """LU factor of a matrix's free block, the pinned entries held at 0.

    pinned is the grid-shaped mask of held nodes.  One factorization
    serves any number of `solve` calls: linear solves, warm starts and a
    descent's inverse-Hessian guess, which is a p = 2 block or, for a
    p < 2 capacity, the frozen-weight block at the warm start.  Every
    block factored here is symmetric, so the columns are ordered by
    minimum degree on A^T + A, which on 2-d grids leaves about 40% less
    fill than the default COLAMD and halves each back-substitution.
    """

    def __init__(self, matrix: sp.spmatrix, pinned: np.ndarray):
        self._free = ~pinned.ravel()
        csr = matrix.tocsr()
        self._lu = spla.splu(csr[self._free][:, self._free].tocsc(),
                             permc_spec="MMD_AT_PLUS_A")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The free block's inverse applied to rhs's free entries, shaped
        like rhs and exactly 0 at pins.

        rhs holds n_nodes * k values in node-major order: a node field, a
        (*grid.shape, k) stack, a flat vector or an (n, k) block.  The
        solution is scattered column-major, so each of its k fields is
        contiguous.
        """
        columns = rhs.reshape(len(self._free), -1)
        x = self._lu.solve(columns[self._free])
        # allocated once the solve has returned and freed its copy of the
        # free right-hand sides; allocating it first keeps both alive and
        # raises the crack ladder's peak RSS
        u = np.zeros(columns.shape, order="F")
        u[self._free] = x
        return u.reshape(rhs.shape)


def solve_pinned(
    matrix: sp.spmatrix,
    rhs: np.ndarray,
    pinned: np.ndarray,
    *,
    grad_tolerance: float = 1e-10,
    prefer_direct: bool | None = None,
) -> tuple[np.ndarray, int]:
    """Solve matrix @ u = rhs on free entries with pinned entries held at 0.

    pinned is the grid-shaped mask of held nodes, and rhs holds k
    right-hand sides in node-major order, which share one factorization:
    a node field, a (*grid.shape, k) stack, a flat vector or an (n, k)
    block.  Returns the full solution, shaped like rhs, and the
    iteration count summed over the columns (0 for a direct
    factorization).  Direct solves (`PinnedFactor`) are used by default
    up to 80 000 free nodes.  Above that, the free nodes of a parity class
    whose block is diagonal (`_diagonal_class`) are eliminated exactly,
    and a preconditioned conjugate gradient loop on the Schur complement
    of the rest is tightened, column by column, until its max-norm
    residual, which is the free residual on the kept nodes, meets the
    tolerance.  In 2-d the stiffness block drops its odd-j nodes and the
    edge-stiffness-plus-mass block its odd-(i+j) nodes; the kept nodes
    fall into lattices that the Schur complement does not couple
    (`_lattices`), and each lattice's block is solved in turn with a
    Galerkin V-cycle as preconditioner (433^2 crack: 415 Jacobi
    iterations -> 18, 9 per lattice).  3-d blocks have no lattice, and
    CG runs Jacobi-preconditioned there.
    """
    free = ~pinned.ravel()
    direct = prefer_direct
    if direct is None:
        direct = free.sum() <= 80_000
    if direct:
        return PinnedFactor(matrix, pinned).solve(rhs), 0
    return _reduced_cg(matrix.tocsr(), rhs, pinned, grad_tolerance)


def _links(csr: sp.csr_matrix) -> sp.csr_matrix:
    """csr's sparsity pattern as 0/1 weights, sharing its index arrays."""
    return sp.csr_matrix(((csr.data != 0).astype(float), csr.indices, csr.indptr),
                         shape=csr.shape)


def _diagonal_class(csr: sp.csr_matrix, pinned: np.ndarray
                    ) -> tuple[tuple[int, ...] | None, np.ndarray]:
    """(b, mask): the first nonzero b in {0,1}^dim whose free-by-free block
    of nodes with b . index odd has no nonzero off-diagonal entry, and the
    flat mask of those free nodes; (None, all False) when no b qualifies.
    """
    free = ~pinned.ravel()
    links = _links(csr)
    self_links = links.diagonal()
    index = np.indices(pinned.shape)
    for bits, _ in _corners(pinned.ndim)[1:]:  # every corner but the origin
        cls = (np.tensordot(bits, index, axes=1) % 2 == 1).ravel() & free
        weight = cls.astype(float)
        if not (links @ weight - self_links * weight)[cls].any():
            return bits, cls
    return None, np.zeros_like(free)


def _lattices(csr: sp.csr_matrix, pinned: np.ndarray, bits, keep: np.ndarray) -> list:
    """The kept free nodes as lattices their Schur complement leaves
    uncoupled: (positions among the kept nodes, slots) per lattice.

    In 2-d, eliminating odd j (the stiffness K) leaves two lattices, split
    by the parity of i, with node (i, j) at slot (i // 2, j // 2).
    Eliminating odd i + j (the capacity block) leaves one rotated lattice,
    with (i, j) at slot ((i + j) / 2, (i - j + n - 1) / 2).  Either way the
    Schur block is a 9-point stencil on its slots.  With no lattice map
    (3-d, no eliminated class, or a matrix whose rows reach both lattices)
    all kept nodes form one lattice whose slots are None.
    """
    nodes = np.flatnonzero(keep)
    whole = [(slice(None), None)]
    if bits is None or pinned.ndim != 2 or not len(nodes):
        return whole
    i, j = np.unravel_index(nodes, pinned.shape)
    if all(bits):
        slots = np.stack([(i + j) // 2, (i - j + pinned.shape[1] - 1) // 2], axis=1)
        return [(slice(None), slots.astype(np.int32))]
    label = (j if bits[0] else i) % 2
    # a free row that reaches both lattices, directly or through an
    # eliminated node, would couple their Schur blocks
    links = _links(csr)
    reach = [links @ np.bincount(nodes[label == side], minlength=csr.shape[0])
             for side in (0, 1)]
    if (~pinned.ravel() & (reach[0] > 0) & (reach[1] > 0)).any():
        return whole
    slots = np.stack([i // 2, j // 2], axis=1).astype(np.int32)
    return [(np.flatnonzero(label == side), slots[label == side])
            for side in (0, 1) if (label == side).any()]


def _scaled_coupling(csr: sp.csr_matrix, elim: np.ndarray, keep: np.ndarray
                     ) -> tuple[sp.csr_matrix, np.ndarray]:
    """W = D_F^(-1/2) A_FC, eliminated rows by kept columns, and D_F^(-1/2)."""
    scale = 1.0 / np.sqrt(csr.diagonal()[elim])
    w = csr[elim][:, keep]
    w.data *= np.repeat(scale, np.diff(w.indptr))
    return w, scale


def _reduced_cg(csr: sp.csr_matrix, rhs: np.ndarray, pinned: np.ndarray,
                grad_tolerance: float) -> tuple[np.ndarray, int]:
    """Preconditioned CG on the Schur complement left by `_diagonal_class`,
    one lattice (`_lattices`) at a time; the solution is shaped like rhs
    and 0 at the pins.

    With F the eliminated nodes, C the other free ones and W the scaled
    coupling D_F^(-1/2) A_FC, the Schur complement is A_CC - W^T W, its
    right-hand side b_C - W^T D_F^(-1/2) b_F, and x_F follows from
    D_F^(-1/2) (D_F^(-1/2) b_F - W x_C).  Each lattice's block and
    preconditioner serve every column and are freed before the next
    lattice's.  W goes once the last block is built and is sliced again
    for x_F, so the 2-d hierarchies fit under the memory that building
    the Schur block already takes.
    """
    free = ~pinned.ravel()
    bits, elim = _diagonal_class(csr, pinned)
    keep = free & ~elim
    columns = rhs.reshape(len(free), -1)
    w, scale = _scaled_coupling(csr, elim, keep)
    # the Schur right-hand sides, overwritten lattice by lattice by x_C
    x_keep = np.empty((int(keep.sum()), columns.shape[1]))
    for j in range(columns.shape[1]):
        x_keep[:, j] = columns[keep, j] - w.T @ (scale * columns[elim, j])
    del scale
    lattices = _lattices(csr, pinned, bits, keep)
    whole = len(lattices) == 1
    iterations = 0
    while lattices:
        positions, slots = lattices.pop(0)
        w_l = w if whole else w[:, positions]
        schur = w_l.T.tocsr() @ w_l
        del w_l
        if not lattices:
            del w
        # -W^T W + A_CC, in this order: the sum lists each row's entries in
        # its first operand's order, and CG's products add them in it
        schur.data *= -1.0
        nodes = np.flatnonzero(keep)[positions]
        schur = schur + csr[nodes][:, nodes]
        precond = _preconditioner(schur, slots)
        for j in range(columns.shape[1]):
            x_keep[positions, j], count = _pinned_cg(
                schur, x_keep[positions, j], precond, grad_tolerance)
            iterations += count
        del schur, precond
    w, scale = _scaled_coupling(csr, elim, keep)
    u = np.zeros(columns.shape, order="F")
    u[keep] = x_keep
    for j in range(columns.shape[1]):
        b_elim = scale * columns[elim, j]
        u[elim, j] = scale * (b_elim - w @ x_keep[:, j])
    return u.reshape(rhs.shape), iterations


# the lattice V-cycle (Trottenberg, Oosterlee & Schueller, Multigrid, 2001):
# an LU at or below _COARSE_SIZE unknowns, and one weighted Jacobi sweep
# at _SMOOTH_WEIGHT before each coarse correction and one after.  The
# cycle is symmetric, as CG needs: with two sweeps after, the 433^2 crack
# took 16 iterations in place of 18, but its compliance moved 4e-8 from
# the LU value, against 1e-12 here and with Jacobi.
_COARSE_SIZE = 2000
_SMOOTH_WEIGHT = 0.7


def _preconditioner(a: sp.csr_matrix, slots: np.ndarray | None) -> spla.LinearOperator:
    """PCG's M for a lattice's Schur block a: a Galerkin V-cycle on the
    lattice's slots, or, with no lattice (slots None), Jacobi.

    Each level keeps (A, omega / diag A, R = P^T), the next matrix being
    R A P with `_prolongation`'s bilinear P, until at most _COARSE_SIZE
    unknowns are left for the LU.  Without slots there are no levels and
    the diagonal stands in for the coarsest solve.
    """
    shape = a.shape
    levels = []
    while slots is not None and a.shape[0] > _COARSE_SIZE:
        p, slots = _prolongation(slots)
        if p.shape[1] >= a.shape[0]:
            break
        # P goes before the product R (A P), the peak of the build
        r = p.T.tocsr()
        ap = a @ p
        del p
        levels.append((a, _SMOOTH_WEIGHT / a.diagonal(), r))
        a = r @ ap
        del ap
    if slots is None:
        diag = a.diagonal()
        coarse = lambda v: v / diag  # noqa: E731
    else:
        coarse = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    return spla.LinearOperator(shape, matvec=_VCycle(levels, coarse), dtype=float)


def _prolongation(slots: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """Bilinear interpolation from the coarse slots s at 2 s, one row per
    fine slot (rows, 2), and the coarse slots of its columns; a coarse slot
    that no row reads gets no column.

    A slot reads the coarse slots around it, 2^(number of odd coordinates)
    of them, each with the weight 1 / that count.
    """
    low, odd = slots >> 1, slots & 1
    width = int(low[:, 1].max()) + 2
    count = 1 << odd.sum(axis=1)
    indptr = np.zeros(len(slots) + 1, dtype=np.int64)
    np.cumsum(count, out=indptr[1:])
    key = np.empty(indptr[-1], dtype=np.int64)
    for d0, d1 in itertools.product((0, 1), repeat=2):
        row = np.flatnonzero((odd[:, 0] >= d0) & (odd[:, 1] >= d1))
        # row entries run over (d0, d1) in lexicographic order
        key[indptr[row] + d0 * (odd[row, 1] + 1) + d1] = (
            (low[row, 0] + d0) * width + low[row, 1] + d1)
    used = np.zeros(int(key.max()) + 1, dtype=bool)
    used[key] = True
    column = np.cumsum(used) - 1
    p = sp.csr_matrix((np.repeat(1.0 / count, count), column[key], indptr),
                      shape=(len(slots), int(column[-1]) + 1))
    coarse = np.stack(np.divmod(np.flatnonzero(used), width), axis=1)
    return p, coarse.astype(np.int32)


class _VCycle:
    """One V(1,1)-cycle from a zero guess over (A, omega / diag A,
    R = P^T) levels, finest first, ending in the coarse solve."""

    def __init__(self, levels: list, coarse):
        self.levels, self.coarse = levels, coarse

    def __call__(self, b: np.ndarray) -> np.ndarray:
        down = []
        for a, smooth, r in self.levels:
            x = smooth * b  # one sweep from zero
            down.append((b, x))
            residual = a @ x
            np.subtract(b, residual, out=residual)
            b = r @ residual
        e = self.coarse(b)
        for (a, smooth, r), (b, x) in zip(reversed(self.levels), reversed(down)):
            x += r.T @ e
            step = a @ x
            np.subtract(b, step, out=step)
            step *= smooth
            x += step
            e = x
        return e


def _pinned_cg(a_ff, b: np.ndarray, precond, grad_tolerance: float) -> tuple[np.ndarray, int]:
    x = np.zeros(len(b))
    iterations = 0
    atol = max(0.3 * grad_tolerance, 1e-14 * float(np.linalg.norm(b)))
    for _ in range(4):
        counter = _IterationCounter()
        x, info = spla.cg(a_ff, b, x0=x, rtol=0.0, atol=atol, maxiter=20 * len(b), M=precond, callback=counter)
        iterations += counter.count
        residual = np.abs(b - a_ff @ x).max(initial=0.0)
        if residual <= grad_tolerance or info != 0:
            break
        atol *= 0.05
    return x, iterations


class _IterationCounter:
    def __init__(self):
        self.count = 0

    def __call__(self, _):
        self.count += 1
