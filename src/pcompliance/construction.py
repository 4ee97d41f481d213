"""Crack grids with fixed total length and collapsing dual energy.

The box (-half_width, half_width)^dim is tiled by (2n)^dim congruent
cubes, each carrying one tiny axis-aligned crack through its center; the
total crack length 2^dim * half_width * epsilon does not depend on n.
Each cube gets an independent free-boundary solve with only its crack
pinned, and the per-cube dual fields assemble into one global flux sigma
with -div(sigma) = g away from the cracks.  Its p'-norm is the dual-energy
estimate of the compliance of the whole crack set, and it collapses as n
grows: spreading a fixed length budget over ever finer dust makes the
medium arbitrarily soft, which is the mechanism this module measures.
It is not a certified bound until ROADMAP item 1 lands: the stitched
midpoint flux is not exactly equilibrated, and midpoint quadrature does
not bound the continuum integral of its norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import (ScalingFit, centered_segment, check_resolution,
                       scaling_fit, segment_capacity)
from .errors import ResolutionTooCoarse
from .geometry import (CrackSet, GridDiscretization, ProblemSpec, axis_segment,
                       rasterize)
from .solver import (ComplianceReport, SolverConfig, cell_means,
                     divergence_residual, flux, solve_batch, solve_cracks)
from .sources import Constant, sample_on_grid


@dataclass(frozen=True)
class ConstructionParams:
    """Crack-grid layout: refinement index n and relative length epsilon."""

    n: int
    epsilon: float
    half_width: float = 1.0
    dim: int = 2
    p: float = 2.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.p <= 1:
            raise ValueError("p must exceed 1")

    @property
    def cube_side(self) -> float:
        return self.half_width / self.n

    @property
    def crack_length(self) -> float:
        """Length of one crack: epsilon * half_width / n^dim."""
        return self.epsilon * self.half_width / self.n ** self.dim

    @property
    def relative_crack_length(self) -> float:
        """Crack length over cube side: epsilon / n^(dim-1)."""
        return self.epsilon / self.n ** (self.dim - 1)

    @property
    def cube_count(self) -> int:
        return (2 * self.n) ** self.dim

    @property
    def total_crack_length(self) -> float:
        return 2 ** self.dim * self.half_width * self.epsilon

    def cube_centers(self) -> np.ndarray:
        """(cube_count, dim) centers, row-major over the index lattice."""
        side = self.cube_side
        per_axis = np.arange(-self.n, self.n) * side + side / 2.0
        mesh = np.meshgrid(*([per_axis] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def crack_grid_construction(params: ConstructionParams) -> CrackSet:
    """One centered crack per cube, along axis 0."""
    length = params.crack_length
    segments = []
    for center in params.cube_centers():
        start = np.array(center, dtype=float)
        start[0] -= length / 2.0
        segments.append(axis_segment(tuple(start), 0, length))
    return CrackSet(tuple(segments))


# a cube's crack must span at least this many cells of the cube grid
CRACK_SPAN_CELLS = 2.0


def required_local_nodes(params: ConstructionParams, floor: int = 33) -> int:
    """Nodes per cube side so the crack spans >= CRACK_SPAN_CELLS cells.

    Rounded up to an even cell count so the cube center is a node.
    """
    cells = math.ceil(CRACK_SPAN_CELLS * params.n ** (params.dim - 1)
                      / params.epsilon - 1e-12)
    cells = max(cells, floor - 1)
    if cells % 2:
        cells += 1
    return cells + 1


@dataclass(frozen=True)
class LocalSolveResult:
    grid: GridDiscretization
    u: np.ndarray
    report: ComplianceReport
    source_dual_pnorm: float  # int |g_bar|^p' over the cube, g_bar cell means


def local_solve(params: ConstructionParams, g,
                config: Optional[SolverConfig] = None,
                local_nodes: Optional[int] = None) -> list[LocalSolveResult]:
    """Free-boundary solves on all (2n)^dim cubes, each with only its crack
    pinned, in fixed row-major cube order.

    Each result holds the minimizer of (1/p) int |grad w|^p - int g w on
    its cube; the report's flux_pnorm is the cube's contribution to the
    global dual energy.  The cubes are translates of one grid and their
    centered cracks rasterize alike node for node, so the first cube's
    grid and mask serve them all: one rasterization, one assembly and one
    factorization (or one V-cycle, `quadratics.solve_pinned`) per rung.
    Each source is sampled on its own cube.
    """
    if local_nodes is None:
        local_nodes = required_local_nodes(params)
    grids = [GridDiscretization(local_nodes, params.cube_side / 2.0, params.dim,
                                tuple(float(c) for c in center))
             for center in params.cube_centers()]
    grid = grids[0]
    span = params.crack_length / grid.h
    if span < CRACK_SPAN_CELLS * (1.0 - 1e-9):
        raise ResolutionTooCoarse(
            f"crack spans {span:.2f} cells at {local_nodes} nodes per cube "
            f"side (n = {params.n}); need >= {CRACK_SPAN_CELLS:g}")
    crack = centered_segment(params.crack_length, grid)
    mask = rasterize(CrackSet.of(crack), grid, include_boundary=False)
    sources = [sample_on_grid(g, cube) for cube in grids]
    solved = solve_batch(sources, mask, params.p, config,
                         crack_length=params.crack_length,
                         require_boundary=False)
    q = params.p / (params.p - 1.0)
    return [LocalSolveResult(
                grid=cube, u=u, report=report,
                source_dual_pnorm=cube.cell_volume * float(
                    np.sum(np.abs(cell_means(source)) ** q)))
            for cube, source, (u, report) in zip(grids, sources, solved)]


def assemble_flux(results: Sequence[LocalSolveResult], params: ConstructionParams,
                  ) -> tuple[np.ndarray, GridDiscretization]:
    """Stitch per-cube dual fields into one global cell flux.

    Local grids tile the global box exactly, so blocks are written without
    interpolation; the global p'-norm then equals the sum of the local
    gradient p-norms identically.
    """
    if len(results) != params.cube_count:
        raise ValueError(f"expected {params.cube_count} local solves, got {len(results)}")
    cells_per_cube = results[0].grid.nodes_per_side - 1
    side_cubes = 2 * params.n
    global_cells = side_cubes * cells_per_cube
    global_grid = GridDiscretization(global_cells + 1, params.half_width, params.dim)
    sigma = np.zeros((params.dim,) + (global_cells,) * params.dim)
    for index, result in enumerate(results):
        local_sigma = flux(result.u, result.grid, params.p)
        block = np.unravel_index(index, (side_cubes,) * params.dim)
        slices = tuple(slice(b * cells_per_cube, (b + 1) * cells_per_cube)
                       for b in block)
        sigma[(slice(None),) + slices] = local_sigma
    return sigma, global_grid


@dataclass(frozen=True)
class VanishingRow:
    n: int
    local_nodes: int
    crack_length: float
    flux_pnorm: float
    capacity: float
    bound_rhs: float
    penalized_value: float
    congruence_spread: float
    divergence_max_relative: float


@dataclass(frozen=True)
class VanishingSequenceReport:
    """Per-n decay records with the frozen multiplicative headroom.

    tilde_c is calibrated so the capacity bound is tight at the first n
    and then frozen; every later row must stay under bound_rhs times
    bound_safety.
    """

    p: float
    dim: int
    epsilon: float
    half_width: float
    length_penalty: float
    bound_safety: float
    tilde_c: float
    rows: tuple[VanishingRow, ...]
    decay: Optional[ScalingFit]
    aborted_at: Optional[int] = None

    @property
    def bound_satisfied(self) -> bool:
        return all(r.flux_pnorm <= r.bound_rhs * self.bound_safety + 1e-15
                   for r in self.rows)


def vanishing_sequence_experiment(
        n_list: Sequence[int], epsilon: float, p: float, g=None,
        length_penalty: float = 1.0, dim: int = 2, half_width: float = 1.0,
        config: Optional[SolverConfig] = None,
        local_nodes: Optional[int] = None, capacity_resolution: int = 4,
        bound_safety: float = 1.5, divergence_samples: int = 0,
        seed: int = 0) -> VanishingSequenceReport:
    """Run the crack-grid pipeline over an increasing ladder of n.

    Emits one row per n; a ResolutionTooCoarse at some n aborts that and
    all later n, reporting the rows already computed.  A capacity
    resolution that is not a positive even cell count raises ValueError
    before any solve.
    """
    ns = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    check_resolution(capacity_resolution, "capacity_resolution")
    if g is None:
        g = Constant(1.0)
    q = p / (p - 1.0)

    rows: list[VanishingRow] = []
    tilde_c: Optional[float] = None
    aborted_at: Optional[int] = None
    for n in ns:
        params = ConstructionParams(n=n, epsilon=epsilon,
                                    half_width=half_width, dim=dim, p=p)
        try:
            locals_ = local_solve(params, g, config, local_nodes)
        except ResolutionTooCoarse:
            aborted_at = n
            break
        energies = np.array([r.report.flux_pnorm for r in locals_])
        flux_total = float(energies.sum())
        top = float(energies.max())
        spread = 0.0 if top == 0.0 else float((top - energies.min()) / top)

        # the cube grids tile the box, so their sums are the global integral
        dual_norm = sum(r.source_dual_pnorm for r in locals_)
        cap = segment_capacity(params.relative_crack_length, p, dim,
                               resolution=capacity_resolution, config=config)
        if tilde_c is None:
            denominator = cap.value ** (1.0 - q) * dual_norm
            tilde_c = (flux_total * n ** q / denominator
                       if denominator > 0 and flux_total > 0 else 1.0)
        bound_rhs = (tilde_c / n ** q) * cap.value ** (1.0 - q) * dual_norm

        div_rel = float("nan")
        if divergence_samples > 0:
            sigma, global_grid = assemble_flux(locals_, params)
            cracks = crack_grid_construction(params)
            g_global = sample_on_grid(g, global_grid)
            check = divergence_residual(
                sigma, g_global, global_grid, cracks,
                np.random.default_rng(seed), samples=divergence_samples)
            div_rel = check.max_relative

        rows.append(VanishingRow(
            n=n, local_nodes=locals_[0].grid.nodes_per_side,
            crack_length=params.total_crack_length,
            flux_pnorm=flux_total,
            capacity=cap.value,
            bound_rhs=bound_rhs,
            penalized_value=flux_total / q + length_penalty * params.total_crack_length,
            congruence_spread=spread,
            divergence_max_relative=div_rel))

    decay = None
    if len(rows) >= 3 and all(r.flux_pnorm > 0 for r in rows):
        decay = scaling_fit([r.n for r in rows], [r.flux_pnorm for r in rows])
    return VanishingSequenceReport(
        p=p, dim=dim, epsilon=epsilon, half_width=half_width,
        length_penalty=length_penalty, bound_safety=bound_safety,
        tilde_c=tilde_c if tilde_c is not None else float("nan"),
        rows=tuple(rows), decay=decay, aborted_at=aborted_at)


def connected_baseline(epsilon: float, p: float, g=None,
                       length_penalty: float = 1.0, dim: int = 2,
                       half_width: float = 1.0, nodes_per_side: int = 257,
                       config: Optional[SolverConfig] = None) -> ComplianceReport:
    """One connected centered segment with the same total length budget.

    Solved as a full Dirichlet problem on the box, so its penalized
    objective is directly comparable with the crack-grid rows: primal
    compliance on one side, the dual-energy estimate (not yet a certified
    bound, see ROADMAP item 1) on the other, both plus length penalty.
    """
    length = 2 ** dim * half_width * epsilon
    if length >= 2 * half_width:
        raise ValueError("the connected segment must fit inside the box")
    if g is None:
        g = Constant(1.0)
    segment = axis_segment((-length / 2.0,) + (0.0,) * (dim - 1), 0, length)
    _, report, _ = solve_cracks(ProblemSpec(p, dim, half_width, length_penalty),
                                CrackSet.of(segment), g, nodes_per_side, config)
    return report
