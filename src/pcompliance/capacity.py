"""Variational capacity of small sets by direct energy minimization.

The capacity of a target E inside a box is estimated as

    inf { int |grad u|^p + int |u|^p :  u = 1 at every node within h/2 of E }

with a free boundary on a box comfortably larger than E (no 1/p factors).
Node pinning realizes "1 on a neighborhood of E" by an admissible
competitor, so every reported value is a true upper bound for that
neighborhood relaxation; h-convergence is checked empirically.  Reported
values are always the unregularized objective at the computed field, which
keeps the upper-bound property independent of solver smoothing.

Quadrature differs from the energy solver on purpose.  Cell-averaged
gradients annihilate checkerboard node patterns, and a capacity target
pins so few nodes that such a pattern can match the pin values with zero
energy, collapsing the infimum.  Evaluating the multilinear interpolant's
gradient at every cell corner (and |u|^p at the nodes, trapezoid weights)
leaves constants as the only zero-energy fields, which any pin removes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import descent, quadratics
from .errors import DegenerateTarget, NonConvergence
from .geometry import (CrackSet, GridDiscretization, Segment, axis_segment,
                       rasterize)
from .quadratics import _corners
from .solver import SolverConfig, density_weights, p_density, solve_method


@dataclass(frozen=True)
class CapacityResult:
    value: float
    box_half_width: float
    grid_h: float
    p: float
    nodes_per_side: int
    pinned_nodes: int
    iterations: int
    residual: float


def target_pins(target, grid: GridDiscretization) -> np.ndarray:
    """Boolean node mask for a CrackSet, Segment, or point target.

    Segments pin the nodes `rasterize` pins, those within h/2; a bare
    point pins its nearest node, so point targets never degenerate.
    """
    if isinstance(target, Segment):
        target = CrackSet.of(target)
    if isinstance(target, CrackSet):
        return rasterize(target, grid, include_boundary=False).pinned
    point = np.asarray(target, dtype=float)
    if point.shape != (grid.dim,):
        raise ValueError(f"target must be a CrackSet, Segment, or point of dim {grid.dim}")
    offsets = grid.node_coordinates() - point
    dist_sq = (offsets * offsets).sum(axis=-1)
    pinned = np.zeros(grid.shape, dtype=bool)
    pinned[np.unravel_index(np.argmin(dist_sq), grid.shape)] = True
    return pinned


def _corner_gradient_squares(u: np.ndarray, grid: GridDiscretization,
                             eps: float) -> tuple[list, list]:
    """|grad u|^2 of the multilinear interpolant at each cell corner.

    Returns per-corner squared gradients and the per-axis edge differences
    they were built from (needed again for the chain rule).
    """
    diffs = [np.diff(u, axis=k) / grid.h for k in range(grid.dim)]
    edge_squares = [d * d for d in diffs]
    squares = []
    for _, node_slc in _corners(grid.dim):
        s = edge_squares[0][_edge_slice(node_slc, 0)] + eps * eps
        for k, d2 in enumerate(edge_squares[1:], start=1):
            s += d2[_edge_slice(node_slc, k)]
        squares.append(s)
    return squares, diffs


def _edge_slice(node_slc: tuple, axis: int) -> tuple:
    """The axis-`axis` edges of every cell at the corner `node_slc` picks."""
    return node_slc[:axis] + (slice(None),) + node_slc[axis + 1:]


def _capacity_gradient(u: np.ndarray, grid: GridDiscretization, pinned: np.ndarray,
                       p: float, eps: float,
                       w_node: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Capacity objective and its projected node gradient.

    Per axis, the corner weights of the p-density gather onto the edges
    they were measured on; the gradient term is then the transposed edge
    difference of weight times difference.  w_node is
    `quadratics.node_weights(grid)`, which a descent computes once.
    """
    dim = grid.dim
    vol = grid.cell_volume
    squares, diffs = _corner_gradient_squares(u, grid, eps)
    totals, weights = zip(*(p_density(s, p) for s in squares))
    if w_node is None:
        w_node = quadratics.node_weights(grid)
    m = u * u + eps * eps
    value = vol * (sum(totals) / 2 ** dim + float(np.sum(w_node * m ** (p / 2.0))))
    grad = vol * p * w_node * density_weights(m, p) * u
    scale = vol * p / (2 ** dim * grid.h)
    for k, d in enumerate(diffs):
        edge_w = np.zeros_like(d)
        for (_, node_slc), w in zip(_corners(dim), weights):
            edge_w[_edge_slice(node_slc, k)] += w
        edge_w *= d
        edge_w *= scale
        # transposed difference along axis k: + at the high end, - at the low
        high = [slice(None)] * dim
        low = [slice(None)] * dim
        high[k] = slice(1, None)
        low[k] = slice(None, -1)
        grad[tuple(high)] += edge_w
        grad[tuple(low)] -= edge_w
    grad[pinned] = 0.0
    return value, grad


def _frozen_weight_matrix(u: np.ndarray, grid: GridDiscretization, p: float,
                          eps: float) -> sp.csr_matrix:
    """The Jacobian of `_capacity_gradient` at u with its p-density
    weights held fixed (the Kacanov matrix): exactly 2(K + M) at p = 2,
    eps = 0.

    Each axis-k cell edge (a, b) carries vol p (w_a + w_b) / (2^dim h^2)
    on its squared difference, w_c the corner weight
    `density_weights(s_c, p)`, and each node vol p w_node
    density_weights(u^2 + eps^2, p), gathered per cell corner.
    """
    squares, _ = _corner_gradient_squares(u, grid, eps)
    weights = [density_weights(s, p) for s in squares]
    del squares
    # in units of the edge scale, which carries 1/h^2
    node = grid.h ** 2 * density_weights(u * u + eps * eps, p)
    table = quadratics.edge_table(grid.dim, lambda a, b: weights[a] + weights[b])
    for a, (_, node_slc) in enumerate(_corners(grid.dim)):
        table[a][a] = table[a][a] + node[node_slc]
    scale = grid.cell_volume * p / (2 ** grid.dim * grid.h ** 2)
    return quadratics._assemble(grid, table, scale)


def variational_capacity(target, p: float, grid: GridDiscretization,
                         config: Optional[SolverConfig] = None) -> CapacityResult:
    """Capacity estimate for a target pinned to 1 inside `grid`'s box.

    Raises DegenerateTarget when a nonempty segment target captures no
    node at this resolution, and NonConvergence when the linear or descent
    solve stops above grad_tolerance, with the last field and a partial
    CapacityResult whose value, the eps = 0 objective at that admissible
    field, is still an upper bound.  The empty set returns exactly 0.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if isinstance(target, CrackSet) and len(target) == 0:
        return CapacityResult(0.0, grid.half_width, grid.h, p,
                              grid.nodes_per_side, 0, 0, 0.0)
    pinned = target_pins(target, grid)
    n_pinned = int(pinned.sum())
    if n_pinned == 0:
        raise DegenerateTarget(
            f"target captures no node at h = {grid.h:.4g}; refine the grid")
    value, u, iterations, residual, reason, failure = _solve(
        grid, pinned, p, config)
    report = CapacityResult(value, grid.half_width, grid.h, p, grid.nodes_per_side,
                            n_pinned, iterations, residual)
    if failure is not None:
        raise NonConvergence(failure, report=report, field=u, reason=reason)
    return report


def _solve(grid: GridDiscretization, pinned: np.ndarray, p: float,
           config: Optional[SolverConfig], gain: Optional[np.ndarray] = None):
    """The capacity solve of `variational_capacity` on a pin mask:
    (value, field, iterations, residual, descent stop reason, failure
    message or None).

    gain, a node field, multiplies the gradient in the reported residual,
    and the solve's tolerance is grad_tolerance over its largest free
    entry, so that residual meets grad_tolerance (`segment_capacity`'s
    mirror part reports the full box's residual this way).
    """
    if config is None:
        config = SolverConfig()
    tolerance = config.grad_tolerance
    if gain is not None:
        tolerance /= float(gain[~pinned].max())

    def residual_of(grad: np.ndarray) -> float:
        return float(np.abs(grad if gain is None else grad * gain).max())

    # the mass term keeps the pinned p = 2 block nonsingular for any pins
    method = solve_method(p, True)
    # the p = 2 minimizer of u^T(K+M)u is the linear path's answer and the
    # descent's warm start: it already carries the right decay profile, so
    # descent only corrects the p-dependent shape
    matrix = (quadratics.edge_stiffness_matrix(grid)
              + quadratics.node_mass_matrix(grid))
    # the unit pins, lifted into the load: with v = 0 at the pins and
    # (K+M)v = load on the free nodes, u = v + pins solves (K+M)u = 0 there
    load = -(matrix @ pinned.ravel().astype(float)).reshape(grid.shape)
    reason = failure = None
    if method == "linear" or p < 2:
        # the nonlinear gradient is twice the row residual, hence the
        # halved tolerance
        u, iterations, _ = quadratics.solve_pinned(
            matrix, load, pinned,
            grad_tolerance=0.5 * tolerance,
            prefer_direct=config.prefer_direct)
        u[pinned] = 1.0
    if method == "linear":
        value, grad = _capacity_gradient(u, grid, pinned, p, 0.0)
        residual = residual_of(grad)
        if residual > config.grad_tolerance:
            failure = (f"linear path residual {residual:.3e} above tolerance "
                       f"{config.grad_tolerance:.3e}")
    else:
        # near-zero far-field gradients blow up the p < 2 weights; 1e-4 caps
        # that stiffness and moves the value by O(eps^p), below grid noise
        eps = config.resolve_eps(p, 1e-4)
        if p < 2:
            # the p-density weights move the Hessian's diagonal far from
            # 2(K+M)'s (2-8 -> 2.5-124 on the 133^2 warm start of a
            # t = 0.08 segment), so H0 is the Hessian with the weights
            # frozen at the warm start: 71-93 L-BFGS iterations on
            # 59^2-133^2 grids -> 19-24
            h0 = quadratics.approximate_inverse(
                _frozen_weight_matrix(u, grid, p, eps), pinned,
                config.prefer_direct)
        else:
            # 2(K+M) is the objective's Hessian at p = 2, SPD on the free
            # nodes for any pinning thanks to the mass term; at p > 2 the
            # frozen weights lose to it (17^3, p = 3: 27 -> 38 iterations,
            # 1.7 times the time), so its approximate inverse gives both
            # the warm start and H0
            h0 = quadratics.approximate_inverse(2.0 * matrix, pinned,
                                                config.prefer_direct)
            u = h0.solve(2.0 * load)
            u[pinned] = 1.0
        w_node = quadratics.node_weights(grid)
        result = descent.minimize(
            lambda x: _capacity_gradient(x, grid, pinned, p, eps, w_node), u,
            grad_tolerance=tolerance,
            max_iterations=config.max_iterations,
            precondition=h0.solve)
        u = result.x
        u[pinned] = 1.0
        iterations, reason = result.iterations, result.reason
        residual = residual_of(result.gradient)
        # a mirror part's descent can stall between its tightened tolerance
        # and the full box's, whose residual it reports: that meets it.  A
        # NaN residual fails
        if not residual <= config.grad_tolerance:
            failure = (f"capacity minimization stopped ({reason}) at residual "
                       f"{residual:.3e} after {iterations} iterations")
        value, _ = _capacity_gradient(u, grid, pinned, p, 0.0, w_node)
    return value, u, iterations, residual, reason, failure


def check_resolution(resolution: int, name: str = "resolution") -> None:
    """Reject a cell count across a segment that is not positive and even.

    An even count puts the segment's midpoint, the box center, on a node.
    """
    if resolution < 1 or resolution % 2:
        raise ValueError(f"{name} must be a positive even cell count, "
                         f"got {resolution}")


def segment_box(t: float, resolution: int, dim: int = 2,
                box_half_width: Optional[float] = None,
                center: Sequence[float] = ()) -> GridDiscretization:
    """Lattice-aligned box around a length-t segment.

    h = t / resolution exactly, so the segment endpoints land on nodes and
    sweeps over t share their relative discretization.  The half-width is
    rounded up to a whole number of cells from the default 4t + 1.
    """
    if t <= 0:
        raise ValueError(f"segment length must be positive, got {t}")
    check_resolution(resolution)
    h = t / resolution
    target = box_half_width if box_half_width is not None else 4.0 * t + 1.0
    half_cells = math.ceil(target / h - 1e-12)
    return GridDiscretization(2 * half_cells + 1, half_cells * h, dim,
                              tuple(center) if center else ())


def centered_segment(t: float, grid: GridDiscretization) -> Segment:
    start = tuple(c - (t / 2.0 if k == 0 else 0.0)
                  for k, c in enumerate(grid.center or (0.0,) * grid.dim))
    return axis_segment(start, 0, t)


def segment_capacity(t: float, p: float, dim: int = 2, resolution: int = 4,
                     box_half_width: Optional[float] = None,
                     center: Sequence[float] = (),
                     config: Optional[SolverConfig] = None) -> CapacityResult:
    """`variational_capacity` of the length-t axis segment centered in
    `segment_box`, solved on one 2^dim-th of that box.

    The segment and the box are mirror-symmetric in every node plane
    through the box center c, and those planes split every cell whole.
    Every term of the capacity (edge stiffness, corner p-density, node
    mass and the frozen-weight block alike) is a sum over cells, so the
    full objective at a symmetric field is 2^dim times that of the part
    grid [c, c + L]^dim, L the half-width, with (n + 1) // 2 nodes per
    side, the same h, and the half segment from c pinned.  The minimizer
    is unique, hence symmetric, and the planes become natural boundaries.
    On a part node with m mirror images the full gradient is 2^dim / m
    times the part gradient, so the part solve runs at grad_tolerance /
    2^(dim-1) and the report, value, grid, pin count and residual alike,
    is the full box's; so is a NonConvergence's field, unfolded by
    reflection.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    box = segment_box(t, resolution, dim, box_half_width, center)
    half = 0.5 * box.half_width
    part = GridDiscretization((box.nodes_per_side + 1) // 2, half, dim,
                              tuple(c + half for c in box.center))
    pinned = target_pins(axis_segment(box.center, 0, 0.5 * t), part)
    # a node off the planes in k axes has 2^k mirror images
    images = functools.reduce(
        np.multiply.outer, [np.minimum(np.arange(part.nodes_per_side), 1) + 1] * dim)
    value, u, iterations, residual, reason, failure = _solve(
        part, pinned, p, config, 2 ** dim / images)
    report = CapacityResult(2 ** dim * value, box.half_width, box.h, p,
                            box.nodes_per_side, int(images[pinned].sum()),
                            iterations, residual)
    if failure is not None:
        unfold = np.abs(np.arange(1 - part.nodes_per_side, part.nodes_per_side))
        raise NonConvergence(failure, report=report, reason=reason,
                             field=u[np.ix_(*[unfold] * dim)])
    return report


def point_capacity(p: float, grid: GridDiscretization,
                   position: Optional[Sequence[float]] = None,
                   config: Optional[SolverConfig] = None) -> CapacityResult:
    where = tuple(position) if position is not None else (grid.center or (0.0,) * grid.dim)
    return variational_capacity(np.asarray(where, dtype=float), p, grid, config)


def capacity_sweep(ts: Sequence[float], p: float, dim: int = 2, resolution: int = 4,
                   box_half_width: Optional[float] = None,
                   config: Optional[SolverConfig] = None,
                   jobs: int = 1) -> tuple[CapacityResult, ...]:
    """Segment capacities over a sweep of lengths t (each must be <= 1)."""
    ts = [float(t) for t in ts]
    for t in ts:
        if not (0 < t <= 1.0):
            raise ValueError(f"sweep lengths must lie in (0, 1], got {t}")
    if jobs > 1:
        # imported here: a serial sweep and every other command would pay
        # for loading multiprocessing (14-16 ms of `python -X importtime`
        # on a 2-core box)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(segment_capacity, t, p, dim, resolution,
                                   box_half_width, (), config) for t in ts]
            return tuple(f.result() for f in futures)
    return tuple(segment_capacity(t, p, dim, resolution, box_half_width, (), config)
                 for t in ts)


@dataclass(frozen=True)
class ScalingFit:
    """Least squares of log(cap) against log(t)."""
    slope: float
    intercept: float
    r_squared: float
    linear_r_squared: float

    def predict(self, ts: np.ndarray) -> np.ndarray:
        return np.exp(self.intercept) * np.asarray(ts) ** self.slope


@dataclass(frozen=True)
class LogarithmicFit:
    """cap = amplitude * (log(scale/t))^(1-p), scale profiled out."""
    amplitude: float
    scale: float
    p: float
    linear_r_squared: float

    def predict(self, ts: np.ndarray) -> np.ndarray:
        return self.amplitude * np.log(self.scale / np.asarray(ts)) ** (1.0 - self.p)


def _check_fit_inputs(ts, caps) -> tuple[np.ndarray, np.ndarray]:
    ts = np.asarray(ts, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if ts.shape != caps.shape or ts.ndim != 1 or len(ts) < 3:
        raise ValueError("need >= 3 paired (t, cap) points")
    if (ts <= 0).any() or (caps <= 0).any():
        raise ValueError("scaling fits require strictly positive data")
    return ts, caps


def _linear_r2(caps: np.ndarray, predicted: np.ndarray) -> float:
    total = float(np.sum((caps - caps.mean()) ** 2))
    resid = float(np.sum((caps - predicted) ** 2))
    if total == 0.0:
        return 1.0 if resid == 0.0 else 0.0
    return 1.0 - resid / total


def scaling_fit(ts: Sequence[float], caps: Sequence[float]) -> ScalingFit:
    ts, caps = _check_fit_inputs(ts, caps)
    x = np.log(ts)
    y = np.log(caps)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ (slope, intercept)
    total = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if total == 0.0 else 1.0 - float(np.sum((y - fitted) ** 2)) / total
    fit = ScalingFit(float(slope), float(intercept), r2, 0.0)
    return ScalingFit(fit.slope, fit.intercept, fit.r_squared,
                      _linear_r2(caps, fit.predict(ts)))


def logarithmic_fit(ts: Sequence[float], caps: Sequence[float], p: float) -> LogarithmicFit:
    """Profile least squares over the inner log scale, amplitude closed form.

    Two free parameters, same as the power law, so linear-space r^2 values
    of the two models are directly comparable.
    """
    # imported here: nothing else needs scipy.optimize, and importing it
    # costs every CLI process about 0.2 s
    from scipy.optimize import minimize_scalar

    ts, caps = _check_fit_inputs(ts, caps)
    if p <= 1:
        raise ValueError("the logarithmic model needs p > 1")
    t_max = float(ts.max())

    def sse_for(log_scale: float) -> tuple[float, float]:
        scale = math.exp(log_scale)
        x = np.log(scale / ts) ** (1.0 - p)
        denom = float(np.dot(x, x))
        amp = float(np.dot(x, caps)) / denom if denom > 0 else 0.0
        return float(np.sum((caps - amp * x) ** 2)), amp

    opt = minimize_scalar(lambda ls: sse_for(ls)[0],
                          bounds=(math.log(t_max * 1.05), math.log(1e4 * t_max)),
                          method="bounded",
                          options={"xatol": 1e-10})
    _, amplitude = sse_for(float(opt.x))
    scale = math.exp(float(opt.x))
    fit = LogarithmicFit(amplitude, scale, p, 0.0)
    return LogarithmicFit(amplitude, scale, p, _linear_r2(caps, fit.predict(ts)))


@dataclass(frozen=True)
class RefinementRecord:
    p: float
    dim: int
    t: float
    coarse: CapacityResult
    fine: CapacityResult

    @property
    def ratio(self) -> float:
        return self.fine.value / self.coarse.value


def refinement_ratio(t: float, p: float, dim: int, box_half_width: float,
                     base_nodes: int,
                     config: Optional[SolverConfig] = None) -> RefinementRecord:
    """Capacity of a centered segment at h and h/2 on one fixed box.

    The fine grid doubles every cell of the coarse one, so the ratio
    isolates the resolution dependence: it stays near 1 where segments
    carry positive capacity and keeps sinking where they are removable.
    """
    coarse_grid = GridDiscretization(base_nodes, box_half_width, dim)
    fine_grid = GridDiscretization(2 * base_nodes - 1, box_half_width, dim)
    seg = centered_segment(t, coarse_grid)
    return RefinementRecord(
        p=p, dim=dim, t=t,
        coarse=variational_capacity(seg, p, coarse_grid, config),
        fine=variational_capacity(seg, p, fine_grid, config))
