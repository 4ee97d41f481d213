"""Discrete p-Dirichlet energy minimization on masked grids.

The energy of a node field u against a source f is

    E(u) = (1/p) int |grad u|^p dx - int f u dx

with gradients constant per cell (forward differences averaged over the
parallel edges of each cell), midpoint quadrature, and pinned nodes held at
exactly zero.  The admissible set is a linear subspace, the energy is
convex for every p > 1, and compliance is -E at the minimizer, which also
equals (1/p') int |grad u|^p and (1/p') int f u there.

For p < 2 the integrand is not C^1 where the gradient vanishes; the solver
minimizes the regularized density ((|grad u|^2 + eps^2)^(p/2))/p and the
report records the eps actually used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
import scipy.sparse as sp

from . import descent, quadratics
from .errors import NonConvergence, UnpinnedMask
from .geometry import (ConstraintMask, CrackSet, GridDiscretization, build_grid,
                       rasterize, total_length)
from .quadratics import (_corners, cell_gradients, cell_gradients_adjoint,
                         cell_means, cell_means_adjoint)
from .sources import sample_on_grid

# Node fields are plain arrays of shape grid.shape; flux fields are arrays
# of shape (dim, *grid.cells_shape), one vector per cell.
GridField = np.ndarray
FluxField = np.ndarray

# node-mass multiple added to the stiffness block behind the descent
# preconditioner when pure-gauge modes make that block singular; iteration
# counts hardly move for any value from 1e-6 to 1e-1
_GAUGE_SHIFT = 1e-3
# smallest test-bump radius in `divergence_residual`, in cells
_MIN_SPAN_CELLS = 3.0


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and regularization knobs shared by every solve.

    grad_tolerance bounds the max-norm of the projected gradient at the
    returned field, and every descent stops on that norm (a capacity
    solved on a mirror part on the full box's gradient); max_iterations
    caps each L-BFGS descent.  Every energy and capacity descent starts
    at its p = 2 solution and stops by one rule, `descend`'s.
    regularization_eps = None picks 0 for p >= 2 and below that each solver's
    default (`resolve_eps`): 1e-8 * max(max|f|, 1) for energies, 1e-4 for
    capacities, 1e-8 for Poincare quotients; an explicit 0 is rejected for
    p < 2.  prefer_direct picks a sparse LU (True) or preconditioned CG
    (False) for the p = 2 linear solves and warm starts, and an LU or a
    lattice V-cycle for every descent H0; None picks by size
    (`quadratics.approximate_inverse` states the rule).  The p = 2
    Poincare eigensolver needs an exact inverse and factors K at every
    size.  The problem picks the path (`solve_method`), and the L-BFGS
    memory and line search are fixed in `descent`.
    """

    grad_tolerance: float = 1e-8
    max_iterations: int = 50_000
    regularization_eps: Optional[float] = None
    prefer_direct: Optional[bool] = None

    def __post_init__(self):
        if not (self.grad_tolerance > 0):
            raise ValueError(f"grad_tolerance must be positive, got {self.grad_tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.regularization_eps is not None and self.regularization_eps < 0:
            raise ValueError("regularization_eps must be >= 0")

    def resolve_eps(self, p: float, default: float) -> float:
        if self.regularization_eps is None:
            return 0.0 if p >= 2 else default
        if self.regularization_eps == 0.0 and p < 2:
            raise ValueError("regularization_eps = 0 is only valid for p >= 2")
        return self.regularization_eps


@dataclass(frozen=True)
class ComplianceReport:
    p: float
    energy: float
    compliance_energy_form: float
    compliance_work_form: float
    flux_pnorm: float
    crack_length: float
    penalized_objective: float
    iterations: int
    residual: float
    regularization_eps: float
    method: str
    evaluations: int = 0


def solve_method(p: float, nonsingular: bool) -> str:
    """The path every solve takes: "linear" exactly when p = 2 and the
    pinned p = 2 block is nonsingular, "descent" otherwise."""
    return "linear" if p == 2.0 and nonsingular else "descent"


def zero_energy_modes(pinned: np.ndarray) -> tuple[bool, bool]:
    """(unbounded, nonsingular): what the stencil's zero-energy modes do
    once the pins hold them at 0.

    The averaged-edge gradient annihilates the constant field and every
    character (-1)^(b.index) whose support touches at least two axes;
    all but the constant have zero cell means.  unbounded: some mode with
    nonzero mean clears the pins, so the source term is unbounded below
    for generic f and free-boundary solves must reject the mask.
    nonsingular: no mode at all survives the pins, so the pinned p = 2
    stiffness block is nonsingular, as the linear paths require.
    """
    pins = np.argwhere(pinned)
    if len(pins) == 0:
        return True, False
    # one column per character at the pins, the constant (bits 0) first
    chars = np.column_stack([(-1.0) ** (pins @ np.asarray(bits))
                             for bits, _ in _corners(pinned.ndim) if sum(bits) != 1])
    modes = chars[:, 1:]
    coeff, *_ = np.linalg.lstsq(modes, -chars[:, 0], rcond=None)
    unbounded = bool(np.abs(modes @ coeff + 1.0).max() < 1e-9)
    nonsingular = int(np.linalg.matrix_rank(chars, tol=1e-9)) == chars.shape[1]
    return unbounded, nonsingular


def density_weights(s: np.ndarray, p: float) -> np.ndarray:
    """(s)^((p-2)/2), the weight of the p-density on |grad u|^2 = s, with
    the continuous extension 0 at s = 0 for p < 2.

    Below p = 2 a positive s, which eps > 0 always gives, takes the power
    in one pass; s holding a 0 or a NaN takes the guarded formula, whose
    weight is 0 there and which equals the power bit for bit elsewhere.
    """
    if p == 2.0:
        return np.ones_like(s)
    if p > 2.0 or s.min(initial=np.inf) > 0.0:
        return s ** ((p - 2.0) / 2.0)
    return np.where(s > 0.0, s, 1.0) ** ((p - 2.0) / 2.0) * (s > 0.0)


def p_density(s: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """sum(s^(p/2)) over squares s = |v|^2 (+ eps^2) and the weights
    w = `density_weights(s, p)`: w * v is the gradient of sum(s^(p/2))/p."""
    return float(np.sum(s ** (p / 2.0))), density_weights(s, p)


def energy(u: GridField, f: np.ndarray, grid: GridDiscretization, p: float,
           eps: float = 0.0) -> float:
    if u.shape != grid.shape or f.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} / {f.shape} does not match grid {grid.shape}")
    g = cell_gradients(u, grid.h)
    s = (g * g).sum(axis=0) + eps * eps
    dirichlet = float(np.sum(s ** (p / 2.0))) / p
    work = float(np.dot(cell_means(f).ravel(), cell_means(u).ravel()))
    return grid.cell_volume * (dirichlet - work)


def energy_and_gradient(u: GridField, b: np.ndarray, grid: GridDiscretization,
                        pinned: np.ndarray, p: float, eps: float) -> tuple[float, np.ndarray]:
    """Energy value and its projected node gradient, one fused pass.

    b is the node load vol * M^T M f of the source, so the value is
    vol * sum(s^(p/2))/p - <b, u> and the gradient vol * G^T(w G u) - b,
    w the weights of the p-density, exact for the discrete energy;
    entries at pinned nodes are forced to 0.
    """
    g = cell_gradients(u, grid.h)
    total, w = p_density((g * g).sum(axis=0) + eps * eps, p)
    vol = grid.cell_volume
    value = vol * total / p - float(np.dot(b.ravel(), u.ravel()))
    grad = cell_gradients_adjoint(w * g, grid.h, scale=vol)
    grad -= b
    grad[pinned] = 0.0
    return value, grad


def energy_gradient(u: GridField, f: np.ndarray, mask: ConstraintMask, p: float,
                    eps: float = 0.0) -> GridField:
    grid = mask.grid
    b = cell_means_adjoint(cell_means(f), grid.cell_volume)
    _, grad = energy_and_gradient(u, b, grid, mask.pinned, p, eps)
    return grad


def gradient_pnorm(u: GridField, grid: GridDiscretization, p: float) -> float:
    """int |grad u|^p by midpoint quadrature."""
    g = cell_gradients(u, grid.h)
    return grid.cell_volume * p_density((g * g).sum(axis=0), p)[0]


def flux(u: GridField, grid: GridDiscretization, p: float, eps: float = 0.0) -> FluxField:
    """Per-cell dual field |grad u|^(p-2) grad u (eps-regularized)."""
    g = cell_gradients(u, grid.h)
    return p_density((g * g).sum(axis=0) + eps * eps, p)[1] * g


def flux_pnorm(sigma: FluxField, grid: GridDiscretization, p: float) -> float:
    """int |sigma|^p' by midpoint quadrature, p' the dual exponent."""
    return grid.cell_volume * p_density((sigma * sigma).sum(axis=0), p / (p - 1.0))[0]


def solve(f: np.ndarray, mask: ConstraintMask, p: float,
          config: Optional[SolverConfig] = None, *, crack_length: float = 0.0,
          length_penalty: float = 0.0, require_boundary: bool = True,
          ) -> tuple[GridField, ComplianceReport]:
    """Minimize the energy over fields on mask.grid vanishing on the mask.

    Returns the minimizer and a filled ComplianceReport.  Raises
    NonConvergence (with the partial report attached) when the iteration
    budget runs out above tolerance.
    """
    return solve_batch([f], mask, p, config, crack_length=crack_length,
                       length_penalty=length_penalty,
                       require_boundary=require_boundary)[0]


def solve_batch(fs, mask: ConstraintMask, p: float,
                config: Optional[SolverConfig] = None, *, crack_length: float = 0.0,
                length_penalty: float = 0.0, require_boundary: bool = True,
                ) -> list[tuple[GridField, ComplianceReport]]:
    """`solve` for several sources on one mask.

    Each distinct source is solved once: sources with equal values share
    one (field, report) pair, and a shared field is read-only.  The
    distinct sources' node loads go to `descend` as one stack, with the
    energy as objective, K (or its `gauge_shifted` block where K is
    singular) as the p = 2 model and `_frozen_weight_matrix` as the
    Kacanov builder, so its start, H0 and stop rules are the ones every
    energy and capacity solve follows.  The linear path (p = 2 on a
    nonsingular K) solves all distinct sources together, with one
    factorization or one preconditioner, and gives each report its own
    CG iteration count; the descent path minimizes them one after
    another, each from its source's p = 2 solution.
    Returns one (field, report) pair per source, in order, and raises
    NonConvergence for the first source whose solve misses the
    tolerance.  Non-finite source values raise ValueError before any
    work.
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if config is None:
        config = SolverConfig()
    grid = mask.grid
    for index, f in enumerate(fs):
        if f.shape != grid.shape:
            raise ValueError(f"source shape {f.shape} does not match grid {grid.shape}")
        if not np.isfinite(f).all():
            raise ValueError(f"source {index} of the batch holds non-finite values")
    pinned = mask.pinned
    # a pinned outer boundary leaves no zero-energy mode; free-boundary
    # pins can leave pure-gauge modes, which make the pinned stiffness
    # block singular, where splu/CG misbehave and descent is immune
    nonsingular = True
    if require_boundary and not pinned[grid.boundary_mask()].all():
        raise ValueError("mask must pin the whole outer boundary")
    if not require_boundary:
        unbounded, nonsingular = zero_energy_modes(pinned)
        if unbounded:
            raise UnpinnedMask(
                "the pins admit a zero-energy mode with nonzero mean, so the "
                "energy is unbounded below; widen the crack or refine the grid")
    method = solve_method(p, nonsingular)

    def finish(u, b, eps, result):
        # the linear path's result is its CG count
        iterations, evaluations, reason = (
            (result, 0, descent.CONVERGED) if method == "linear" else
            (result.iterations, result.evaluations, result.reason))
        report = _build_report(u, b, grid, pinned, p, eps,
                               iterations, evaluations, method, crack_length,
                               length_penalty)
        if reason != descent.CONVERGED:
            raise NonConvergence(
                f"no convergence ({reason}) in {iterations} iterations, "
                f"residual {report.residual:.3e} > {config.grad_tolerance:.3e}",
                report=report, field=u, reason=reason)
        if report.residual > config.grad_tolerance:
            raise NonConvergence(
                f"linear path residual {report.residual:.3e} above "
                f"tolerance {config.grad_tolerance:.3e}", report=report, field=u)
        return u, report

    # a rung's cubes all carry the default g = 1, so one solve serves them
    position: dict[bytes, int] = {}
    distinct, order = [], []
    for f in fs:
        key = np.asarray(f, dtype=float).tobytes()
        if key not in position:
            position[key] = len(distinct)
            distinct.append(f)
        order.append(position[key])
    fs = distinct
    # a source enters only through its node load b = vol * M^T M f, the
    # p = 2 mass matrix applied to f: the linear right-hand side, the
    # descent objective and the report's work form all read that one
    # array.  The stack is filled column by column: holding every cube's
    # cell means at once raised a ladder's peak RSS by 8 MB
    loads = np.empty(grid.shape + (len(fs),))
    for column, f in enumerate(fs):
        loads[..., column] = cell_means_adjoint(cell_means(f), grid.cell_volume)
    stiffness = quadratics.stiffness_matrix(grid)
    eps = [config.resolve_eps(p, 1e-8 * max(float(np.abs(f).max(initial=0.0)), 1.0))
           for f in fs]
    solved = descend(
        lambda u, b, eps_k: energy_and_gradient(u, b, grid, pinned, p, eps_k),
        lambda u, eps_k: _frozen_weight_matrix(u, grid, p, eps_k),
        loads, pinned, p, eps,
        stiffness if nonsingular else gauge_shifted(grid, stiffness), config,
        nonsingular=nonsingular)
    # each report is built, and a failure raised, before the next source
    # is solved
    return _in_order([finish(u, loads[..., column], eps[column], result)
                      for column, (u, result) in enumerate(solved)], order)


def descend(objective, kacanov, loads: np.ndarray, pinned: np.ndarray, p: float,
            eps, model: sp.spmatrix, config: SolverConfig, *,
            nonsingular: bool = True, curvature: float = 1.0, lift: float = 0.0,
            gain: float | np.ndarray = 1.0) -> Iterator[tuple]:
    """The start, H0 and stop of every energy and capacity solve: per
    column of the (*pinned.shape, k) stack loads in turn, the field and
    its `descent.DescentResult`, or at p = 2 on a nonsingular model the
    linear answer and its CG count.  A caller that stops iterating
    (on a failed column, say) solves no later column.

    The caller declares what is its own.  objective(x, b, eps) is the
    (value, gradient) of the problem with load b (column k's, with
    eps[k]), and at p = 2 its gradient at free nodes is
    curvature * (model @ x - b): model is the pinned p = 2 block, or a
    `gauge_shifted` stand-in where nonsingular is False, which sends
    p = 2 to descent too.  Every field holds lift at pinned nodes.
    kacanov(x, eps) is the Hessian with its p-density weights frozen
    at x.  gain, a node field of powers of two (or 1), turns the
    gradient into the one the caller reports.

    - Start.  On a nonsingular model at p <= 2, one
      `quadratics.solve_pinned` call serves every column: it gives the
      linear answers, or the p < 2 starts.  Every other descent (p > 2,
      or a singular model at any p) starts at H0 applied to
      curvature * b, the p = 2 solution as far as H0 is exact.
    - H0.  `quadratics.approximate_inverse` of kacanov at the column's
      start at p < 2 on a nonsingular model, else one of
      curvature * model that every column shares.  Against the LU of K
      from zero on the 129^2 single-solves crack at tol 1e-8: 81 -> 45
      iterations at p = 1.5; at p = 3 the V-cycle of K takes 47 from
      zero or its start.
    - Stop.  The descent runs in y = x / gain, whose gradient is gain
      times x's, so it stops exactly when the reported residual meets
      grad_tolerance; scaling by powers of two is exact, so its
      iterates are the unscaled descent's bit for bit.  The linear
      solve stops where curvature * gain times its row residual does.
    """
    if nonsingular and p <= 2:
        # the linear answers and the p < 2 starts from one call, so the
        # columns share one factorization or V-cycle setup; the reported
        # gradient is curvature * gain times the row residual
        largest = np.broadcast_to(gain, pinned.shape)[~pinned].max(initial=1.0)
        fields, _, columns = quadratics.solve_pinned(
            model, loads, pinned,
            grad_tolerance=config.grad_tolerance / (curvature * largest),
            prefer_direct=config.prefer_direct)
        fields[pinned] = lift
        if solve_method(p, nonsingular) == "linear":
            yield from zip(np.moveaxis(fields, -1, 0), columns)
            return
    else:
        h0 = quadratics.approximate_inverse(curvature * model, pinned,
                                            config.prefer_direct)
    for column, eps_k in enumerate(eps):
        b = np.ascontiguousarray(loads[..., column])
        if nonsingular and p < 2:
            start = fields[..., column]
            h0 = quadratics.approximate_inverse(kacanov(start, eps_k), pinned,
                                                config.prefer_direct)
        else:
            start = h0.solve(curvature * b)
            start[pinned] = lift

        def scaled(y):
            value, grad = objective(gain * y, b, eps_k)
            return value, gain * grad

        result = descent.minimize(
            scaled, start / gain,
            grad_tolerance=config.grad_tolerance,
            max_iterations=config.max_iterations,
            precondition=lambda r: h0.solve(r / gain) / gain)
        yield np.where(pinned, lift, gain * result.x), result


def _in_order(solved: list, order: list[int]) -> list:
    """solved[k] for each source's distinct index k; a field that several
    sources share is made read-only, so writing to one fails loudly."""
    for (u, _), uses in zip(solved, np.bincount(order, minlength=len(solved))):
        if uses > 1:
            u.flags.writeable = False
    return [solved[k] for k in order]


def gauge_shifted(grid: GridDiscretization, stiffness: sp.spmatrix) -> sp.csr_matrix:
    """K + _GAUGE_SHIFT * node mass, the Hessian model of a descent whose
    pinned p = 2 block K is singular: a small node mass lifts the
    pure-gauge modes that the pins leave."""
    return stiffness + _GAUGE_SHIFT * quadratics.node_mass_matrix(grid)


def _frozen_weight_matrix(u: GridField, grid: GridDiscretization, p: float,
                          eps: float) -> sp.csr_matrix:
    """The Jacobian of the energy gradient at u with its p-density weights
    held fixed (the Kacanov matrix): vol G^T diag(w) G, w the weights
    `density_weights(|G u|^2 + eps^2, p)`, and exactly K where w = 1."""
    g = cell_gradients(u, grid.h)
    w = density_weights((g * g).sum(axis=0) + eps * eps, p)
    return quadratics._gram(grid, *quadratics.gradient_operator(grid.dim, grid.h), w)


def _build_report(u, b, grid, pinned, p, eps, iterations, evaluations,
                  method, crack_length, length_penalty) -> ComplianceReport:
    value, grad = energy_and_gradient(u, b, grid, pinned, p, eps)
    q = p / (p - 1.0)
    # the unregularized flux has |sigma|^p' = |grad u|^p cell by cell, so
    # one p-norm serves both forms
    pnorm = gradient_pnorm(u, grid, p)
    c_energy = pnorm / q
    c_work = float(np.dot(b.ravel(), u.ravel())) / q
    return ComplianceReport(
        p=p,
        energy=value,
        compliance_energy_form=c_energy,
        compliance_work_form=c_work,
        flux_pnorm=pnorm,
        crack_length=crack_length,
        penalized_objective=c_energy + length_penalty * crack_length,
        iterations=iterations,
        residual=float(np.abs(grad).max()),
        regularization_eps=eps,
        method=method,
        evaluations=evaluations)


def solve_cracks(spec, cracks: CrackSet, f, nodes_per_side: int,
                 config: Optional[SolverConfig] = None,
                 ) -> tuple[GridField, ComplianceReport, ConstraintMask]:
    """Rasterize cracks on a fresh grid for `spec` and solve.

    f may be a callable of node coordinates or a node array.  The report
    carries the exact segment length total and spec.length_penalty.
    """
    grid = build_grid(spec, nodes_per_side)
    mask = rasterize(cracks, grid)
    u, report = solve(sample_on_grid(f, grid), mask, spec.p, config,
                      crack_length=total_length(cracks),
                      length_penalty=spec.length_penalty)
    return u, report, mask


@dataclass(frozen=True)
class DivergenceCheck:
    """Weak-form residuals of -div(sigma) = f against smooth bumps."""
    residuals: tuple[float, ...]
    scales: tuple[float, ...]

    @property
    def max_relative(self) -> float:
        return max(r / s for r, s in zip(self.residuals, self.scales))


def _bump_values(centers: np.ndarray, center: np.ndarray, radius: float,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Raised-cosine tensor bump and its gradient at the given points.

    Each factor is cos^2(pi y / 2) for |y| < 1 and 0 outside, with y the
    rescaled offset along one axis; the bump peaks at 1.  C^1 with
    derivatives bounded by pi/2 per axis, unlike a mollifier profile
    whose derivatives blow up at the support edge and wreck midpoint
    quadrature of the pairing on modest grids.
    """
    dim = centers.shape[-1]
    y = (centers - center) / radius
    inside = (np.abs(y) < 1.0).all(axis=-1)
    yc = np.clip(y, -1.0, 1.0)
    factors = np.cos(0.5 * np.pi * yc) ** 2
    dfactors = -(0.5 * np.pi) * np.sin(np.pi * yc) / radius
    phi = np.where(inside, factors.prod(axis=-1), 0.0)
    grads = []
    for k in range(dim):
        part = dfactors[..., k]
        for j in range(dim):
            if j != k:
                part = part * factors[..., j]
        grads.append(np.where(inside, part, 0.0))
    return phi, np.stack(grads, axis=0)


def divergence_residual(sigma: FluxField, f: np.ndarray, grid: GridDiscretization,
                        cracks: CrackSet, rng: np.random.Generator,
                        samples: int = 20,
                        radius_fraction: tuple[float, float] = (0.1, 0.25),
                        ) -> DivergenceCheck:
    """Test int sigma . grad(phi) = int f phi on random interior bumps.

    Bump supports are kept inside the open box and at least one cell away
    from every crack segment, shrinking the radius range when placement
    keeps failing.  Radii are floored at _MIN_SPAN_CELLS cells: a bump
    sampled by only one or two cell centers pairs as pure noise, so a
    grid too coarse to fit a resolvable bump fails loudly instead.
    Residuals are exact-quadrature mismatches, so they carry both the
    solver residual and the O(h^2) discretization error.
    """
    centers = grid.node_coordinates()
    cell_centers = np.stack(
        [cell_means(centers[..., k]) for k in range(grid.dim)], axis=-1)
    f_bar = cell_means(f)
    lo, hi = radius_fraction
    box = grid.half_width
    floor = _MIN_SPAN_CELLS * grid.h
    residuals = []
    scales = []
    for _ in range(samples):
        placed = None
        shrink = 1.0
        for _ in range(6):
            for _ in range(400):
                radius = max(float(rng.uniform(lo, hi)) * box * shrink, floor)
                margin = box - radius - grid.h
                if margin <= 0:
                    continue
                center = np.asarray(grid.center) + rng.uniform(-margin, margin, size=grid.dim)
                if _support_clears_cracks(center, radius, cracks, grid.h):
                    placed = (center, radius)
                    break
            if placed is not None:
                break
            shrink *= 0.5
        if placed is None:
            raise ValueError(
                "could not place a resolvable bump clear of the cracks; "
                "box too crowded or grid too coarse")
        center, radius = placed
        phi, grad_phi = _bump_values(cell_centers, center, radius)
        lhs = grid.cell_volume * float(np.sum((sigma * grad_phi).sum(axis=0)))
        rhs = grid.cell_volume * float(np.sum(f_bar * phi))
        scale = abs(lhs) + abs(rhs)
        residuals.append(abs(lhs - rhs))
        scales.append(max(scale, 1e-300))
    return DivergenceCheck(residuals=tuple(residuals), scales=tuple(scales))


def _support_clears_cracks(center: np.ndarray, radius: float, cracks: CrackSet,
                           clearance: float) -> bool:
    from .geometry import _segment_node_distances

    if len(cracks) == 0:
        return True
    point = center.reshape((1,) * len(center) + (len(center),))
    for seg in cracks:
        dist = float(_segment_node_distances(point, seg).ravel()[0])
        # the support box has circumradius radius*sqrt(dim); the segment
        # must stay clear of it by at least one cell
        if dist <= radius * np.sqrt(len(center)) + clearance:
            return False
    return True
