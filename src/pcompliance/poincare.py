"""Best constant in the crack Poincare inequality on free-boundary cubes.

On a cube whose mask pins only a crack (never the outer boundary), the
smallest constant C with  int |u|^p <= C int |grad u|^p  over admissible
fields is the reciprocal of the Rayleigh quotient infimum.  For p = 2 the
infimum is a generalized eigenvalue problem, which one ARPACK call solves
at every size; other p run a normalized quotient descent.  Both report the
discrete best constant at the given h, not a continuum claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
# no path here calls it: the benchmark tracer (bench/tracing.py) names the
# dense eigensolver under this module's `scipy.linalg`, so the binding
# stays until the tracer's entry point goes
import scipy.linalg  # noqa: F401
import scipy.sparse.linalg as spla

from . import descent, quadratics
from .capacity import centered_segment
from .errors import NonConvergence, UnpinnedMask
from .geometry import ConstraintMask, CrackSet, GridDiscretization, rasterize
from .quadratics import (cell_gradients, cell_gradients_adjoint, cell_means,
                         cell_means_adjoint)
from .solver import (SolverConfig, gauge_shifted, p_density, solve_method,
                     zero_energy_modes)

# largest |M v - mu K v|_inf / (|M v|_inf + mu |K v|_inf) accepted from
# the eigensolver, and the NonConvergence reason of a mu that fails it
_EIG_RELATIVE_RESIDUAL = 1e-8
EIGEN_RESIDUAL = "eigensolver residual"


@dataclass(frozen=True)
class PoincareResult:
    best_constant: float
    p: float
    delta: float
    grid_h: float
    method: str
    iterations: int
    residual: float


def mass_pnorm(u: np.ndarray, grid: GridDiscretization, p: float) -> float:
    """int |u|^p by midpoint quadrature on cell means."""
    return grid.cell_volume * p_density(cell_means(u) ** 2, p)[0]


def best_poincare_constant(mask: ConstraintMask, p: float,
                           config: Optional[SolverConfig] = None,
                           ) -> PoincareResult:
    """Measure the discrete best constant for fields on mask.grid vanishing
    on the mask.

    Raises NonConvergence, with the last field and a partial
    PoincareResult, when the eigensolver's residual fails the gate (the
    rejected mu) or the quotient descent stops above grad_tolerance (1 /
    the quotient at its last iterate).
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if config is None:
        config = SolverConfig()
    grid = mask.grid
    if mask.pinned[grid.boundary_mask()].all():
        raise ValueError("the cube boundary must stay free; only the crack pins")
    if mask.interior_pinned() == 0:
        raise UnpinnedMask("no interior node pinned; the quotient infimum is 0")
    unbounded, nonsingular = zero_energy_modes(mask.pinned)
    if unbounded:
        raise UnpinnedMask(
            "pins admit a zero-energy checkerboard mode with nonzero mean, "
            "so the quotient infimum is 0; widen the crack or refine")

    if solve_method(p, nonsingular) == "linear":
        return _largest_mass_over_stiffness(grid, mask.pinned, p)
    return _quotient_descent(grid, mask.pinned, p, config, nonsingular)


def _largest_mass_over_stiffness(grid: GridDiscretization, pinned: np.ndarray,
                                 p: float) -> PoincareResult:
    """max u^T Mass u / u^T Stiff u on free nodes = the best constant.

    One `eigsh` call at every size.  ARPACK's generalized mode needs an
    exact inverse of K, so Minv back-substitutes the free block's LU
    (`quadratics.PinnedFactor`), the one factorization of the solve.
    """
    free = ~pinned.ravel()
    stiffness = quadratics.stiffness_matrix(grid)
    k_ff = stiffness[free][:, free]
    m_ff = quadratics.mass_matrix(grid)[free][:, free]
    n_free = k_ff.shape[0]
    if n_free == 1:  # ARPACK needs more unknowns than eigenvalues
        mu, v = float(m_ff[0, 0] / k_ff[0, 0]), np.ones(1)
    else:
        lu = quadratics.PinnedFactor(stiffness, pinned).lu
        values, vectors = spla.eigsh(
            m_ff, k=1, M=k_ff, which="LA", v0=np.ones(n_free),
            Minv=spla.LinearOperator(k_ff.shape, matvec=lu.solve, dtype=float))
        mu, v = float(values[0]), vectors[:, 0]
    mv = m_ff @ v
    kv = k_ff @ v
    residual = float(np.abs(mv - mu * kv).max())
    relative = residual / (float(np.abs(mv).max()) + mu * float(np.abs(kv).max()))
    result = PoincareResult(mu, p, 2.0 * grid.half_width, grid.h, "linear", 0, residual)
    # a singular stiffness block lets eigsh return a spurious huge mu
    if not relative <= _EIG_RELATIVE_RESIDUAL:
        field = np.zeros(grid.shape)
        field[~pinned] = v
        raise NonConvergence(
            f"eigensolver returned mu = {mu:.6g} at relative residual "
            f"{relative:.3e} > {_EIG_RELATIVE_RESIDUAL:.0e}",
            report=result, field=field, reason=EIGEN_RESIDUAL)
    return result


def quotient_forms(u: np.ndarray, grid: GridDiscretization, pinned: np.ndarray,
                   p: float, eps: float) -> tuple[float, np.ndarray, float, np.ndarray]:
    """int|grad u|^p and int|u|^p (eps-regularized) with their node gradients.

    The gradients are p vol G^T(w_s G u) and p vol M^T(w_m M u), zeroed
    at pinned nodes, with w the weights of each p-density.
    """
    vol = grid.cell_volume
    g = cell_gradients(u, grid.h)
    num, w_num = p_density((g * g).sum(axis=0) + eps * eps, p)
    u_bar = cell_means(u)
    den, w_den = p_density(u_bar * u_bar + eps * eps, p)
    d_num = cell_gradients_adjoint((p * w_num) * g, grid.h, scale=vol)
    d_den = cell_means_adjoint((p * w_den) * u_bar, scale=vol)
    d_num[pinned] = 0.0
    d_den[pinned] = 0.0
    return vol * num, d_num, vol * den, d_den


def _sphere_quotient(u: np.ndarray, grid: GridDiscretization, pinned: np.ndarray,
                     p: float, eps: float) -> tuple[float, np.ndarray]:
    """Q(u/|u|) of `quotient_forms` and its node gradient, which is tangent
    to the sphere through u, so a descent on it needs no projection."""
    norm = float(np.linalg.norm(u))
    uh = u / norm
    num, d_num, den, d_den = quotient_forms(uh, grid, pinned, p, eps)
    quotient = num / den
    grad = (d_num - quotient * d_den) / den
    grad -= float(np.vdot(grad, uh)) * uh
    return quotient, grad / norm


def _quotient_descent(grid: GridDiscretization, pinned: np.ndarray, p: float,
                      config: SolverConfig, nonsingular: bool) -> PoincareResult:
    """Minimize int|grad u|^p / int|u|^p over the unit sphere of fields.

    H0 approximates the inverse of the pinned K, gauge-shifted where K is
    singular: the quotient's Hessian at p = 2 is a multiple of K - Q Mass,
    whose leading part K is.
    """
    eps = config.resolve_eps(p, 1e-8)
    stiffness = quadratics.stiffness_matrix(grid)
    h0 = quadratics.approximate_inverse(
        stiffness if nonsingular else gauge_shifted(grid, stiffness),
        pinned, config.prefer_direct)
    result = descent.minimize(
        lambda u: _sphere_quotient(u, grid, pinned, p, eps),
        (~pinned).astype(float),
        grad_tolerance=config.grad_tolerance,
        max_iterations=config.max_iterations,
        precondition=h0.solve)
    residual = float(np.abs(result.gradient).max())
    report = PoincareResult(1.0 / result.value, p, 2.0 * grid.half_width, grid.h,
                            "descent", result.iterations, residual)
    if not result.converged:
        field = result.x / np.linalg.norm(result.x)
        field[pinned] = 0.0
        raise NonConvergence(
            f"quotient descent stopped ({result.reason}) after "
            f"{result.iterations} iterations at residual {residual:.3e}",
            report=report, field=field, reason=result.reason)
    return report


def crack_cube(delta: float, relative_length: float, nodes_per_side: int,
               dim: int = 2) -> ConstraintMask:
    """Mask of a cube of side delta with one centered axis crack pinned and
    its boundary free; the cube grid is its `grid`."""
    if not (0 < relative_length < 1):
        raise ValueError("relative crack length must lie in (0, 1)")
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = GridDiscretization(nodes_per_side, delta / 2.0, dim)
    cracks = CrackSet.of(centered_segment(relative_length * delta, grid))
    return rasterize(cracks, grid, include_boundary=False)


def crack_poincare(delta: float, relative_length: float, nodes_per_side: int,
                   p: float, dim: int = 2,
                   config: Optional[SolverConfig] = None) -> PoincareResult:
    """Best constant for a centered crack cube."""
    mask = crack_cube(delta, relative_length, nodes_per_side, dim)
    return best_poincare_constant(mask, p, config)
