"""Limited-memory quasi-Newton descent with Armijo backtracking.

All solver contracts in this package certify convergence through the max norm
of the projected gradient, so this loop tracks exactly that quantity.  The
search direction is the two-loop L-BFGS recursion seeded with a caller's
preconditioner H0 (every solver passes its factored p = 2 block); whenever
it fails to be a descent direction (or the line search stalls on it) the
memory is dropped and the step retried along -H0 grad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# why `minimize` stopped
CONVERGED = "converged"
ITERATION_CAP = "iteration cap"
LINE_SEARCH_STALL = "line-search stall"

# Armijo backtracking: each failed trial halves the step, and a step is
# accepted once it gains this fraction of the first-order decrease
_STEP_FACTOR = 0.5
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
# (s, y) pairs the two-loop recursion keeps
_MEMORY = 12


@dataclass
class DescentResult:
    x: np.ndarray
    value: float
    gradient: np.ndarray
    iterations: int
    evaluations: int
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == CONVERGED


def _two_loop_direction(grad, s_hist, y_hist, rho_hist, pgrad, py_hist):
    """-H grad by the two-loop recursion.

    H0 is gamma * P for a preconditioner P given through pgrad = P grad
    and py_hist = P y per stored pair; P q then follows by linearity,
    with no further application of P.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    sy = float(s_hist[-1] @ y_hist[-1])
    q = pgrad.copy()
    for py, a in zip(reversed(py_hist), alphas):
        q -= a * py
    q *= sy / float(y_hist[-1] @ py_hist[-1])
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _backtrack(fun, x, value, grad, direction):
    """Armijo backtracking from unit step; returns None when no step works.

    A trial point that rounds back to x fails the search: at that
    rounding floor the Armijo test would accept an unchanged value, and
    every shorter step rounds back to x too.
    """
    slope = float(grad @ direction)
    if not np.isfinite(slope) or slope >= 0.0:
        return None, 0
    step = 1.0
    evals = 0
    for _ in range(_MAX_HALVINGS):
        x_new = x + step * direction
        if np.array_equal(x_new, x):
            break
        value_new, grad_new = fun(x_new)
        evals += 1
        if np.isfinite(value_new) and value_new <= value + _ARMIJO_C1 * step * slope:
            return (step, x_new, value_new, grad_new), evals
        step *= _STEP_FACTOR
    return None, evals


def minimize(
    fun,
    x0,
    *,
    grad_tolerance: float,
    max_iterations: int,
    precondition: Callable[[np.ndarray], np.ndarray],
) -> DescentResult:
    """Minimize fun(x) -> (value, gradient) to a max-norm gradient tolerance.

    Stops when ||gradient||_inf <= grad_tolerance ("converged"), when
    max_iterations is reached ("iteration cap"), or when no Armijo step
    makes progress along either the quasi-Newton or the restart direction
    ("line-search stall", a numerical floor).  The two-loop recursion
    keeps the last 12 (s, y) pairs.

    precondition(v) applies an SPD approximation H0 of the inverse Hessian.
    It seeds the two-loop recursion as gamma * H0, gamma = s.y / y.H0 y,
    and the first step and restarts follow -H0 g.  H0 runs once per
    accepted step, on the new gradient; every other H0 product follows by
    linearity.
    """
    x = np.array(x0, dtype=float)
    value, grad = fun(x)
    evaluations = 1
    if x.size == 0:
        return DescentResult(x, value, grad, 0, evaluations, CONVERGED)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    py_hist: list[np.ndarray] = []
    pgrad = precondition(grad)

    iterations = 0
    stalled = False
    gmax = float(np.max(np.abs(grad)))
    while gmax > grad_tolerance and iterations < max_iterations:
        if s_hist:
            direction = _two_loop_direction(grad, s_hist, y_hist, rho_hist,
                                            pgrad, py_hist)
        else:
            direction = -pgrad
        hit, evals = _backtrack(fun, x, value, grad, direction)
        evaluations += evals
        if hit is None and s_hist:
            # quasi-Newton direction unusable at this point; restart clean
            for hist in (s_hist, y_hist, rho_hist, py_hist):
                hist.clear()
            direction = -pgrad
            hit, evals = _backtrack(fun, x, value, grad, direction)
            evaluations += evals
        if hit is None:
            stalled = True
            break
        _, x_new, value_new, grad_new = hit
        pgrad_new = precondition(grad_new)
        s = x_new - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            py_hist.append(pgrad_new - pgrad)
            if len(s_hist) > _MEMORY:
                for hist in (s_hist, y_hist, rho_hist, py_hist):
                    hist.pop(0)
        x, value, grad, pgrad = x_new, value_new, grad_new, pgrad_new
        gmax = float(np.max(np.abs(grad)))
        iterations += 1

    if gmax <= grad_tolerance:
        reason = CONVERGED
    elif stalled:
        reason = LINE_SEARCH_STALL
    else:
        reason = ITERATION_CAP
    return DescentResult(x, value, grad, iterations, evaluations, reason)
