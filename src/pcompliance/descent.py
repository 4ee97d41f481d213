"""Limited-memory quasi-Newton descent with a backtracking line search.

All solver contracts in this package certify convergence through the max norm
of the projected gradient, so this loop tracks exactly that quantity.  The
search direction is the two-loop L-BFGS recursion seeded with a caller's
SPD preconditioner H0, an approximate inverse of the objective's Hessian.
Whenever it fails to be a descent direction (or the line search stalls on
it) the memory is dropped and the step retried along -H0 grad.

The line search halves the step from 1 until a trial step alpha along d
passes either test (Hager & Zhang, SIAM J. Optim. 16, 2005), with
phi(alpha) = f(x + alpha d) and phi'(alpha) = <grad f(x + alpha d), d>
read off the gradient `fun` returns with each value:
  (a) Armijo, phi(alpha) <= phi(0) + 1e-4 alpha phi'(0), with a strict
      decrease phi(alpha) < phi(0);
  (b) approximate Wolfe, phi(alpha) <= phi(0) + 1e-10 |phi(0)| and
      0.9 phi'(0) <= phi'(alpha) <= -0.8 phi'(0).
Near a minimizer the Armijo gain falls below the value's rounding unit;
(b) then still accepts only steps along which the slope has flattened,
where plain Armijo accepted any step whose value rounded to the same.
Because (b) steps need not lower the value, the descent stops as a
line-search stall after _MEMORY accepted steps in a row that set neither
a new lowest value nor a new lowest max-norm gradient.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

# why `minimize` stopped
CONVERGED = "converged"
ITERATION_CAP = "iteration cap"
LINE_SEARCH_STALL = "line-search stall"

# backtracking: each failed trial halves the step; Armijo accepts a step
# that gains this fraction of the first-order decrease
_STEP_FACTOR = 0.5
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 60
# approximate Wolfe: the value may rise by this fraction of its size, and
# the slope at the step must lie between these multiples of the first one
_WOLFE_EPSILON = 1e-10
_WOLFE_SLOPES = (0.9, -0.8)
# (s, y) pairs the two-loop recursion keeps, and the accepted steps in a
# row without a new lowest value or max-norm gradient that end the descent
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


def _two_loop_direction(grad, pgrad, history):
    """-H grad by the two-loop recursion over (s, y, rho, P y) pairs.

    H0 is gamma * P for a preconditioner P given through pgrad = P grad
    and P y per stored pair; P q then follows by linearity, with no
    further application of P.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho, _ in reversed(history):
        a = rho * float(np.vdot(s, q))
        alphas.append(a)
        q -= a * y
    s, y, _, py = history[-1]
    sy = float(np.vdot(s, y))
    q = pgrad.copy()
    for (_, _, _, py_k), a in zip(reversed(history), alphas):
        q -= a * py_k
    q *= sy / float(np.vdot(y, py))
    for (s, y, rho, _), a in zip(history, reversed(alphas)):
        b = rho * float(np.vdot(y, q))
        q += (a - b) * s
    return -q


def _backtrack(fun, x, value, grad, direction):
    """Backtracking from unit step to a step that passes the Armijo or the
    approximate Wolfe test (module docstring); None when no step does.

    A trial point that rounds back to x fails the search: every shorter
    step rounds back to x too.
    """
    slope = float(np.vdot(grad, direction))
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
        armijo = value_new < value and value_new <= value + _ARMIJO_C1 * step * slope
        if np.isfinite(value_new) and (armijo or (
                value_new <= value + _WOLFE_EPSILON * abs(value)
                and _WOLFE_SLOPES[0] * slope <= float(np.vdot(grad_new, direction))
                <= _WOLFE_SLOPES[1] * slope)):
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

    x0 may have any shape, a node field say, that fun and precondition
    take and return; inner products are `np.vdot`s, bitwise flat dots.

    Stops when ||gradient||_inf <= grad_tolerance ("converged"), when
    max_iterations is reached ("iteration cap"), or at a numerical floor
    ("line-search stall"): no trial step passes the line search along
    either the quasi-Newton or the restart direction, or 12 accepted
    steps in a row set neither a new lowest value nor a new lowest
    ||gradient||_inf.  The two-loop recursion keeps the last 12 (s, y)
    pairs.

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
    history: deque = deque(maxlen=_MEMORY)
    pgrad = precondition(grad)

    iterations = 0
    stalled = False
    gmax = float(np.max(np.abs(grad)))
    # the lowest value and max-norm gradient so far, and the accepted steps
    # since either last fell
    lowest_value, lowest_gmax, flat = value, gmax, 0
    while gmax > grad_tolerance and iterations < max_iterations:
        if history:
            direction = _two_loop_direction(grad, pgrad, history)
        else:
            direction = -pgrad
        hit, evals = _backtrack(fun, x, value, grad, direction)
        evaluations += evals
        if hit is None and history:
            # quasi-Newton direction unusable at this point; restart clean
            history.clear()
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
        sy = float(np.vdot(s, y))
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            # a full deque drops its oldest pair
            history.append((s, y, 1.0 / sy, pgrad_new - pgrad))
        x, value, grad, pgrad = x_new, value_new, grad_new, pgrad_new
        gmax = float(np.max(np.abs(grad)))
        iterations += 1
        if value < lowest_value or gmax < lowest_gmax:
            lowest_value, lowest_gmax = min(value, lowest_value), min(gmax, lowest_gmax)
            flat = 0
        else:
            flat += 1
            if flat == _MEMORY:
                stalled = True
                break

    if gmax <= grad_tolerance:
        reason = CONVERGED
    elif stalled:
        reason = LINE_SEARCH_STALL
    else:
        reason = ITERATION_CAP
    return DescentResult(x, value, grad, iterations, evaluations, reason)
