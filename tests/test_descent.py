import numpy as np
import pytest

from pcompliance import descent, quadratics
from pcompliance.geometry import CrackSet, GridDiscretization, axis_segment, rasterize
from pcompliance.solver import cell_means, cell_means_adjoint, energy_and_gradient
from pcompliance.sources import named_source, sample_on_grid


def _quadratic(a, b):
    def fun(x):
        return 0.5 * float(x @ a @ x) - float(b @ x), a @ x - b
    return fun


def _identity(v):
    return v


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n), rng.standard_normal(n)


def test_exact_inverse_hessian_preconditioner_converges_at_once():
    a, b = _spd(12)
    inverse = np.linalg.inv(a)
    result = descent.minimize(_quadratic(a, b), np.zeros(12),
                              grad_tolerance=1e-10, max_iterations=50,
                              precondition=lambda v: inverse @ v)
    assert result.reason == descent.CONVERGED and result.converged
    assert result.iterations <= 2
    np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=1e-9)


def test_preconditioned_two_loop_matches_direct_products():
    # H0 q assembled by linearity from H0 grad and the stored H0 y equals
    # H0 applied to q itself
    a, b = _spd(8, seed=1)
    rng = np.random.default_rng(2)
    p = np.linalg.inv(a + np.diag(rng.uniform(0.0, 3.0, 8)))
    grad = rng.standard_normal(8)
    s_hist = [rng.standard_normal(8) for _ in range(3)]
    y_hist = [a @ s for s in s_hist]
    rho_hist = [1.0 / float(s @ y) for s, y in zip(s_hist, y_hist)]
    history = [(s, y, rho, p @ y) for s, y, rho in zip(s_hist, y_hist, rho_hist)]
    fast = descent._two_loop_direction(grad, p @ grad, history)
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    q = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ p @ y_hist[-1]) * (p @ q)
    for (s, y, rho), alpha in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    np.testing.assert_allclose(fast, -q, rtol=1e-12, atol=1e-14)


def test_iteration_cap_is_reported():
    a, b = _spd(30)
    result = descent.minimize(_quadratic(a, b), np.zeros(30),
                              grad_tolerance=1e-14, max_iterations=2,
                              precondition=_identity)
    assert result.reason == descent.ITERATION_CAP
    assert not result.converged
    assert result.iterations == 2


def test_line_search_stall_is_reported():
    # a false gradient at the minimizer x = 1: every step it proposes
    # raises the value, and the Armijo test rejects even steps that round
    # to no move, since it asks for a decrease below the value 0
    def fun(x):
        return float((x - 1.0) @ (x - 1.0)), np.ones_like(x)

    result = descent.minimize(fun, np.ones(4), grad_tolerance=1e-8,
                              max_iterations=100, precondition=_identity)
    assert result.reason == descent.LINE_SEARCH_STALL
    assert not result.converged
    assert result.iterations == 0
    np.testing.assert_array_equal(result.x, np.ones(4))


def test_step_that_rounds_to_no_move_stalls():
    # at x = 1e20 every step rounds back to x, where the Armijo test would
    # accept the unchanged value; the search fails instead of looping to the
    # iteration cap on a point that never moves
    def fun(x):
        return float(x.sum()), np.ones_like(x)

    result = descent.minimize(fun, np.full(4, 1e20), grad_tolerance=1e-8,
                              max_iterations=100, precondition=_identity)
    assert result.reason == descent.LINE_SEARCH_STALL
    assert result.iterations == 0
    assert result.evaluations == 1


@pytest.mark.parametrize("precondition", [_identity, lambda v: 0.5 * v])
def test_empty_problem_converges(precondition):
    result = descent.minimize(lambda x: (0.0, x), np.zeros(0),
                              grad_tolerance=1e-8, max_iterations=5,
                              precondition=precondition)
    assert result.reason == descent.CONVERGED
    assert result.iterations == 0


def test_node_shaped_descent_matches_the_flat_run_bit_for_bit():
    # the 33^2 crack energy at p = 1.5 with the LU of K as H0, run
    # once on node fields and once on flat vectors
    grid = GridDiscretization(33, 1.0, 2)
    pinned = rasterize(CrackSet.of(axis_segment((-0.5, 0.2), 0, 1.0)), grid).pinned
    f = sample_on_grid(named_source("bump", 2, 1.0), grid)
    b = cell_means_adjoint(cell_means(f), grid.cell_volume)
    factor = quadratics.PinnedFactor(quadratics.stiffness_matrix(grid), pinned)
    p, eps = 1.5, 1e-8

    def flat(x):
        value, grad = energy_and_gradient(x.reshape(grid.shape), b, grid, pinned, p, eps)
        return value, grad.ravel()

    options = dict(grad_tolerance=1e-8, max_iterations=500,
                   precondition=factor.solve)
    shaped = descent.minimize(lambda u: energy_and_gradient(u, b, grid, pinned, p, eps),
                              np.zeros(grid.shape), **options)
    plain = descent.minimize(flat, np.zeros(grid.n_nodes), **options)
    assert shaped.converged and shaped.iterations > 10
    assert shaped.x.shape == shaped.gradient.shape == grid.shape
    assert shaped.x.ravel().tobytes() == plain.x.tobytes()
    assert shaped.gradient.ravel().tobytes() == plain.gradient.tobytes()
    assert shaped.value == plain.value
    assert (shaped.iterations, shaped.evaluations, shaped.reason) == (
        plain.iterations, plain.evaluations, plain.reason)
