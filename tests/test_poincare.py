import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from pcompliance import quadratics
from pcompliance.errors import NonConvergence, UnpinnedMask
from pcompliance.geometry import (
    ConstraintMask,
    CrackSet,
    GridDiscretization,
    axis_segment,
    rasterize,
)
from pcompliance.poincare import (
    PoincareResult,
    _largest_mass_over_stiffness,
    _quotient_descent,
    best_poincare_constant,
    crack_cube,
    crack_poincare,
    mass_pnorm,
    quotient_forms,
)
from pcompliance.solver import SolverConfig, gradient_pnorm


def pencil_best_constant(m: int, h: float) -> float:
    """Dense 1d oracle: max int u^2 / int |u'|^2 with the middle node pinned.

    Assembled from scratch (forward differences, cell means, midpoint
    quadrature) so it shares no code with the module under test.
    """
    d = (np.eye(m - 1, m, k=1) - np.eye(m - 1, m)) / h
    b = 0.5 * (np.eye(m - 1, m, k=1) + np.eye(m - 1, m))
    keep = [i for i in range(m) if i != m // 2]
    k_ff = h * (d.T @ d)[np.ix_(keep, keep)]
    m_ff = h * (b.T @ b)[np.ix_(keep, keep)]
    values = scipy.linalg.eigh(m_ff, k_ff, eigvals_only=True)
    return float(values[-1])


def test_hyperplane_crack_reduces_to_pencil_oracle():
    # a crack spanning the full central hyperplane makes the cube problem
    # separable: its best constant equals the 1d pinned-pencil constant
    m = 33
    grid = GridDiscretization(m, 0.5, 2)
    crack = CrackSet.of(axis_segment((0.0, -0.5), 1, 1.0))
    mask = rasterize(crack, grid, include_boundary=False)
    assert mask.n_pinned == m
    result = best_poincare_constant(mask, 2.0)
    oracle = pencil_best_constant(m, grid.h)
    assert result.best_constant == pytest.approx(oracle, rel=1e-9)


def test_reported_constant_dominates_random_competitors():
    rng = np.random.default_rng(19)
    mask = crack_cube(1.0, 0.5, 17)
    result = best_poincare_constant(mask, 2.0)
    for _ in range(25):
        v = rng.standard_normal(mask.grid.shape)
        v[mask.pinned] = 0.0
        lhs = mass_pnorm(v, mask.grid, 2.0)
        rhs = gradient_pnorm(v, mask.grid, 2.0)
        assert lhs <= result.best_constant * rhs * (1.0 + 1e-9)


def test_descent_matches_eigen_path_for_p2():
    mask = crack_cube(1.0, 0.5, 17)
    linear = best_poincare_constant(mask, 2.0)
    assert linear.method == "linear"
    # the quotient descent that p != 2 takes, run at p = 2
    descent = _quotient_descent(mask.grid, mask.pinned, 2.0,
                                SolverConfig(grad_tolerance=1e-9), True)
    assert descent.method == "descent" and descent.residual <= 1e-9
    assert descent.best_constant == pytest.approx(linear.best_constant, rel=1e-5)


@pytest.mark.parametrize("p,eps", [(1.5, 1e-3), (3.0, 0.0)])
def test_quotient_gradient_matches_finite_differences(p, eps):
    rng = np.random.default_rng(8)
    mask = crack_cube(1.0, 0.5, 9)
    pinned = mask.pinned
    u = rng.standard_normal(mask.grid.shape)
    u[pinned] = 0.0

    def forms(v):
        num, d_num, den, d_den = quotient_forms(v, mask.grid, pinned, p, eps)
        return (np.array([num, den, num / den]),
                np.stack([d_num, d_den, (d_num - num / den * d_den) / den]))

    _, grads = forms(u)
    assert np.all(grads[:, pinned] == 0.0)
    free = np.argwhere(~pinned)
    step = 1e-6
    for idx in map(tuple, free[rng.choice(len(free), 12, replace=False)]):
        probe = np.zeros(mask.grid.shape)
        probe[idx] = step
        fd = (forms(u + probe)[0] - forms(u - probe)[0]) / (2.0 * step)
        assert grads[(slice(None),) + idx] == pytest.approx(fd, rel=5e-5, abs=1e-9)


@pytest.mark.parametrize("p,tol,rel", [(2.0, 1e-9, 1e-12), (3.0, 1e-7, 1e-6)])
def test_doubling_delta_scales_constant_by_two_to_p(p, tol, rel):
    cfg = SolverConfig(grad_tolerance=tol)
    small = crack_poincare(1.0, 0.5, 17, p, config=cfg)
    large = crack_poincare(2.0, 0.5, 17, p, config=cfg)
    assert large.best_constant == pytest.approx(
        2.0 ** p * small.best_constant, rel=rel)
    assert small.delta == 1.0 and large.delta == 2.0


def test_subquadratic_exponent_runs_descent():
    result = crack_poincare(1.0, 0.5, 17, 1.5,
                            config=SolverConfig(grad_tolerance=1e-7))
    assert isinstance(result, PoincareResult)
    assert result.method == "descent"
    assert result.best_constant > 0.0
    assert np.isfinite(result.best_constant)
    assert result.residual <= 1e-7


def test_longer_crack_lowers_constant():
    cfg = SolverConfig(grad_tolerance=1e-9)
    short = crack_poincare(1.0, 0.25, 33, 2.0, config=cfg)
    long = crack_poincare(1.0, 0.75, 33, 2.0, config=cfg)
    assert long.best_constant < short.best_constant


def test_mask_validation():
    grid = GridDiscretization(9, 0.5, 2)
    empty = rasterize(CrackSet.empty(), grid, include_boundary=False)
    with pytest.raises(UnpinnedMask):
        best_poincare_constant(empty, 2.0)

    # one interior pin is defeated by a zero-energy checkerboard
    single = np.zeros(grid.shape, dtype=bool)
    single[4, 4] = True
    with pytest.raises(UnpinnedMask):
        best_poincare_constant(ConstraintMask(grid, single), 2.0)

    walls = rasterize(CrackSet.empty(), grid, include_boundary=True)
    with pytest.raises(ValueError):
        best_poincare_constant(walls, 2.0)


def test_crack_cube_validation():
    with pytest.raises(ValueError):
        crack_cube(1.0, 1.0, 9)
    with pytest.raises(ValueError):
        crack_cube(1.0, 0.0, 9)
    with pytest.raises(ValueError):
        crack_cube(-1.0, 0.5, 9)
    with pytest.raises(ValueError):
        best_poincare_constant(crack_cube(1.0, 0.5, 9), 1.0)


def test_quotient_descent_nonconvergence_names_the_iteration_cap():
    config = SolverConfig(grad_tolerance=1e-12, max_iterations=2)
    with pytest.raises(NonConvergence, match="iteration cap") as err:
        crack_poincare(1.0, 0.5, 17, 3.0, config=config)
    assert err.value.reason == "iteration cap"
    # the normalized last iterate rides along, held at 0 on the pins
    mask = crack_cube(1.0, 0.5, 17)
    field = err.value.field
    assert field.shape == mask.grid.shape
    assert np.all(field[mask.pinned] == 0.0)
    assert np.linalg.norm(field) == pytest.approx(1.0, rel=1e-12)
    # and the partial report: 1 / the quotient at the last iterate
    report = err.value.report
    assert isinstance(report, PoincareResult)
    assert report.method == "descent" and report.iterations == 2
    assert report.residual > 1e-12
    assert f"at residual {report.residual:.3e}" in str(err.value)
    assert report.best_constant > 0.0


def test_eigen_path_gates_the_eigsh_residual():
    mask = crack_cube(1.0, 0.25, 65)
    result = _largest_mass_over_stiffness(mask.grid, mask.pinned, 2.0)
    assert 0.0 < result.best_constant < 1.0 and 0.0 < result.residual <= 1e-12
    # the 3-d cube's pinned stiffness block is singular (a pure-gauge mode
    # clears the pins), so eigsh returns a spurious mu with residual ~ 1
    mask = crack_cube(1.0, 0.25, 17, dim=3)
    with pytest.raises(NonConvergence, match="relative residual") as err:
        _largest_mass_over_stiffness(mask.grid, mask.pinned, 2.0)
    # the rejected eigenvector rides along, scattered onto the grid
    field = err.value.field
    assert field.shape == mask.grid.shape
    assert np.all(field[mask.pinned] == 0.0)
    assert np.abs(field[~mask.pinned]).max() > 0.0
    # and the partial report carries the rejected mu and its residual
    report = err.value.report
    assert isinstance(report, PoincareResult)
    assert report.method == "linear" and report.iterations == 0
    assert f"mu = {report.best_constant:.6g}" in str(err.value)
    assert report.residual > 0.0


def test_eigen_path_gates_the_dense_residual():
    # 17^2 once took a dense eigh; eigsh now runs at every size and must
    # keep the same residual gate there
    mask = crack_cube(1.0, 0.25, 17)
    result = _largest_mass_over_stiffness(mask.grid, mask.pinned, 2.0)
    assert 0.0 < result.best_constant < 1.0 and 0.0 < result.residual <= 1e-12


@pytest.mark.parametrize("nodes", [17, 33, 65])
def test_eigen_path_factors_once_and_matches_a_dense_oracle(monkeypatch, nodes):
    calls = []
    splu = quadratics.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(quadratics.spla, "splu", counting_splu)
    mask = crack_cube(1.0, 0.25, nodes)
    result = _largest_mass_over_stiffness(mask.grid, mask.pinned, 2.0)
    free = ~mask.pinned.ravel()
    assert calls == [(free.sum(),) * 2]
    k_ff = quadratics.stiffness_matrix(mask.grid)[free][:, free]
    m_ff = quadratics.mass_matrix(mask.grid)[free][:, free]
    if nodes < 65:
        # the dense generalized eigenproblem of the same free blocks
        oracle = scipy.linalg.eigh(m_ff.toarray(), k_ff.toarray(), eigvals_only=True)[-1]
    else:
        # a dense eigh takes about 20 s here; eigsh with SciPy's own K^-1
        oracle = spla.eigsh(m_ff, k=1, M=k_ff.tocsc(), which="LA",
                            return_eigenvectors=False)[0]
    assert result.best_constant == pytest.approx(oracle, rel=1e-12)


def test_eigen_path_takes_one_free_node_without_arpack():
    # eigsh warns and gives up for k >= n, so one free node is M / K
    grid = GridDiscretization(3, 0.5, 2)
    pinned = np.ones(grid.shape, dtype=bool)
    pinned[1, 1] = False
    result = _largest_mass_over_stiffness(grid, pinned, 2.0)
    k = quadratics.stiffness_matrix(grid)[4, 4]
    m = quadratics.mass_matrix(grid)[4, 4]
    assert result.best_constant == pytest.approx(m / k, rel=1e-15)
    assert result.residual == 0.0


@pytest.mark.parametrize("nodes", [17, 33, 65])
def test_preconditioned_quotient_descent_converges_fast(nodes):
    # without H0 the p = 3 descent took 107, 222 and 452 iterations here,
    # and at tolerance 1e-10 it stalled at the rounding floor on 17^2
    mask = crack_cube(1.0, 0.25, nodes)
    result = best_poincare_constant(mask, 3.0,
                                    SolverConfig(grad_tolerance=1e-7))
    assert result.iterations <= 40
    tight = best_poincare_constant(mask, 3.0,
                                   SolverConfig(grad_tolerance=1e-10))
    assert tight.residual <= 1e-10
    assert result.best_constant == pytest.approx(tight.best_constant, rel=1e-8)


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_nonsingular_cube_above_the_coarse_size_takes_a_lattice_cycle_h0(monkeypatch, p):
    cycles = []

    class CountingCycle(quadratics.LatticeCycle):
        def __init__(self, *args):
            cycles.append(1)
            super().__init__(*args)

    monkeypatch.setattr(quadratics, "LatticeCycle", CountingCycle)
    mask = crack_cube(1.0, 0.25, 65)
    assert (~mask.pinned).sum() > quadratics._COARSE_SIZE
    config = SolverConfig(grad_tolerance=1e-7)
    result = best_poincare_constant(mask, p, config)
    assert cycles == [1]
    # the LU of K as H0 gives the same constant
    cycles.clear()
    lu = best_poincare_constant(mask, p, SolverConfig(grad_tolerance=1e-7,
                                                      prefer_direct=True))
    assert not cycles
    assert result.best_constant == pytest.approx(lu.best_constant, rel=1e-6)


def test_quotient_descent_factors_once(monkeypatch):
    calls = []
    splu = quadratics.spla.splu

    def counting_splu(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(quadratics.spla, "splu", counting_splu)
    crack_poincare(1.0, 0.25, 33, 3.0, config=SolverConfig(grad_tolerance=1e-7))
    assert len(calls) == 1


def test_gauge_mask_quotient_descent_converges_fast():
    # a 2x2 plate of pins in a 9^3 cube leaves a pure-gauge mode, so H0
    # factors the stiffness block with a small node mass added; without
    # H0 the p = 3 descent took 236 iterations
    grid = GridDiscretization(9, 1.0, 3)
    pinned = np.zeros(grid.shape, dtype=bool)
    pinned[4, 3:5, 3:5] = True
    result = best_poincare_constant(ConstraintMask(grid, pinned), 3.0)
    assert result.method == "descent"
    assert result.iterations <= 60
    assert result.residual <= 1e-8
