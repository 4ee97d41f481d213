"""Metamorphic laws of the discrete problem, checked on random inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pcompliance.geometry import (  # noqa: E402
    CrackSet,
    GridDiscretization,
    axis_segment,
    rasterize,
)
from pcompliance.poincare import quotient_forms  # noqa: E402
from pcompliance.solver import energy_and_gradient, solve_batch  # noqa: E402
from pcompliance.sources import random_smooth, sample_on_grid  # noqa: E402

_GRID = GridDiscretization(33, 1.0, 2)
_MASK = rasterize(CrackSet.of(axis_segment((-0.5, 0.0), 0, 1.0)), _GRID)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.05, 20.0),
       negate=st.booleans())
def test_p2_compliance_scales_with_the_square_of_the_source(seed, t, negate):
    # C(t f) = |t|^p' C(f), and p' = 2 on the linear path
    t = -t if negate else t
    f = sample_on_grid(random_smooth(np.random.default_rng(seed), 2, 1.0), _GRID)
    (_, base), (_, scaled) = solve_batch([f, t * f], _GRID, _MASK, 2.0)
    assert base.method == scaled.method == "linear"
    expected = t * t * base.compliance_energy_form
    assert abs(scaled.compliance_energy_form - expected) <= 1e-12 * expected


def _random_field(data):
    """A random node field on a 2-d or 3-d grid of at most 33^2 nodes,
    with a random set of pinned nodes."""
    dim = data.draw(st.sampled_from((2, 3)))
    n = data.draw(st.integers(3, 33 if dim == 2 else 10))
    grid = GridDiscretization(n, data.draw(st.floats(0.25, 4.0)), dim)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pinned = rng.random(grid.shape) < 0.2
    return grid, pinned, rng.standard_normal(grid.shape)


def _close(actual, expected):
    scale = np.abs(expected).max(initial=0.0)
    return np.abs(np.asarray(actual) - expected).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=50, deadline=None)
@given(data=st.data(), p=st.floats(1.1, 4.0), t=st.floats(0.1, 10.0),
       negate=st.booleans())
def test_p_density_kernels_are_homogeneous(data, p, t, negate):
    # at eps = 0 each p-density is homogeneous of degree p in the field:
    # values scale by |t|^p and node gradients by |t|^(p-2) t
    t = -t if negate else t
    grid, pinned, u = _random_field(data)
    value_factor = abs(t) ** p
    grad_factor = abs(t) ** (p - 2.0) * t
    zero_load = np.zeros(grid.shape)
    value, grad = energy_and_gradient(u, zero_load, grid, pinned, p, 0.0)
    value_t, grad_t = energy_and_gradient(t * u, zero_load, grid, pinned, p, 0.0)
    assert _close(value_t, value_factor * value)
    assert _close(grad_t, grad_factor * grad)
    num, d_num, den, d_den = quotient_forms(u, grid, pinned, p, 0.0)
    num_t, d_num_t, den_t, d_den_t = quotient_forms(t * u, grid, pinned, p, 0.0)
    assert _close(num_t, value_factor * num)
    assert _close(den_t, value_factor * den)
    assert _close(d_num_t, grad_factor * d_num)
    assert _close(d_den_t, grad_factor * d_den)
