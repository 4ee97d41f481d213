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
from pcompliance.solver import solve_batch  # noqa: E402
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
