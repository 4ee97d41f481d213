import numpy as np
import pytest

from pcompliance.geometry import CrackSet, GridDiscretization, axis_segment
from pcompliance.solver import SolverConfig
from pcompliance.sources import GaussianBump, random_smooth
from pcompliance.stability import (
    StabilityRecord,
    check_stability,
    lq_norm,
    source_exponent,
    stability_experiment,
    truncation_bounds,
    z_form,
    z_modulus,
)


def test_source_exponent_branches():
    # below the dimension: conjugate of the Sobolev exponent
    assert source_exponent(1.5, 2) == pytest.approx(1.2)
    assert source_exponent(2.0, 3) == pytest.approx(1.2)
    # at the dimension: any exponent above 1 works, 2 is the convention
    assert source_exponent(2.0, 2) == 2.0
    assert source_exponent(3.0, 3) == 2.0
    # above the dimension: plain integrability
    assert source_exponent(3.0, 2) == 1.0
    with pytest.raises(ValueError):
        source_exponent(1.0, 2)


def test_z_modulus_values():
    assert z_modulus(2.0, 3.0) == pytest.approx(2.0 ** 1.5)
    # norms are irrelevant once p >= 2
    assert z_modulus(2.0, 3.0, norms=(5.0, 7.0)) == pytest.approx(2.0 ** 1.5)
    assert z_modulus(3.0, 2.0) == pytest.approx(9.0)
    assert z_modulus(0.0, 2.5) == 0.0
    assert z_modulus(2.0, 1.5, norms=(1.0, 1.0)) == pytest.approx(
        2.0 ** 0.5 * 2.0 ** 1.5)
    with pytest.raises(ValueError):
        z_modulus(2.0, 1.5)
    with pytest.raises(ValueError):
        z_modulus(-1.0, 2.0)
    with pytest.raises(ValueError):
        z_modulus(1.0, 0.5)


def test_z_form_strings():
    assert z_form(2.0) == "t^p'"
    assert "2-p" in z_form(1.5)


def test_lq_norm_constant_field():
    grid = GridDiscretization(17, 0.5, 2)
    f = np.full(grid.shape, 3.0)
    # unit box: the L^q norm of a constant is the constant
    assert lq_norm(f, grid, 1.0) == pytest.approx(3.0, rel=1e-12)
    assert lq_norm(f, grid, 2.5) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        lq_norm(f, grid, 0.5)


def test_identical_sources_need_no_constant():
    grid = GridDiscretization(33, 0.5, 2)
    f = GaussianBump(center=(0.1, 0.0), width=0.15)
    record = check_stability(f, f, CrackSet.empty(), 2.0, grid)
    assert record.norm_gap == 0.0
    assert record.z_value == 0.0
    assert record.required_A == 0.0
    assert record.certified_A == 0.0
    assert record.compliance_1 == pytest.approx(record.compliance_2, rel=1e-12)
    assert record.satisfied(0.0)


@pytest.mark.parametrize("p,tol", [(2.0, 1e-8), (1.5, 1e-6), (3.0, 1e-7)])
def test_certified_constant_dominates_required(p, tol):
    # certified_A comes from the pointwise convexity bound, so it must be
    # an upper bound for the per-pair optimal constant on every record
    rng = np.random.default_rng(2)
    grid = GridDiscretization(33, 0.5, 2)
    crack = CrackSet.of(axis_segment((-0.2, 0.05), 0, 0.4))
    cfg = SolverConfig(grad_tolerance=tol)
    for geometry in (CrackSet.empty(), crack):
        f1 = random_smooth(rng, 2, 0.5)
        f2 = random_smooth(rng, 2, 0.5)
        record = check_stability(f1, f2, geometry, p, grid, cfg)
        assert record.certified_A >= record.required_A - 1e-9
        assert record.satisfied(record.certified_A)
        assert record.q0 == source_exponent(p, 2)


def test_satisfied_threshold_is_sharp():
    record = StabilityRecord(
        p=2.0, q0=2.0, norm_gap=1.0, z_value=1.0,
        compliance_1=10.0, compliance_2=1.0,
        required_A=8.0, certified_A=9.0)
    assert record.satisfied(8.0)
    assert not record.satisfied(7.9)


def test_stability_experiment_transfers_to_holdout():
    bound = stability_experiment(2.0, nodes_per_side=33, pairs=6,
                                 calibration_count=3, seed=1)
    assert bound.violations == 0
    assert bound.measured_A > 0.0
    assert len(bound.calibration) == 3
    assert len(bound.holdout) == 3
    assert bound.q0 == 2.0
    assert bound.z_form == "t^p'"
    # the safety margin is part of the published constant
    top = max(r.certified_A for r in bound.calibration)
    assert bound.measured_A == pytest.approx(1.3 * top, rel=1e-12)


def test_stability_experiment_validation():
    with pytest.raises(ValueError):
        stability_experiment(2.0, pairs=5, calibration_count=5)
    with pytest.raises(ValueError):
        stability_experiment(2.0, pairs=5, calibration_count=0)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_truncation_gaps_decrease_and_vanish(p):
    grid = GridDiscretization(33, 0.5, 2)
    f = GaussianBump(center=(0.0, 0.0), width=0.05, value=50.0)
    levels = [0.0, 5.0, 25.0, 50.0]
    rows = truncation_bounds(f, levels, p, grid, A=2.0)
    assert [r.level for r in rows] == levels
    gaps = [r.norm_gap for r in rows]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    # the top level clears the peak, so the gap and the bound are exactly 0
    assert rows[-1].norm_gap == 0.0
    assert rows[-1].bound == 0.0
    assert all(r.bound >= 0.0 for r in rows)
