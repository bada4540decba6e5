"""Potentials: sampling, truncation, distance-weighted integrability."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlab import (
    Solver,
    TruncationSchedule,
    build_disk,
    build_interval,
    constant_potential,
    interior_singularity_potential,
    power_distance_potential,
    sample,
    table_potential,
    weighted_l1,
    zero_potential,
)
from stlab.operator import walk
from stlab.potential import PotentialError, ladder_diverges


def test_sample_zero_and_constant(interval64):
    assert np.all(sample(zero_potential(), interval64) == 0)
    np.testing.assert_allclose(sample(constant_potential(3.0), interval64), 3.0)


def test_sample_inverse_distance():
    d = build_interval(8)
    v = sample(power_distance_potential(1.0), d)
    # node at x = 1/8 has d = 1/8
    assert v[0] == pytest.approx(8.0)


def test_truncate_caps_values():
    # the schedule solves level k with min(V, k)
    d = build_interval(10)
    solver = Solver(schedule=TruncationSchedule(J=2))
    steps = list(walk(d, power_distance_potential(1.0), np.ones(d.n_interior), solver))
    assert [level for level, _, _ in steps] == [1.0, 2.0, 4.0]
    v = steps[-1][1].v_values
    # node at d = 0.1 holds min(10, 4)
    assert v[0] == pytest.approx(4.0)
    assert np.all(v <= 4.0 + 1e-15)


def test_truncate_below_bound_is_identity(interval64):
    v = np.minimum(sample(constant_potential(2.0), interval64), 5.0)
    np.testing.assert_allclose(v, 2.0)


def test_truncate_composition(interval64):
    p = power_distance_potential(1.5)
    v = sample(p, interval64)
    a = np.minimum(np.minimum(v, 6.0), 2.0)
    b = np.minimum(v, 2.0)
    np.testing.assert_allclose(a, b)


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_truncation_monotone_in_level(k1, k2):
    d = build_interval(16)
    p = power_distance_potential(2.0)
    lo, hi = sorted((k1, k2))
    vlo = np.minimum(sample(p, d), lo)
    vhi = np.minimum(sample(p, d), hi)
    assert np.all(vlo <= vhi + 1e-12)
    assert np.all(vhi <= sample(p, d) + 1e-12)


def test_weighted_l1_zero(interval64):
    assert float(weighted_l1(zero_potential(), interval64)) == 0.0


def test_weighted_l1_integrable_case():
    # int d^{-3/2} * d = int d^{-1/2} = 2 * sqrt(2) over the unit interval
    w = weighted_l1(power_distance_potential(1.5), build_interval(32))
    assert not w.divergent
    assert float(w) == pytest.approx(2 * np.sqrt(2), rel=0.05)


def test_weighted_l1_divergent_case():
    w = weighted_l1(power_distance_potential(2.0), build_interval(32))
    assert w.divergent
    assert float(w) == np.inf


def test_weighted_l1_monotone_under_truncation():
    d = build_interval(32)
    p = power_distance_potential(1.5)
    # weighted_l1 refines the grid, which a table cannot follow: compare the
    # quadrature on the coarsest grid of the ladder
    v = sample(p, d)
    vals = [float(np.sum(np.minimum(v, k) * d.distances * d.volumes)) for k in (1.0, 4.0, 16.0, 64.0)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(q <= weighted_l1(p, d).history[0] + 1e-12 for q in vals)


def test_sample_reports_singular_node():
    # even n puts a node exactly on the singular point
    d = build_interval(64)
    p = interior_singularity_potential([0.5], 2.0)
    with pytest.raises(PotentialError, match="node"):
        sample(p, d)


def test_interior_singularity_off_node_is_finite():
    d = build_interval(65)
    v = sample(interior_singularity_potential([1 / 3], 2.0), d)
    assert np.all(np.isfinite(v))
    assert np.all(v >= 0)


@pytest.mark.parametrize("x0,disk", [([0.3, 0.2], False), ([0.1], True)],
                         ids=["2d-on-interval", "1d-on-disk"])
def test_interior_singularity_rejects_wrong_dimension(x0, disk):
    # a scalar x0 would broadcast to the point (x0, x0) on the disk
    d = build_disk(8) if disk else build_interval(16)
    with pytest.raises(PotentialError, match="x0"):
        sample(interior_singularity_potential(x0, 2.0), d)


def test_schedule_levels():
    s = TruncationSchedule()
    levels = s.levels()
    assert len(levels) == 15
    np.testing.assert_allclose(levels, [2.0 ** j for j in range(15)])
    assert TruncationSchedule(J=3, base=3.0).levels()[-1] == pytest.approx(27.0)


@pytest.mark.parametrize("J,base", [(1100, 2.0), (2, 1e200)], ids=["j", "base"])
def test_schedule_rejects_an_overflowing_top_level(J, base):
    with pytest.raises(PotentialError, match="overflows"):
        TruncationSchedule(J=J, base=base)
    with pytest.raises(PotentialError, match="finite"):
        TruncationSchedule(J=J, base=float("inf"))


def test_boundedness_flags():
    assert zero_potential().is_bounded()
    assert constant_potential(7.0).is_bounded()
    assert not power_distance_potential(1.5).is_bounded()
    d = build_interval(16)
    assert table_potential(np.minimum(sample(power_distance_potential(1.5), d), 8.0)).is_bounded()


def test_ladder_divergence_detector():
    # geometric growth trips the ratio test
    assert ladder_diverges([1.0, 2.0, 4.0])
    # log-type growth: ratios shrink but increments do not decay
    assert ladder_diverges([1.0, 2.0, 3.0])
    # geometric increment decay is accepted as convergent
    assert not ladder_diverges([1.0, 1.5, 1.75])
    assert not ladder_diverges([1.0, 1.0, 1.0])
