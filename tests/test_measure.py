"""Measures: total variation, deposition, splitting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlab import (
    Measure,
    build_interval,
    density_measure,
    dirac,
    power_distance_density,
    table_density,
    total_variation,
    uniform_density,
)
from stlab.measure import (
    MeasureError,
    is_nonnegative,
    load_vector,
    variation,
)


def test_total_variation_single_atom():
    assert total_variation(dirac([0.5])) == pytest.approx(1.0)


def test_total_variation_signed_atoms():
    m = dirac([0.25], 2.0) + dirac([0.75], -3.0)
    assert total_variation(m) == pytest.approx(5.0)


def test_total_variation_unit_density(interval64):
    m = density_measure(uniform_density(1.0))
    assert total_variation(m, interval64) == pytest.approx(1.0, rel=0.01)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_total_variation_power_distance_density_converges(alpha):
    # on the interval the total variation of d^-alpha is 2 (1/2)^(1-alpha) / (1-alpha);
    # the quadrature misses the boundary cells, an error of order h^(1-alpha)
    exact = 2.0 * 0.5 ** (1.0 - alpha) / (1.0 - alpha)
    m = density_measure(power_distance_density(alpha))
    errors = [exact - total_variation(m, build_interval(n)) for n in (32, 64, 128, 256)]
    assert 0.0 < errors[-1] < 0.25 * exact
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(2.0 ** (1.0 - alpha), rel=0.01)


def test_total_variation_nonintegrable_density_is_infinite(interval64):
    m = density_measure(power_distance_density(1.5))
    assert total_variation(m, interval64) == np.inf


def test_load_vector_refuses_nonintegrable_density(interval64):
    # every solve of a measure deposits it here, so this is the one refusal
    for m in (density_measure(power_distance_density(1.5)),
              dirac([0.5]) + density_measure(power_distance_density(1.0)),
              density_measure(uniform_density(1.0)) + density_measure(power_distance_density(2.0))):
        with pytest.raises(MeasureError, match="infinite total variation") as info:
            load_vector(m, interval64)
        assert "finite measure" in str(info.value)


def test_zero_measure():
    z = Measure()
    assert z.is_zero()
    assert total_variation(z) == 0.0


def test_atom_must_be_interior(interval64):
    with pytest.raises(MeasureError):
        load_vector(dirac([1.0]), interval64)
    with pytest.raises(MeasureError):
        load_vector(dirac([1.25]), interval64)


def test_deposit_atom_on_node(interval64):
    d = interval64
    x = d.interior_points[10]
    load = load_vector(dirac(x, 1.0), d)
    expected = np.zeros(d.n_interior)
    expected[10] = 1.0
    np.testing.assert_allclose(load, expected, atol=1e-12)


def test_deposit_atom_midway_splits_evenly(interval64):
    d = interval64
    x = d.interior_points[10, 0] + d.h / 2
    load = load_vector(dirac([x], 1.0), d)
    nz = np.nonzero(load)[0]
    np.testing.assert_array_equal(nz, [10, 11])
    np.testing.assert_allclose(load[nz], [0.5, 0.5], atol=1e-12)


@given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=-3, max_value=3))
def test_atom_load_conserves_mass(x, weight):
    d = build_interval(32)
    lv = load_vector(dirac([x], weight), d)
    assert lv.sum() == pytest.approx(weight, abs=1e-12)


def test_density_load_is_quadrature(interval64):
    d = interval64
    lv = load_vector(density_measure(uniform_density(2.0)), d)
    np.testing.assert_allclose(lv, 2.0 * d.volumes, atol=1e-14)


def test_load_is_additive(interval64):
    d = interval64
    m1 = dirac([0.3], 1.5)
    m2 = density_measure(uniform_density(0.5))
    m3 = density_measure(power_distance_density(0.5))
    # the last pair adds two densities into one "sum" density
    for a, b in ((m1, m2), (m2, m3)):
        np.testing.assert_allclose(load_vector(a + b, d), load_vector(a, d) + load_vector(b, d),
                                   atol=1e-14)
        assert total_variation(a + b, d) == pytest.approx(
            total_variation(a, d) + total_variation(b, d), rel=1e-14)
    assert (m2 + m3).density.family == "sum"


def test_variation(interval64):
    d = interval64
    m = dirac([0.25], 2.0) + dirac([0.75], -3.0)
    v = variation(m, d)
    assert is_nonnegative(v, d)
    assert total_variation(v, d) == total_variation(m, d) == pytest.approx(5.0)
    np.testing.assert_allclose(
        load_vector(v, d),
        load_vector(dirac([0.25], 2.0), d) + load_vector(dirac([0.75], 3.0), d),
        atol=1e-14,
    )


def test_variation_of_signed_density_keeps_the_tag(interval64):
    d = interval64
    f = np.sin(2 * np.pi * d.interior_points[:, 0])
    v = variation(density_measure(table_density(f)), d)
    np.testing.assert_array_equal(v.density.evaluate(d), np.abs(f))
    assert total_variation(v, d) == pytest.approx(total_variation(density_measure(table_density(f)), d))
    # a non-integrable density stays of infinite total variation
    v = variation(density_measure(power_distance_density(1.5)), d)
    assert not v.density.integrable
    assert total_variation(v, d) == np.inf


def test_variation_of_nonnegative_measure_loads_the_same(interval64):
    d = interval64
    m = dirac([0.3], 0.5) + density_measure(uniform_density(2.0))
    np.testing.assert_array_equal(load_vector(variation(m, d), d), load_vector(m, d))


def test_is_nonnegative(interval64):
    assert is_nonnegative(dirac([0.5]), interval64)
    assert not is_nonnegative(dirac([0.5], -1.0), interval64)
    assert is_nonnegative(density_measure(uniform_density(0.0)), interval64)


def test_table_density_shape_check(interval64):
    with pytest.raises(MeasureError):
        load_vector(density_measure(table_density(np.ones(5))), interval64)

