"""Boundary flux extraction and the flux balance (the Green identity with test function 1)."""

import numpy as np
import pytest

from stlab import (
    Measure,
    build_disk,
    build_interval,
    build_rectangle,
    constant_potential,
    density_measure,
    dirac,
    flux_balance_residual,
    load_vector,
    normal_derivative,
    power_distance_potential,
    sample,
    solve_dirichlet,
    solve_truncated_limit,
    uniform_density,
    zero_potential,
)
from stlab.fields import BoundaryTrace, Field
from stlab.kernel import trace_sources
from stlab.measure import total_variation
from test_config_cli import read_csv, write

from stlab.cli import main


def test_zero_field_has_zero_trace(interval64):
    u = Field(interval64, np.zeros(interval64.n_interior))
    t = normal_derivative(interval64, u)
    assert np.all(t.values == 0)


def test_interval_atom_trace(interval64):
    # u' (0) = 1 - x0 for mu = delta_x0 under the inward normal convention
    u = solve_dirichlet(interval64, zero_potential(), dirac([0.5]))
    t = normal_derivative(interval64, u)
    np.testing.assert_allclose(t.values, [0.5, 0.5], atol=1e-10)
    u2 = solve_dirichlet(interval64, zero_potential(), dirac([0.25]))
    t2 = normal_derivative(interval64, u2)
    np.testing.assert_allclose(t2.values, [0.75, 0.25], atol=1e-10)


def test_disk_center_atom_trace_is_uniform():
    d = build_disk(16)
    u = solve_dirichlet(d, zero_potential(), dirac([0.0, 0.0]))
    t = normal_derivative(d, u)
    np.testing.assert_allclose(t.values, 1 / (2 * np.pi), atol=1e-10)


def test_second_order_trace(interval64):
    u = solve_dirichlet(interval64, zero_potential(), dirac([0.5]))
    t2 = normal_derivative(interval64, u, order=2)
    # the kink sits mid-domain, both stencil nodes are on the linear piece
    np.testing.assert_allclose(t2.values, [0.5, 0.5], atol=1e-10)
    uf = solve_dirichlet(interval64, zero_potential(), density_measure(uniform_density(1.0)))
    t2f = normal_derivative(interval64, uf, order=2)
    np.testing.assert_allclose(t2f.values, 0.5, atol=interval64.h)


def _loop_trace(domain, values, order):
    """The trace of ``values`` and the adjoint sources of every boundary node,
    built one boundary node at a time from its neighbors and spacing."""
    trace = np.empty(domain.n_boundary)
    sources = np.zeros((domain.n_interior, domain.n_boundary))
    for b in range(domain.n_boundary):
        s = float(domain.normal_spacing[b])
        terms = [(domain.first_neighbor[b], 1.0 / s)]
        if order == 2:
            terms = [(domain.first_neighbor[b], 4.0 / (2.0 * s)),
                     (domain.second_neighbor[b], -1.0 / (2.0 * s))]
        t = 0.0
        for node, c in terms:
            t += c * float(values[node])
            sources[node, b] += c
        trace[b] = t
    return trace, sources


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("grid", [
    lambda: build_interval(8), lambda: build_rectangle(6), lambda: build_disk(8), lambda: build_disk(6, 5),
], ids=["interval", "square", "disk", "disk6x5"])
def test_trace_is_the_per_node_stencil_to_the_byte(grid, order):
    # every boundary node, the square's corners included; values spread over
    # 16 decades, so any other product or summation order would show
    d = grid()
    rng = np.random.default_rng(order)
    values = rng.standard_normal(d.n_interior) * 10.0 ** rng.integers(-8, 9, d.n_interior)
    trace, sources = _loop_trace(d, values, order)
    assert normal_derivative(d, Field(d, values), order).values.tobytes() == trace.tobytes()
    assert trace_sources(d, None, order).tobytes() == sources.tobytes()
    idx = [d.n_boundary - 1, 0, d.n_boundary // 2]
    assert trace_sources(d, idx, order).tobytes() == sources[:, idx].tobytes()


def test_trace_is_linear(interval64):
    ua = solve_dirichlet(interval64, constant_potential(1.0), dirac([0.3]))
    ub = solve_dirichlet(interval64, constant_potential(1.0), density_measure(uniform_density(1.0)))
    combo = Field(interval64, 2.0 * ua.values - 0.5 * ub.values)
    np.testing.assert_allclose(
        normal_derivative(interval64, combo).values,
        2.0 * normal_derivative(interval64, ua).values
        - 0.5 * normal_derivative(interval64, ub).values,
        atol=1e-12,
    )


def test_trace_l1_norms(interval64):
    t = BoundaryTrace(interval64, np.array([3.0, -4.0]))
    assert t.l1_norm() == pytest.approx(7.0)
    d = build_disk(8)
    tc = BoundaryTrace(d, np.full(d.n_boundary, 2.0))
    assert tc.l1_norm() == pytest.approx(4 * np.pi, rel=0.01)
    tz = BoundaryTrace(d, np.zeros(d.n_boundary))
    assert tz.l1_norm() == 0.0


def test_flux_balance_residual_zero_field(interval64):
    u = Field(interval64, np.zeros(interval64.n_interior))
    r = flux_balance_residual(
        u, normal_derivative(interval64, u), np.zeros(interval64.n_interior),
        load_vector(Measure(), interval64),
    )
    assert r == 0.0


@pytest.mark.parametrize("builder", [lambda: build_interval(32), lambda: build_disk(8)])
def test_flux_balance_residual_exact_on_matched_grids(builder):
    # the trace is defined so that the balance telescopes exactly
    d = builder()
    pot = constant_potential(2.0)
    mu = dirac(d.interior_points[d.n_interior // 3]) + density_measure(uniform_density(1.0))
    u = solve_dirichlet(d, pot, mu)
    r = flux_balance_residual(u, normal_derivative(d, u), sample(pot, d), load_vector(mu, d))
    assert r < 1e-10


def test_flux_balance_residual_rectangle_corner_defect_shrinks():
    # corner trace rows are the only unmatched term; second order in h
    pot = constant_potential(1.0)
    mu = density_measure(uniform_density(1.0))
    residuals = []
    for n in (8, 16, 32):
        d = build_rectangle(n)
        u = solve_dirichlet(d, pot, mu)
        residuals.append(flux_balance_residual(u, normal_derivative(d, u), sample(pot, d),
                                               load_vector(mu, d)))
    assert residuals[2] < residuals[1] < residuals[0]
    assert residuals[1] / residuals[2] > 3.0


def test_flux_balance(interval64):
    # integral of the trace equals mu(Omega) minus the absorbed mass
    pot = constant_potential(4.0)
    mu = dirac([0.6], 2.0)
    u = solve_dirichlet(interval64, pot, mu)
    t = normal_derivative(interval64, u)
    flux = float(np.sum(t.values * interval64.surface_weights))
    absorbed = float(np.sum(4.0 * u.values * interval64.system_weights))
    assert flux + absorbed == pytest.approx(2.0, abs=1e-10)


def test_disk_flux_balance_unit_atom():
    d = build_disk(12)
    u = solve_dirichlet(d, zero_potential(), dirac([0.3, -0.2]))
    t = normal_derivative(d, u)
    assert float(np.sum(t.values * d.surface_weights)) == pytest.approx(1.0, abs=1e-10)


def test_trace_estimate_two_total_variations(interval64):
    cases = [
        (zero_potential(), dirac([0.25], 2.0) + dirac([0.75], -1.0)),
        (constant_potential(3.0), density_measure(uniform_density(1.5))),
        (power_distance_potential(1.5), dirac([0.5])),
    ]
    for pot, mu in cases:
        u, _ = solve_truncated_limit(interval64, pot, mu)
        t = normal_derivative(interval64, u)
        bound = 2 * total_variation(mu, interval64) * (1 + 5 * interval64.h)
        assert t.l1_norm() <= bound


def test_trace_csv_rows(tmp_path):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 64\nmeasure.atom = 0.5,1.0\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    _, rows = read_csv(tmp_path / "o" / "trace.csv")
    assert rows[0] == ["boundary", "coord", "value", "surface_weight"]
    assert len(rows) == 1 + 2
    idx, coord, value, weight = rows[1]
    assert idx == "0"
    assert float(coord) == pytest.approx(0.0)
    assert float(value) == pytest.approx(0.5, abs=1e-10)
    assert float(weight) == 1.0
