"""Discrete Schrodinger operator: assembly, solves, schedule limits, energy."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

from stlab import (
    Measure,
    Solver,
    TruncationSchedule,
    assemble,
    build_disk,
    build_interval,
    build_rectangle,
    constant_potential,
    density_measure,
    dirac,
    energy,
    kernel_set,
    power_distance_potential,
    sample,
    solve_dirichlet,
    solve_truncated_limit,
    split_signed,
    table_potential,
    truncation_kernels,
    uniform_density,
    zero_potential,
)
from stlab import operator as operator_module
from stlab.kernel import trace_sources
from stlab.measure import load_vector, total_variation
from stlab.operator import DiscreteOperator, SolverError, cached_operators, walk
from stlab.potential import PotentialError

CAPPED_CG = Solver(method="cg", max_iter=1)


def test_assemble_1d_stencil():
    d = build_interval(4)
    m = assemble(d, zero_potential()).system.toarray() / d.h ** d.dim
    h2 = d.h ** 2
    expected = (np.diag([2.0] * 3) + np.diag([-1.0] * 2, 1) + np.diag([-1.0] * 2, -1)) / h2
    np.testing.assert_allclose(m, expected, atol=1e-12)


def test_assemble_constant_shifts_diagonal():
    d = build_interval(4)
    m0 = assemble(d, zero_potential()).system.toarray() / d.h ** d.dim
    mc = assemble(d, constant_potential(3.0)).system.toarray() / d.h ** d.dim
    np.testing.assert_allclose(mc - m0, 3.0 * np.eye(3), atol=1e-12)


def test_apply_zero_field(interval64):
    op = assemble(interval64, constant_potential(1.0))
    np.testing.assert_allclose(op.system @ np.zeros(interval64.n_interior), 0.0)


def test_assemble_rejects_unbounded(interval64):
    with pytest.raises(PotentialError):
        assemble(interval64, power_distance_potential(1.5))


def test_operator_is_symmetric_positive(interval64):
    op = assemble(interval64, constant_potential(2.0))
    s = op.system.toarray()
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    eig = np.linalg.eigvalsh(s)
    assert eig.min() > 0


def test_solve_atom_matches_green_function(interval64):
    # G(x, y) = min(x, y) (1 - max(x, y)); u(0.25) = 0.25 * 0.5
    u = solve_dirichlet(interval64, zero_potential(), dirac([0.5]))
    x = interval64.interior_points[:, 0]
    np.testing.assert_allclose(u.values, np.minimum(x, 0.5) * (1 - np.maximum(x, 0.5)), atol=1e-10)
    i = int(np.argmin(np.abs(x - 0.25)))
    assert u.values[i] == pytest.approx(0.125, abs=1e-10)


def test_solve_uniform_source(interval64):
    # u(x) = x(1-x)/2 up to O(h^2)
    u = solve_dirichlet(interval64, zero_potential(), density_measure(uniform_density(1.0)))
    x = interval64.interior_points[:, 0]
    i = int(np.argmin(np.abs(x - 0.5)))
    assert u.values[i] == pytest.approx(0.125, abs=interval64.h ** 2)


def test_solve_zero_measure_is_zero(interval64):
    u = solve_dirichlet(interval64, constant_potential(1.0), Measure())
    assert np.all(u.values == 0)


def test_maximum_principle(interval64):
    rng = np.random.default_rng(7)
    vals = rng.uniform(0, 1, interval64.n_interior)
    from stlab import table_density, density_measure as dm
    u = solve_dirichlet(interval64, constant_potential(0.5), dm(table_density(vals)))
    assert np.all(u.values >= -1e-12)


def test_comparison_in_potential(interval64):
    mu = dirac([0.5])
    u0 = solve_dirichlet(interval64, zero_potential(), mu)
    u1 = solve_dirichlet(interval64, constant_potential(5.0), mu)
    assert np.all(u0.values >= u1.values - 1e-9)
    assert u0.values.max() > u1.values.max()


def test_linearity_in_measure(interval64):
    m1 = dirac([0.3], 1.0)
    m2 = density_measure(uniform_density(1.0))
    combo = solve_dirichlet(interval64, constant_potential(1.0), m1 + m2)
    parts = (
        solve_dirichlet(interval64, constant_potential(1.0), m1).values
        + solve_dirichlet(interval64, constant_potential(1.0), m2).values
    )
    np.testing.assert_allclose(combo.values, parts, atol=1e-10)


@given(st.floats(min_value=0.1, max_value=0.9), st.floats(min_value=0.1, max_value=4.0))
def test_absorption_bounded_by_mass(x0, c):
    d = build_interval(32)
    mu = dirac([x0], 1.0)
    u = solve_dirichlet(d, constant_potential(c), mu)
    absorbed = float(np.sum(c * u.values * d.system_weights))
    assert absorbed <= total_variation(mu) * (1 + 5 * d.h)


def test_cg_matches_direct(interval64):
    load = load_vector(dirac([0.37]) + density_measure(uniform_density(1.0)), interval64)
    op = assemble(interval64, constant_potential(1.0))
    x_direct = op.solve_load(load, Solver(method="direct"))
    x_cg = op.solve_load(load, Solver(method="cg"))
    np.testing.assert_allclose(x_cg, x_direct, atol=1e-8)


def test_cg_iteration_cap_raises(interval64):
    op = assemble(interval64, zero_potential())
    with pytest.raises(SolverError, match="residual"):
        op.solve_load(np.ones(interval64.n_interior), Solver(method="cg", max_iter=1))


@pytest.mark.parametrize("solve", [
    lambda d: solve_dirichlet(d, zero_potential(), dirac([0.5]), solver=CAPPED_CG),
    lambda d: truncation_kernels(d, power_distance_potential(1.5), 0, CAPPED_CG),
], ids=["solve_dirichlet", "truncation_kernels"])
def test_cg_iteration_cap_reaches_library_solves(interval64, solve):
    with pytest.raises(SolverError, match="did not converge in 1 iterations"):
        solve(interval64)


@pytest.mark.parametrize("kwargs,field", [
    ({"tol": 0.0}, "tol"),
    ({"tol": -1.0}, "tol"),
    ({"tol": float("nan")}, "tol"),
    ({"tol": float("inf")}, "tol"),
    ({"method": "lu"}, "method"),
    ({"max_iter": 0}, "max_iter"),
    ({"max_iter": -5}, "max_iter"),
], ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "method-unknown",
        "max_iter-zero", "max_iter-negative"])
def test_solver_rejects_invalid_settings(kwargs, field):
    with pytest.raises(ValueError, match=field):
        Solver(**kwargs)


WALK_CASES = {
    "rect16-atom": (lambda: build_rectangle(16), [[0.4, 0.55]]),
    "rect16-signed": (lambda: build_rectangle(16), [[0.4, 0.55], [0.7, 0.3]]),
    "disk8-atom": (lambda: build_disk(8), [[0.2, -0.1]]),
    "disk8-signed": (lambda: build_disk(8), [[0.2, -0.1], [-0.3, 0.25]]),
}


def _walk(name, factorizations):
    """Every level the walk solves beside a fresh direct solve; returns the
    number of levels solved and the factorizations the walk made."""
    build, atoms = WALK_CASES[name]
    d = build()
    pot = power_distance_potential(1.5)
    # a signed pair reaches the walk as its two nonnegative parts, two columns
    load = np.column_stack([load_vector(dirac(x), d) for x in atoms])
    solved = [(level, u) for level, _, u in walk(d, pot, load) if u is not None]
    calls, live_factored = factorizations
    walk_factorizations = len(calls)
    # the walk drops its stale factor before it makes the next
    assert live_factored == [0] * walk_factorizations
    full = sample(pot, d)
    for level, u in solved:
        ref = DiscreteOperator(d, np.minimum(full, level)).solve_load(load)
        np.testing.assert_allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    return len(solved), walk_factorizations


@pytest.mark.parametrize("name", list(WALK_CASES))
def test_walk_pcg_levels_match_direct(name, factorizations):
    levels, walk_factorizations = _walk(name, factorizations)
    assert levels > 2
    assert walk_factorizations == 1


@pytest.mark.parametrize("name", list(WALK_CASES))
def test_walk_refactors_when_pcg_misses_budget(name, factorizations, monkeypatch):
    monkeypatch.setattr(operator_module, "PCG_BUDGET", 1)
    levels, walk_factorizations = _walk(name, factorizations)
    assert walk_factorizations == levels


def test_wide_short_schedule_factors_once(factorizations):
    # a schedule that ends below max V_h solves the kernels at its top level
    calls, live_factored = factorizations
    d = build_disk(32)
    pot = power_distance_potential(1.5)
    kernel_set(d, pot, solver=Solver(schedule=TruncationSchedule(J=4)), with_reference=False)
    assert len(calls) == 1
    # the default schedule reaches max V_h: one solve with the full sample
    kernel_set(d, pot, with_reference=False)
    assert len(calls) == 2
    assert live_factored == [0, 0]


def test_walk_solves_cached_factors_directly(factorizations, monkeypatch):
    calls, _ = factorizations
    pcg = []
    real_cg = spla.cg
    monkeypatch.setattr(spla, "cg", lambda *args, **kwargs: pcg.append(args) or real_cg(*args, **kwargs))
    d = build_disk(8)
    pot = power_distance_potential(1.5)
    with cached_operators(d):
        wide = [u for _, _, u in walk(d, pot, trace_sources(d)) if u is not None]
        narrow = [u for _, _, u in walk(d, pot, load_vector(dirac([0.2, -0.1]), d))
                  if u is not None]
    assert len(narrow) == len(wide) == len(calls) > 2
    assert pcg == []


def test_walk_solves_every_level_through_solve_load(monkeypatch):
    solves = []
    real_solve = DiscreteOperator.solve_load
    monkeypatch.setattr(DiscreteOperator, "solve_load",
                        lambda self, *args: solves.append(self) or real_solve(self, *args))
    d = build_rectangle(16)
    steps = list(walk(d, power_distance_potential(1.5), load_vector(dirac([0.4, 0.55]), d)))
    solved = [op for _, op, u in steps if u is not None]
    assert len(solved) > 2 and solves == solved
    # saturated levels carry the operator of the last level solved
    saturated = [op for _, op, u in steps if u is None]
    assert saturated and all(op is solved[-1] for op in saturated)


def test_schedule_saturates_for_bounded_potential(interval64):
    u, diag = solve_truncated_limit(interval64, constant_potential(6.0), dirac([0.5]))
    assert diag.saturated
    # once k passes the bound the iterates stop moving
    assert diag.l1_distances[-1] == 0.0
    ub = solve_dirichlet(interval64, constant_potential(6.0), dirac([0.5]))
    np.testing.assert_allclose(u.values, ub.values, atol=1e-12)


def test_schedule_iterates_monotone_for_nonnegative_data():
    d = build_interval(128)
    u, diag = solve_truncated_limit(d, power_distance_potential(1.5), dirac([0.5]))
    assert diag.monotone
    assert diag.converged
    assert np.all(u.values > 0)


def test_hardy_potential_suppresses_solution():
    d = build_interval(128)
    u, _ = solve_truncated_limit(d, power_distance_potential(2.0), dirac([0.5]))
    u0 = solve_dirichlet(d, zero_potential(), dirac([0.5]))
    x = d.interior_points[:, 0]
    i = int(np.argmin(np.abs(x - 0.5)))
    assert u.values[i] < 0.25
    assert u.values[i] < u0.values[i]


@given(st.sampled_from(["interval32", "rect12"]), st.floats(min_value=0.5, max_value=3.0),
       st.integers(min_value=0, max_value=10_000))
def test_signed_walk_columns_are_monotone(grid, alpha, seed):
    # each nonnegative part of a signed measure is its own monotone limit
    d = build_interval(32) if grid == "interval32" else build_rectangle(12)
    rng = np.random.default_rng(seed)
    locs = rng.uniform(0.1, 0.9, size=(2, d.dim))
    mu = dirac(locs[0], rng.uniform(0.1, 2.0)) + dirac(locs[1], -rng.uniform(0.1, 2.0))
    load = np.column_stack([load_vector(p, d) for p in split_signed(mu, d)])
    prev = None
    for _, _, u in walk(d, power_distance_potential(alpha), load):
        if u is None:
            break
        if prev is not None:
            assert np.all(u <= prev + 1e-9)
        prev = u


def test_schedule_limit_splits_signed_measure(interval64):
    m = dirac([0.3], 1.0) + dirac([0.7], -2.0)
    u, _ = solve_truncated_limit(interval64, power_distance_potential(1.5), m)
    up, _ = solve_truncated_limit(interval64, power_distance_potential(1.5), dirac([0.3], 1.0))
    un, _ = solve_truncated_limit(interval64, power_distance_potential(1.5), dirac([0.7], 2.0))
    np.testing.assert_allclose(u.values, up.values - un.values, atol=1e-9)


def test_energy_of_zero_field(interval64):
    z = np.zeros(interval64.n_interior)
    assert energy(interval64, zero_potential(), density_measure(uniform_density(1.0)), z) == 0.0


def test_energy_of_solution():
    d = build_interval(256)
    f = density_measure(uniform_density(1.0))
    u = solve_dirichlet(d, zero_potential(), f)
    e = energy(d, zero_potential(), f, u.values)
    assert e == pytest.approx(-1 / 24, abs=2 * d.h ** 2)


def test_energy_minimized_by_solution(interval64):
    f = density_measure(uniform_density(1.0))
    u = solve_dirichlet(interval64, constant_potential(2.0), f)
    e0 = energy(interval64, constant_potential(2.0), f, u.values)
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.standard_normal(interval64.n_interior) * 0.1
        assert energy(interval64, constant_potential(2.0), f, u.values + w) >= e0 - 1e-12


def test_energy_euler_lagrange_identity(interval64):
    # E(u + w) - E(u) = 0.5 w^T K w exactly when u solves the system
    f = density_measure(uniform_density(1.0))
    pot = constant_potential(1.0)
    op = assemble(interval64, pot)
    u = solve_dirichlet(interval64, pot, f, operator=op)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(interval64.n_interior)
    gain = energy(interval64, pot, f, u.values + w) - energy(interval64, pot, f, u.values)
    quad = 0.5 * float(w @ (op.system @ w))
    assert gain == pytest.approx(quad, rel=1e-9)


def test_disk_center_atom_profile():
    # -Laplace u = delta_0 on the unit disk: u = -log r / (2 pi);
    # the innermost ring carries the O(h) smearing of the atom, skip it
    d = build_disk(16)
    u = solve_dirichlet(d, zero_potential(), dirac([0.0, 0.0]))
    r = np.linalg.norm(d.interior_points, axis=1)
    away = r > 2.0 / 16
    np.testing.assert_allclose(
        u.values[away], -np.log(r[away]) / (2 * np.pi), atol=5e-3,
    )
