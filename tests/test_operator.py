"""Discrete Schrodinger operator: assembly, solves, schedule limits, energy."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, strategies as st

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
    interior_singularity_potential,
    kernel_set,
    power_distance_potential,
    sample,
    solve_dirichlet,
    solve_truncated_limit,
    table_potential,
    truncation_kernels,
    uniform_density,
    zero_potential,
)
from stlab import operator as operator_module
from stlab.measure import load_vector, total_variation
from stlab.operator import (
    DEFAULT_TOL,
    DiscreteOperator,
    PCG_BUDGET,
    SolverError,
    _disk_coefs,
    _disk_diagonal,
    _stiffness,
    cached_operators,
    limit_operator,
    walk,
)
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


SYSTEM_GRIDS = {
    "interval64": lambda: build_interval(64),
    "rect16": lambda: build_rectangle(16),
    "rect64": lambda: build_rectangle(64),
    "disk8": lambda: build_disk(8),
    "disk32": lambda: build_disk(32),
}
SYSTEM_SAMPLES = {
    "zero": lambda d: np.zeros(d.n_interior),
    "random": lambda d: np.random.default_rng(0).random(d.n_interior),
    "truncated": lambda d: np.minimum(sample(power_distance_potential(1.5), d), 64.0),
}


@pytest.mark.parametrize("v", list(SYSTEM_SAMPLES))
@pytest.mark.parametrize("grid", list(SYSTEM_GRIDS))
def test_system_is_k_plus_vw_bit_for_bit(grid, v):
    # the system assembles its own K and adds V w on its diagonal in place;
    # it must equal the sparse sum to the byte, so no solve moves
    d = SYSTEM_GRIDS[grid]()
    vv = SYSTEM_SAMPLES[v](d)
    K = _stiffness(d)
    system = DiscreteOperator(d, vv).system
    expected = (K + sp.diags(vv * d.system_weights)).tocsc()
    for name in ("indptr", "indices", "data"):
        got, want = getattr(system, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("v", ["zero", "random"])
@pytest.mark.parametrize("grid", list(SYSTEM_GRIDS))
def test_operators_on_one_grid_hold_distinct_systems(grid, v):
    # nothing caches K on the grid: two operators hold distinct matrices,
    # and a write to one operator's system cannot reach a later operator's
    d = SYSTEM_GRIDS[grid]()
    vv = SYSTEM_SAMPLES[v](d)
    first, second = DiscreteOperator(d, vv).system, DiscreteOperator(d, vv).system
    assert first is not second
    for name in ("indptr", "indices", "data"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
    want = {name: getattr(second, name).tobytes() for name in ("indptr", "indices", "data")}
    first.data[:] = 1.0
    first.indices[:] = 0
    later = DiscreteOperator(d, vv).system
    assert {name: getattr(later, name).tobytes() for name in want} == want


STENCIL_GRIDS = {
    "interval4": lambda: build_interval(4),
    "interval17": lambda: build_interval(17),
    "interval64": lambda: build_interval(64),
    "rect4": lambda: build_rectangle(4),
    "rect16": lambda: build_rectangle(16),
    "rect64": lambda: build_rectangle(64),
    "disk4x4": lambda: build_disk(4, 4),
    "disk6x5": lambda: build_disk(6, 5),
    "disk8x32": lambda: build_disk(8, 32),
    "disk32x128": lambda: build_disk(32, 128),
}


@pytest.mark.parametrize("v", ["zero", "random"])
@pytest.mark.parametrize("columns", [None, 7])
@pytest.mark.parametrize("grid", list(STENCIL_GRIDS))
def test_stencil_apply_matches_k(grid, columns, v):
    # solves apply K + diag(V w) by K's stencil on every grid, never by the
    # matrix; it is the same operator up to the order of the sums
    d = STENCIL_GRIDS[grid]()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(d.n_interior if columns is None else (d.n_interior, columns))
    vv = SYSTEM_SAMPLES[v](d)
    got = DiscreteOperator(d, vv)._apply(x)
    vw = vv * d.system_weights
    want = _stiffness(d) @ x + (vw if columns is None else vw[:, None]) * x
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.all(err <= 1e-15), err


@pytest.mark.parametrize("v", ["zero", "random"])
@pytest.mark.parametrize("grid", list(STENCIL_GRIDS))
def test_stencil_diagonal_is_the_systems(grid, v):
    # the stencils' diagonal, read off unit columns, and the assembled
    # matrix's agree up to the order of K's duplicate-face sums.  The disk's
    # centre sums ntheta equal faces: the stencil's product is that sum
    # correctly rounded, K's running sum is off by up to ntheta ulps
    d = STENCIL_GRIDS[grid]()
    op = DiscreteOperator(d, SYSTEM_SAMPLES[v](d))
    n = d.n_interior
    got = np.empty(n)
    for s in range(0, n, 512):
        idx = np.arange(s, min(s + 512, n))
        unit = np.zeros((n, idx.size))
        unit[idx, np.arange(idx.size)] = 1.0
        got[idx] = op._apply(unit)[idx, np.arange(idx.size)]
    want = op.system.diagonal()
    rows = slice(None)
    if d.kind == "disk":
        nt = d.resolution["ntheta"]
        centre = math.fsum([_disk_coefs(d.resolution["nr"], nt)[0][0]] * nt)
        assert _disk_diagonal(d)[0] == centre
        assert abs(got[0] - want[0]) <= nt * np.finfo(float).eps * want[0]
        rows = slice(1, None)
    assert np.all(np.abs(got - want)[rows] <= 1e-15 * np.abs(want)[rows])


@pytest.mark.parametrize("grid", [g for g in STENCIL_GRIDS if g.startswith("disk")])
def test_disk_coefs_are_built_once_per_resolution_read_only(grid):
    # the stencil and the transform read one cached pair per (nr, ntheta);
    # its boundary face is the grid's sw/ns to the byte, and no caller can
    # change the pair under the next grid of that resolution
    d = STENCIL_GRIDS[grid]()
    nr, nt = d.resolution["nr"], d.resolution["ntheta"]
    radial, angular = _disk_coefs(nr, nt)
    assert _disk_coefs(nr, nt)[0] is radial
    assert radial[-1] == d.surface_weights[0] / d.normal_spacing[0]
    assert radial.size == nr and angular.size == nr - 1
    for a in (radial, angular):
        with pytest.raises(ValueError):
            a[0] = 1.0


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


# a singularity off every grid's centre and nodes: not constant on the disk's
# rings nor on the square, so the transform preconditioner is inexact there
OFF_CENTRE = {"interval": (0.31,), "disk": (0.31, 0.2), "rectangle": (0.31, 0.62)}


def _off_centre(d):
    """The table of ``|x - x0|^-2`` sampled on ``d``, with x0 off centre."""
    return table_potential(sample(interior_singularity_potential(OFF_CENTRE[d.kind], 2.0), d))


@pytest.mark.parametrize("build", [lambda: build_interval(64), lambda: build_disk(16),
                                   lambda: build_rectangle(16)], ids=["interval", "disk", "square"])
def test_cg_matches_direct(build):
    d = build()
    mu = dirac([0.37] if d.kind == "interval" else [0.2, -0.1] if d.kind == "disk" else [0.4, 0.55])
    load = load_vector(mu + density_measure(uniform_density(1.0)), d)
    op = assemble(d, _off_centre(d))
    x_direct = op.solve_load(load, Solver())
    x_cg = op.solve_load(load, Solver(method="cg"))
    tol = Solver().tol
    np.testing.assert_allclose(x_cg, x_direct, rtol=0.0, atol=100.0 * tol * np.abs(x_direct).max())


def test_cg_iteration_cap_raises():
    d = build_disk(8)
    op = assemble(d, _off_centre(d))
    with pytest.raises(SolverError, match="residual"):
        op.solve_load(np.ones(d.n_interior), Solver(method="cg", max_iter=1))


@pytest.mark.parametrize("solve", [
    lambda d: solve_dirichlet(d, _off_centre(d), dirac([0.2, -0.1]), solver=CAPPED_CG),
    lambda d: truncation_kernels(d, interior_singularity_potential(OFF_CENTRE["disk"], 2.0), 0,
                                 CAPPED_CG),
], ids=["solve_dirichlet", "truncation_kernels"])
def test_cg_iteration_cap_reaches_library_solves(solve):
    with pytest.raises(SolverError, match="did not converge in 1 iterations"):
        solve(build_disk(8))


def test_cg_converges_beyond_hardy_without_a_factor(factorizations):
    # d^-3 on square n = 64 lies beyond Hardy's bound: a cold transform-PCG
    # solve of its limit and every level of its walk still converge, and
    # nothing is factored
    calls, _ = factorizations
    d = build_rectangle(64)
    pot = power_distance_potential(3.0)
    op, _ = limit_operator(d, pot)
    load = load_vector(dirac([0.4, 0.55]), d)
    u = op.solve_load(load, Solver(method="cg"))
    assert calls == [] and op._lu is None and "system" not in vars(op)
    _, diagnostics = solve_truncated_limit(d, pot, dirac([0.4, 0.55]), Solver(method="cg"))
    assert len(diagnostics.levels) > 2 and calls == []
    np.testing.assert_allclose(u, op.solve_load(load), rtol=0.0, atol=100.0 * Solver().tol * u.max())


@pytest.mark.parametrize("kwargs,field", [
    ({"tol": 0.0}, "tol"),
    ({"tol": -1.0}, "tol"),
    ({"tol": float("nan")}, "tol"),
    ({"tol": float("inf")}, "tol"),
    ({"method": "lu"}, "method"),
    ({"max_iter": 0}, "max_iter"),
    ({"max_iter": -5}, "max_iter"),
    ({"method": "auto", "max_iter": 5}, "max_iter"),
    ({"method": "direct"}, "method"),
], ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "method-unknown",
        "max_iter-zero", "max_iter-negative", "max_iter-auto", "method-direct"])
def test_solver_rejects_invalid_settings(kwargs, field):
    with pytest.raises(ValueError, match=field):
        Solver(**kwargs)


TRANSFORM_GRIDS = {
    # ntheta None is the default 4 * nr; the others include odd counts
    "disk": st.builds(build_disk, st.integers(4, 16), st.none() | st.integers(4, 40)),
    "rectangle": st.builds(build_rectangle, st.integers(4, 24)),
}


@pytest.mark.parametrize("kind", list(TRANSFORM_GRIDS))
@given(data=st.data(), columns=st.none() | st.integers(1, 6), seed=st.integers(0, 2**16))
def test_zero_potential_transform_matches_lu(kind, data, columns, seed):
    d = data.draw(TRANSFORM_GRIDS[kind])
    rng = np.random.default_rng(seed)
    load = rng.standard_normal(d.n_interior if columns is None else (d.n_interior, columns))
    op = DiscreteOperator(d, np.zeros(d.n_interior))
    u = op.solve_load(load)
    assert op._lu is None and u.shape == load.shape
    op._check_residual(u, load, Solver().tol)
    ref = spla.splu(op.system).solve(load)
    np.testing.assert_allclose(u, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


def _factored(d) -> DiscreteOperator:
    """An operator of the truncated ``d^-1.5`` on ``d``, factored by one solve."""
    op = DiscreteOperator(d, np.minimum(sample(power_distance_potential(1.5), d), 64.0))
    op.solve_load(np.ones(d.n_interior))
    return op


@pytest.mark.parametrize("n", [64, 128])
def test_square_factor_takes_a_symmetric_ordering(n):
    # the square's SPD system is factored in a minimum-degree ordering on
    # A^T + A, which needs about half the fill of SuperLU's default COLAMD
    op = _factored(build_rectangle(n))
    colamd = spla.splu(op.system)
    assert op._lu.L.nnz + op._lu.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


@pytest.mark.parametrize("build", [lambda: build_disk(32), lambda: build_interval(64)],
                         ids=["disk32", "interval64"])
def test_disk_and_interval_factors_keep_the_default_ordering(build):
    # the disk's and the interval's factors are SuperLU's default ones to the
    # byte, so their outputs do not move
    op = _factored(build())
    default = spla.splu(op.system)
    for factor in ("L", "U"):
        got, want = getattr(op._lu, factor), getattr(default, factor)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (factor, name)
    assert op._lu.perm_c.tobytes() == default.perm_c.tobytes()
    assert op._lu.perm_r.tobytes() == default.perm_r.tobytes()


def test_square_solution_matches_the_default_ordering():
    d = build_rectangle(64)
    op = _factored(d)
    load = np.random.default_rng(0).standard_normal((d.n_interior, 3))
    tol = Solver().tol
    u = op.solve_load(load)
    op._check_residual(u, load, tol)
    ref = spla.splu(op.system).solve(load)
    np.testing.assert_allclose(u, ref, rtol=0.0, atol=100.0 * tol * np.abs(ref).max())


def _spy_cg(monkeypatch) -> list:
    """The positional arguments of every later ``DiscreteOperator._cg`` call."""
    calls = []
    real_cg = DiscreteOperator._cg
    monkeypatch.setattr(DiscreteOperator, "_cg",
                        lambda *args, **kwargs: calls.append(args) or real_cg(*args, **kwargs))
    return calls


ZERO_POTENTIAL_GRIDS = {
    "disk": lambda: build_disk(8, 13),
    "rectangle": lambda: build_rectangle(12),
    "interval": lambda: build_interval(16),
}


@pytest.mark.parametrize("kind", list(ZERO_POTENTIAL_GRIDS))
def test_zero_potential_solves_factor_only_on_the_interval(factorizations, monkeypatch, kind):
    calls, _ = factorizations
    cg = _spy_cg(monkeypatch)
    d = ZERO_POTENTIAL_GRIDS[kind]()
    op = assemble(d, zero_potential())
    for load in (np.ones(d.n_interior), np.ones((d.n_interior, 3))):
        op.solve_load(load)
    assert len(calls) == (kind == "interval")
    assert cg == []


@pytest.mark.parametrize("kind", ["disk", "rectangle"])
def test_cg_method_solves_zero_potential_by_transforms(factorizations, monkeypatch, kind):
    # the transforms follow the grid and V = 0, not the method
    calls, _ = factorizations
    cg = _spy_cg(monkeypatch)
    d = ZERO_POTENTIAL_GRIDS[kind]()
    assemble(d, zero_potential()).solve_load(np.ones(d.n_interior), Solver(method="cg"))
    assert cg == [] and calls == []


def test_cli_import_leaves_scipy_fft_unloaded():
    # the transforms use numpy.fft: importing scipy.fft costs every run 0.1 s
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import stlab.cli, sys; sys.exit('scipy.fft' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


WALK_CASES = {
    "rect16-atom": (lambda: build_rectangle(16), dirac([0.4, 0.55]), 1.5),
    "rect16-signed": (lambda: build_rectangle(16), dirac([0.4, 0.55]) + dirac([0.7, 0.3], -1.0), 1.5),
    "disk8-atom": (lambda: build_disk(8), dirac([0.2, -0.1]), 1.5),
    "disk8-signed": (lambda: build_disk(8), dirac([0.2, -0.1]) + dirac([-0.3, 0.25], -1.0), 1.5),
    # beyond Hardy: its top level needs 30 transform-PCG iterations, within PCG_BUDGET
    "disk32-d^-3": (lambda: build_disk(32), dirac([0.2, -0.1]), 3.0),
}


def _walk(name, factorizations):
    """Every level the walk solves beside a fresh direct solve; returns the
    number of levels solved and the factorizations the walk made."""
    build, mu, alpha = WALK_CASES[name]
    d = build()
    pot = power_distance_potential(alpha)
    # a signed pair reaches the walk as one load vector
    load = load_vector(mu, d)
    solved = [(level, u) for level, _, u in walk(d, pot, load) if u is not None]
    calls, live_factored = factorizations
    walk_factorizations = len(calls)
    # the walk drops the factor of a level it leaves before it makes the next
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
    # a radial V on the disk is preconditioned exactly, but CG reads the
    # residual only before an iteration: one iteration from the guess misses
    monkeypatch.setattr(operator_module, "PCG_BUDGET", 1)
    levels, walk_factorizations = _walk(name, factorizations)
    assert walk_factorizations == levels


@pytest.mark.parametrize("start", ["guess", "zero"])
@pytest.mark.parametrize("build", [lambda: build_disk(8), lambda: build_rectangle(8)],
                         ids=["disk8", "rect8"])
def test_pcg_matches_scipy_cg_bit_for_bit(build, start):
    # the one CG loop is scipy's cg operation for operation: at a walk level,
    # from the previous level's solution and from zero, it returns scipy's
    # iterate to the byte
    d = build()
    pot = interior_singularity_potential(OFF_CENTRE[d.kind], 2.0)
    load = load_vector(dirac([0.2, -0.1] if d.kind == "disk" else [0.4, 0.55]), d)
    steps = [(op, u) for _, op, u in walk(d, pot, load) if u is not None]
    (_, prev), (op, _) = steps[len(steps) // 2 - 1:len(steps) // 2 + 1]
    guess = prev if start == "guess" else None
    vw = op.v_values * d.system_weights
    precond = lambda r: operator_module._TRANSFORMS[d.kind](d, r.reshape(-1, 1), vw).ravel()
    rtol = 1e-2 * Solver().tol
    got = op._cg(load[:, None], precond, PCG_BUDGET, rtol, guess)
    shape = (d.n_interior,) * 2
    want, info = spla.cg(spla.LinearOperator(shape, matvec=op._apply, dtype=float), load, x0=guess,
                         rtol=rtol, atol=0.0, maxiter=PCG_BUDGET,
                         M=spla.LinearOperator(shape, matvec=precond, dtype=float))
    assert info == 0 and got.tobytes() == want.tobytes()


def test_transforms_invert_a_potential_they_can_hold():
    # a radial V on the disk and a constant V on the square: P = K
    rng = np.random.default_rng(0)
    for d, pot in [(build_disk(16), power_distance_potential(1.5)),
                   (build_rectangle(16), constant_potential(37.0))]:
        op = DiscreteOperator(d, sample(pot, d))
        x = rng.standard_normal((d.n_interior, 2))
        u = operator_module._TRANSFORMS[d.kind](d, op.system @ x, op.v_values * d.system_weights)
        np.testing.assert_allclose(u, x, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("build", [lambda: build_disk(8), lambda: build_rectangle(8)],
                         ids=["disk8", "rect8"])
def test_transform_preconditioner_lies_between_k0_and_k(build, seed):
    # K_0 <= P <= K: the spectrum of P^-1 K lies in [1, lambda_max(K_0^-1 K)]
    d = build()
    v = np.random.default_rng(seed).exponential(200.0, d.n_interior)
    K = DiscreteOperator(d, v).system.toarray()
    K0 = DiscreteOperator(d, np.zeros(d.n_interior)).system.toarray()
    P_inv = operator_module._TRANSFORMS[d.kind](d, np.eye(d.n_interior), v * d.system_weights)
    spectrum = scipy.linalg.eigh(K, np.linalg.inv(0.5 * (P_inv + P_inv.T)), eigvals_only=True)
    top = scipy.linalg.eigh(K, K0, eigvals_only=True)[-1]
    assert spectrum[0] >= 1.0 - 1e-10 and spectrum[-1] <= top + 1e-10


def _count_transforms(monkeypatch, exact=True) -> list:
    """One entry per transform application from now on; ``exact=False``
    makes every entry ignore V, i.e. precondition with K_0."""
    calls = []
    for kind, real in list(operator_module._TRANSFORMS.items()):
        def counted(d, cols, vw, real=real):
            calls.append(cols.shape[1])
            return real(d, cols, vw if exact else np.zeros_like(vw))
        monkeypatch.setitem(operator_module._TRANSFORMS, kind, counted)
    return calls


def test_radial_walk_applies_the_transform_at_most_twice_per_level(monkeypatch):
    calls = _count_transforms(monkeypatch)
    d = build_disk(32)
    solved = [u for _, _, u in walk(d, power_distance_potential(1.5), load_vector(dirac([0.2, -0.1]), d))
              if u is not None]
    pcg_levels = len(solved) - 1  # the first level is factored
    assert pcg_levels > 2 and len(calls) <= 2 * pcg_levels


@pytest.mark.parametrize("alpha", [1.5, 2.5])
def test_off_centre_walk_applies_the_transform_no_more_than_k0(monkeypatch, alpha):
    # ring minima leave P <= K where V is not radial, so PCG never needs more
    # applications than with the zero-potential preconditioner
    d = build_disk(32)
    pot = interior_singularity_potential((0.31, 0.2), alpha)
    load = load_vector(dirac([0.2, -0.1]), d)
    counts = []
    for exact in (True, False):
        with monkeypatch.context() as m:
            calls = _count_transforms(m, exact)
            assert sum(u is not None for _, _, u in walk(d, pot, load)) > 2
        counts.append(len(calls))
    assert 0 < counts[0] <= counts[1]


@pytest.mark.parametrize("build", [lambda: build_disk(16), lambda: build_rectangle(16)],
                         ids=["disk16", "rect16"])
def test_uncached_walk_factors_its_first_level_only(build, factorizations):
    # the first level has no guess to start PCG from; every later level is
    # transform-PCG and leaves its operator unfactored
    calls, _ = factorizations
    d = build()
    load = load_vector(dirac([0.4, 0.55] if d.kind == "rectangle" else [0.2, -0.1]), d)
    ops = [op for _, op, u in walk(d, power_distance_potential(1.5), load) if u is not None]
    assert len(ops) > 2 and len(calls) == 1
    assert calls[0][3] == ops[0].system.data.tobytes()
    assert all(op._lu is None for op in ops[1:])


@pytest.mark.parametrize("build", [lambda: build_disk(16), lambda: build_rectangle(16)],
                         ids=["disk16", "rect16"])
def test_started_walk_makes_no_factor(build, factorizations):
    # a first level given a start is transform-PCG like every later one
    calls, _ = factorizations
    d = build()
    pot = power_distance_potential(1.5)
    load = load_vector(dirac([0.4, 0.55] if d.kind == "rectangle" else [0.2, -0.1]), d)
    started = [(level, u) for level, _, u in walk(d, pot, load, guess=np.zeros(d.n_interior))]
    assert calls == []
    plain = [(level, u) for level, _, u in walk(d, pot, load)]
    assert [level for level, _ in started] == [level for level, _ in plain]
    for (_, u), (_, ref) in zip(started, plain):
        if ref is None:
            assert u is None
        else:
            np.testing.assert_allclose(u, ref, rtol=0.0, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("build", [lambda: build_disk(16), lambda: build_rectangle(16)],
                         ids=["disk16", "rect16"])
def test_started_walk_never_builds_a_system(build):
    # PCG and the residual check apply K x + (V w) x with the grid's K, so a
    # level that is never factored holds no copy of K; its residual check can
    # still fail
    d = build()
    load = load_vector(dirac([0.4, 0.55] if d.kind == "rectangle" else [0.2, -0.1]), d)
    steps = [(op, u) for _, op, u in walk(d, power_distance_potential(1.5), load,
                                          guess=np.zeros(d.n_interior)) if u is not None]
    assert len(steps) > 2
    assert all("system" not in vars(op) and op._lu is None for op, _ in steps)
    op, u = steps[-1]
    op._check_residual(u, load, DEFAULT_TOL)
    bad = u.copy()
    bad[np.argmax(u)] *= 1.01
    with pytest.raises(SolverError, match="residual check"):
        op._check_residual(bad, load, DEFAULT_TOL)
    assert "system" not in vars(op) and op._lu is None


def test_interval_walk_ignores_a_start(factorizations):
    # the interval has no transform to precondition with: a started walk
    # factors every level and solves exactly as an unstarted one
    calls, _ = factorizations
    d = build_interval(64)
    pot = power_distance_potential(1.5)
    load = load_vector(dirac([0.4]), d)
    started = [u for _, _, u in walk(d, pot, load, guess=np.zeros(d.n_interior)) if u is not None]
    assert len(started) > 2 and len(calls) == len(started)
    plain = [u for _, _, u in walk(d, pot, load) if u is not None]
    assert len(plain) == len(started)
    for u, ref in zip(started, plain):
        np.testing.assert_array_equal(u, ref)


def test_interval_walk_factors_every_level(factorizations):
    # the interval has no transform: each level is a direct solve, and the
    # walk holds one factor at a time
    calls, live_factored = factorizations
    d = build_interval(64)
    pot = power_distance_potential(1.5)
    solved = [u for _, _, u in walk(d, pot, load_vector(dirac([0.4]), d)) if u is not None]
    assert len(solved) > 2 and len(calls) == len(solved)
    assert live_factored == [0] * len(calls)


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


@pytest.mark.parametrize("build", [lambda: build_disk(8), lambda: build_rectangle(8)],
                         ids=["disk8", "rect8"])
def test_started_walk_takes_pcg_on_factored_operators(build, factorizations, monkeypatch):
    # a factor another computation left on a level's operator does not choose
    # the level's path: a started level still takes transform-PCG, makes no
    # factor and solves bit for bit as on a grid with no factors
    calls, _ = factorizations
    d = build()
    pot = power_distance_potential(1.5)
    load = load_vector(dirac([0.4, 0.55] if d.kind == "rectangle" else [0.2, -0.1]), d)
    start = np.zeros(d.n_interior)
    fresh = [u for _, _, u in walk(d, pot, load, guess=start) if u is not None]
    assert calls == []
    with cached_operators(d):
        ops = [op for _, op, u in walk(d, pot, load) if u is not None]
        for op in ops:
            op.solve_load(load)  # no start: each level is factored
        assert len(ops) > 2 and len(calls) == len(ops)
        pcg = _spy_cg(monkeypatch)
        again = [(op, u) for _, op, u in walk(d, pot, load, guess=start) if u is not None]
    assert [op for op, _ in again] == ops
    assert len(pcg) == len(ops) and len(calls) == len(ops)
    assert len(fresh) == len(again)
    for u, (_, ref) in zip(fresh, again):
        np.testing.assert_array_equal(u, ref)


def test_cached_solve_outside_a_walk_factors_its_operator(factorizations, monkeypatch):
    # transform-PCG needs the walk's guess: a later solve on a level the walk
    # left unfactored factors that level instead of running PCG
    calls, _ = factorizations
    d = build_disk(8)
    load = load_vector(dirac([0.2, -0.1]), d)
    with cached_operators(d):
        steps = list(walk(d, power_distance_potential(1.5), load))
        left = [op for _, op, u in steps if u is not None and op._lu is None]
        assert left and len(calls) == 1
        pcg = _spy_cg(monkeypatch)
        left[-1].solve_load(load)
    assert len(calls) == 2 and left[-1]._lu is not None
    assert pcg == []


def test_nested_operator_scope_joins_its_parent(factorizations):
    # an inner scope on the same grid used to open a fresh cache and leave
    # none behind: its operator was factored again, and the rest of the
    # outer block ran uncached
    calls, _ = factorizations
    d = build_disk(8)
    pot = power_distance_potential(1.5)
    load = load_vector(dirac([0.2, -0.1]), d)
    with cached_operators(d):
        op, _ = limit_operator(d, pot)
        op.solve_load(load)
        with cached_operators(d):
            inner, _ = limit_operator(d, pot)
            inner.solve_load(load)
        after, _ = limit_operator(d, pot)
        assert inner is op and after is op
        assert d._operators is not None
    assert d._operators is None
    assert len(calls) == 1


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


@given(st.sampled_from(["interval32", "rect12", "disk8"]), st.floats(min_value=0.5, max_value=3.0),
       st.integers(min_value=0, max_value=10_000))
@example("interval32", 2.6875, 1)  # PCG level 512: nodewise 1.007e-12 of max|u|, residual 4.9e-13
def test_signed_walk_is_the_difference_of_monotone_parts(grid, alpha, seed):
    # the problem is linear in the measure: the signed load's one walk is the
    # positive part's walk minus the negative part's, to the residual each
    # walk promises (PCG levels meet it, not a nodewise bound), and each
    # part's walk is a monotone limit
    d = {"interval32": lambda: build_interval(32), "rect12": lambda: build_rectangle(12),
         "disk8": lambda: build_disk(8)}[grid]()
    rng = np.random.default_rng(seed)
    lo, hi = (-0.5, 0.5) if grid == "disk8" else (0.1, 0.9)
    locs = rng.uniform(lo, hi, size=(2, d.dim))
    wp, wn = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
    pos, neg = dirac(locs[0], wp), dirac(locs[1], wn)
    pot = power_distance_potential(alpha)
    loads = [load_vector(m, d) for m in (pos + dirac(locs[1], -wn), pos, neg)]
    walks = [walk(d, pot, load) for load in loads]
    bound = 100.0 * Solver().tol * sum(np.linalg.norm(load) for load in loads)
    prev = None
    for (_, op, u), (_, _, up), (_, _, un) in zip(*walks):
        if u is None:
            break
        gap = op.system @ (u - (up - un)) - (loads[0] - (loads[1] - loads[2]))
        assert np.linalg.norm(gap) <= bound
        if prev is not None:
            assert np.all(up <= prev[0] + 1e-9) and np.all(un <= prev[1] + 1e-9)
        prev = up, un


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
