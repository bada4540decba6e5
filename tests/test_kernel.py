"""Duality kernels: adjoint construction, comparison bounds, schedules."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlab import (
    Solver,
    TruncationSchedule,
    assemble,
    build_disk,
    build_interval,
    build_rectangle,
    constant_potential,
    density_measure,
    dirac,
    duality_kernel,
    interior_singularity_potential,
    kernel_set,
    normal_derivative,
    positivity_set,
    power_distance_potential,
    representation_check,
    sample,
    solve_dirichlet,
    table_density,
    table_potential,
    truncation_kernels,
    uniform_density,
    zero_potential,
)
from test_config_cli import read_csv, write

from stlab import kernel as kernel_module
from stlab.cli import main
from stlab.domain import DomainError
from stlab.kernel import kernel_summary, resolve_samples, trace_sources
from stlab.measure import load_vector
from stlab.operator import DiscreteOperator, cached_operators, walk


def test_interval_harmonic_kernel_closed_form(interval64):
    # adjoint of the endpoint flux: P_0(y) = 1 - y
    p = duality_kernel(interval64, zero_potential(), 0)
    y = interval64.interior_points[:, 0]
    np.testing.assert_allclose(p.values, 1 - y, atol=1e-10)
    i = int(np.argmin(np.abs(y - 0.25)))
    assert p.values[i] == pytest.approx(0.75, abs=1e-10)


def test_disk_kernel_center_value():
    # the Poisson kernel at the center is 1/(2 pi) for every boundary point
    d = build_disk(12)
    for a in (0, 7, 31):
        k = duality_kernel(d, zero_potential(), a)
        assert k.values[0] == pytest.approx(1 / (2 * np.pi), abs=1e-10)
        assert np.all(k.values >= -1e-12)


def test_disk_kernel_matches_poisson_formula():
    # P_a(x) = (1 - |x|^2) / (2 pi |x - a|^2) away from the boundary layer
    d = build_disk(24)
    a = 0
    k = duality_kernel(d, zero_potential(), a)
    pts = d.interior_points
    r = np.linalg.norm(pts, axis=1)
    inner = r < 0.7
    exact = (1 - r[inner] ** 2) / (
        2 * np.pi * np.sum((pts[inner] - d.boundary_points[a]) ** 2, axis=1)
    )
    np.testing.assert_allclose(k.values[inner], exact, rtol=0.02)


def test_absorption_lowers_kernel(interval64):
    k = duality_kernel(interval64, zero_potential(), 0)
    p = duality_kernel(interval64, constant_potential(50.0), 0)
    assert np.all(p.values <= k.values + 1e-10)
    assert p.values.max() < k.values.max()
    assert np.all(p.values >= -1e-10)


def test_constant_potential_kernel_closed_form():
    # -P'' + c P = 0, P(0+) flux normalized: P(y) = sinh(sqrt(c)(1-y))/sinh(sqrt(c))
    c = 4.0
    errs = []
    for n in (32, 64, 128):
        d = build_interval(n)
        p = duality_kernel(d, constant_potential(c), 0)
        y = d.interior_points[:, 0]
        exact = np.sinh(np.sqrt(c) * (1 - y)) / np.sinh(np.sqrt(c))
        errs.append(np.max(np.abs(p.values - exact)))
    assert errs[0] / errs[2] > 10.0  # second-order convergence
    assert errs[2] < 1e-5


def test_harmonic_measure_normalization():
    # sum_a sigma_a K_a(x) = 1: exact on matched 1d/polar grids
    for d in (build_interval(32), build_disk(8)):
        ks = kernel_set(d, zero_potential(), with_reference=False)
        norm = ks.kernels @ d.surface_weights
        np.testing.assert_allclose(norm, 1.0, atol=1e-10)


def test_harmonic_measure_normalization_rectangle_fixed_points():
    # corner kernels leave an O(1) defect next to the corners themselves;
    # at fixed interior points the normalization converges
    errs = []
    for n in (16, 32):
        d = build_rectangle(n)
        ks = kernel_set(d, zero_potential(), with_reference=False)
        norm = ks.kernels @ d.surface_weights
        i = int(np.argmin(np.linalg.norm(d.interior_points - [0.5, 0.5], axis=1)))
        j = int(np.argmin(np.linalg.norm(d.interior_points - [0.25, 0.375], axis=1)))
        errs.append(max(abs(norm[i] - 1), abs(norm[j] - 1)))
    assert errs[0] < 0.05
    assert errs[1] < errs[0]


@given(st.integers(min_value=0, max_value=10_000))
def test_duality_identity_random_density(seed):
    # <P_a, f> must reproduce the boundary flux of the forward solve
    d = build_interval(32)
    rng = np.random.default_rng(seed)
    vpot = constant_potential(float(rng.uniform(0, 5)))
    f = table_density(rng.uniform(-1, 1, d.n_interior))
    mu = density_measure(f)
    u = solve_dirichlet(d, vpot, mu)
    t = normal_derivative(d, u)
    ks = kernel_set(d, vpot, with_reference=False)
    paired = ks.pair_measure(mu)
    np.testing.assert_allclose(paired, t.values, atol=1e-9)


def test_duality_identity_atoms(interval64):
    mu = dirac([0.311], 2.0) + dirac([0.77], -0.5)
    vpot = constant_potential(3.0)
    u = solve_dirichlet(interval64, vpot, mu)
    t = normal_derivative(interval64, u)
    ks = kernel_set(interval64, vpot, with_reference=False)
    np.testing.assert_allclose(ks.pair_measure(mu), t.values, atol=1e-9)


def test_kernel_brute_force_columns():
    # P_a(x_j) agrees with sweeping unit densities through the forward solver
    d = build_interval(16)
    vpot = constant_potential(2.0)
    ks = kernel_set(d, vpot, with_reference=False)
    brute = np.zeros((d.n_interior, d.n_boundary))
    for j in range(d.n_interior):
        vals = np.zeros(d.n_interior)
        vals[j] = 1.0
        u = solve_dirichlet(d, vpot, density_measure(table_density(vals)))
        tr = normal_derivative(d, u).values
        brute[j, :] = tr / d.volumes[j]
    np.testing.assert_allclose(ks.kernels, brute, atol=1e-9)


def test_truncation_kernels_monotone_and_terminal():
    d = build_interval(128)
    pot = power_distance_potential(2.0)
    seq = truncation_kernels(d, pot, 0, stop_early=False)
    assert len(seq) == 15
    for a, b in zip(seq, seq[1:]):
        assert np.all(b.values <= a.values + 1e-9)
    # level 0 dominates everything
    for later in seq[1:]:
        assert np.all(later.values <= seq[0].values + 1e-9)
    limit = duality_kernel(d, pot, 0)
    np.testing.assert_allclose(seq[-1].values, limit.values, atol=1e-9)
    # the kernel value above the midpoint decreases as k grows
    y = d.interior_points[:, 0]
    i = int(np.argmin(np.abs(y - 0.5)))
    mids = [s.values[i] for s in seq]
    assert all(b <= a + 1e-12 for a, b in zip(mids, mids[1:]))


def test_truncation_kernels_constant_beyond_bound(interval64):
    seq = truncation_kernels(interval64, constant_potential(6.0), 0, stop_early=False)
    # k = 8 already saturates min(V, k)
    for later in seq[4:]:
        np.testing.assert_allclose(later.values, seq[3].values, atol=1e-12)


def test_kernel_schedule_stops_early(interval64):
    seq = truncation_kernels(interval64, power_distance_potential(1.5), 0)
    assert len(seq) < 15


def test_positivity_set_trivial_cases(interval64):
    assert np.all(positivity_set(interval64, zero_potential()))
    assert np.all(positivity_set(interval64, constant_potential(10.0)))
    assert np.all(positivity_set(interval64, power_distance_potential(1.5)))


def test_positivity_set_excludes_interior_singularity():
    # the schedule limit is crushed at the nodes bracketing the singular
    # point; with the calibrated threshold exactly those nodes drop out
    d = build_interval(65)
    pot = interior_singularity_potential([1 / 3], 2.0)
    mask = positivity_set(d, pot, threshold=0.02)
    excluded = d.interior_points[~mask, 0]
    assert excluded.size >= 2
    assert np.all(np.abs(excluded - 1 / 3) < 3 * d.h)
    far = np.abs(d.interior_points[:, 0] - 1 / 3) > 0.1
    assert np.all(mask[far])


def test_kernel_set_bundle(interval64, tmp_path):
    ks = kernel_set(interval64, constant_potential(1.0))
    assert ks.kernels.shape == (interval64.n_interior, 2)
    assert ks.reference is not None
    assert not any(ks.degenerate)
    np.testing.assert_array_equal(ks.samples, [0, 1])
    l1 = ks.l1_norms()
    assert np.all(l1 > 0)
    cfg = write(tmp_path, "domain.n = 64\npotential.family = constant\npotential.value = 1.0\n")
    assert main(["kernel", "--config", cfg, "--out", str(tmp_path / "k")]) == 0
    _, rows = read_csv(tmp_path / "k" / "kernels.csv")
    assert len(rows) == 1 + 2 * interval64.n_interior
    a, node, val = np.array(rows[1:]).T
    n = interval64.n_interior
    np.testing.assert_array_equal(a.astype(int), np.repeat(ks.samples, n))
    np.testing.assert_array_equal(node.astype(int), np.tile(np.arange(n), 2))
    np.testing.assert_array_equal(val.astype(float), ks.kernels.T.ravel())
    summary = kernel_summary(ks)
    assert summary["n_samples"] == 2
    per_a = summary["kernels"]
    assert len(per_a) == 2
    for entry in per_a:
        assert entry["min"] >= -1e-10
        assert not entry["degenerate"]


def test_degeneracy_flag_fires_under_overwhelming_absorption(interval64):
    # P_a ~ t_a / V for huge constant V, far below the reference kernel
    ks = kernel_set(interval64, constant_potential(1e13))
    assert all(ks.degenerate)
    benign = kernel_set(interval64, constant_potential(1.0))
    assert not any(benign.degenerate)


def test_kernels_are_discrete_subsolutions(interval64):
    pot = constant_potential(3.0)
    ks = kernel_set(interval64, pot, with_reference=False)
    op = assemble(interval64, pot)
    # (-laplace_h + V) P_a <= 0 away from the boundary-adjacent nodes, where
    # the adjoint source lives
    resid = (op.system @ ks.kernels) / interval64.system_weights[:, None]
    away = np.ones(interval64.n_interior, dtype=bool)
    away[interval64.first_neighbor] = False
    assert np.max(resid[away]) <= 1e-10


def test_disk_kernel_reflection_symmetry():
    # reflection across the diameter through a fixes P_a
    d = build_disk(8, 32)
    p = duality_kernel(d, power_distance_potential(1.5), 0).values
    nr, nt = 8, 32
    for ring in range(1, nr):
        base = 1 + (ring - 1) * nt
        for j in range(nt):
            assert p[base + j] == pytest.approx(p[base + (-j) % nt], abs=1e-12)


def test_duality_kernel_validates_boundary_index(interval64):
    with pytest.raises(Exception):
        duality_kernel(interval64, zero_potential(), 99)


def test_resolve_samples_rejects_non_integer_indices(interval64):
    np.testing.assert_array_equal(resolve_samples(interval64, np.array([1, 0])), [1, 0])
    for samples, shown in (([1.7], "1.7"), ([True, False], "True"), ([0, 1.0], "1.0")):
        with pytest.raises(DomainError, match=f"must be an integer, got {shown}"):
            resolve_samples(interval64, samples)


@pytest.fixture
def adjoint_solves(monkeypatch):
    """Count of operator solves."""
    counts = {"solves": 0}
    real_solve = DiscreteOperator.solve_load

    def solve(self, *args, **kwargs):
        counts["solves"] += 1
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperator, "solve_load", solve)
    return counts


MEMO_POTENTIAL = power_distance_potential(1.5)


def test_operator_scope_shares_adjoint_kernels(adjoint_solves):
    d = build_disk(8)
    uncached = kernel_set(d, MEMO_POTENTIAL, with_reference=False).kernels
    with cached_operators(d):
        first = kernel_set(d, MEMO_POTENTIAL, with_reference=False).kernels
        adjoint_solves["solves"] = 0
        second = kernel_set(d, MEMO_POTENTIAL, with_reference=False).kernels
        assert adjoint_solves["solves"] == 0
        assert second is first
        with pytest.raises(ValueError):
            second[0, 0] = 1.0
    for kernels in (first, second):
        assert kernels.tobytes() == uncached.tobytes()
    # nothing outlives the scope: a second one solves again
    with cached_operators(d):
        kernel_set(d, MEMO_POTENTIAL, with_reference=False)
    assert adjoint_solves["solves"] == 1


@pytest.mark.parametrize("change", [
    lambda d: {"samples": [0, 1]},
    lambda d: {"order": 2},
    lambda d: {"solver": Solver(tol=1e-9)},
    lambda d: {"solver": Solver(schedule=TruncationSchedule(J=8))},
    lambda d: {"potential": power_distance_potential(2.0)},
], ids=["samples", "order", "tol", "schedule", "alpha"])
def test_adjoint_memo_misses_on_any_changed_input(adjoint_solves, change):
    d = build_disk(8)
    args = {"potential": MEMO_POTENTIAL, "samples": None, "solver": None, "order": 1}
    changed = {**args, **change(d)}
    with cached_operators(d):
        kernel_set(d, with_reference=False, **args)
        adjoint_solves["solves"] = 0
        kernel_set(d, with_reference=False, **changed)
    assert adjoint_solves["solves"] == 1


def test_bounded_sample_shares_the_unbounded_solve(adjoint_solves):
    # the memo lives on the operator of the sample; a bound changes only the level
    d = build_disk(8)
    bounded = table_potential(sample(MEMO_POTENTIAL, d))
    with cached_operators(d):
        first = kernel_set(d, MEMO_POTENTIAL, with_reference=False).kernels
        adjoint_solves["solves"] = 0
        assert kernel_set(d, bounded, with_reference=False).kernels is first
        assert adjoint_solves["solves"] == 0
        rep = representation_check(d, bounded, dirac([0.2, -0.1]))
    assert rep.details["final_level"] == bounded.bound


def test_kernels_outside_a_scope_are_read_only_and_not_kept(adjoint_solves):
    d = build_disk(8)
    first = kernel_set(d, MEMO_POTENTIAL, with_reference=False).kernels
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    # the memo went with its operator: a second call solves again
    second = kernel_set(d, MEMO_POTENTIAL, with_reference=False).kernels
    assert adjoint_solves["solves"] == 2
    assert second is not first and second.tobytes() == first.tobytes()


def _last_solved_level(d, pot, solver=None):
    """Level and solution of the last level a kernel walk over every node solves."""
    return [(k, u) for k, _, u in walk(d, pot, trace_sources(d), solver) if u is not None][-1]


@given(st.sampled_from(["rect12", "disk8"]), st.floats(min_value=0.5, max_value=2.5))
def test_kernels_are_the_saturated_walks_last_level(grid, alpha):
    # min(V_h, k) = V_h from the first level k >= max V_h on, so one solve with
    # the full sample gives the kernels and the level of the saturated walk
    d = {"rect12": lambda: build_rectangle(12), "disk8": lambda: build_disk(8)}[grid]()
    pot = power_distance_potential(alpha)
    level, walked = _last_solved_level(d, pot)
    assert level >= float(np.max(sample(pot, d)))
    assert kernel_set(d, pot, with_reference=False).kernels.tobytes() == walked.tobytes()
    rep = representation_check(d, pot, dirac([0.45, 0.4] if grid == "rect12" else [0.2, -0.1]))
    assert rep.details["final_level"] == level


def test_cg_kernels_are_the_saturated_walks_last_level():
    d = build_disk(8)
    solver = Solver(method="cg")
    _, walked = _last_solved_level(d, MEMO_POTENTIAL, solver)
    kernels = kernel_set(d, MEMO_POTENTIAL, solver=solver, with_reference=False).kernels
    assert kernels.tobytes() == walked.tobytes()


SHORT = Solver(schedule=TruncationSchedule(J=3))  # ends at k = 8, below max V_h on disk nr=8


def _top_level_solve(d, samples=None):
    full = sample(MEMO_POTENTIAL, d)
    assert float(np.max(full)) > 8.0
    return DiscreteOperator(d, np.minimum(full, 8.0)).solve_load(trace_sources(d, samples), SHORT)


def test_short_schedule_solves_its_top_level_once(factorizations, monkeypatch):
    calls, _ = factorizations
    d = build_disk(8)
    levels = []
    real_walk = kernel_module.walk

    def recording_walk(*args):
        for level, op, u in real_walk(*args):
            levels.append(level)
            yield level, op, u

    monkeypatch.setattr(kernel_module, "walk", recording_walk)
    kernels = kernel_set(d, MEMO_POTENTIAL, solver=SHORT, with_reference=False).kernels
    assert levels == [] and len(calls) == 1
    assert kernels.tobytes() == _top_level_solve(d).tobytes()
    rep = representation_check(d, MEMO_POTENTIAL, dirac([0.2, -0.1]), solver=SHORT)
    assert rep.details["final_level"] == 8.0


def test_one_column_short_schedule_kernel_is_the_top_level_solve():
    # a load of at most PCG_COLUMNS columns is a direct solve too, not PCG on a walk's factor
    d = build_disk(8)
    kernel = duality_kernel(d, MEMO_POTENTIAL, 0, SHORT).values
    assert kernel.tobytes() == _top_level_solve(d, [0])[:, 0].tobytes()


@given(st.sampled_from(["interval32", "rect12", "disk8"]),
       st.floats(min_value=0.0, max_value=50.0),
       st.integers(min_value=0, max_value=10_000))
def test_kernel_l1_norms_are_unit_density_traces(grid, c, seed):
    # P_a >= 0, so |P_a| paired with the volumes is the unit density's flux at a
    d = {"interval32": lambda: build_interval(32), "rect12": lambda: build_rectangle(12),
         "disk8": lambda: build_disk(8)}[grid]()
    pot = constant_potential(c)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(d.n_boundary, size=min(3, d.n_boundary), replace=False))
    u = solve_dirichlet(d, pot, density_measure(uniform_density(1.0)))
    trace = normal_derivative(d, u).values[idx]
    l1 = kernel_set(d, pot, idx, with_reference=False).l1_norms()
    np.testing.assert_allclose(l1, trace, rtol=1e-12, atol=0.0)
