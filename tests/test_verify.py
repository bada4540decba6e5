"""Theorem-level checks: representation, estimates, boundary positivity."""

import os

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from stlab import (
    Measure,
    MeasureError,
    Solver,
    TruncationSchedule,
    build_disk,
    build_interval,
    build_rectangle,
    constant_potential,
    density_measure,
    dirac,
    duality_kernel,
    energy,
    interior_singularity_potential,
    kernel_set,
    normal_derivative,
    power_distance_density,
    power_distance_potential,
    solve_dirichlet,
    solve_truncated_limit,
    table_density,
    uniform_density,
    zero_potential,
)
from stlab import domain as domain_module
from stlab import kernel as kernel_module
from stlab import operator as operator_module
from stlab import verify as verify_module
from stlab.fields import Field
from stlab.operator import DEFAULT_TOL, DiscreteOperator
from stlab.verify import (
    comparison_check,
    energy_check,
    hopf_certificate,
    hopf_check,
    inequality_suite,
    representation_check,
    suite_exit_status,
)
from test_config_cli import read_csv, write

from stlab.cli import main


def test_representation_zero_measure(interval64):
    rep = representation_check(interval64, constant_potential(1.0), Measure())
    assert rep.passed
    for c in rep.cases:
        assert c.left == 0.0
        assert c.right == 0.0


def test_representation_grid_density_is_discrete_exact(interval64):
    rng = np.random.default_rng(5)
    mu = density_measure(table_density(rng.uniform(-1, 1, interval64.n_interior)))
    pot = constant_potential(2.5)
    rep = representation_check(interval64, pot, mu)
    assert rep.passed
    assert rep.details["branch"] == "grid_density"
    for c in rep.cases:
        assert c.residual <= 1e-9


def test_representation_atom_sides_match_closed_form(interval64):
    rep = representation_check(interval64, zero_potential(), dirac([0.5]))
    assert rep.details["branch"] == "continuum"
    case = next(c for c in rep.cases if c.name.endswith("_0"))
    assert case.left == pytest.approx(0.5, abs=1e-9)
    assert case.right == pytest.approx(0.5, abs=1e-9)
    assert len(rep.table) == 1


@pytest.mark.parametrize("potential", [zero_potential(), power_distance_potential(1.5)],
                         ids=["bounded", "schedule"])
def test_representation_atomic_measure_can_fail(monkeypatch, potential):
    # atoms get the algebraic tolerance 10 * tol * max(1, TV): the identity
    # holds as computed and fails once the kernel side is off by 1e-6
    d = build_disk(8)
    mu = dirac([0.2, -0.1], 0.75) + dirac([-0.3, 0.4], 1.5)
    rep = representation_check(d, potential, mu)
    assert rep.passed
    assert {c.tolerance for c in rep.cases} == {10 * DEFAULT_TOL * 2.25}
    sources = kernel_module.trace_sources
    monkeypatch.setattr(kernel_module, "trace_sources", lambda *args: sources(*args) * (1 + 1e-6))
    assert not representation_check(d, potential, mu).passed


def test_representation_rejects_infinite_measure():
    # power-distance density with alpha >= 1 has infinite mass on the interval
    d = build_interval(32)
    with pytest.raises(ValueError, match="finite measure"):
        representation_check(d, zero_potential(), density_measure(power_distance_density(1.5)))


def test_hopf_rejects_infinite_measure():
    # the L1 stop tolerance scales with the total variation, so a measure of
    # infinite total variation has none
    d = build_interval(64)
    mu = density_measure(power_distance_density(1.5))
    with pytest.raises(ValueError, match="infinite total variation"):
        hopf_check(d, power_distance_potential(1.5), mu)


def test_hopf_refuses_infinite_measure_before_any_factorization(factorizations):
    # the refusal comes before positivity_set factors its operator
    calls, _ = factorizations
    with pytest.raises(MeasureError, match="infinite total variation"):
        hopf_check(build_disk(16), power_distance_potential(1.5),
                   density_measure(power_distance_density(1.5)))
    assert calls == []


@pytest.mark.parametrize("reader", ["energy", "energy_check", "solve_dirichlet", "pair_measure"])
def test_measure_readers_refuse_infinite_measure(reader):
    # energy_check used to pass on this density with energy -9.49
    d = build_interval(32)
    mu = density_measure(power_distance_density(1.5))
    calls = {
        "energy": lambda: energy(d, zero_potential(), mu, np.zeros(d.n_interior)),
        "energy_check": lambda: energy_check(d, zero_potential(), mu),
        "solve_dirichlet": lambda: solve_dirichlet(d, zero_potential(), mu),
        "pair_measure": lambda: kernel_set(d, zero_potential()).pair_measure(mu),
    }
    with pytest.raises(ValueError, match="infinite total variation"):
        calls[reader]()


def test_representation_refuses_infinite_measure_before_any_solve(monkeypatch):
    solves = []
    real = DiscreteOperator.solve_load
    monkeypatch.setattr(DiscreteOperator, "solve_load",
                        lambda self, *args, **kw: solves.append(1) or real(self, *args, **kw))
    with pytest.raises(ValueError, match="finite measure"):
        representation_check(build_disk(8), power_distance_potential(1.5),
                             density_measure(power_distance_density(1.5)))
    assert solves == []


def test_representation_unbounded_potential(interval64):
    mu = density_measure(uniform_density(1.0))
    rep = representation_check(interval64, power_distance_potential(1.5), mu)
    assert rep.passed
    assert rep.details["branch"] == "grid_density"


def test_inequality_suite_passes_on_benign_case(interval64):
    rep = inequality_suite(interval64, constant_potential(1.0), density_measure(uniform_density(1.0)))
    assert rep.passed
    by_name = {c.name: c for c in rep.cases}
    # f = 1, V = 1: the absorbed mass is int V u < int x(1-x)/2 = 1/12
    assert by_name["absorption_l1"].left == pytest.approx(1 / 12, abs=0.01)
    assert by_name["absorption_l1"].left < 1.0
    assert set(by_name) == {
        "absorption_l1", "trace_l1", "fatou_boundary", "kernel_upper", "kernel_lower",
    }


def test_inequality_suite_disk_atom():
    d = build_disk(8)
    rep = inequality_suite(d, zero_potential(), dirac([0.0, 0.0]))
    assert rep.passed
    by_name = {c.name: c for c in rep.cases}
    assert by_name["trace_l1"].left == pytest.approx(1.0, abs=1e-8)
    assert by_name["trace_l1"].right >= 2.0


def test_inequality_suite_rectangle_excludes_corners():
    d = build_rectangle(12)
    rep = inequality_suite(d, constant_potential(2.0), dirac([0.4, 0.6], 1.5))
    assert rep.passed


def test_inequality_suite_zero_potential_absorbs_nothing(interval64):
    rep = inequality_suite(interval64, zero_potential(), dirac([0.5], 2.0))
    by_name = {c.name: c for c in rep.cases}
    assert by_name["absorption_l1"].left == 0.0
    assert rep.passed


def test_hopf_disk_symmetric_case():
    d = build_disk(8)
    rep = hopf_check(d, zero_potential(), dirac([0.0, 0.0]), refinements=1)
    assert rep.verdict == "positive"
    assert rep.details["grids"][-1]["limit_min"] == pytest.approx(1 / (2 * np.pi), abs=1e-8)
    assert rep.passed


def test_hopf_rejects_bad_measures(interval64):
    with pytest.raises(ValueError):
        hopf_check(interval64, zero_potential(), Measure())
    with pytest.raises(ValueError):
        hopf_check(interval64, zero_potential(), dirac([0.3]) + dirac([0.6], -1.0))


@pytest.mark.parametrize("refinements", [-1, -3])
def test_hopf_rejects_negative_refinements(refinements):
    with pytest.raises(ValueError, match="refinements"):
        hopf_check(build_disk(8), zero_potential(), dirac([0.1, 0.1]), refinements=refinements)


@pytest.mark.parametrize("refinements", [0, -2])
def test_certificate_rejects_refinements_below_one(interval64, refinements):
    with pytest.raises(ValueError, match="refinements"):
        hopf_certificate(interval64, zero_potential(), refinements=refinements)


@pytest.mark.parametrize("build,centre,refinements", [
    (lambda: build_interval(64), [0.5], 1),
    (lambda: build_interval(64), [0.5], 0),
    (lambda: build_disk(16), [0.0, 0.0], 0),
], ids=["interval-1", "interval-0", "disk-0"])
def test_hopf_positive_case(build, centre, refinements):
    # refinements = 0 classifies the one grid on its own
    rep = hopf_check(build(), power_distance_potential(1.5), dirac(centre),
                     refinements=refinements)
    assert rep.verdict == "positive"
    last = rep.details["grids"][-1]
    assert last["limit_min"] > 0
    assert last["converged"]


def test_hopf_obstruction_case():
    d = build_interval(128)
    rep = hopf_check(d, power_distance_potential(2.0), dirac([0.5]), refinements=1)
    assert rep.verdict == "obstruction"
    maxes = rep.details["grids"][-1]["trace_max"]
    assert all(b < a for a, b in zip(maxes, maxes[1:]))


@pytest.mark.parametrize("build,atom,alpha,levels,saturated,converged", [
    (lambda: build_disk(8), [0.2, -0.1], 1.5, 7, True, True),
    (lambda: build_disk(8), [0.2, -0.1], 3.0, 11, False, True),
    (lambda: build_interval(64), [0.5], 2.5, 15, False, False),
], ids=["saturated", "l1-rule", "schedule-end"])
def test_hopf_levels_are_the_truncated_limits_walk(build, atom, alpha, levels, saturated,
                                                   converged):
    # hopf's per-level rows come from solve_truncated_limit's walk, so the one
    # stop rule ends both, whichever way the walk stops; hopf starts that walk
    # from zero (the interval ignores the start and factors every level)
    d = build()
    pot, mu = power_distance_potential(alpha), dirac(atom)
    u, diag = solve_truncated_limit(d, pot, mu, guess=np.zeros(d.n_interior))
    assert (len(diag.levels), diag.saturated, diag.converged) == (levels, saturated, converged)
    grid = hopf_check(d, pot, mu, refinements=0).details["grids"][0]
    assert grid["levels"] == list(diag.levels)
    assert grid["converged"] == diag.converged
    tr = normal_derivative(d, u).values
    assert (grid["limit_min"], grid["limit_max"]) == (tr.min(), tr.max())


@pytest.mark.parametrize("build,atom", [
    (lambda: build_disk(16), [0.2, -0.1]),
    (lambda: build_rectangle(16), [0.4, 0.55]),
], ids=["disk16", "rect16"])
def test_cached_walk_is_solved_once_and_replayed(monkeypatch, build, atom):
    # inside one operator cache the inequality suite and hopf walk the same
    # grid with the same inputs: the second call replays the first walk
    d = build()
    pot, mu = power_distance_potential(1.5), dirac(atom)
    walked = []  # operators of walk levels: solve_load with a guess
    real_solve = DiscreteOperator.solve_load

    def solve(self, load, *args):
        if self.domain is d and len(args) == 2:
            walked.append(self)
        return real_solve(self, load, *args)

    monkeypatch.setattr(DiscreteOperator, "solve_load", solve)
    with operator_module.cached_operators(d):
        inequality_suite(d, pot, mu)
        first = list(walked)
        grid = hopf_check(d, pot, mu, refinements=0).details["grids"][0]
        assert len(first) > 2 and walked == first
        assert len(set(map(id, first))) == len(first)
        replayed = []
        solve_truncated_limit(d, pot, mu, guess=np.zeros(d.n_interior),
                              on_level=lambda level, u: replayed.append(u))
        assert walked == first and len(replayed) == len(grid["levels"])
        for u in replayed:
            if u is not None:
                with pytest.raises(ValueError):
                    u[0] = 1.0
        # another load (of the same total variation) or another Solver walks again
        for args in ((dirac(atom[::-1]),), (mu, Solver(tol=1e-9))):
            count = len(walked)
            solve_truncated_limit(d, pot, *args, guess=np.zeros(d.n_interior))
            assert len(walked) > count
    count = len(walked)
    with operator_module.cached_operators(d):
        solve_truncated_limit(d, pot, mu, guess=np.zeros(d.n_interior))
    assert len(walked) == count + len(first)
    # the replayed rows are those of a fresh zero-started walk, bit for bit
    rows = []

    def record(level, u):
        rows.append(rows[-1] if u is None else verify_module._trace_extrema(d, Field(d, u), 1))

    solve_truncated_limit(d, pot, mu, guess=np.zeros(d.n_interior), on_level=record)
    assert grid["trace_min"] == [lo for lo, _ in rows]
    assert grid["trace_max"] == [hi for _, hi in rows]


def test_hopf_no_solution_expected_for_atom_outside_positivity_set():
    # the schedule crushes the 2 nodes next to x0 (see test_kernel); a
    # refined grid would put a node on x0, so the check stays on this one
    d = build_interval(64)
    x0 = 0.5 + 1 / 128
    pot = interior_singularity_potential([x0], 6.0)
    solver = Solver(schedule=TruncationSchedule(J=45))
    rep = hopf_check(d, pot, dirac([x0]), solver, refinements=0)
    assert rep.verdict == "no_solution_expected"
    assert rep.cases == ()
    # an atom away from the crushed nodes is classified normally
    rep2 = hopf_check(d, pot, dirac([0.75]), solver, refinements=0)
    assert rep2.verdict != "no_solution_expected"


def test_certificate_zero_potential(interval64):
    rep = hopf_certificate(interval64, zero_potential())
    assert rep.verdict == "certified"
    assert rep.passed
    assert rep.details["trace_min"] > 0
    assert not rep.details["divergent"]


def test_certificate_integrable_singularity(interval64):
    rep = hopf_certificate(interval64, power_distance_potential(1.5))
    assert rep.verdict == "certified"
    assert rep.details["weighted_l1"] == pytest.approx(2 * np.sqrt(2), rel=0.1)
    assert not rep.details["weighted_l1_divergent"]


def test_certificate_rejects_hardy_potential(interval64):
    rep = hopf_certificate(interval64, power_distance_potential(2.0))
    assert rep.verdict == "rejected"
    assert rep.details["divergent"]
    assert rep.details["weighted_l1_divergent"]
    # rejection is a verdict, not a broken invariant
    assert rep.passed


@pytest.mark.parametrize("refinements", [2, 4])
def test_certificate_walks_one_ladder(monkeypatch, refinements):
    # the profile pairing and the distance-weighted norm share one ladder:
    # max(refinements, WEIGHTED_L1_REFINEMENTS = 3) grids past the base are
    # built, each once
    builds = []
    real = domain_module.build_domain
    monkeypatch.setattr(domain_module, "build_domain",
                        lambda *args, **kw: builds.append(kw) or real(*args, **kw))
    hopf_certificate(build_disk(8), power_distance_potential(1.5), refinements=refinements)
    assert len(builds) == max(refinements, 3)
    assert [b["nr"] for b in builds] == [8 * 2 ** k for k in range(1, len(builds) + 1)]


def test_certificate_builds_no_stencil_on_any_rung(monkeypatch):
    # the rungs are solved by transform-PCG, which applies K by its stencil,
    # and the last (nr = 256) only samples V: no rung assembles K or lists
    # its faces
    built = []
    real = operator_module._faces
    monkeypatch.setattr(operator_module, "_faces", lambda d: built.append(d.resolution["nr"]) or real(d))
    hopf_certificate(build_disk(32), power_distance_potential(1.5), refinements=2)
    assert built == []


def test_verify_assembles_k_only_on_grids_that_factor(tmp_path, monkeypatch):
    # K is assembled by DiscreteOperator.system alone, afresh on every read,
    # and only splu reads it in a run: one assembly per factorization on the
    # golden verify config at nr = 32 (the base grid's limit operator) and on
    # the golden solve config; the certificate on its own (which reads no
    # measure) and every run under solver.method = cg assemble nothing
    assembled, factored = [], []
    real_stiffness, real_splu = operator_module._stiffness, spla.splu

    def stiffness(d):
        assembled.append((d.kind, d.n_interior))
        return real_stiffness(d)

    def splu(A, *args, **kwargs):
        factored.append(A.shape[0])
        return real_splu(A, *args, **kwargs)

    def run(command, text, name):
        assembled.clear()
        factored.clear()
        out = str(tmp_path / name)
        assert main([command, "--config", write(tmp_path, text, name + ".cfg"), "--out", out]) == 0

    monkeypatch.setattr(operator_module, "_stiffness", stiffness)
    monkeypatch.setattr(spla, "splu", splu)
    golden = {}
    for name in ("verify_disk", "solve_square"):
        with open(os.path.join(os.path.dirname(__file__), "data", "golden", name + ".cfg")) as fh:
            golden[name] = fh.read()
    monkeypatch.setenv("STL_DOMAIN_NR", "32")
    run("verify", golden["verify_disk"], "verify")
    n = build_disk(32).n_interior
    assert assembled == [("disk", n)] and factored == [n]
    certificate = "".join(line for line in golden["verify_disk"].splitlines(keepends=True)
                          if not line.startswith(("measure.", "checks ")))
    run("verify", certificate + "checks = hopf_certificate\n", "certificate")
    assert assembled == [] and factored == []
    monkeypatch.delenv("STL_DOMAIN_NR")
    run("solve", golden["solve_square"], "solve")
    n = build_rectangle(16).n_interior
    assert assembled == [("rectangle", n)] and factored == [n]
    monkeypatch.setenv("STL_SOLVER_METHOD", "cg")
    interval = ("domain.kind = interval\ndomain.n = 32\npotential.family = power_distance\n"
                "potential.alpha = 1.5\nmeasure.atom = 0.3,0.75\n"
                "checks = representation,inequalities,hopf,hopf_certificate,comparison\n")
    for command, text, name in (("solve", golden["solve_square"], "solve_cg"),
                                ("verify", interval, "interval_cg")):
        run(command, text, name)
        assert assembled == [] and factored == [], name


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_certificate_weighted_l1_does_not_depend_on_refinements(alpha):
    d, pot = build_interval(16), power_distance_potential(alpha)
    reports = [hopf_certificate(d, pot, refinements=r) for r in (1, 2, 3, 4)]
    assert len({r.details["weighted_l1"] for r in reports}) == 1
    assert len({r.details["weighted_l1_divergent"] for r in reports}) == 1
    assert reports[0].details["weighted_l1_divergent"] == (alpha == 2.0)


@pytest.mark.parametrize("lo", [0.0, -0.0, -1e-3, np.nan])
def test_certificate_fails_without_positive_trace_minimum(monkeypatch, lo):
    # a zero minimum is not positive, whatever its sign bit; nan is not positive either
    monkeypatch.setattr(verify_module, "_trace_extrema", lambda *args: (lo, 1.0))
    rep = hopf_certificate(build_disk(8), zero_potential())
    case = rep.cases[0]
    assert case.name == "trace_positive"
    assert not case.passed and not rep.passed
    assert rep.verdict == "rejected"
    # cases store +0.0, so no CSV cell prints "-0"
    assert np.signbit(case.left) == (lo < 0.0)


def test_certified_potentials_have_no_degenerate_kernels(interval64):
    for pot in (zero_potential(), power_distance_potential(1.5)):
        rep = hopf_certificate(interval64, pot)
        assert rep.verdict == "certified"
        ks = kernel_set(interval64, pot)
        assert not any(ks.degenerate)


def test_comparison_zero_field(interval64):
    rep = comparison_check(interval64, zero_potential(), np.zeros(interval64.n_interior))
    assert rep.passed
    assert rep.details["threshold"] == np.inf


def test_comparison_kernel_dominates_absorbed_profile(interval64):
    v = duality_kernel(interval64, zero_potential(), 0)
    rep = comparison_check(interval64, zero_potential(), v.values, alpha=0.5)
    assert rep.passed
    assert rep.details["threshold"] > 0
    by_name = {c.name: c for c in rep.cases}
    assert by_name["domination"].passed
    assert by_name["threshold_positive"].passed


def test_comparison_fails_for_huge_epsilon(interval64):
    v = duality_kernel(interval64, zero_potential(), 0)
    rep = comparison_check(interval64, zero_potential(), v.values, epsilon=1e6)
    assert not rep.passed


def test_comparison_validates_inputs(interval64):
    v = np.zeros(interval64.n_interior)
    with pytest.raises(ValueError):
        comparison_check(interval64, zero_potential(), v, alpha=1.5)
    with pytest.raises(ValueError):
        comparison_check(interval64, zero_potential(), v, epsilon=-1.0)
    with pytest.raises(ValueError):
        comparison_check(interval64, zero_potential(), np.full(interval64.n_interior, -1.0))


def test_energy_check_minimum_property(interval64):
    rep = energy_check(interval64, constant_potential(1.0), density_measure(uniform_density(1.0)))
    assert rep.passed
    assert rep.details["worst_perturbation_gain"] >= -1e-12


def test_energy_check_builds_one_operator(monkeypatch):
    d = build_interval(256)
    pot, f = constant_potential(1.0), density_measure(uniform_density(1.0))
    built = []
    real_init = DiscreteOperator.__init__
    monkeypatch.setattr(DiscreteOperator, "__init__",
                        lambda self, *args: built.append(self) or real_init(self, *args))
    rep = energy_check(d, pot, f, n_perturbations=100)
    assert rep.passed
    assert len(built) == 1
    # the same expression as the public energy, so the same bits
    assert rep.details["energy"] == energy(d, pot, f, solve_dirichlet(d, pot, f).values)


def test_report_serialization(interval64, tmp_path):
    rep = inequality_suite(interval64, zero_potential(), dirac([0.5]))
    d = rep.to_dict()
    assert d["check"] == rep.check
    assert d["passed"] == rep.passed
    assert len(d["cases"]) == len(rep.cases)
    cfg = write(tmp_path, "domain.n = 64\nmeasure.atom = 0.5,1.0\nchecks = inequalities\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    _, rows = read_csv(tmp_path / "v" / "inequalities.csv")
    assert rows[0] == ["case", "left", "right", "residual", "tolerance", "passed"]
    assert [r[0] for r in rows[1:]] == [c.name for c in rep.cases]
    assert [r[5] for r in rows[1:]] == [str(int(c.passed)) for c in rep.cases]
    for row, c in zip(rows[1:], rep.cases):
        assert [float(x) for x in row[1:5]] == pytest.approx(
            [c.left, c.right, c.residual, c.tolerance], rel=1e-12, abs=1e-15)


def test_suite_exit_status(interval64):
    good = inequality_suite(interval64, zero_potential(), dirac([0.5]))
    v = duality_kernel(interval64, zero_potential(), 0)
    bad = comparison_check(interval64, zero_potential(), v.values, epsilon=1e6)
    assert suite_exit_status([good]) == 0
    assert suite_exit_status([good, bad]) == 1
