"""Factorization counts: at most one LU factorization per distinct operator,
and one per one-vector schedule walk; one all-node kernel solve per verify
run.

``scipy.sparse.linalg.splu`` is wrapped to count factorizations; a distinct
matrix is a distinct (grid, truncated potential) pair.
"""

import os

import pytest

from stlab import (
    build_disk,
    build_rectangle,
    dirac,
    hopf_check,
    interior_singularity_potential,
    power_distance_potential,
    representation_check,
    solve_truncated_limit,
)
from stlab.cli import main
from stlab.config import load_config
from stlab.operator import DiscreteOperator
from stlab.verify import _trace_extrema

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


def test_verify_factors_each_distinct_operator_once(tmp_path, factorizations):
    calls, _ = factorizations
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "domain.kind = disk\ndomain.nr = 8\n"
        "potential.family = power_distance\npotential.alpha = 1.5\n"
        "measure.atom = 0.2,-0.1,0.75\n"
        "checks = representation,inequalities,hopf,hopf_certificate,comparison\n"
    )
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) > 0
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("weights", [(1.0,), (1.0, -0.5)], ids=["nonnegative", "signed"])
def test_truncated_limit_factors_once_per_walk(rect16, factorizations, weights):
    calls, live_factored = factorizations
    measure = dirac([0.4, 0.55], weights[0])
    for w in weights[1:]:
        measure = measure + dirac([0.7, 0.3], w)
    _, diag = solve_truncated_limit(rect16, power_distance_potential(1.5), measure)
    assert len(diag.levels) > 2  # several levels solved, the saturated one not
    # the first level is factored; the transform preconditions every later level
    assert len(calls) == 1
    assert live_factored == [0] * len(calls)


def test_verify_walks_the_all_node_kernels_once(tmp_path, monkeypatch):
    # representation and inequalities share the kernels of every boundary
    # node, which are one solve with the full potential sample, not a walk;
    # the zero-potential reference kernels of inequalities are a solve of
    # their own
    cfg = os.path.join(GOLDEN, "verify_disk.cfg")
    run_cfg = load_config(cfg)
    assert {"representation", "inequalities"} <= set(run_cfg["checks"])
    widths = []
    real_solve = DiscreteOperator.solve_load

    def solve(self, load, *args, **kwargs):
        if self.v_values.any():
            widths.append(load.shape[1] if load.ndim == 2 else 1)
        return real_solve(self, load, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperator, "solve_load", solve)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert widths.count(run_cfg.build_domain().n_boundary) == 1


@pytest.mark.parametrize("command,name,factors,checks", [
    # zero-potential solves on the disk are transforms: the certificate's
    # profiles and the reference kernels make no factor, and the walks of the
    # inequality suite and hopf start from zero: transform-PCG at every level.
    # The one factor is the limit operator's, which every kernel solve reads.
    ("verify", "verify_disk", 1, None),
    ("kernel", "kernel_disk", 1, None),
    # the comparison solve is the discrete limit, on its kernel's operator; it
    # reads no measure, so the config loses its atom
    ("verify", "verify_disk", 1, "comparison"),
    # hopf alone: the positivity set's limit operator, and no walk level
    ("verify", "verify_disk", 1, "hopf"),
    # the walk factors its first level only: the later levels are transform-PCG
    ("solve", "solve_square", 1, None),
], ids=["verify-verify_disk-1", "kernel-kernel_disk-1", "verify-verify_disk-comparison-1",
        "verify-verify_disk-hopf-1", "solve-solve_square-1"])
def test_golden_config_factorizations(tmp_path, factorizations, command, name, factors, checks):
    calls, _ = factorizations
    cfg = os.path.join(GOLDEN, f"{name}.cfg")
    if checks is not None:
        with open(cfg, encoding="utf-8") as fh:
            kept = [line for line in fh if not line.startswith("checks")
                    and not (checks == "comparison" and line.startswith("measure."))]
        cfg = str(tmp_path / "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(kept + [f"checks = {checks}\n"])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == factors
    if checks == "hopf":  # the base grid's limit operator, nr=8: 1 + 8 * 28 nodes
        assert [shape for shape, *_ in calls] == [(225, 225)]


def test_one_node_representation_factors_once(factorizations):
    # the primal solve reuses the factor of the kernel solve's operator
    calls, live_factored = factorizations
    rep = representation_check(build_disk(16), power_distance_potential(1.5),
                               dirac([0.2, -0.1]), samples=[0])
    assert len(calls) == 1
    assert live_factored == [0]
    assert rep.passed
    assert rep.details["max_residual"] <= rep.cases[0].tolerance


@pytest.mark.parametrize("build,potential,atom", [
    (lambda: build_disk(16), power_distance_potential(1.5), [0.2, -0.1]),
    (lambda: build_disk(16), interior_singularity_potential((0.31, 0.2), 2.5), [0.2, -0.1]),
    (lambda: build_rectangle(16), power_distance_potential(1.5), [0.4, 0.55]),
], ids=["disk16-d^-1.5", "disk16-off-centre-2.5", "rect16-d^-1.5"])
def test_hopf_refined_grids_make_no_factor(factorizations, build, potential, atom):
    # each refined grid of the ladder starts its first level from zero, so
    # transform-PCG solves it; only the base grid factors.  The per-grid
    # results are those of a walk whose first level is a direct solve.
    calls, _ = factorizations
    d = build()
    rep = hopf_check(d, potential, dirac(atom), refinements=2)
    shapes = [shape for shape, *_ in calls]
    assert shapes and set(shapes) == {(d.n_interior,) * 2}
    grids = rep.details["grids"]
    assert len(grids) == 3
    for g, got in zip(d.ladder(2), grids):
        u, diag = solve_truncated_limit(g, potential, dirac(atom))
        assert got["levels"] == list(diag.levels)
        lo, hi = _trace_extrema(g, u, 1)
        assert got["limit_min"] == pytest.approx(lo, rel=1e-10)
        assert got["limit_max"] == pytest.approx(hi, rel=1e-10)
