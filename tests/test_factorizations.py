"""Factorization counts: at most one LU factorization per distinct operator,
and one per few-column schedule walk, later solves on its last level
included; one all-node kernel walk per verify run.

``scipy.sparse.linalg.splu`` is wrapped to count factorizations; a distinct
matrix is a distinct (grid, truncated potential) pair.
"""

import os

import pytest

from stlab import (
    build_disk,
    dirac,
    power_distance_potential,
    representation_check,
    solve_truncated_limit,
)
from stlab import kernel as kernel_module
from stlab.cli import main
from stlab.config import load_config

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
    # the first level's factor preconditions every later level
    assert len(calls) == 1
    assert live_factored == [0] * len(calls)


def test_verify_walks_the_all_node_kernels_once(tmp_path, monkeypatch):
    # representation and inequalities share the kernels of every boundary node
    cfg = os.path.join(GOLDEN, "verify_disk.cfg")
    run_cfg = load_config(cfg)
    assert {"representation", "inequalities"} <= set(run_cfg["checks"])
    widths = []
    real_run = kernel_module.schedule_kernel_run

    def run(domain, potential, rhs, *args, **kwargs):
        widths.append(rhs.shape[1])
        return real_run(domain, potential, rhs, *args, **kwargs)

    monkeypatch.setattr(kernel_module, "schedule_kernel_run", run)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert widths.count(run_cfg.build_domain().n_boundary) == 1


def test_one_node_representation_factors_once(factorizations):
    # the primal solve on the kernel walk's last operator runs PCG on the
    # walk's factor instead of factoring that level again
    calls, live_factored = factorizations
    rep = representation_check(build_disk(16), power_distance_potential(1.5),
                               dirac([0.2, -0.1]), samples=[0])
    assert len(calls) == 1
    assert live_factored == [0]
    assert rep.passed
    assert rep.details["max_residual"] <= rep.cases[0].tolerance
