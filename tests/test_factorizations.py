"""Factorization counts: at most one LU factorization per distinct operator,
and one per few-column schedule walk.

``scipy.sparse.linalg.splu`` is wrapped to count factorizations; a distinct
matrix is a distinct (grid, truncated potential) pair.
"""

import pytest

from stlab import dirac, power_distance_potential, solve_truncated_limit
from stlab.cli import main


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
