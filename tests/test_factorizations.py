"""Factorization counts: one LU factorization per distinct operator.

``scipy.sparse.linalg.splu`` is wrapped to count factorizations; a distinct
matrix is a distinct (grid, truncated potential) pair.
"""

import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from stlab import dirac, power_distance_potential, solve_truncated_limit
from stlab.cli import main
from stlab.operator import DiscreteOperator


@pytest.fixture
def factorizations(monkeypatch):
    """Keys of the matrices passed to splu, one per call, and for each call
    the number of other operators then holding a factorization."""
    calls, live_factored = [], []
    ops = weakref.WeakSet()
    real_splu, real_init = spla.splu, DiscreteOperator.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        ops.add(self)

    def splu(A, *args, **kwargs):
        calls.append((A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()))
        live_factored.append(sum(op._lu is not None for op in ops))
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperator, "__init__", init)
    monkeypatch.setattr(spla, "splu", splu)
    return calls, live_factored


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
def test_truncated_limit_factors_once_per_level(rect16, factorizations, weights):
    calls, live_factored = factorizations
    measure = dirac([0.4, 0.55], weights[0])
    for w in weights[1:]:
        measure = measure + dirac([0.7, 0.3], w)
    _, diag = solve_truncated_limit(rect16, power_distance_potential(1.5), measure)
    assert diag.saturated  # the saturated level is not solved, so not factored
    assert len(calls) == len(diag.levels) - 1
    assert len(calls) == len(set(calls))
    # the walk drops each level's factor before it makes the next one
    assert live_factored == [0] * len(calls)
