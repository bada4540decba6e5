import weakref

import pytest
import scipy.sparse.linalg as spla
from hypothesis import settings, HealthCheck

from stlab.operator import DiscreteOperator

# solves inside property bodies are slow; never enforce per-example deadlines
settings.register_profile(
    "lab",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture(scope="session")
def interval64():
    from stlab import build_interval
    return build_interval(64)


@pytest.fixture(scope="session")
def disk8():
    from stlab import build_disk
    return build_disk(8)


@pytest.fixture(scope="session")
def rect16():
    from stlab import build_rectangle
    return build_rectangle(16)


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
