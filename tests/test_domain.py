"""Grid construction: volumes, surface weights, normals, distances."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlab import build_domain, build_interval, build_disk, build_rectangle
from stlab.domain import Domain, DomainError


def test_interval_counts():
    d = build_interval(8)
    assert d.kind == "interval"
    assert d.n_interior == 7
    assert d.h == pytest.approx(1 / 8)
    assert d.n_boundary == 2


def test_disk_counts():
    d = build_disk(16, 64)
    assert d.kind == "disk"
    assert d.n_boundary == 64
    assert d.surface_weights.sum() == pytest.approx(2 * np.pi, rel=0.01)


def test_rectangle_counts():
    d = build_rectangle(16)
    assert d.kind == "rectangle"
    assert d.surface_weights.sum() == pytest.approx(4.0, rel=0.01)
    assert d.corner_mask.sum() == 4


@pytest.mark.parametrize("kind,expected", [
    ("interval", 1.0),
    ("disk", np.pi),
    ("rectangle", 1.0),
])
def test_volumes_positive_and_sum_to_domain_measure(kind, expected):
    d = {
        "interval": lambda: build_interval(32),
        "disk": lambda: build_disk(16),
        "rectangle": lambda: build_rectangle(24),
    }[kind]()
    assert np.all(d.volumes > 0)
    assert d.volumes.sum() == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize("builder", [
    lambda: build_interval(16),
    lambda: build_disk(8),
    lambda: build_rectangle(12),
])
def test_surface_weights_positive(builder):
    d = builder()
    assert np.all(d.surface_weights > 0)


def test_interval_surface_weights_are_unit():
    d = build_interval(16)
    np.testing.assert_allclose(d.surface_weights, [1.0, 1.0])


@pytest.mark.parametrize("builder", [
    lambda: build_interval(16),
    lambda: build_disk(8),
    lambda: build_rectangle(12),
])
def test_inward_normals_unit_and_point_inward(builder):
    d = builder()
    norms = np.linalg.norm(d.inward_normals, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # positive inner product with displacement to the first interior neighbor
    disp = d.interior_points[d.first_neighbor] - d.boundary_points
    dots = np.sum(disp * d.inward_normals, axis=1)
    assert np.all(dots > 0)


def test_interval_distance_field_exact():
    d = build_interval(32)
    x = d.interior_points[:, 0]
    np.testing.assert_allclose(d.distances, np.minimum(x, 1 - x), atol=1e-14)
    assert np.all(d.distances > 0)


def test_disk_distance_field_exact():
    d = build_disk(12)
    r = np.linalg.norm(d.interior_points, axis=1)
    np.testing.assert_allclose(d.distances, 1 - r, atol=1e-14)
    assert np.all(d.distances > 0)


def _node_at(d, point):
    return int(np.argmin(np.sum((d.interior_points - point) ** 2, axis=1)))


def test_distance_to_boundary_values():
    for d, point, expected in [
        (build_interval(10), [0.3], 0.3),
        (build_disk(8), [0.5, 0.0], 0.5),
        (build_rectangle(12), [0.5, 0.5], 0.5),
    ]:
        i = _node_at(d, point)
        np.testing.assert_allclose(d.interior_points[i], point, atol=1e-14)
        assert d.distances[i] == pytest.approx(expected)


def test_distance_rejects_exterior_point():
    for d, point in [(build_interval(16), [1.5]), (build_disk(8), [1.2, 0.0])]:
        assert not d.contains(point)[0]
        with pytest.raises(DomainError):
            d.interp_weights(point)


def test_inward_normal_directions():
    d = build_interval(16)
    np.testing.assert_allclose(d.inward_normals[0], [1.0])
    np.testing.assert_allclose(d.inward_normals[1], [-1.0])
    dd = build_disk(8)
    for b in (0, 5, 17):
        np.testing.assert_allclose(dd.inward_normals[b], -dd.boundary_points[b], atol=1e-12)


def test_build_domain_dispatch_and_errors():
    d = build_domain("interval", n=8)
    assert d.kind == "interval"
    with pytest.raises(DomainError):
        build_domain("triangle", n=8)
    with pytest.raises(DomainError):
        build_interval(3)
    with pytest.raises(DomainError):
        build_disk(2)


def test_refine_halves_h():
    for d in (build_interval(16), build_disk(6), build_rectangle(8)):
        r = d.refine()
        assert r.kind == d.kind
        assert r.h == pytest.approx(d.h / 2, rel=1e-12)
        assert r.n_interior > d.n_interior


def test_refine_doubles_every_resolution():
    for d in (build_interval(16), build_disk(6, 20), build_rectangle(8)):
        doubled = {k: 2 * v for k, v in d.resolution.items()}
        r = d.refine()
        assert r.resolution == doubled
        assert _domain_digest(r) == _domain_digest(build_domain(d.kind, **doubled))


def test_ladder_builds_each_refinement_on_demand(monkeypatch):
    d = build_interval(8)
    builds = []
    real_refine = Domain.refine
    monkeypatch.setattr(Domain, "refine", lambda self: builds.append(self) or real_refine(self))
    rungs = d.ladder(2)
    assert next(rungs) is d and builds == []
    assert next(rungs).resolution == {"n": 16} and len(builds) == 1
    assert next(rungs).resolution == {"n": 32} and len(builds) == 2
    assert next(rungs, None) is None and len(builds) == 2
    assert list(d.ladder(0)) == [d]


def test_neighbor_indices_valid():
    for d in (build_interval(16), build_disk(8), build_rectangle(12)):
        assert np.all(d.first_neighbor >= 0)
        assert np.all(d.first_neighbor < d.n_interior)
        assert np.all(d.second_neighbor >= 0)
        assert np.all(d.second_neighbor < d.n_interior)
        assert np.all(d.first_neighbor != d.second_neighbor)


def test_interp_weights_at_node_is_identity():
    d = build_interval(16)
    nodes, w = d.interp_weights(d.interior_points[4])
    assert nodes.shape == w.shape
    k = int(np.argmax(w))
    assert nodes[k] == 4
    assert w[k] == pytest.approx(1.0)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_interp_weights_partition_of_unity_1d(x):
    d = build_interval(16)
    nodes, w = d.interp_weights(np.array([x]))
    assert np.all(w >= -1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # linear functions are reproduced exactly away from the boundary cells
    if d.h <= x <= 1 - d.h:
        centroid = float(np.dot(w, d.interior_points[nodes, 0]))
        assert centroid == pytest.approx(x, abs=1e-12)


@given(
    st.floats(min_value=-0.6, max_value=0.6),
    st.floats(min_value=-0.6, max_value=0.6),
)
def test_interp_weights_partition_of_unity_disk(px, py):
    d = build_disk(8)
    nodes, w = d.interp_weights(np.array([px, py]))
    assert np.all(w >= -1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-10)


def test_contains():
    d = build_rectangle(8)
    assert d.contains(np.array([0.4, 0.6]))
    assert not d.contains(np.array([1.4, 0.6]))


@pytest.mark.parametrize("domain", [build_interval(8), build_disk(8), build_rectangle(8)],
                         ids=["interval", "disk", "rectangle"])
def test_domain_arrays_read_only(domain):
    # the cached stiffness matrix and operator caches are built from these
    with pytest.raises(ValueError, match="read-only"):
        domain.volumes[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        domain.face_coefs *= 2.0
    assert all(not a.flags.writeable for a in vars(domain).values() if isinstance(a, np.ndarray))


def _domain_digest(domain):
    h = hashlib.sha256(repr((domain.kind, domain.h, domain.resolution)).encode())
    for name, value in vars(domain).items():
        if isinstance(value, np.ndarray):
            h.update(f"{name}:{value.shape}:{value.dtype.str}:".encode())
            h.update(value.tobytes())
    return h.hexdigest()


# Digests of every Domain array (bytes, shape, dtype, field order) as built
# by the per-node loop builders these replaced.  The stiffness matrix sums
# duplicate faces in input order, so even a reordered face list would move
# the solves at roundoff.  The disk values depend on numpy's cos/sin.
BUILDER_DIGESTS = [
    (build_interval, (4,), "87ec8e2953540c1daf6e4ee090b7668cb61bb36a0dc927e0dbef6dabb9003bb4"),
    (build_interval, (17,), "13a0f08d84fb25785303e19f926c2dcdb1d45971e8f3c3ffcfc1c3237d20de8a"),
    (build_interval, (64,), "322dfa920d681686b82ff8dcb910854644f0cc3b339f88cd8036d7a48fd0ab3b"),
    (build_rectangle, (4,), "be1add6c2c069a3efbf20648f6000b0c3d2aba80aebf7c086e833598991b47de"),
    (build_rectangle, (7,), "cf5f199bc99f92c4d837316a8a07e97db4d37318c5ba3cac6834c3107d6cd5b4"),
    (build_rectangle, (16,), "9e48e4b8e292fc7012f8b994fc7db28d2ff098a57f2720af504fc6d9125461e2"),
    (build_rectangle, (49,), "1d1e4426487fa6a18f5bb52cb9dd84235726ff0c95cff7909d08cd43aae9ff8f"),
    (build_disk, (4,), "94312d941b91548f4394559a2e190fffe9e33756e57aeebfc2f23334f16ac9a2"),
    (build_disk, (9,), "abb2aa25853f115dcc22cc33c9ebf191ccb0b90655e58f8d831f97610d204277"),
    (build_disk, (16,), "3dd9d6373d04adcc6bf8bc8faa76cb6eb1438006cc7fa42d0d1213a3458d3060"),
    (build_disk, (8, 12), "b9ec001961a087f50de45d5a578c36b9b129a4dacf731e78619560e7262505e8"),
    (build_disk, (6, 5), "711aa1307650a8a22654bc1a87f28e26997b275b404481e63511ba9de9be2bb3"),
    (build_disk, (32,), "9dd559b7c5ca520f9d58b3a6f86240ab7e0be3dbcd2ba23e8412625d0bfc44ba"),
]


@pytest.mark.parametrize(
    "builder,args,digest", BUILDER_DIGESTS,
    ids=[f"{b.__name__}{a}" for b, a, _ in BUILDER_DIGESTS],
)
def test_builder_arrays_are_pinned(builder, args, digest):
    assert _domain_digest(builder(*args)) == digest
