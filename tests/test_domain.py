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
    (build_interval, (4,), "5a4056d63aec3e971cba747fe7939813debe832300ee19d8f5469d4a1284a7da"),
    (build_interval, (17,), "f98b3f647734b8c538881c5f5ff04284ee68a20cdddcd9e2bb5cabf650aad4a2"),
    (build_interval, (64,), "8dd7a42d74a86a6f3385b3cc57efe549b5401e6d145f1b6e3b681bdfa05fdef9"),
    (build_rectangle, (4,), "41ff72a43f808133a943a9a6adfbda30a21ec936e88054444891e8baf1dcca22"),
    (build_rectangle, (7,), "41e47c229aa4350342c9b2f28c4758fd26a37834a1a308822c7aebe7b1d9f5e3"),
    (build_rectangle, (16,), "06b71ff04a8313aea65b8a77d6acc4adf1536c78e51c08479e799fa4b347d033"),
    (build_rectangle, (49,), "992a3a40d4a39248612ee741f6cd6025e29e904918c363e5f43c822c890455e7"),
    (build_disk, (4,), "2009cc4ad6ec84c416e51d7386d199389090e56412496aa9147b27ef2f81a805"),
    (build_disk, (9,), "5e69cb65e37029643946b8a3442c89bcec63096e16ae1f405e3489a627d27134"),
    (build_disk, (16,), "eac39a8f0c2dc01bf2ffbb865259a7ae0c4cfaa6f692935005ce0e774daeeaea"),
    (build_disk, (8, 12), "8d9def2be536f16a4cdc32467470b76fb926ca0d912aeee13f5d00db5e629476"),
    (build_disk, (6, 5), "b974d0321caf6e8ba01c6fd8c4d0f2d57f020ffd4f4017b15d08eef54302060f"),
    (build_disk, (32,), "0d7f75cd487ceed37e81af42a31421cba1d8dc9ee612880dd03cfa2ca78349a6"),
]


@pytest.mark.parametrize(
    "builder,args,digest", BUILDER_DIGESTS,
    ids=[f"{b.__name__}{a}" for b, a, _ in BUILDER_DIGESTS],
)
def test_builder_arrays_are_pinned(builder, args, digest):
    assert _domain_digest(builder(*args)) == digest
