"""Grid construction: volumes, surface weights, trace stencil geometry, distances."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlab import build_domain, build_interval, build_disk, build_rectangle
from stlab.domain import Domain, DomainError, stencil


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


@pytest.mark.parametrize("domain", [build_interval(16), build_disk(8), build_disk(6, 20),
                                    build_rectangle(12)],
                         ids=["interval", "disk", "disk_6_20", "rectangle"])
def test_trace_stencil_steps_inward(domain):
    # every boundary node, the square's corners included: the first neighbor
    # lies strictly inside at distance normal_spacing, and the second at twice
    # that displacement, which the order-2 stencil (4 u1 - u2) / (2 s) assumes
    b = domain.boundary_points
    first = domain.interior_points[domain.first_neighbor]
    second = domain.interior_points[domain.second_neighbor]
    assert np.all(domain.contains(first))
    np.testing.assert_allclose(np.linalg.norm(first - b, axis=1), domain.normal_spacing,
                               rtol=1e-12)
    np.testing.assert_allclose(second - b, 2.0 * (first - b), atol=1e-12)


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
    assert all(not a.flags.writeable for a in vars(domain).values() if isinstance(a, np.ndarray))


def test_domain_stores_no_per_face_array():
    # points, volumes and distances make 32 bytes per interior node (the
    # disk's system weights are its volumes, so each buffer counts once); a
    # stored face list would add at least 32 more
    d = build_disk(256)
    stored = {id(a): a.nbytes for a in vars(d).values() if isinstance(a, np.ndarray)}
    assert d.system_weights is d.volumes
    assert sum(stored.values()) < 40 * d.n_interior


def _domain_digest(domain):
    # the stencil's arrays are hashed where they sat when Domain stored them
    h = hashlib.sha256(repr((domain.kind, domain.h, domain.resolution)).encode())
    arrays = list(vars(domain).items())
    at = [name for name, _ in arrays].index("system_weights")
    arrays[at:at] = zip(("faces", "face_coefs"), stencil(domain))
    for name, value in arrays:
        if isinstance(value, np.ndarray):
            h.update(f"{name}:{value.shape}:{value.dtype.str}:".encode())
            h.update(value.tobytes())
    return h.hexdigest()


# Digests of every Domain array (bytes, shape, dtype, field order) as built
# by the per-node loop builders these replaced.  The stiffness matrix sums
# duplicate faces in input order, so a reordered interior face list would
# move the solves at roundoff; its boundary faces follow the boundary order
# of first_neighbor.  The disk values depend on numpy's cos/sin.
BUILDER_DIGESTS = [
    (build_interval, (4,), "b5d363dde0bc9f233581d289ee9128418454a9673465ba5b459eaf2462f931a6"),
    (build_interval, (17,), "fec46af3e585bbf6595eddcac158fffc07f1c6058ad4807ad5fd91153d7f5f64"),
    (build_interval, (64,), "1856863bc0ee7eb763a18cc55618c9bcbf08a5530ff3ca509a0fe70b5e2d9333"),
    (build_rectangle, (4,), "c89adcc76685e51d50af57ad928823d765e53cb0c0f96d878152d46e3240537f"),
    (build_rectangle, (7,), "40de550a7fbfa4f206a7fc2d54f3cb195212a7c8b4d4fb0cb1d7b1d53f073ffa"),
    (build_rectangle, (16,), "7f16378cb734637c59b0b7aa5857409eb90157b48e18f2e2478e9a1a65b43dfc"),
    (build_rectangle, (49,), "158c12811f9883105e1141a83d7418917ee0f95a1d6ab3bce313bbf50c5c6ed8"),
    (build_disk, (4,), "fbe2e4283e046b01f86b3202ae11f5489715cad485721d2e64b829e151e08942"),
    (build_disk, (9,), "7257a60b0df7c0c0384023c5061a880291e64529041447d1975eedd57046e640"),
    (build_disk, (16,), "51874a62fbf65c0b94bd96d38a6560b701b6bd14233487c934b820b813d76c27"),
    (build_disk, (8, 12), "35cd4709414aa274afb0756b69e5a69494c1375fc2182c79a01a71d9a2559ec2"),
    (build_disk, (6, 5), "c3055cf742fafbd545e6ec2a188660cd5c41dd7328468f701969be474da35633"),
    (build_disk, (32,), "ae061cb8515a046ba0a8aa4875e302050ff255b8b279a109e71988c12b3acd65"),
]


@pytest.mark.parametrize(
    "builder,args,digest", BUILDER_DIGESTS,
    ids=[f"{b.__name__}{a}" for b, a, _ in BUILDER_DIGESTS],
)
def test_builder_arrays_are_pinned(builder, args, digest):
    assert _domain_digest(builder(*args)) == digest
