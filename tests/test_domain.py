"""Grid construction: volumes, surface weights, normals, distances."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stlab import build_domain, build_interval, build_disk, build_rectangle
from stlab.domain import DomainError, distance_to_boundary, inward_normal


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


def test_distance_to_boundary_values():
    assert distance_to_boundary(build_interval(16), [0.3]) == pytest.approx(0.3)
    assert distance_to_boundary(build_disk(8), [0.5, 0.0]) == pytest.approx(0.5)
    assert distance_to_boundary(build_rectangle(12), [0.5, 0.5]) == pytest.approx(0.5)


def test_distance_rejects_exterior_point():
    with pytest.raises(DomainError):
        distance_to_boundary(build_interval(16), [1.5])
    with pytest.raises(DomainError):
        distance_to_boundary(build_disk(8), [1.2, 0.0])


def test_inward_normal_directions():
    d = build_interval(16)
    np.testing.assert_allclose(inward_normal(d, 0), [1.0])
    np.testing.assert_allclose(inward_normal(d, 1), [-1.0])
    dd = build_disk(8)
    for b in (0, 5, 17):
        np.testing.assert_allclose(inward_normal(dd, b), -dd.boundary_points[b], atol=1e-12)
    with pytest.raises(DomainError):
        inward_normal(d, 5)


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
