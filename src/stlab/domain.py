"""Grid domains with boundary geometry: unit interval, unit disk, unit square.

Every grid follows the same conventions.

* Interior nodes carry cell volumes that tile the domain exactly.  Cells
  adjacent to the boundary are extended up to it (1D end cells own 1.5h,
  the outermost disk annulus reaches r=1), so the node quadrature
  ``sum(f * volumes)`` integrates over all of the domain and the volumes
  sum to its exact measure at any resolution.
* Boundary nodes sit exactly on the boundary and carry surface weights
  summing to the exact boundary measure, and the indices of their first and
  second interior neighbors along the inward normal, together with the
  spacing (the second neighbor lies at twice the first's displacement).
  The trace stencil (``stlab.trace``) and the operator's boundary faces
  consume exactly this data.
* The disk grid is polar with an ordinary unknown at the center, whose cell
  is the small disk of radius dr/2.

``system_weights`` is the node quadrature matched to the stiffness form
(uniform h^dim on interval/square, the cell volumes on the disk).  The
stiffness form K, its faces and the assembled system ``K u = load`` in
integrated form live in ``stlab.operator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    pass


@dataclass
class Domain:
    kind: str
    dim: int
    h: float
    resolution: dict
    interior_points: np.ndarray
    volumes: np.ndarray
    distances: np.ndarray
    boundary_points: np.ndarray
    surface_weights: np.ndarray
    boundary_coords: np.ndarray
    corner_mask: np.ndarray
    first_neighbor: np.ndarray
    second_neighbor: np.ndarray
    normal_spacing: np.ndarray
    system_weights: np.ndarray
    _operators: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # the operator caches are built from these arrays; freezing them
        # keeps those caches from going stale
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def n_interior(self) -> int:
        return self.interior_points.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_points.shape[0]

    def as_points(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.dim:
            raise DomainError(f"expected points with dim {self.dim}, got shape {pts.shape}")
        return pts

    def contains(self, points) -> np.ndarray:
        pts = self.as_points(points)
        if self.kind == "interval":
            x = pts[:, 0]
            return (x > 0.0) & (x < 1.0)
        if self.kind == "disk":
            return np.hypot(pts[:, 0], pts[:, 1]) < 1.0
        x, y = pts[:, 0], pts[:, 1]
        return (x > 0.0) & (x < 1.0) & (y > 0.0) & (y < 1.0)

    def interp_weights(self, point) -> tuple[np.ndarray, np.ndarray]:
        """Multilinear deposition weights of an interior point onto interior nodes.

        Weights always sum to one: near the boundary the stencil is clamped
        onto the available interior nodes so that deposited mass is conserved
        exactly.
        """
        pt = self.as_points(point)[0]
        if not bool(self.contains(pt)[0]):
            raise DomainError(f"point {tuple(pt)} is not strictly inside the {self.kind}")
        if self.kind == "interval":
            pairs = _axis_pairs(pt[0] / self.h - 1.0, self.resolution["n"] - 1)
            idx = np.array([i for i, _ in pairs], dtype=int)
            w = np.array([w for _, w in pairs])
        elif self.kind == "rectangle":
            n = self.resolution["n"]
            px = _axis_pairs(pt[0] / self.h - 1.0, n - 1)
            py = _axis_pairs(pt[1] / self.h - 1.0, n - 1)
            idx, w = [], []
            for j, wj in py:
                for i, wi in px:
                    idx.append(j * (n - 1) + i)
                    w.append(wi * wj)
            idx, w = np.array(idx, dtype=int), np.array(w)
        else:
            idx, w = self._disk_interp(pt)
        # merge duplicates produced by clamping
        uniq, inv = np.unique(idx, return_inverse=True)
        merged = np.zeros(len(uniq))
        np.add.at(merged, inv, w)
        return uniq, merged

    def _disk_interp(self, pt) -> tuple[np.ndarray, np.ndarray]:
        nr, ntheta = self.resolution["nr"], self.resolution["ntheta"]
        dr, dtheta = 1.0 / nr, 2.0 * np.pi / ntheta
        r = float(np.hypot(pt[0], pt[1]))
        theta = float(np.arctan2(pt[1], pt[0])) % (2.0 * np.pi)
        tj = theta / dtheta
        j0 = int(np.floor(tj)) % ntheta
        fj = tj - np.floor(tj)
        if r < dr:
            # blend between the center node and the innermost ring
            fr = r / dr
            idx = [0, _disk_index(1, j0, ntheta), _disk_index(1, j0 + 1, ntheta)]
            w = [1.0 - fr, fr * (1.0 - fj), fr * fj]
            return np.array(idx, dtype=int), np.array(w)
        ti = r / dr - 1.0  # ring coordinate, rings are 1..nr-1
        i0 = int(np.floor(ti))
        fi = ti - i0
        if i0 >= nr - 2:  # between the outermost interior ring and the boundary
            i0, fi = nr - 2, 0.0
            ring_pairs = [(nr - 1, 1.0)]
        else:
            ring_pairs = [(i0 + 1, 1.0 - fi), (i0 + 2, fi)]
        idx, w = [], []
        for ring, wr in ring_pairs:
            idx.append(_disk_index(ring, j0, ntheta))
            w.append(wr * (1.0 - fj))
            idx.append(_disk_index(ring, j0 + 1, ntheta))
            w.append(wr * fj)
        return np.array(idx, dtype=int), np.array(w)

    def refine(self) -> "Domain":
        """The same domain with every resolution doubled."""
        return build_domain(self.kind, **{k: 2 * v for k, v in self.resolution.items()})

    def ladder(self, refinements: int):
        """This grid and then ``refinements`` successive refinements, each
        built only when the previous one has been consumed."""
        grid = self
        yield grid
        for _ in range(refinements):
            grid = grid.refine()
            yield grid


def _axis_pairs(pos: float, n_nodes: int) -> list[tuple[int, float]]:
    """1D hat weights at node coordinate ``pos`` clamped into [0, n_nodes-1]."""
    i0 = int(np.floor(pos))
    f = pos - i0
    pairs = [(i0, 1.0 - f), (i0 + 1, f)]
    return [(min(max(i, 0), n_nodes - 1), w) for i, w in pairs if w != 0.0]


def _disk_index(ring: int, j: int, ntheta: int) -> int:
    return 1 + (ring - 1) * ntheta + (j % ntheta)


def build_interval(n: int) -> Domain:
    """Uniform grid on (0,1) with n cells: interior nodes at i*h, i=1..n-1."""
    if n < 4:
        raise DomainError(f"interval resolution n={n} too small, need n >= 4")
    h = 1.0 / n
    ni = n - 1
    x = h * np.arange(1, n)
    volumes = np.full(ni, h)
    volumes[0] = volumes[-1] = 1.5 * h  # end cells own the boundary slivers
    pts = x.reshape(-1, 1)
    boundary = np.array([[0.0], [1.0]])
    return Domain(
        kind="interval",
        dim=1,
        h=h,
        resolution={"n": n},
        interior_points=pts,
        volumes=volumes,
        distances=np.minimum(x, 1.0 - x),
        boundary_points=boundary,
        surface_weights=np.array([1.0, 1.0]),
        boundary_coords=np.array([0.0, 1.0]),
        corner_mask=np.zeros(2, dtype=bool),
        first_neighbor=np.array([0, ni - 1]),
        second_neighbor=np.array([1, ni - 2]),
        normal_spacing=np.array([h, h]),
        system_weights=np.full(ni, h),
    )


def build_rectangle(n: int) -> Domain:
    """Tensor grid on the unit square with n cells per side (5-point stencil)."""
    if n < 4:
        raise DomainError(f"rectangle resolution n={n} too small, need n >= 4")
    h = 1.0 / n
    m = n - 1  # interior nodes per axis
    ax = h * np.arange(1, n)
    w1d = np.full(m, h)
    w1d[0] = w1d[-1] = 1.5 * h
    X, Y = np.meshgrid(ax, ax, indexing="xy")  # row-major over y, x fastest
    pts = np.column_stack([X.ravel(), Y.ravel()])
    volumes = np.outer(w1d, w1d).ravel()
    dists = np.minimum(np.minimum(pts[:, 0], 1.0 - pts[:, 0]), np.minimum(pts[:, 1], 1.0 - pts[:, 1]))
    iid = np.arange(m * m).reshape(m, m)  # iid[j - 1, i - 1]: node at (i*h, j*h)

    # boundary: counterclockwise from (0,0); arc length = index * h.  Each side
    # holds the nodes k = 0..n-1, corner first; (gx, gy) is a node's position
    # in units of h.
    k = np.arange(n)
    zero, one, up, down = np.zeros(n), np.ones(n), k * h, (n - k) * h
    bpts = np.concatenate([
        np.column_stack([up, zero]),  # bottom
        np.column_stack([one, up]),  # right
        np.column_stack([down, one]),  # top
        np.column_stack([zero, down]),  # left
    ])
    gx = np.concatenate([k, np.full(n, n), n - k, np.zeros(n, dtype=int)])
    gy = np.concatenate([np.zeros(n, dtype=int), k, np.full(n, n), n - k])
    corner_mask = np.arange(4 * n) % n == 0

    # the first neighbor is the nearest interior node (the diagonal one at a
    # corner), the second one step further along the inward (diagonal) normal
    step = np.repeat([[0, 1], [-1, 0], [0, -1], [1, 0]], n, axis=0)
    step[corner_mask] = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    fx, fy = np.clip(gx, 1, m), np.clip(gy, 1, m)
    first = iid[fy - 1, fx - 1]
    second = iid[fy + step[:, 1] - 1, fx + step[:, 0] - 1]
    spacing = np.full(4 * n, h)
    spacing[corner_mask] = np.sqrt(2.0) * h
    return Domain(
        kind="rectangle",
        dim=2,
        h=h,
        resolution={"n": n},
        interior_points=pts,
        volumes=volumes,
        distances=dists,
        boundary_points=bpts,
        surface_weights=np.full(4 * n, h),
        boundary_coords=h * np.arange(4 * n),
        corner_mask=corner_mask,
        first_neighbor=first,
        second_neighbor=second,
        normal_spacing=spacing,
        system_weights=np.full(m * m, h * h),
    )


def build_disk(nr: int, ntheta: int | None = None) -> Domain:
    """Polar grid on the unit disk: nr radial cells, ntheta angular cells.

    Interior unknowns are the center node plus rings i=1..nr-1 at radii i*dr;
    boundary nodes are the ntheta points on the unit circle.  Cell volumes are
    exact annular-sector areas (the outermost interior cells reach r=1, the
    center cell is the disk of radius dr/2), so they tile the disk exactly.
    The system weights are the volumes, the same array.
    """
    if ntheta is None:
        ntheta = 4 * nr
    if nr < 4 or ntheta < 4:
        raise DomainError(f"disk resolution nr={nr}, ntheta={ntheta} too small, need >= 4")
    dr = 1.0 / nr
    dtheta = 2.0 * np.pi / ntheta
    ni = 1 + (nr - 1) * ntheta
    theta = dtheta * np.arange(ntheta)
    ct, st = np.cos(theta), np.sin(theta)

    radii = dr * np.arange(1, nr)  # ring i sits at radius i*dr, i = 1..nr-1
    ring = 1 + np.arange((nr - 1) * ntheta).reshape(nr - 1, ntheta)  # ring[i - 1, j]: node at (i*dr, j*dtheta)

    pts = np.zeros((ni, 2))
    pts[1:, 0] = (radii[:, None] * ct).ravel()
    pts[1:, 1] = (radii[:, None] * st).ravel()
    inner = 1.0 - 1.5 * dr  # outermost interior cell spans [1-1.5dr, 1]
    ring_volumes = radii * dr * dtheta
    ring_volumes[-1] = 0.5 * (1.0 - inner * inner) * dtheta
    volumes = np.concatenate([[np.pi * (0.5 * dr) ** 2], np.repeat(ring_volumes, ntheta)])
    dists = 1.0 - np.hypot(pts[:, 0], pts[:, 1])
    dists[0] = 1.0

    bpts = np.column_stack([ct, st])

    return Domain(
        kind="disk",
        dim=2,
        h=dr,
        resolution={"nr": nr, "ntheta": ntheta},
        interior_points=pts,
        volumes=volumes,
        distances=dists,
        boundary_points=bpts,
        surface_weights=np.full(ntheta, dtheta),
        boundary_coords=theta,
        corner_mask=np.zeros(ntheta, dtype=bool),
        first_neighbor=ring[-1],
        second_neighbor=ring[-2],
        normal_spacing=np.full(ntheta, dr),
        system_weights=volumes,
    )


def build_domain(kind: str, **resolution) -> Domain:
    """Build a grid domain. kinds: interval (n), disk (nr, ntheta), rectangle (n)."""
    if kind == "interval":
        return build_interval(int(resolution["n"]))
    if kind == "disk":
        nr = int(resolution["nr"])
        ntheta = resolution.get("ntheta")
        return build_disk(nr, int(ntheta) if ntheta is not None else None)
    if kind == "rectangle":
        return build_rectangle(int(resolution["n"]))
    raise DomainError(f"unknown domain kind {kind!r}")

