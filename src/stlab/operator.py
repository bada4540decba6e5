"""Assembly and solution of the Dirichlet problem -laplace(u) + V u = mu.

The system is kept in integrated (flux) form ``K u = load``: K sums the face
difference coefficients of the grid (``_stiffness`` states its faces), and
the load vector holds cell integrals of the measure.  Solves apply
``K x + (V * system_weights) x`` by K's stencil on every grid (``_STENCILS``),
and Jacobi CG takes its diagonal from the stencils' own (``_diagonal``), so
no solve path reads a matrix.  The matrix K is assembled only inside an
operator's ``system`` (K with ``V w`` added to its diagonal in place), which
``splu`` and ``energy`` read; nothing caches K, so every operator holds its
own.  On the interval and the square K is ``h^dim`` times the standard
3/5-point stencil matrix; on the disk K itself is the symmetric flux-form
polar operator.
Either way K is symmetric positive definite, the discrete maximum principle
holds, and the adjoint solve used by duality kernels is a plain solve with K.

Every solve and every factorization goes through
``DiscreteOperator.solve_load``, which picks its path from its arguments
alone, at every grid size.  A zero-potential system on the disk or the
square is solved by fast transforms under every method and with no factor:
the disk's operator is block-circulant in theta (an rfft leaves one
tridiagonal system in r per mode), and the square's is diagonalized by
DST-I on both axes.  Method "auto" solves any other system by
transform-PCG when it is given a start on the disk or the square, else by
the operator's cached sparse LU factor (one factorization serves every
right-hand side, which kernel sets rely on); method "cg" runs conjugate
gradients with a Jacobi preconditioner instead.  A ``Solver`` value carries
the settings of every solve of a run: tolerance, method, iteration cap (CG
only) and truncation schedule.

The discrete limit of a potential is one solve on the operator of
``limit_operator``, which states the level rule.  The schedule is walked only
where its levels are reported, by the two consumers of ``walk``:
``solve_truncated_limit``, the one place of the L1 stop rule of a monotone
limit (``stlab solve``'s schedule, the inequality suite's ``final_level`` and
``monotone``, and through its ``on_level`` callback hopf's per-level trace
extrema), and ``truncation_kernels``, which keeps the kernel of every level
up to the first saturated one.

The truncation-schedule walk ``walk`` carries one load vector and passes the
previous level's solution to ``solve_load`` as ``guess``.  On the disk and the
square such a level is solved by CG preconditioned with the transform of
``P = K_0 + D``, where ``D`` is the largest diagonal below ``diag(V w)`` that
the transform inverts exactly: the ring minima of ``V w`` on the disk, its
least value on the square.  Hardy's inequality on a convex domain gives
``K_0 <= P <= K_k <= (1 + 4 lam) K_0`` whenever ``0 <= min(V, k) <= lam
d^-2``, so the iterations do not grow as h shrinks, and a radial V on the
disk has ``P = K_k``.
Measured per warm-started level: 1 for ``d^-1.5`` and ``d^-3`` on disk
nr = 32, 64, 6-16 there for an off-centre singularity with alpha = 2.5, and
on square n = 128, 256 5-9 for ``d^-1.5`` and up to 36 for ``d^-3`` (beyond
Hardy); a cold ``d^-3`` solve on the square takes up to 51.  ``PCG_BUDGET``
lies above that, and only a level that misses it reads (or makes) its
operator's factor, so a factor left by another check never changes a
level's solution.  A first level given no guess (``stlab solve``'s) is
factored, and so is every level on the interval, which has no transform;
outside an operator cache the walk drops the factor of each level it
leaves.  The inequality suite and ``hopf_check`` start every walk from
zero, so ``stlab verify`` factors limit operators only.
Every path enforces the relative-residual postcondition.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import Domain
from .fields import Field
from .measure import Measure, is_nonnegative, load_vector, total_variation
from .potential import Potential, PotentialError, TruncationSchedule, sample

DEFAULT_TOL = 1e-10
METHODS = ("auto", "cg")
PCG_BUDGET = 64  # transform-PCG iterations before a walk level takes the LU factor


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Solver:
    """How a run solves: the relative-residual tolerance, the method ("auto"
    or "cg", see ``DiscreteOperator.solve_load``), the iteration cap of
    method "cg" (None: 10 times the unknowns; "auto" takes none) and the
    truncation schedule that unbounded potentials walk."""

    tol: float = DEFAULT_TOL
    method: str = "auto"
    max_iter: int | None = None
    schedule: TruncationSchedule = TruncationSchedule()

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"solver tol must be finite and > 0, got {self.tol!r}")
        if self.method not in METHODS:
            raise ValueError(f"solver method must be one of {', '.join(METHODS)}, "
                             f"got {self.method!r}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"solver max_iter must be None or >= 1, got {self.max_iter!r}")
        if self.max_iter is not None and self.method != "cg":
            raise ValueError(f"solver max_iter is read by method cg only, not {self.method}")


@cache
def _disk_coefs(nr: int, ntheta: int) -> tuple[np.ndarray, np.ndarray]:
    """The disk's face coefficients (face length over node distance), each
    repeated around its ring: radial ``[i]`` couples ring i to ring i + 1
    (ring 0 the centre, the last the boundary face ``sw/ns = dtheta/dr`` of
    the first-order trace stencil), angular ``[i]`` the neighbours within
    ring i + 1.  Built once per resolution, read-only."""
    dr, dtheta = 1.0 / nr, 2.0 * np.pi / ntheta
    ext = np.full(nr - 1, dr)  # radial extent of the cells of each ring
    ext[-1] = 1.5 * dr
    radial = np.append((np.arange(nr - 1) + 0.5) * dr * dtheta / dr, dtheta / dr)
    angular = ext / (dr * np.arange(1, nr) * dtheta)
    radial.flags.writeable = angular.flags.writeable = False
    return radial, angular


def _faces(domain: Domain) -> tuple[np.ndarray, np.ndarray]:
    """K's interior faces (node pairs) and their coefficients, from the
    grid's kind and resolution alone."""
    if domain.kind == "interval":
        ni = domain.resolution["n"] - 1
        return np.column_stack([np.arange(ni - 1), np.arange(1, ni)]), np.full(ni - 1, 1.0 / domain.h)
    if domain.kind == "rectangle":
        # uniform coefficient 1 (K = h^2 * five-point stencil); x-direction
        # faces row by row, then y-direction faces
        m = domain.resolution["n"] - 1
        iid = np.arange(m * m).reshape(m, m)
        faces = np.column_stack([
            np.concatenate([iid[:, :-1].ravel(), iid[:-1, :].ravel()]),
            np.concatenate([iid[:, 1:].ravel(), iid[1:, :].ravel()]),
        ])
        return faces, np.ones(len(faces))
    # center to innermost ring, radial faces between rings, angular faces
    # within each ring
    nr, nt = domain.resolution["nr"], domain.resolution["ntheta"]
    radial, angular = _disk_coefs(nr, nt)
    ring = 1 + np.arange((nr - 1) * nt).reshape(nr - 1, nt)
    faces = np.column_stack([
        np.concatenate([np.zeros(nt, dtype=int), ring[:-1].ravel(), ring.ravel()]),
        np.concatenate([ring[0], ring[1:].ravel(), np.roll(ring, -1, axis=1).ravel()]),
    ])
    return faces, np.repeat(np.concatenate([radial[:-1], angular]), nt)


def _stiffness(domain: Domain) -> sp.csc_matrix:
    """Symmetric face-difference form of the Laplacian with Dirichlet closure,
    assembled afresh on every call for its one reader,
    ``DiscreteOperator.system``; nothing caches it, so no operator can see
    another's matrix.

    Its interior faces are ``_faces(domain)``'s, built here and dropped once
    K is assembled: the standard 3/5-point stencil with uniform coefficients
    on the interval and the square, the exact polar flux coefficients of
    ``_disk_coefs`` on the disk.  Its boundary faces are the first-order
    trace stencil's, one per boundary node to its first neighbor with
    coefficient surface weight / normal spacing, so its flux is the trace's
    and the discrete flux balance is exact by construction; the square's
    four corner nodes (``corner_mask``) have none.  K sums duplicate faces in
    input order, so the face order is part of its roundoff."""
    faces, c = _faces(domain)
    p, q = faces.T
    keep = ~domain.corner_mask  # a corner of the square has no boundary face
    bi = domain.first_neighbor[keep]
    bc = (domain.surface_weights / domain.normal_spacing)[keep]
    rows = np.concatenate([p, q, p, q, bi], dtype=np.int32)  # scipy's index dtype
    cols = np.concatenate([p, q, q, p, bi], dtype=np.int32)
    data = np.concatenate([c, c, -c, -c, bc])
    ni = domain.n_interior
    return sp.coo_matrix((data, (rows, cols)), shape=(ni, ni)).tocsc()


def _diagonal(domain: Domain) -> float | np.ndarray:
    """K's diagonal as the stencils apply it: the scalar ``2/h`` on the
    interval and 4 on the square, and on the disk ``_disk_diagonal``'s
    centre, then each ring's entry repeated around it.  Equal to the
    assembled diagonal up to the order of its sums (exactly on the interval
    and the square)."""
    if domain.kind == "interval":
        return 2.0 / domain.h
    if domain.kind == "rectangle":
        return 4.0
    centre, rings = _disk_diagonal(domain)
    return np.concatenate([[centre], np.repeat(rings, domain.resolution["ntheta"])])


def _disk_diagonal(domain: Domain) -> tuple[float, np.ndarray]:
    """The disk's K diagonal by rings, from ``_disk_coefs``: the centre's
    ``ntheta`` radial faces, and each ring's two radial and two angular
    faces."""
    nt = domain.resolution["ntheta"]
    radial, angular = _disk_coefs(domain.resolution["nr"], nt)
    return nt * radial[0], radial[:-1] + radial[1:] + 2.0 * angular


class DiscreteOperator:
    """Symmetric positive-definite operator for one potential sample; solves
    apply ``K x + (V w) x`` by stencil (see ``_apply``), and ``system``, the
    one place K is assembled, is built on first read: by ``splu`` or
    ``energy``."""

    def __init__(self, domain: Domain, v_values: np.ndarray):
        v_values = np.asarray(v_values, dtype=float)
        if v_values.shape != (domain.n_interior,):
            raise PotentialError("potential sample does not match the domain")
        if np.any(v_values < 0.0) or not np.all(np.isfinite(v_values)):
            raise PotentialError("potential sample must be finite and nonnegative")
        self.domain = domain
        self.v_values = v_values
        self._lu = None
        self._kernels = {}  # read-only adjoint kernels, see kernel._adjoint_solve

    @cached_property
    def system(self) -> sp.csc_matrix:
        """``K + diag(V w)``: this operator's own fresh K with ``V w`` added
        to its diagonal in place (K stores every diagonal entry, so setdiag
        adds none)."""
        system = _stiffness(self.domain)
        system.setdiag(system.diagonal() + self.v_values * self.domain.system_weights)
        return system

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """``K x + (V w) x`` for one or many columns by K's stencil, one per
        grid kind, never by ``system``: a grid that is only solved assembles
        no K."""
        cols = x.reshape(x.shape[0], -1)
        vw = self.v_values * self.domain.system_weights
        return _STENCILS[self.domain.kind](self.domain, cols, vw).reshape(x.shape)

    def solve_load(self, load: np.ndarray, solver: Solver | None = None,
                   guess: np.ndarray | None = None) -> np.ndarray:
        """Solve K u = load for one or many (columns) integrated right-hand sides.

        A zero potential on the disk or the square is solved by transforms
        (``_TRANSFORMS``), whatever the method.  Otherwise method "cg" runs
        Jacobi CG.  Under "auto" a ``guess`` on the disk or the square starts
        CG preconditioned with the transform given this operator's diagonal
        ``V w``, stopped at 1e-2 * solver.tol; any other load, and one that
        misses PCG_BUDGET iterations, is solved by this operator's LU factor,
        made on first use (see the module docstring).
        """
        solver = solver or Solver()
        load = np.asarray(load, dtype=float)
        u = None
        transform = _TRANSFORMS.get(self.domain.kind)
        if transform is not None and not self.v_values.any():  # V w = v_values = 0
            u = transform(self.domain, load.reshape(load.shape[0], -1), self.v_values).reshape(load.shape)
        elif solver.method == "cg":
            max_iter = 10 * self.domain.n_interior if solver.max_iter is None else solver.max_iter
            diag = _diagonal(self.domain) + self.v_values * self.domain.system_weights
            u = self._cg(load, sp.diags(1.0 / diag), max_iter, solver.tol)
        elif transform is not None and guess is not None:
            vw = self.v_values * self.domain.system_weights
            precond = spla.LinearOperator(
                (load.shape[0],) * 2, dtype=float,
                matvec=lambda r: transform(self.domain, r.reshape(-1, 1), vw).ravel())
            with suppress(SolverError):  # PCG missed the budget: factor below
                u = self._cg(load, precond, PCG_BUDGET, 1e-2 * solver.tol, guess)
        if u is None:
            if self._lu is None:
                self._lu = spla.splu(self.system)
            u = self._lu.solve(load)
        self._check_residual(u, load, solver.tol)
        return u

    def _cg(self, load: np.ndarray, precond, max_iter: int, rtol: float,
            guess: np.ndarray | None = None) -> np.ndarray:
        """Preconditioned CG column by column, from ``guess`` (default zero);
        raises SolverError when a column misses ``max_iter`` iterations."""
        cols = load.reshape(load.shape[0], -1)
        starts = np.zeros_like(cols) if guess is None else guess.reshape(cols.shape)
        out = np.empty_like(cols)
        system = spla.LinearOperator((cols.shape[0],) * 2, matvec=self._apply, dtype=float)
        for j in range(cols.shape[1]):
            x, info = spla.cg(system, cols[:, j], x0=starts[:, j], rtol=rtol, atol=0.0,
                              maxiter=max_iter, M=precond)
            if info != 0:
                r = np.linalg.norm(self._apply(x) - cols[:, j]) / max(np.linalg.norm(cols[:, j]), 1e-300)
                raise SolverError(
                    f"conjugate gradients did not converge in {max_iter} iterations "
                    f"(relative residual {r:.3e})"
                )
            out[:, j] = x
        return out.reshape(load.shape)

    def _check_residual(self, u: np.ndarray, load: np.ndarray, tol: float) -> None:
        res = self._apply(u) - load
        num = np.linalg.norm(res, axis=0)
        den = np.maximum(np.linalg.norm(load, axis=0), 1e-300)
        worst = float(np.max(num / den)) if num.size else 0.0
        if not np.all(np.isfinite(u)) or worst > 100.0 * tol:
            raise SolverError(f"linear solve failed the residual check (relative residual {worst:.3e})")


def _thomas(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal systems (``diag``, ``off``) along axis 0,
    one per entry of axis 1, for the columns on axis 2 of ``rhs``.  No pivoting:
    every system is positive definite."""
    gp = np.empty_like(rhs)
    cp = np.empty_like(off)
    den = diag[0]
    gp[0] = rhs[0] / den[:, None]
    for i in range(1, diag.shape[0]):
        cp[i - 1] = off[i - 1] / den
        den = diag[i] - off[i - 1] * cp[i - 1]
        gp[i] = (rhs[i] - off[i - 1][:, None] * gp[i - 1]) / den[:, None]
    for i in range(diag.shape[0] - 2, -1, -1):
        gp[i] -= cp[i][:, None] * gp[i + 1]
    return gp


def _interval_stencil(domain: Domain, cols: np.ndarray, vw: np.ndarray) -> np.ndarray:
    """``K + diag(vw)`` times ``cols`` on the interval: every face, the two
    boundary faces included, has coefficient ``1/h``, so each row is
    ``(2/h + vw) x`` minus ``1/h`` times its interior neighbours."""
    c = 1.0 / domain.h
    y = (_diagonal(domain) + vw)[:, None] * cols
    y[1:] -= c * cols[:-1]
    y[:-1] -= c * cols[1:]
    return y


def _disk_stencil(domain: Domain, cols: np.ndarray, vw: np.ndarray) -> np.ndarray:
    """``K + diag(vw)`` times ``cols`` on the disk from the ring coefficients:
    the centre row couples to ring 1, ring rows to their radial and (by
    slices, cyclic in theta) angular neighbours; the last ring's outer face
    is the boundary's, whose node is not an unknown."""
    nt = domain.resolution["ntheta"]
    radial, angular = _disk_coefs(domain.resolution["nr"], nt)
    x = cols[1:].reshape(radial.size - 1, nt, -1)
    y = np.empty_like(cols)
    centre, rings = _disk_diagonal(domain)
    y[0] = (centre + vw[0]) * cols[0] - radial[0] * x[0].sum(axis=0)
    ring = y[1:].reshape(x.shape)
    diag = rings[:, None] + vw[1:].reshape(x.shape[:2])
    np.multiply(diag[:, :, None], x, out=ring)
    ring[0] -= radial[0] * cols[0]
    inner = radial[1:-1, None, None]
    t = np.empty_like(x)  # one scratch for all products: fresh large temporaries raise peak RSS
    np.multiply(inner, x[:-1], out=t[1:])
    ring[1:] -= t[1:]
    np.multiply(inner, x[1:], out=t[1:])
    ring[:-1] -= t[1:]
    np.multiply(angular[:, None, None], x, out=t)
    ring[:, 1:] -= t[:, :-1]
    ring[:, 0] -= t[:, -1]
    ring[:, :-1] -= t[:, 1:]
    ring[:, -1] -= t[:, 0]
    return y


def _square_stencil(domain: Domain, cols: np.ndarray, vw: np.ndarray) -> np.ndarray:
    """``K + diag(vw)`` times ``cols`` on the square: ``_faces``'s
    coefficient is 1 and so is every boundary face's ``sw/ns``, so each row
    is ``(4 + vw) x`` minus its interior neighbours (the corners, which have
    no face, couple to none)."""
    m = domain.resolution["n"] - 1
    x = cols.reshape(m, m, -1)
    y = (_diagonal(domain) + vw).reshape(m, m, 1) * x
    y[:, 1:] -= x[:, :-1]
    y[:, :-1] -= x[:, 1:]
    y[1:] -= x[:-1]
    y[:-1] -= x[1:]
    return y.reshape(cols.shape)


def _disk_transform(domain: Domain, cols: np.ndarray, vw: np.ndarray) -> np.ndarray:
    """Solve on the disk with ``K_0`` plus ring minima of the diagonal ``vw``:
    the ring coefficients repeat around each ring, so an rfft along theta
    leaves one tridiagonal system in r per mode.  Row 0 holds
    ``ntheta * u_centre`` in mode 0 (so the centre adds ``vw[0] / ntheta``),
    which keeps that mode's system symmetric, and a decoupled identity row in
    the others.  Exact where ``vw`` is constant on every ring.  The ring
    coefficients are ``_disk_coefs``'s, the ones ``_disk_stencil`` applies."""
    nr, nt = domain.resolution["nr"], domain.resolution["ntheta"]
    radial, angular = _disk_coefs(nr, nt)
    mode = np.arange(nt // 2 + 1)
    diag = np.empty((nr, mode.size))
    diag[0] = 1.0
    diag[0, 0] = radial[0] + vw[0] / nt
    diag[1:] = ((radial[:-1] + radial[1:])[:, None]
                + angular[:, None] * (2.0 - 2.0 * np.cos(2.0 * np.pi * mode / nt))
                + vw[1:].reshape(nr - 1, nt).min(axis=1)[:, None])
    off = np.repeat(-radial[:-1, None], mode.size, axis=1)
    off[0, 1:] = 0.0  # the centre couples to mode 0 only
    rhs = np.zeros((nr, mode.size, cols.shape[1]), dtype=complex)
    rhs[0, 0] = cols[0]
    rhs[1:] = np.fft.rfft(cols[1:].reshape(nr - 1, nt, -1), axis=1)
    x = _thomas(diag, off, rhs)
    u = np.empty_like(cols)
    u[0] = x[0, 0].real / nt
    u[1:] = np.fft.irfft(x[1:], n=nt, axis=1).reshape(-1, cols.shape[1])
    return u


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DST-I along ``axis`` (its own inverse), as the rfft of the
    odd extension; numpy.fft keeps scipy.fft out of the import path."""
    x = np.moveaxis(x, axis, 0)
    zero = np.zeros((1,) + x.shape[1:])
    odd = np.fft.rfft(np.concatenate([zero, x, zero, -x[::-1]]), axis=0)
    return np.moveaxis(-odd[1:x.shape[0] + 1].imag * np.sqrt(0.5 / (x.shape[0] + 1)), 0, axis)


def _square_transform(domain: Domain, cols: np.ndarray, vw: np.ndarray) -> np.ndarray:
    """Solve on the square with ``K_0`` plus the least value of the diagonal
    ``vw``: the 5-point operator with ``_faces``'s uniform coefficient 1 is
    diagonalized by DST-I on both axes, with eigenvalues
    ``4 - 2cos(pi j/n) - 2cos(pi k/n) + min(vw)``."""
    n = domain.resolution["n"]
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n)
    eig = lam[:, None] + lam[None, :] + vw.min()
    f = _dst1(_dst1(cols.reshape(n - 1, n - 1, -1), 0), 1) / eig[:, :, None]
    return _dst1(_dst1(f, 0), 1).reshape(cols.shape)


_STENCILS = {"interval": _interval_stencil, "disk": _disk_stencil, "rectangle": _square_stencil}
_TRANSFORMS = {"disk": _disk_transform, "rectangle": _square_transform}


def _operator_for(domain: Domain, v_values: np.ndarray) -> DiscreteOperator:
    """Operator of a potential sample; inside ``cached_operators(domain)`` one
    per distinct sample, so its factorization serves every later solve."""
    cache = domain._operators
    if cache is None:
        return DiscreteOperator(domain, v_values)
    key = np.asarray(v_values, dtype=float).tobytes()
    if key not in cache:
        cache[key] = DiscreteOperator(domain, v_values)
    return cache[key]


@contextmanager
def cached_operators(domain: Domain):
    """Share operators and their LU factors, keyed by the exact potential
    sample, among all solves on ``domain`` inside the block; dropped on exit.
    A walk keeps the factor of a level it could not solve by PCG (no start,
    or past ``PCG_BUDGET``), and a solve given no start factors an operator
    that a walk solved by PCG; a started level takes PCG even so.

    Adjoint kernels are memoized on their operator (see ``stlab.kernel``) and
    ``solve_truncated_limit``'s walks here under tuple keys, so two checks
    that need the same kernels or walk solve once; both go with the block.

    Only a grid that several computations solve on gains: on a grid built
    for one schedule walk the cache would hold factors nobody reuses.
    """
    domain._operators = {}
    try:
        yield
    finally:
        domain._operators = None


def assemble(domain: Domain, potential: Potential) -> DiscreteOperator:
    """Assemble the operator for a bounded potential.

    Unbounded potentials must go through a truncation schedule; passing one
    here is an error even though any fixed grid samples it finitely.
    """
    if not potential.is_bounded():
        raise PotentialError(
            f"potential {potential.label!r} is unbounded; truncate it or use a schedule solve"
        )
    return _operator_for(domain, sample(potential, domain))


def limit_operator(domain: Domain, potential: Potential,
                   solver: Solver | None = None) -> tuple[DiscreteOperator, float]:
    """Operator of the discrete limit of the truncation schedule, and its level L.

    The grid samples V finitely, so min(V_h, k) = V_h from the first
    schedule level k >= max V_h on, and every later level solves the same
    system: the limit is one solve on the operator of min(V_h, L).  L is the
    bound of a bounded potential (whose operator is ``assemble``'s), else
    the first schedule level at or above max V_h, else the schedule's top
    level (a schedule that ends below max V_h stops there).
    """
    if potential.is_bounded():
        return assemble(domain, potential), float(potential.bound)
    full = sample(potential, domain)
    levels = (solver or Solver()).schedule.levels()
    level = next((k for k in levels if k >= full.max()), levels[-1])
    return _operator_for(domain, np.minimum(full, level)), level


@dataclass(frozen=True)
class TruncationDiagnostics:
    levels: tuple  # truncation levels actually solved
    l1_distances: tuple  # L1 distance between consecutive iterates
    monotone: bool | None  # nodewise non-increasing (None if mu is signed)
    converged: bool
    final_level: float
    saturated: bool  # truncation stopped changing the sampled potential


def walk(domain: Domain, potential: Potential, load: np.ndarray, solver: Solver | None = None,
         guess: np.ndarray | None = None):
    """The truncation-schedule engine: one pass over the levels k of the
    solver's schedule, yielding (k, operator of min(V, k), solution vector of
    K_k u = load) for one load vector.

    Each level is solved by ``solve_load`` with the previous solution as
    ``guess``, the first level with the given ``guess`` (see the module
    docstring).  A level whose truncation equals the last solved one is
    saturated: the discrete problem is unchanged, so it is yielded with that
    level's operator and solution None, and so is every level after it (the
    sample lies below all of them).  A consumer ends the walk by leaving the
    loop: ``solve_truncated_limit`` at its L1 stop rule,
    ``truncation_kernels`` at the first saturated level (or at none).
    """
    solver = solver or Solver()
    full = sample(potential, domain)
    op, u = None, guess
    for level in solver.schedule.levels():
        vals = np.minimum(full, level)
        if op is not None and np.array_equal(vals, op.v_values):
            yield level, op, None
            continue
        if op is not None and domain._operators is None:
            op._lu = None  # outside a cache nothing reuses a level the walk left
        op = _operator_for(domain, vals)
        u = op.solve_load(load, solver, u)
        yield level, op, u


def solve_dirichlet(
    domain: Domain,
    potential: Potential,
    measure: Measure,
    operator: DiscreteOperator | None = None,
    solver: Solver | None = None,
) -> Field:
    """Single bounded-potential solve; see solve_truncated_limit for singular V."""
    op = operator if operator is not None else assemble(domain, potential)
    load = load_vector(measure, domain)
    u = op.solve_load(load, solver)
    return Field(domain, u)


def solve_truncated_limit(
    domain: Domain,
    potential: Potential,
    measure: Measure,
    solver: Solver | None = None,
    on_level: Callable[[float, np.ndarray | None], None] | None = None,
    guess: np.ndarray | None = None,
) -> tuple[Field, TruncationDiagnostics]:
    """Monotone truncation limit: solve with min(V, k) along the schedule.

    The walk stops when the L1 distance between consecutive iterates drops
    below 1e-8 times the measure's total variation (at least 1e-8), or at a
    saturated level, which is recorded with distance 0.  ``on_level(level, u)``
    sees every level the rule reads, with ``u`` None at the saturated one.
    ``guess`` starts the walk's first level (see ``walk``).
    The problem is linear in the measure, so a signed measure walks its one
    load vector like a nonnegative one; only its iterates have no order to
    report (``monotone`` None).  Inside ``cached_operators(domain)`` a repeated
    call (same potential sample, load, stop tolerance, ``Solver`` and start)
    replays the stored levels, ``u`` read-only, and solves nothing.
    """
    load = load_vector(measure, domain)  # refuses a measure of infinite total variation
    stop_tol = 1e-8 * max(total_variation(measure, domain), 1.0)
    steps = ((level, u) for level, _, u in walk(domain, potential, load, solver, guess))
    key = None
    if domain._operators is not None:
        key = ("walk", sample(potential, domain).tobytes(), load.tobytes(), stop_tol,
               solver or Solver(), None if guess is None else np.asarray(guess, float).tobytes())
        steps = domain._operators.get(key, steps)
    rows, dists = [], []  # rows: (level, u), u kept for the memo only
    last = None
    monotone = True
    converged = saturated = False
    for level, u in steps:
        if key is not None and u is not None:
            u.flags.writeable = False
        rows.append((level, u if key is not None else None))
        if on_level is not None:
            on_level(level, u)
        if u is None:
            converged = saturated = True
            dists.append(0.0)
            break
        if last is not None:
            dists.append(float(np.sum(np.abs(u - last) * domain.volumes)))
            monotone = monotone and not np.any(u > last + 1e-9)
            converged = dists[-1] < stop_tol
        last = u
        if converged:
            break
    if key is not None:
        domain._operators[key] = rows
    return Field(domain, last), TruncationDiagnostics(
        levels=tuple(level for level, _ in rows), l1_distances=tuple(dists),
        monotone=monotone if is_nonnegative(measure, domain) else None,
        converged=converged, final_level=rows[-1][0], saturated=saturated)


def _density_load(domain: Domain, source: Measure) -> np.ndarray:
    if source.atoms:
        raise ValueError("energy is defined for density sources only")
    return load_vector(source, domain)


def _quadratic_energy(op: DiscreteOperator, load: np.ndarray, z: np.ndarray) -> float:
    return float(0.5 * z @ (op.system @ z) - load @ z)


def energy(domain: Domain, potential: Potential, source: Measure, z) -> float:
    """Dirichlet energy 0.5 * (grad + absorption) - source term of a trial field.

    The gradient term uses the stencil-matched edge quadrature and the V-term
    the matching node quadrature, so the minimizer of this functional is
    exactly the assembled solve.  The source must be a pure density.
    """
    load = _density_load(domain, source)
    zv = z.values if isinstance(z, Field) else np.asarray(z, dtype=float)
    return _quadratic_energy(assemble(domain, potential), load, zv)
