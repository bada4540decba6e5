"""Assembly and solution of the Dirichlet problem -laplace(u) + V u = mu.

The system is kept in integrated (flux) form ``K u = load``: K sums the face
difference coefficients of the grid plus ``diag(V * system_weights)``, and the
load vector holds cell integrals of the measure.  On the interval and the
square K is ``h^dim`` times the standard 3/5-point stencil matrix; on the
disk K itself is the symmetric flux-form polar operator.  Either way K is
symmetric positive definite, the discrete maximum principle holds, and the
adjoint solve used by duality kernels is a plain solve with K.

Every solve and every factorization goes through
``DiscreteOperator.solve_load``.  A direct solve uses the operator's cached
sparse LU factor (one factorization serves every right-hand side, which
kernel sets rely on); conjugate gradients with a Jacobi preconditioner is
available as ``method="cg"``.  A zero-potential system on the disk or the
square is solved by fast transforms at any size, under every method and
with no factor: the disk's operator is block-circulant in theta (an rfft
leaves one tridiagonal system in r per mode), and the square's is
diagonalized by DST-I on both axes.  A ``Solver`` value carries the settings of
every solve of a run: tolerance, method, iteration cap (CG only) and
truncation schedule.

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
square such a level, before its operator holds a factor, is solved by CG
preconditioned with the zero-potential transform: Hardy's inequality on a
convex domain gives ``K_0 <= K_k <= (1 + 4 lam) K_0`` whenever
``0 <= min(V, k) <= lam d^-2``, so the iterations do not grow as h shrinks.
Measured per warm-started level: 5-10 for ``d^-1.5`` and up to 36 for
``d^-3`` (beyond Hardy) on disk nr = 32, 64 and square n = 128, 256; a cold
``d^-3`` solve takes up to 52.  ``PCG_BUDGET`` lies above that, and a level
that misses it is factored.  The first level has no guess and the interval
no transform, so both are factored; outside an operator cache the walk
drops the factor of each level it leaves.  Every path enforces the
relative-residual postcondition.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import Domain
from .fields import Field
from .measure import Measure, is_nonnegative, load_vector, total_variation
from .potential import Potential, PotentialError, TruncationSchedule, sample

DEFAULT_TOL = 1e-10
DIRECT_LIMIT = 200_000
METHODS = ("auto", "direct", "cg")
PCG_BUDGET = 64  # transform-PCG iterations before a walk level is factored


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Solver:
    """How a run solves: the relative-residual tolerance, the method ("auto",
    "direct" or "cg"), the iteration cap of method "cg" (None: 10 times the
    unknowns; no other method takes one) and the truncation schedule that
    unbounded potentials walk."""

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


def _direct(solver: Solver, domain: Domain) -> bool:
    """Whether ``solver`` factors on ``domain``: "auto" does up to DIRECT_LIMIT unknowns."""
    if solver.method == "auto":
        return domain.n_interior <= DIRECT_LIMIT
    return solver.method == "direct"


def _stiffness(domain: Domain) -> sp.csc_matrix:
    """Symmetric face-difference form of the Laplacian with Dirichlet closure."""
    if domain._stiffness is not None:
        return domain._stiffness
    p = domain.faces[:, 0]
    q = domain.faces[:, 1]
    c = domain.face_coefs
    bi = domain.bface_interior
    bc = domain.bface_coefs
    rows = np.concatenate([p, q, p, q, bi])
    cols = np.concatenate([p, q, q, p, bi])
    data = np.concatenate([c, c, -c, -c, bc])
    ni = domain.n_interior
    K = sp.coo_matrix((data, (rows, cols)), shape=(ni, ni)).tocsc()
    domain._stiffness = K
    return K


class DiscreteOperator:
    """Assembled symmetric positive-definite operator for one potential sample."""

    def __init__(self, domain: Domain, v_values: np.ndarray):
        v_values = np.asarray(v_values, dtype=float)
        if v_values.shape != (domain.n_interior,):
            raise PotentialError("potential sample does not match the domain")
        if np.any(v_values < 0.0) or not np.all(np.isfinite(v_values)):
            raise PotentialError("potential sample must be finite and nonnegative")
        self.domain = domain
        self.v_values = v_values
        self.system = (_stiffness(domain) + sp.diags(v_values * domain.system_weights)).tocsc()
        self._lu = None
        self._kernels = {}  # read-only adjoint kernels, see kernel._adjoint_solve

    def solve_load(self, load: np.ndarray, solver: Solver | None = None,
                   guess: np.ndarray | None = None) -> np.ndarray:
        """Solve K u = load for one or many (columns) integrated right-hand sides.

        A zero potential on the disk or the square is solved by transforms
        (``_TRANSFORMS``), whatever the method and the size.  Otherwise a
        direct solve uses this operator's LU factor, made on first use; until
        then a ``guess`` on the disk or the square starts CG preconditioned
        with the transform, stopped at 1e-2 * solver.tol, and a load that
        misses PCG_BUDGET iterations factors (see the module docstring).
        """
        solver = solver or Solver()
        load = np.asarray(load, dtype=float)
        u = None
        transform = _TRANSFORMS.get(self.domain.kind)
        if transform is not None and not self.v_values.any():
            u = transform(self.domain, load.reshape(load.shape[0], -1)).reshape(load.shape)
        elif not _direct(solver, self.domain):
            max_iter = 10 * self.domain.n_interior if solver.max_iter is None else solver.max_iter
            u = self._cg(load, sp.diags(1.0 / self.system.diagonal()), max_iter, solver.tol)
        elif transform is not None and guess is not None and self._lu is None:
            precond = spla.LinearOperator(
                self.system.shape, dtype=float,
                matvec=lambda r: transform(self.domain, r.reshape(-1, 1)).ravel())
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
        for j in range(cols.shape[1]):
            x, info = spla.cg(self.system, cols[:, j], x0=starts[:, j], rtol=rtol, atol=0.0,
                              maxiter=max_iter, M=precond)
            if info != 0:
                r = np.linalg.norm(self.system @ x - cols[:, j]) / max(np.linalg.norm(cols[:, j]), 1e-300)
                raise SolverError(
                    f"conjugate gradients did not converge in {max_iter} iterations "
                    f"(relative residual {r:.3e})"
                )
            out[:, j] = x
        return out.reshape(load.shape)

    def _check_residual(self, u: np.ndarray, load: np.ndarray, tol: float) -> None:
        res = self.system @ u - load
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


def _disk_transform(domain: Domain, cols: np.ndarray) -> np.ndarray:
    """Zero-potential solve on the disk: the ring coefficients repeat around
    each ring, so an rfft along theta leaves one tridiagonal system in r per
    mode.  Row 0 holds ``ntheta * u_centre`` in mode 0, which keeps that
    mode's system symmetric, and a decoupled identity row in the others."""
    nr, nt = domain.resolution["nr"], domain.resolution["ntheta"]
    c = domain.face_coefs  # centre faces, radial faces ring by ring, then angular faces
    radial = np.concatenate([c[:1], c[nt:(nr - 1) * nt:nt], domain.bface_coefs[:1]])
    angular = c[(nr - 1) * nt::nt]
    mode = np.arange(nt // 2 + 1)
    diag = np.empty((nr, mode.size))
    diag[0] = 1.0
    diag[0, 0] = radial[0]
    diag[1:] = ((radial[:-1] + radial[1:])[:, None]
                + angular[:, None] * (2.0 - 2.0 * np.cos(2.0 * np.pi * mode / nt)))
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


def _square_transform(domain: Domain, cols: np.ndarray) -> np.ndarray:
    """Zero-potential solve on the square: the uniform 5-point operator is
    diagonalized by DST-I on both axes, with eigenvalues
    ``c (4 - 2cos(pi j/n) - 2cos(pi k/n))``."""
    n = domain.resolution["n"]
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n) / n)
    eig = domain.face_coefs[0] * (lam[:, None] + lam[None, :])
    f = _dst1(_dst1(cols.reshape(n - 1, n - 1, -1), 0), 1) / eig[:, :, None]
    return _dst1(_dst1(f, 0), 1).reshape(cols.shape)


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
    A walk keeps every factor it makes here, and a direct solve outside a
    walk on an operator that a walk solved by PCG factors it.

    Adjoint kernels are memoized on their operator (see ``stlab.kernel``),
    so inside the block two checks that need the same kernels solve for them
    once, and the memo is dropped with the operators.

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


def walk(domain: Domain, potential: Potential, load: np.ndarray, solver: Solver | None = None):
    """The truncation-schedule engine: one pass over the levels k of the
    solver's schedule, yielding (k, operator of min(V, k), solution vector of
    K_k u = load) for one load vector.

    Each level is solved by ``solve_load`` with the previous solution as
    ``guess`` (see the module docstring).  A level whose truncation equals
    the last solved one is saturated: the discrete problem is unchanged, so
    it is yielded with that level's operator and solution None, and so is
    every level after it (the sample lies below all of them).  A consumer
    ends the walk by leaving the loop: ``solve_truncated_limit`` at its L1
    stop rule, ``truncation_kernels`` at the first saturated level (or at
    none).
    """
    solver = solver or Solver()
    full = sample(potential, domain)
    op = u = None
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
) -> tuple[Field, TruncationDiagnostics]:
    """Monotone truncation limit: solve with min(V, k) along the schedule.

    The walk stops when the L1 distance between consecutive iterates drops
    below 1e-8 times the measure's total variation (at least 1e-8), or at a
    saturated level, which is recorded with distance 0.  ``on_level(level, u)``
    sees every level the rule reads, with ``u`` None at the saturated one.
    The problem is linear in the measure, so a signed measure walks its one
    load vector like a nonnegative one; only its iterates have no order to
    report (``monotone`` None).
    """
    tv = total_variation(measure, domain)
    if not np.isfinite(tv):
        raise ValueError("measure has infinite total variation")
    stop_tol = 1e-8 * max(tv, 1.0)
    levels, dists = [], []
    last = None
    monotone = True
    converged = saturated = False
    for level, _, u in walk(domain, potential, load_vector(measure, domain), solver):
        levels.append(level)
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
    return Field(domain, last), TruncationDiagnostics(
        levels=tuple(levels), l1_distances=tuple(dists),
        monotone=monotone if is_nonnegative(measure, domain) else None,
        converged=converged, final_level=levels[-1], saturated=saturated)


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
