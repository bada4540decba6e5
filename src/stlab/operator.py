"""Assembly and solution of the Dirichlet problem -laplace(u) + V u = mu.

The system is kept in integrated (flux) form ``K u = load``: K sums the face
difference coefficients of the grid plus ``diag(V * system_weights)``, and the
load vector holds cell integrals of the measure.  On the interval and the
square K is ``h^dim`` times the standard 3/5-point stencil matrix; on the
disk K itself is the symmetric flux-form polar operator.  Either way K is
symmetric positive definite, the discrete maximum principle holds, and the
adjoint solve used by duality kernels is a plain solve with K.

Solves default to a cached sparse LU factorization (one factorization serves
every right-hand side, which kernel sets rely on); conjugate gradients with a
Jacobi preconditioner is available as ``method="cg"``.  Both paths enforce the
relative-residual postcondition.  A ``Solver`` value carries the settings of
every solve of a run: tolerance, method, iteration cap and truncation schedule.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import Domain
from .fields import Field
from .measure import Measure, is_nonnegative, load_vector, split_signed, total_variation
from .potential import Potential, PotentialError, TruncationSchedule, sample

DEFAULT_TOL = 1e-10
DIRECT_LIMIT = 200_000


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Solver:
    """How a run solves: the relative-residual tolerance, the method ("auto",
    "direct" or "cg"), the CG iteration cap (None: 10 times the unknowns) and
    the truncation schedule that unbounded potentials walk."""

    tol: float = DEFAULT_TOL
    method: str = "auto"
    max_iter: int | None = None
    schedule: TruncationSchedule = TruncationSchedule()


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

    def __init__(self, domain: Domain, v_values: np.ndarray, label: str = ""):
        v_values = np.asarray(v_values, dtype=float)
        if v_values.shape != (domain.n_interior,):
            raise PotentialError("potential sample does not match the domain")
        if np.any(v_values < 0.0) or not np.all(np.isfinite(v_values)):
            raise PotentialError("potential sample must be finite and nonnegative")
        self.domain = domain
        self.v_values = v_values
        self.label = label
        self.system = (_stiffness(domain) + sp.diags(v_values * domain.system_weights)).tocsc()
        self._lu = None

    def solve_load(self, load: np.ndarray, solver: Solver | None = None) -> np.ndarray:
        """Solve K u = load for one or many (columns) integrated right-hand sides."""
        solver = solver or Solver()
        load = np.asarray(load, dtype=float)
        method = solver.method
        if method == "auto":
            method = "direct" if self.domain.n_interior <= DIRECT_LIMIT else "cg"
        if method == "direct":
            if self._lu is None:
                self._lu = spla.splu(self.system)
            u = self._lu.solve(load)
        elif method == "cg":
            u = self._solve_cg(load, solver)
        else:
            raise SolverError(f"unknown solver method {method!r}")
        self._check_residual(u, load, solver.tol)
        return u

    def _solve_cg(self, load: np.ndarray, solver: Solver) -> np.ndarray:
        precond = sp.diags(1.0 / self.system.diagonal())
        max_iter = solver.max_iter or 10 * self.domain.n_interior
        cols = load.reshape(load.shape[0], -1)
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            x, info = spla.cg(self.system, cols[:, j], rtol=solver.tol, atol=0.0,
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


def _operator_for(domain: Domain, v_values: np.ndarray, label: str) -> DiscreteOperator:
    """Operator of a potential sample; inside ``cached_operators(domain)`` one
    per distinct sample, so its factorization serves every later solve."""
    cache = domain._operators
    if cache is None:
        return DiscreteOperator(domain, v_values, label)
    key = np.asarray(v_values, dtype=float).tobytes()
    if key not in cache:
        cache[key] = DiscreteOperator(domain, v_values, label)
    return cache[key]


@contextmanager
def cached_operators(domain: Domain):
    """Share operators and their LU factors, keyed by the exact potential
    sample, among all solves on ``domain`` inside the block; dropped on exit.

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
    return _operator_for(domain, sample(potential, domain), potential.label)


@dataclass(frozen=True)
class TruncationDiagnostics:
    levels: tuple  # truncation levels actually solved
    l1_distances: tuple  # L1 distance between consecutive iterates
    monotone: bool | None  # nodewise non-increasing (None if mu is signed)
    converged: bool
    final_level: float
    saturated: bool  # truncation stopped changing the sampled potential


class ScheduleSolver:
    """The truncation-schedule engine: one pass over the levels k of the
    solver's schedule, solving with min(V, k) at each.

    The walk holds only the current level's operator, so an uncached grid
    keeps at most one LU factor alive.  Stop rules belong to the consumers,
    which end the walk by leaving the loop; ``operator`` is then the
    operator of the last level solved.
    """

    def __init__(self, domain: Domain, potential: Potential, solver: Solver | None = None):
        self.domain = domain
        self.potential = potential
        self.solver = solver or Solver()
        self.operator: DiscreteOperator | None = None

    def walk(self, load: np.ndarray):
        """Yield (level, solution of K_k u = load) along the schedule.

        A level whose truncation equals the last solved one is saturated: the
        discrete problem is unchanged, so it is yielded with solution None,
        and so is every level after it (the sample lies below all of them).
        """
        full = sample(self.potential, self.domain)
        prev = None
        for level in self.solver.schedule.levels():
            vals = np.minimum(full, level)
            if prev is not None and np.array_equal(vals, prev):
                yield level, None
                continue
            # rebinding drops the previous level's factor before this one is made
            self.operator = _operator_for(self.domain, vals, f"min({self.potential.label},{level:g})")
            yield level, self.operator.solve_load(load, self.solver)
            prev = vals


class _L1Limit:
    """Stop rule of monotone limits, one per column of the walk's solutions.

    A column stops when the L1 distance between its consecutive iterates
    drops below ``stop_tol``; a saturated level stops every column and is
    recorded with distance 0.  The walk ends when no column runs, and each
    level records the largest distance over the columns still running.
    """

    def __init__(self, domain: Domain, stop_tol: float, columns: int = 1):
        self.vol = domain.volumes
        self.stop_tol = stop_tol
        self.levels: list = []
        self.dists: list = []
        self.u = None  # latest iterate of every column, frozen once it stops
        self.running = np.ones(columns, dtype=bool)
        self.monotone = True
        self.saturated = False

    def step(self, level: float, u: np.ndarray | None) -> bool:
        """Record one level of the walk; True once the rule ends it."""
        self.levels.append(level)
        if u is None:
            self.saturated = bool(self.running.all())
            self.running[:] = False
            self.dists.append(0.0)
        elif self.u is None:
            self.u = u
        else:
            run = np.flatnonzero(self.running)
            dist = [float(np.sum(np.abs(u[:, j] - self.u[:, j]) * self.vol)) for j in run]
            self.dists.append(max(dist))
            if np.any(u[:, run] > self.u[:, run] + 1e-9):
                self.monotone = False
            self.u[:, run] = u[:, run]
            self.running[run[np.array(dist) < self.stop_tol]] = False
        return not self.running.any()

    def diagnostics(self) -> TruncationDiagnostics:
        return TruncationDiagnostics(
            levels=tuple(self.levels),
            l1_distances=tuple(self.dists),
            # the parts of a signed measure are separate columns: no order to report
            monotone=self.monotone if self.u.shape[1] == 1 else None,
            converged=not self.running.any(),
            final_level=self.levels[-1],
            saturated=self.saturated,
        )


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
    stop_tol: float | None = None,
) -> tuple[Field, TruncationDiagnostics]:
    """Monotone truncation limit: solve with min(V, k) along the schedule.

    Signed measures are split and the two nonnegative parts solved as two
    columns of one walk, each its own monotone limit with its own stop, so
    every level is factored once.  Early stop when the L1 distance between
    consecutive iterates falls below ``stop_tol`` (default 1e-8 times the
    measure's total variation).
    """
    if stop_tol is None:
        tv = total_variation(measure, domain)
        if not np.isfinite(tv):
            raise ValueError("measure has infinite total variation")
        stop_tol = 1e-8 * max(tv, 1.0)
    parts = (measure,) if is_nonnegative(measure, domain) else split_signed(measure, domain)
    limit = _L1Limit(domain, stop_tol, len(parts))
    walker = ScheduleSolver(domain, potential, solver)
    for level, u in walker.walk(np.column_stack([load_vector(p, domain) for p in parts])):
        if limit.step(level, u):
            break
    u = limit.u[:, 0] if len(parts) == 1 else limit.u[:, 0] - limit.u[:, 1]
    return Field(domain, u), limit.diagnostics()


def energy(domain: Domain, potential: Potential, source: Measure, z) -> float:
    """Dirichlet energy 0.5 * (grad + absorption) - source term of a trial field.

    The gradient term uses the stencil-matched edge quadrature and the V-term
    the matching node quadrature, so the minimizer of this functional is
    exactly the assembled solve.  The source must be a pure density.
    """
    if source.atoms:
        raise ValueError("energy is defined for density sources only")
    zv = z.values if isinstance(z, Field) else np.asarray(z, dtype=float)
    op = assemble(domain, potential)
    load = load_vector(source, domain)
    return float(0.5 * zv @ (op.system @ zv) - load @ zv)
