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
available as ``method="cg"``.  A ``Solver`` value carries the settings of
every solve of a run: tolerance, method, iteration cap and truncation
schedule.

The truncation-schedule walk ``walk`` factors the first level it solves and
links each later unfactored level to the factor it holds.  Since
``min(V,k) <= min(V,2k) <= 2 min(V,k)``, that factor is a spectrally
equivalent preconditioner, so ``solve_load`` solves a linked operator with at
most ``PCG_COLUMNS`` load columns by conjugate gradients preconditioned with
it, warm-started from the previous level's solution in the walk and from zero
in a later solve.  A column that misses ``PCG_BUDGET`` iterations has the
operator factored afresh, and the next levels link to that factor; outside an
operator cache the stale factor is dropped first, so a walk holds at most one.
Wider loads factor the linked operator: there a many-column triangular solve
costs more than a refactorization.  Every path enforces the relative-residual
postcondition.
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
METHODS = ("auto", "direct", "cg")
PCG_COLUMNS = 2  # loads with more columns factor a linked operator
PCG_BUDGET = 30  # PCG iterations per column before a linked operator is factored


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

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"solver tol must be finite and > 0, got {self.tol!r}")
        if self.method not in METHODS:
            raise ValueError(f"solver method must be one of {', '.join(METHODS)}, "
                             f"got {self.method!r}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"solver max_iter must be None or >= 1, got {self.max_iter!r}")


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
        self._near = None  # the factored operator of a nearby walk level, while unfactored
        self._kernels = {}  # read-only adjoint kernels, see kernel._adjoint_solve

    def solve_load(self, load: np.ndarray, solver: Solver | None = None,
                   guess: np.ndarray | None = None) -> np.ndarray:
        """Solve K u = load for one or many (columns) integrated right-hand sides.

        A direct solve uses this operator's LU factor, made on first use;
        an unfactored operator that a walk linked to a nearby level's factor
        is solved by PCG on that factor from ``guess`` (see the module
        docstring).
        """
        solver = solver or Solver()
        load = np.asarray(load, dtype=float)
        if not _direct(solver, self.domain):
            max_iter = 10 * self.domain.n_interior if solver.max_iter is None else solver.max_iter
            u = self._cg(load, sp.diags(1.0 / self.system.diagonal()), max_iter, solver.tol)
        else:
            u = self._pcg(load, solver, guess)
            if u is None:
                if self._lu is None:
                    if self._near is not None and self.domain._operators is None:
                        self._near._lu = None  # nothing outside a cache reuses the stale factor
                    self._near = None
                    self._lu = spla.splu(self.system)
                u = self._lu.solve(load)
        self._check_residual(u, load, solver.tol)
        return u

    def _pcg(self, load: np.ndarray, solver: Solver, guess: np.ndarray | None) -> np.ndarray | None:
        """CG preconditioned with the linked factor, stopped at 1e-2 *
        solver.tol; None when there is none to use or a column misses
        PCG_BUDGET iterations."""
        near = self._near
        if (self._lu is not None or near is None or near._lu is None
                or load.reshape(len(load), -1).shape[1] > PCG_COLUMNS):
            return None
        precond = spla.LinearOperator(self.system.shape, matvec=near._lu.solve, dtype=float)
        try:
            return self._cg(load, precond, PCG_BUDGET, 1e-2 * solver.tol, guess)
        except SolverError:
            return None

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
    Every solve still goes through ``DiscreteOperator.solve_load``, so a
    direct solve on an operator that a walk left unfactored runs PCG on the
    factor the walk linked it to.

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
    solver's schedule, yielding (k, operator of min(V, k), solution of
    K_k u = load).

    Each level is solved by ``solve_load``, linked to the factor of the last
    level factored and warm-started from the previous solution (see the
    module docstring).  A level whose truncation equals the last solved one
    is saturated: the discrete problem is unchanged, so it is yielded with
    that level's operator and solution None, and so is every level after it
    (the sample lies below all of them).  Stop rules belong to the
    consumers, which end the walk by leaving the loop.
    """
    solver = solver or Solver()
    full = sample(potential, domain)
    op = u = None
    for level in solver.schedule.levels():
        vals = np.minimum(full, level)
        if op is not None and np.array_equal(vals, op.v_values):
            yield level, op, None
            continue
        # the last factor the walk solved with: the last level's own or its link
        near = op._near if op is not None and op._lu is None else op
        op = _operator_for(domain, vals)
        if op._lu is None:
            op._near = near
        u = op.solve_load(load, solver, u)
        yield level, op, u


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
) -> tuple[Field, TruncationDiagnostics]:
    """Monotone truncation limit: solve with min(V, k) along the schedule.

    Signed measures are split and the two nonnegative parts solved as two
    columns of one walk, each its own monotone limit with its own stop.
    Early stop when the L1 distance between consecutive iterates falls below
    1e-8 times the measure's total variation (at least 1e-8).
    """
    tv = total_variation(measure, domain)
    if not np.isfinite(tv):
        raise ValueError("measure has infinite total variation")
    parts = (measure,) if is_nonnegative(measure, domain) else split_signed(measure, domain)
    limit = _L1Limit(domain, 1e-8 * max(tv, 1.0), len(parts))
    load = np.column_stack([load_vector(p, domain) for p in parts])
    for level, _, u in walk(domain, potential, load, solver):
        if limit.step(level, u):
            break
    u = limit.u[:, 0] if len(parts) == 1 else limit.u[:, 0] - limit.u[:, 1]
    return Field(domain, u), limit.diagnostics()


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
