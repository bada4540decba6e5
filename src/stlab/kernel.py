"""Duality kernels: boundary representation densities from adjoint solves.

The kernel of a boundary node a is the interior field whose volume-weighted
pairing with any density f equals the inward-normal trace at a of the solution
driven by f.  The assembled system is symmetric, so the kernel comes from one
plain solve against the trace-extraction vector of a, and the pairing identity
is algebraically exact up to solver tolerance.  With zero potential the
kernels are discrete harmonic measure densities (the Poisson kernel on the
disk); with absorption they can only shrink, never grow, by inverse
monotonicity of the M-matrix system.

Singular potentials have a discrete limit: the grid samples V finitely, so
min(V_h, k) = V_h from the first schedule level k >= max V_h on, every later
level solves the same system, and one solve with the full sample is the
schedule limit.  Only a schedule that ends below max V_h walks its levels,
and its limit is the kernels of the top level.

Every adjoint solve goes through ``DiscreteOperator.solve_load``.  Inside
``cached_operators(domain)`` it is memoized as well, so checks that need the
kernels of the same boundary nodes (``representation`` and ``inequalities``
with every node sampled) share one solve.  The key holds every input of the
result: the sample indices and trace order (they determine the adjoint
sources), the sampled potential, its bound (a bounded potential reports its
bound as the level, not a schedule level) and the ``Solver``.  A memoized
kernel array is read-only, so no consumer can change what a later one reads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .domain import Domain, DomainError
from .fields import Field
from .measure import Measure, density_measure, load_vector, uniform_density
from .operator import DiscreteOperator, Solver, _operator_for, assemble, solve_truncated_limit, walk
from .potential import Potential, sample, zero_potential
from .trace import trace_matrix

DEGENERACY_FACTOR = 1e-10


def resolve_samples(domain: Domain, samples=None) -> np.ndarray:
    """Normalize a boundary sample selection to an index array (None = all)."""
    if samples is None:
        return np.arange(domain.n_boundary)
    entries = np.atleast_1d(np.asarray(samples, dtype=object))
    if entries.ndim != 1 or entries.size == 0:
        raise DomainError("boundary samples must be a nonempty list of indices")
    for v in entries:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise DomainError(f"boundary sample index must be an integer, got {v!r}")
    idx = entries.astype(int)
    if np.any(idx < 0) or np.any(idx >= domain.n_boundary):
        raise DomainError("boundary sample index out of range")
    return idx


def trace_sources(domain: Domain, samples=None, order: int = 1) -> np.ndarray:
    """Adjoint right-hand sides: column per sampled boundary node, holding the
    trace-extraction vector (the node's row of the trace matrix of ``order``)."""
    idx = resolve_samples(domain, samples)
    return trace_matrix(domain, order)[idx].T.toarray()


@dataclass(frozen=True)
class KernelSet:
    """Duality kernels for a set of boundary nodes, one column per node.

    ``reference`` holds the zero-potential kernels on the same samples when
    requested; the degeneracy flag marks kernels whose L1 norm fell below
    1e-10 times the reference norm (absorption killed the boundary node).
    """

    domain: Domain
    samples: np.ndarray
    kernels: np.ndarray
    potential_label: str
    reference: np.ndarray | None
    degenerate: np.ndarray

    def l1_norms(self) -> np.ndarray:
        return np.abs(self.kernels).T @ self.domain.volumes

    def pair_measure(self, measure: Measure) -> np.ndarray:
        """Pairing of every kernel with a measure: densities by volume
        quadrature, atoms by multilinear interpolation of the kernel."""
        return self.kernels.T @ load_vector(measure, self.domain)


def schedule_kernel_run(
    domain: Domain,
    potential: Potential,
    rhs: np.ndarray,
    solver: Solver | None = None,
    stop_early: bool = True,
    collect: list | None = None,
) -> tuple[np.ndarray, DiscreteOperator, float]:
    """Solve the adjoint system level by level along the schedule; returns
    the last level's kernels, its operator and its level.  ``collect``
    receives the kernel array of every level run.

    The walk stops at the first saturated level (truncation no longer
    changes the sampled potential).  Without ``stop_early`` it runs the whole
    schedule, and saturated levels repeat the previous kernels: the discrete
    problem is identical, so recomputing could only add factorization noise.
    """
    prev = op = final_level = None
    for level, op, P in walk(domain, potential, rhs, solver):
        if P is None:
            if stop_early:
                break
            P = prev
        final_level = level
        if collect is not None:
            collect.append(P)
        prev = P
    return prev, op, final_level


def _adjoint_solve(domain: Domain, potential: Potential, idx: np.ndarray, order: int,
                   solver: Solver | None) -> tuple[np.ndarray, DiscreteOperator, float]:
    """Kernels of the boundary nodes ``idx`` for the trace of ``order``, the
    operator that produced them and its level.

    A bounded potential, or one whose sample max V_h some schedule level
    reaches, takes one solve with the full sample; the level is the bound, or the first
    schedule level at or above max V_h (the level where a walk saturates).
    A schedule that ends below max V_h is walked to its top level.  Inside
    ``cached_operators(domain)`` the result is memoized (see the module
    docstring).
    """
    solver = solver or Solver()
    full = sample(potential, domain)
    memo = domain._adjoints
    if memo is not None:
        key = (tuple(idx.tolist()), order, full.tobytes(), potential.bound, solver)
        if key in memo:
            return memo[key]
    rhs = trace_sources(domain, idx, order)
    if potential.is_bounded():
        level = float(potential.bound)
    else:
        level = next((k for k in solver.schedule.levels() if k >= full.max()), None)
    if level is None:
        result = schedule_kernel_run(domain, potential, rhs, solver)
    else:
        op = _operator_for(domain, full)
        result = op.solve_load(rhs, solver), op, level
    if memo is not None:
        result[0].flags.writeable = False
        memo[key] = result
    return result


def kernel_set(
    domain: Domain,
    potential: Potential,
    samples=None,
    solver: Solver | None = None,
    with_reference: bool = True,
    order: int = 1,
) -> KernelSet:
    """Duality kernels for the sampled boundary nodes (all nodes by default),
    representing the trace of ``order``."""
    idx = resolve_samples(domain, samples)
    P, _, _ = _adjoint_solve(domain, potential, idx, order, solver)
    if potential.family == "zero":
        ref = P
    elif with_reference:
        ref = assemble(domain, zero_potential()).solve_load(trace_sources(domain, idx, order), solver)
    else:
        ref = None
    l1 = np.abs(P).T @ domain.volumes
    if ref is not None:
        ref_l1 = np.abs(ref).T @ domain.volumes
        degenerate = l1 < DEGENERACY_FACTOR * np.maximum(ref_l1, 1e-300)
    else:
        degenerate = l1 < DEGENERACY_FACTOR * max(float(l1.max()), 1e-300)
    return KernelSet(
        domain=domain,
        samples=idx,
        kernels=P,
        potential_label=potential.label,
        reference=ref,
        degenerate=degenerate,
    )


def duality_kernel(
    domain: Domain,
    potential: Potential,
    a: int,
    solver: Solver | None = None,
    order: int = 1,
) -> Field:
    """Kernel of one boundary node; schedule limit when the potential is unbounded."""
    kset = kernel_set(domain, potential, [a], solver, with_reference=False, order=order)
    return Field(domain, kset.kernels[:, 0])


def truncation_kernels(
    domain: Domain,
    potential: Potential,
    a: int,
    solver: Solver | None = None,
    stop_early: bool = True,
) -> list[Field]:
    """Kernels of node a along the truncation schedule, nodewise non-increasing;
    the last entry agrees with duality_kernel to the solver tolerance."""
    mats: list[np.ndarray] = []
    schedule_kernel_run(domain, potential, trace_sources(domain, [a]), solver, stop_early, mats)
    return [Field(domain, m[:, 0].copy()) for m in mats]


def positivity_set(
    domain: Domain,
    potential: Potential,
    solver: Solver | None = None,
    threshold: float = 1e-10,
) -> np.ndarray:
    """Mask of nodes where the unit-density schedule limit stays positive.

    Nodes below ``threshold`` times the peak value are treated as crushed by
    the potential (the strong maximum principle failed there).
    """
    source = density_measure(uniform_density(1.0))
    u, _ = solve_truncated_limit(domain, potential, source, solver)
    peak = float(np.max(u.values))
    if peak <= 0.0:
        return np.zeros(domain.n_interior, dtype=bool)
    return u.values > threshold * peak


def kernel_summary(kset: KernelSet) -> dict:
    """JSON-ready summary: per-node min, max, L1 norm, degeneracy flag."""
    l1 = kset.l1_norms()
    return {
        "domain": kset.domain.kind,
        "resolution": dict(kset.domain.resolution),
        "potential": kset.potential_label,
        "n_samples": int(kset.samples.size),
        "with_reference": kset.reference is not None,
        "kernels": [
            {
                "boundary_index": int(a),
                "min": float(kset.kernels[:, col].min()),
                "max": float(kset.kernels[:, col].max()),
                "l1_norm": float(l1[col]),
                "degenerate": bool(kset.degenerate[col]),
            }
            for col, a in enumerate(kset.samples)
        ],
    }
