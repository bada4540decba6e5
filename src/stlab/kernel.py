"""Duality kernels: boundary representation densities from adjoint solves.

The kernel of a boundary node a is the interior field whose volume-weighted
pairing with any density f equals the inward-normal trace at a of the solution
driven by f.  The assembled system is symmetric, so the kernel comes from one
plain solve against the trace-extraction vector of a, and the pairing identity
is algebraically exact up to solver tolerance.  With zero potential the
kernels are discrete harmonic measure densities (the Poisson kernel on the
disk); with absorption they can only shrink, never grow, by inverse
monotonicity of the M-matrix system.

Singular potentials go through the truncation schedule: the kernels decrease
nodewise with the level, and the run stops when the decrease falls below
1e-8 times the first-level peak, or when truncation stops changing the
sampled potential (the levels have passed its grid maximum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain, DomainError
from .fields import Field
from .measure import Measure, density_measure, load_vector, uniform_density
from .operator import (
    DiscreteOperator,
    ScheduleSolver,
    Solver,
    assemble,
    solve_truncated_limit,
)
from .potential import Potential, zero_potential
from .trace import trace_matrix

DEGENERACY_FACTOR = 1e-10
KERNEL_STOP_FACTOR = 1e-8


def resolve_samples(domain: Domain, samples=None) -> np.ndarray:
    """Normalize a boundary sample selection to an index array (None = all)."""
    if samples is None:
        return np.arange(domain.n_boundary)
    idx = np.atleast_1d(np.asarray(samples, dtype=int))
    if idx.ndim != 1 or idx.size == 0:
        raise DomainError("boundary samples must be a nonempty list of indices")
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
    walker: ScheduleSolver,
    rhs: np.ndarray,
    stop_early: bool = True,
    collect: list | None = None,
) -> tuple[np.ndarray, float]:
    """Solve the adjoint system along the schedule; returns the last level's
    kernels and that level.  ``collect`` receives the kernel array of every
    level run.

    Saturated levels (truncation no longer changes the sampled potential) reuse
    the previous solution: the discrete problem is identical, so recomputing
    could only add factorization noise.  Without ``stop_early`` the walk runs
    the whole schedule, past convergence and saturation.
    """
    prev = None
    final_level = None
    scale = None
    converged = False
    for level, P in walker.walk(rhs):
        if P is None:
            if stop_early:
                break
            P = prev
        elif prev is None:
            scale = max(float(np.max(np.abs(P))), 1e-300)
        elif float(np.max(np.abs(P - prev))) < KERNEL_STOP_FACTOR * scale:
            converged = True
        final_level = level
        if collect is not None:
            collect.append(P)
        prev = P
        if converged and stop_early:
            break
    return prev, final_level


def _adjoint_solve(domain: Domain, potential: Potential, rhs: np.ndarray,
                   solver: Solver | None) -> tuple[np.ndarray, DiscreteOperator, float]:
    """Kernels of the adjoint sources ``rhs``: one solve for a bounded
    potential, the schedule limit otherwise.  Returns the kernels, the
    operator that produced them and its truncation level."""
    if potential.is_bounded():
        op = assemble(domain, potential)
        P = op.solve_load(rhs, solver)
        return P, op, float(potential.bound)
    walker = ScheduleSolver(domain, potential, solver)
    P, final_level = schedule_kernel_run(walker, rhs)
    return P, walker.operator, final_level


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
    rhs = trace_sources(domain, idx, order)
    P, _, _ = _adjoint_solve(domain, potential, rhs, solver)
    if potential.family == "zero":
        ref = P
    elif with_reference:
        ref_op = assemble(domain, zero_potential())
        ref = ref_op.solve_load(rhs, solver)
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
    the last entry is the schedule limit returned by duality_kernel."""
    walker = ScheduleSolver(domain, potential, solver)
    mats: list[np.ndarray] = []
    schedule_kernel_run(walker, trace_sources(domain, [a]), stop_early, collect=mats)
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
