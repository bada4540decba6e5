"""Duality kernels: boundary representation densities from adjoint solves.

The kernel of a boundary node a is the interior field whose volume-weighted
pairing with any density f equals the inward-normal trace at a of the solution
driven by f.  The assembled system is symmetric, so the kernel comes from one
plain solve against the trace-extraction vector of a, and the pairing identity
is algebraically exact up to solver tolerance.  With zero potential the
kernels are discrete harmonic measure densities (the Poisson kernel on the
disk); with absorption they can only shrink, never grow, by inverse
monotonicity of the M-matrix system.

The kernels of every potential are one solve on the operator of the
discrete limit, at the level L that ``stlab.operator.limit_operator``
names; so is the unit-density solve of ``positivity_set``.  Only
``truncation_kernels``, which reports every level, walks the schedule.

Every adjoint solve goes through ``DiscreteOperator.solve_load``, and its
kernels are memoized on the operator that produced them, keyed by the sample
indices and trace order (they determine the adjoint sources) and the
``Solver``.  The memo lives as long as its operator: inside
``cached_operators(domain)`` for the whole block, so checks that need the
kernels of the same boundary nodes (``representation`` and ``inequalities``
with every node sampled) share one solve; outside it for one call.  A
memoized kernel array is read-only, so no consumer can change what a later
one reads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .domain import Domain, DomainError
from .fields import Field
from .measure import Measure, density_measure, load_vector, uniform_density
from .operator import DiscreteOperator, Solver, assemble, limit_operator, walk
from .potential import Potential, zero_potential
from .trace import trace_stencil

DEGENERACY_FACTOR = 1e-10
POSITIVITY_THRESHOLD = 1e-10  # fraction of the peak below which a node counts as crushed


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
    trace-extraction vector (the node's ``trace_stencil`` of ``order``), one
    contiguous column per node."""
    idx = resolve_samples(domain, samples)
    sources = np.zeros((domain.n_interior, idx.size), order="F")
    for nodes, c in trace_stencil(domain, order):
        sources[nodes[idx], np.arange(idx.size)] += c[idx]
    return sources


@dataclass(frozen=True)
class KernelSet:
    """Duality kernels for a set of boundary nodes, one column per node.

    ``reference`` holds the zero-potential kernels of the same samples, when requested.
    """

    domain: Domain
    samples: np.ndarray
    kernels: np.ndarray
    potential_label: str
    reference: np.ndarray | None

    def l1_norms(self) -> np.ndarray:
        return np.abs(self.kernels).T @ self.domain.volumes

    @property
    def degenerate(self) -> np.ndarray:
        """Mask of kernels whose L1 norm fell below DEGENERACY_FACTOR times
        their reference's (absorption killed the boundary node), or times
        the largest norm of the set when there is no reference."""
        l1 = self.l1_norms()
        if self.reference is None:
            return l1 < DEGENERACY_FACTOR * max(float(l1.max()), 1e-300)
        ref_l1 = np.abs(self.reference).T @ self.domain.volumes
        return l1 < DEGENERACY_FACTOR * np.maximum(ref_l1, 1e-300)

    def pair_measure(self, measure: Measure) -> np.ndarray:
        """Pairing of every kernel with a measure: densities by volume
        quadrature, atoms by multilinear interpolation of the kernel."""
        return self.kernels.T @ load_vector(measure, self.domain)


def _adjoint_solve(domain: Domain, potential: Potential, idx: np.ndarray, order: int,
                   solver: Solver | None) -> tuple[np.ndarray, DiscreteOperator, float]:
    """Kernels of the boundary nodes ``idx`` for the trace of ``order``, the
    operator that produced them and its level L: one solve on the operator
    of ``limit_operator``, memoized on that operator.
    """
    solver = solver or Solver()
    op, level = limit_operator(domain, potential, solver)
    key = (tuple(idx.tolist()), order, solver)
    if key not in op._kernels:
        kernels = op.solve_load(trace_sources(domain, idx, order), solver)
        kernels.flags.writeable = False
        op._kernels[key] = kernels
    return op._kernels[key], op, level


def kernel_set(
    domain: Domain,
    potential: Potential,
    samples=None,
    solver: Solver | None = None,
    with_reference: bool = True,
    order: int = 1,
) -> KernelSet:
    """Duality kernels for the sampled boundary nodes (all nodes by default),
    representing the trace of ``order``.  The zero-potential reference is
    one wide solve, by transforms on the disk and the square."""
    idx = resolve_samples(domain, samples)
    P, _, _ = _adjoint_solve(domain, potential, idx, order, solver)
    if potential.family == "zero":
        ref = P
    elif with_reference:
        ref = assemble(domain, zero_potential()).solve_load(trace_sources(domain, idx, order), solver)
    else:
        ref = None
    return KernelSet(domain=domain, samples=idx, kernels=P, potential_label=potential.label,
                     reference=ref)


def duality_kernel(
    domain: Domain,
    potential: Potential,
    a: int,
    solver: Solver | None = None,
    order: int = 1,
) -> Field:
    """Kernel of one boundary node; the discrete limit, one solve, when the
    potential is unbounded."""
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
    the last entry agrees with duality_kernel to the solver tolerance.

    The walk stops at the first saturated level (truncation no longer changes
    the sampled potential); without ``stop_early`` saturated levels repeat
    the previous kernel, since the discrete problem is the same.
    """
    fields: list[Field] = []
    kernel = None
    for _, _, u in walk(domain, potential, trace_sources(domain, [a])[:, 0], solver):
        if u is None and stop_early:
            break
        kernel = kernel if u is None else u
        fields.append(Field(domain, kernel.copy()))
    return fields


def positivity_set(domain: Domain, potential: Potential,
                   solver: Solver | None = None) -> np.ndarray:
    """Mask of nodes where the unit-density discrete limit (one solve, see
    ``limit_operator``) stays positive.

    Nodes below ``POSITIVITY_THRESHOLD`` times the peak value are treated as
    crushed by the potential (the strong maximum principle failed there).
    """
    op, _ = limit_operator(domain, potential, solver)
    u = op.solve_load(load_vector(density_measure(uniform_density(1.0)), domain), solver)
    peak = float(np.max(u))
    if peak <= 0.0:
        return np.zeros(domain.n_interior, dtype=bool)
    return u > POSITIVITY_THRESHOLD * peak


def kernel_summary(kset: KernelSet) -> dict:
    """JSON-ready summary: per-node min, max, L1 norm, degeneracy flag."""
    l1 = kset.l1_norms()
    degenerate = kset.degenerate
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
                "degenerate": bool(degenerate[col]),
            }
            for col, a in enumerate(kset.samples)
        ],
    }
