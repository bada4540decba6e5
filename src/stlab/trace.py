"""Boundary flux extraction: one-sided normal derivatives and the flux identity.

Traces use the inward normal, so nonnegative solutions have nonnegative
traces.  The trace stencil of a boundary node reads one or two interior
nodes along its inward normal (``trace_stencil``): ``normal_derivative``
sums it over a field, and ``kernel.trace_sources`` scatters it into the
adjoint sources.  The operator's boundary faces (``operator._stiffness``)
are built from the first-order stencil u(a + s*n)/s itself, so the
integrated flux balance (the Green identity with test function 1,
``flux_balance_residual``) holds to solver tolerance by construction; only
the square's four corner nodes, which have no boundary face, leave a
defect, of second order in h.
"""

from __future__ import annotations

import numpy as np

from .domain import Domain, DomainError
from .fields import BoundaryTrace, Field


def trace_stencil(domain: Domain, order: int = 1) -> list[tuple[np.ndarray, np.ndarray]]:
    """The trace of ``order`` as (interior nodes, coefficients) pairs, each
    holding one entry per boundary node: the trace is the sum over the pairs
    of ``c * u[nodes]``."""
    s = domain.normal_spacing
    if order == 1:
        return [(domain.first_neighbor, 1.0 / s)]
    if order == 2:
        if np.any(domain.first_neighbor == domain.second_neighbor):
            raise DomainError("second-order trace stencil leaves the grid at this resolution")
        return [(domain.first_neighbor, 4.0 / (2.0 * s)), (domain.second_neighbor, -1.0 / (2.0 * s))]
    raise ValueError(f"trace order must be 1 or 2, got {order}")


def normal_derivative(domain: Domain, u: Field, order: int = 1) -> BoundaryTrace:
    """Inward-normal derivative of a Dirichlet field at every boundary node."""
    if u.domain is not domain:
        raise ValueError("field belongs to a different domain")
    return BoundaryTrace(domain, sum(c * u.values[nodes] for nodes, c in trace_stencil(domain, order)))


def flux_balance_residual(u: Field, trace: BoundaryTrace, v_values: np.ndarray,
                          load: np.ndarray) -> float:
    """Defect of the flux balance: total trace = mu(domain) - absorbed mass.

    This is the Green identity with test function 1.  ``trace`` is u's
    boundary trace, ``v_values`` the node values of the potential u was
    solved with and ``load`` the integrated load vector of the solve; every
    sum uses the quadrature matched to the assembled system.
    """
    weights = u.domain.system_weights
    absorbed = float(np.sum(v_values * u.values * weights))
    mass = float(np.ones(weights.shape[0]) @ load)
    flux = float(np.sum(trace.values * u.domain.surface_weights))
    return abs(absorbed - mass + flux)
