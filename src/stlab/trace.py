"""Boundary flux extraction: one-sided normal derivatives and the flux identity.

Traces use the inward normal, so nonnegative solutions have nonnegative
traces.  The operator's boundary faces, in the matrix K that only a factor
assembles (``operator._stiffness``) and in the stencil that every other solve
applies (``operator.DiscreteOperator._apply``), are built from the
first-order stencil u(a + s*n)/s itself, so the integrated flux balance (the
Green identity with test function 1, ``flux_balance_residual``) holds to
solver tolerance by construction; only the square's four corner nodes, which
have no boundary face, leave a defect, of second order in h.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .domain import Domain, DomainError
from .fields import BoundaryTrace, Field


def trace_matrix(domain: Domain, order: int = 1) -> sp.csr_matrix:
    """Sparse map from interior values to boundary traces (one row per boundary node)."""
    nb, ni = domain.n_boundary, domain.n_interior
    s = domain.normal_spacing
    if order == 1:
        rows = np.arange(nb)
        cols = domain.first_neighbor
        data = 1.0 / s
        return sp.csr_matrix((data, (rows, cols)), shape=(nb, ni))
    if order == 2:
        if np.any(domain.first_neighbor == domain.second_neighbor):
            raise DomainError("second-order trace stencil leaves the grid at this resolution")
        rows = np.concatenate([np.arange(nb), np.arange(nb)])
        cols = np.concatenate([domain.first_neighbor, domain.second_neighbor])
        data = np.concatenate([4.0 / (2.0 * s), -1.0 / (2.0 * s)])
        return sp.csr_matrix((data, (rows, cols)), shape=(nb, ni))
    raise ValueError(f"trace order must be 1 or 2, got {order}")


def normal_derivative(domain: Domain, u: Field, order: int = 1) -> BoundaryTrace:
    """Inward-normal derivative of a Dirichlet field at every boundary node."""
    if u.domain is not domain:
        raise ValueError("field belongs to a different domain")
    return BoundaryTrace(domain, trace_matrix(domain, order) @ u.values)


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
