"""Boundary flux extraction: one-sided normal derivatives and the flux identity.

Traces use the inward normal, so nonnegative solutions have nonnegative
traces.  The first-order stencil u(a + s*n)/s matches the boundary-face flux
of the assembled operator exactly, which makes the integrated flux identity
(the Green identity with test function 1) hold to solver tolerance.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .domain import Domain, DomainError
from .fields import BoundaryTrace, Field
from .measure import Measure, load_vector
from .potential import Potential, sample


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


def _phi_values(phi, points: np.ndarray) -> np.ndarray:
    vals = phi(points)
    vals = np.asarray(vals, dtype=float)
    if vals.shape == ():
        vals = np.full(points.shape[0], float(vals))
    if vals.shape != (points.shape[0],):
        raise ValueError("test function must map (m, dim) points to (m,) values")
    return vals


def gradient_form(domain: Domain, u: np.ndarray, phi_int: np.ndarray, phi_bnd: np.ndarray) -> float:
    """Edge-difference bilinear form sum c * (u_p - u_q)(phi_p - phi_q).

    u satisfies the homogeneous Dirichlet condition; phi does not, so boundary
    faces pick up phi's boundary values.
    """
    p, q = domain.faces[:, 0], domain.faces[:, 1]
    inner = float(np.sum(domain.face_coefs * (u[p] - u[q]) * (phi_int[p] - phi_int[q])))
    bi, bb = domain.bface_interior, domain.bface_boundary
    inner += float(np.sum(domain.bface_coefs * u[bi] * (phi_int[bi] - phi_bnd[bb])))
    return inner


def green_identity_residual(
    domain: Domain,
    u: Field,
    potential: Potential,
    measure: Measure,
    phi,
    order: int = 1,
) -> float:
    """Defect of the integrated identity
    grad-form(u, phi) - mu(phi) + (V u, phi) + boundary term = 0.

    With phi constant equal to one this reduces to the flux balance: total
    trace = mu(domain) - absorbed mass.  All four terms use the quadratures
    matched to the assembled system.
    """
    phi_int = _phi_values(phi, domain.interior_points)
    phi_bnd = _phi_values(phi, domain.boundary_points)
    uv = u.values
    grad = gradient_form(domain, uv, phi_int, phi_bnd)
    mu_term = float(phi_int @ load_vector(measure, domain))
    v_term = float(np.sum(sample(potential, domain) * uv * phi_int * domain.system_weights))
    tr = trace_matrix(domain, order) @ uv
    trace_term = float(np.sum(tr * phi_bnd * domain.surface_weights))
    return abs(grad - mu_term + v_term + trace_term)
