"""Grid-function containers: interior fields and boundary traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Field:
    """Real values at the interior nodes of a domain."""

    domain: "Domain"  # noqa: F821
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.n_interior,):
            raise ValueError(
                f"field has {vals.shape} values, domain has {self.domain.n_interior} interior nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class BoundaryTrace:
    """Real values at the boundary nodes of a domain (inward-normal flux density)."""

    domain: "Domain"  # noqa: F821
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.n_boundary,):
            raise ValueError(
                f"trace has {vals.shape} values, domain has {self.domain.n_boundary} boundary nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("trace contains non-finite values")
        object.__setattr__(self, "values", vals)

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values) * self.domain.surface_weights))
