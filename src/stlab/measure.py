"""Finite signed measures on a grid: atom lists plus an optional density.

Atoms and densities are carried as given and never cancel against each other;
the total variation of ``2*dirac(a) - 3*dirac(a)`` is 5.  Densities declare an
``integrable`` tag, so a measure of infinite total variation is known
deterministically instead of by probing refinements: ``total_variation``
reports it as inf, and ``load_vector``, which every solve of a measure goes
through, refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class Density:
    """Pointwise density rule with an integrability tag.

    ``family`` selects the evaluation: uniform (value), power_distance
    (scale / d^alpha), table (explicit node values), sum (pair of densities).
    """

    family: str
    params: dict = field(default_factory=dict)
    integrable: bool = True
    label: str = ""

    def evaluate(self, domain: Domain) -> np.ndarray:
        if self.family == "uniform":
            return np.full(domain.n_interior, float(self.params["value"]))
        if self.family == "power_distance":
            alpha = float(self.params["alpha"])
            scale = float(self.params.get("scale", 1.0))
            return scale * domain.distances ** (-alpha)
        if self.family == "table":
            vals = np.asarray(self.params["values"], dtype=float)
            if vals.shape != (domain.n_interior,):
                raise MeasureError(
                    f"table density has {vals.shape[0]} values, domain has {domain.n_interior} nodes"
                )
            return vals.copy()
        if self.family == "sum":
            a, b = self.params["parts"]
            return a.evaluate(domain) + b.evaluate(domain)
        raise MeasureError(f"unknown density family {self.family!r}")


def uniform_density(value: float = 1.0) -> Density:
    return Density("uniform", {"value": float(value)}, integrable=True, label=f"uniform({value})")


def power_distance_density(alpha: float, scale: float = 1.0) -> Density:
    # 1/d^alpha is integrable against dx over these domains exactly when alpha < 1
    return Density(
        "power_distance",
        {"alpha": float(alpha), "scale": float(scale)},
        integrable=alpha < 1.0,
        label=f"dist^-{alpha}",
    )


def table_density(values, integrable: bool = True) -> Density:
    return Density("table", {"values": np.asarray(values, dtype=float)}, integrable, "table")


@dataclass(frozen=True)
class Measure:
    """atoms: tuple of ((coords...), weight); density: optional Density."""

    atoms: tuple = ()
    density: Density | None = None

    def __post_init__(self):
        norm = []
        for loc, w in self.atoms:
            loc = tuple(float(c) for c in np.atleast_1d(loc))
            norm.append((loc, float(w)))
        object.__setattr__(self, "atoms", tuple(norm))

    def __add__(self, other: "Measure") -> "Measure":
        if self.density is None:
            dens = other.density
        elif other.density is None:
            dens = self.density
        else:
            both = self.density.integrable and other.density.integrable
            dens = Density("sum", {"parts": (self.density, other.density)}, both, "sum")
        return Measure(self.atoms + other.atoms, dens)


def dirac(location, weight: float = 1.0) -> Measure:
    return Measure(atoms=((tuple(np.atleast_1d(np.asarray(location, dtype=float))), float(weight)),))


def density_measure(density: Density) -> Measure:
    return Measure(atoms=(), density=density)


def _check_atoms_inside(measure: Measure, domain: Domain) -> None:
    for loc, _ in measure.atoms:
        if not bool(domain.contains(np.array(loc))[0]):
            raise MeasureError(f"atom at {loc} is not strictly inside the {domain.kind}")


def total_variation(measure: Measure, domain: Domain | None = None) -> float:
    """Sum of absolute atom weights plus the grid quadrature of |density|.

    Densities tagged non-integrable report an infinite total variation.
    """
    tv = sum(abs(w) for _, w in measure.atoms)
    if measure.density is not None:
        if not measure.density.integrable:
            return math.inf
        if domain is None:
            raise MeasureError("total variation of a density needs a domain for quadrature")
        vals = measure.density.evaluate(domain)
        tv += float(np.sum(np.abs(vals) * domain.volumes))
    return float(tv)


def is_nonnegative(measure: Measure, domain: Domain | None = None) -> bool:
    if any(w < 0.0 for _, w in measure.atoms):
        return False
    if measure.density is not None:
        if domain is None:
            raise MeasureError("sign check of a density needs a domain")
        if np.any(measure.density.evaluate(domain) < 0.0):
            return False
    return True


def variation(measure: Measure, domain: Domain) -> Measure:
    """The variation |mu|: every atom with |w|, and the density's |f| as a
    table that keeps its ``integrable`` tag."""
    dens = measure.density
    if dens is not None:
        dens = table_density(np.abs(dens.evaluate(domain)), dens.integrable)
    return Measure(tuple((loc, abs(w)) for loc, w in measure.atoms), dens)


def load_vector(measure: Measure, domain: Domain) -> np.ndarray:
    """Integrated right-hand side: cell integrals of the measure per interior node.

    Atoms deposit their multilinear weights (discrete mass is exact); a density
    f contributes f(x_i) * vol_i.  A density tagged non-integrable raises
    MeasureError: the paper's data is a finite measure.
    """
    if measure.density is not None and not measure.density.integrable:
        raise MeasureError(f"density {measure.density.label!r} has infinite total variation; "
                           "the data must be a finite measure")
    _check_atoms_inside(measure, domain)
    load = np.zeros(domain.n_interior)
    for loc, w in measure.atoms:
        idx, wts = domain.interp_weights(np.array(loc))
        load[idx] += w * wts
    if measure.density is not None:
        load += measure.density.evaluate(domain) * domain.volumes
    return load

