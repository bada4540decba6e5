"""Nonnegative potentials: named families, truncation schedules, and the
divergence test of a refinement ladder of quadrature values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain

LADDER_VALUE_RATIO = 1.5  # growth between refinements that flags divergence outright
LADDER_INCREMENT_RATIO = 0.85  # last increment ratio that flags borderline divergence


class PotentialError(ValueError):
    pass


@dataclass(frozen=True)
class Potential:
    """family: zero | constant | power_distance | interior_singularity | table."""

    family: str
    params: dict = field(default_factory=dict)
    bound: float | None = None  # None means unbounded
    label: str = ""

    def is_bounded(self) -> bool:
        return self.bound is not None


def zero_potential() -> Potential:
    return Potential("zero", {}, bound=0.0, label="0")


def constant_potential(value: float) -> Potential:
    value = float(value)
    if value < 0.0:
        raise PotentialError("potentials must be nonnegative")
    return Potential("constant", {"value": value}, bound=value, label=f"{value}")


def power_distance_potential(alpha: float, scale: float = 1.0) -> Potential:
    if alpha <= 0.0 or scale < 0.0:
        raise PotentialError("power_distance needs alpha > 0 and scale >= 0")
    return Potential(
        "power_distance",
        {"alpha": float(alpha), "scale": float(scale)},
        bound=None,
        label=f"{scale}/d^{alpha}",
    )


def interior_singularity_potential(x0, alpha: float, scale: float = 1.0) -> Potential:
    if alpha <= 0.0 or scale < 0.0:
        raise PotentialError("interior_singularity needs alpha > 0 and scale >= 0")
    x0 = tuple(float(c) for c in np.atleast_1d(np.asarray(x0, dtype=float)))
    return Potential(
        "interior_singularity",
        {"x0": x0, "alpha": float(alpha), "scale": float(scale)},
        bound=None,
        label=f"{scale}/|x-x0|^{alpha}",
    )


def table_potential(values) -> Potential:
    """Node values given outright; the bound is the largest of them."""
    vals = np.asarray(values, dtype=float)
    if np.any(vals < 0.0):
        raise PotentialError("potentials must be nonnegative")
    bound = float(vals.max()) if vals.size else 0.0
    return Potential("table", {"values": vals}, bound=bound, label="table")


def sample(potential: Potential, domain: Domain) -> np.ndarray:
    """Node values of the potential; raises if any node value is not finite."""
    vals = _sample_raw(potential, domain)
    bad = np.nonzero(~np.isfinite(vals))[0]
    if bad.size:
        raise PotentialError(
            f"potential {potential.label!r} is not finite at node {int(bad[0])} "
            f"(coords {tuple(domain.interior_points[int(bad[0])])})"
        )
    if np.any(vals < 0.0):
        raise PotentialError("potentials must be nonnegative at every node")
    return vals


def _sample_raw(potential: Potential, domain: Domain) -> np.ndarray:
    fam = potential.family
    if fam == "zero":
        return np.zeros(domain.n_interior)
    if fam == "constant":
        return np.full(domain.n_interior, potential.params["value"])
    if fam == "power_distance":
        p = potential.params
        return p["scale"] * domain.distances ** (-p["alpha"])
    if fam == "interior_singularity":
        p = potential.params
        if len(p["x0"]) != domain.dim:
            raise PotentialError(
                f"interior_singularity x0 has {len(p['x0'])} coordinate(s), "
                f"the {domain.kind} has dimension {domain.dim}"
            )
        diff = domain.interior_points - np.asarray(p["x0"])
        r = np.sqrt(np.sum(diff * diff, axis=1))
        with np.errstate(divide="ignore"):
            return p["scale"] * r ** (-p["alpha"])
    if fam == "table":
        vals = potential.params["values"]
        if vals.shape != (domain.n_interior,):
            raise PotentialError(
                f"table potential has {vals.shape[0]} values, domain has {domain.n_interior} nodes"
            )
        return vals.copy()
    raise PotentialError(f"unknown potential family {fam!r}")


@dataclass(frozen=True)
class TruncationSchedule:
    """Geometric truncation levels k_j = base**j for j = 0..J."""

    J: int = 14
    base: float = 2.0

    def __post_init__(self):
        if self.J < 1:
            raise PotentialError("schedule needs J >= 1")
        if not 1.0 < self.base < math.inf:
            raise PotentialError("schedule base must be finite and exceed 1")
        try:
            float(self.base) ** self.J
        except OverflowError:
            raise PotentialError(f"schedule top level {self.base}**{self.J} overflows") from None

    def levels(self) -> list[float]:
        return [float(self.base) ** j for j in range(self.J + 1)]


def ladder_diverges(history) -> bool:
    """Divergence test for a refinement ladder of quadrature values.

    Growth by more than ``LADDER_VALUE_RATIO`` between consecutive
    refinements flags divergence outright.  Borderline (logarithmic)
    divergence shows up as refinement increments that stop decaying:
    convergent ladders here decay geometrically (ratio <= ~0.71 for the
    slowest in-scope family), so a last increment ratio above
    ``LADDER_INCREMENT_RATIO`` raises the flag too.
    """
    v = np.asarray(history, dtype=float)
    if v.size < 2:
        return False
    prev = np.maximum(np.abs(v[:-1]), 1e-300)
    if np.any(v[1:] / prev > LADDER_VALUE_RATIO):
        return True
    d = np.diff(v)
    if d.size < 2:
        return False
    floor = max(1e-9 * abs(v[-1]), 1e-12)
    if d[-1] <= floor or d[-2] <= floor:
        return False
    return bool(d[-1] / d[-2] > LADDER_INCREMENT_RATIO)

