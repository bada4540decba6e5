"""Run configurations: flat dotted-key text files with environment overrides.

Format: one ``key=value`` per line, ``#`` comments, blank lines ignored.
``measure.atom`` may repeat (one atom per line, coordinates then weight);
every other repeated key keeps its last value.  Environment variables with
the ``STL_`` prefix override file values: the variable name is matched
against the known keys with dots replaced by underscores, so
``STL_DOMAIN_KIND=disk`` overrides ``domain.kind`` and
``STL_SOLVER_MAX_ITER`` overrides ``solver.max_iter``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain, build_domain
from .measure import (
    Measure,
    density_measure,
    dirac,
    power_distance_density,
    uniform_density,
)
from .potential import (
    Potential,
    TruncationSchedule,
    constant_potential,
    interior_singularity_potential,
    power_distance_potential,
    zero_potential,
)

ENV_PREFIX = "STL_"

CHECK_NAMES = (
    "representation",
    "inequalities",
    "hopf",
    "hopf_certificate",
    "comparison",
    "energy",
)

# every accepted key; measure.atom is the only repeatable one
KNOWN_KEYS = (
    "domain.kind",
    "domain.n",
    "domain.nr",
    "domain.ntheta",
    "potential.family",
    "potential.value",
    "potential.alpha",
    "potential.scale",
    "potential.x0",
    "measure.atom",
    "measure.density",
    "measure.density.value",
    "measure.density.alpha",
    "measure.density.scale",
    "schedule.j",
    "schedule.base",
    "solver.tol",
    "solver.method",
    "solver.max_iter",
    "trace.order",
    "checks",
    "samples",
    "seed",
    "out",
    "format",
    "hopf.refinements",
    "certificate.refinements",
    "comparison.alpha",
    "comparison.epsilon",
    "study.levels",
)


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> list[tuple[str, str]]:
    """Key/value pairs in file order; syntax errors name the offending line."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        pairs.append((key, value))
    return pairs


def env_overrides(environ=None) -> list[tuple[str, str]]:
    """Overrides from STL_-prefixed environment variables, matched to known keys."""
    environ = os.environ if environ is None else environ
    by_env_name = {ENV_PREFIX + k.replace(".", "_").upper(): k for k in KNOWN_KEYS}
    out = []
    for name, value in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = by_env_name.get(name)
        if key is None:
            raise ConfigError(f"environment variable {name} matches no config key")
        out.append((key, value))
    return out


def _as_float(key: str, s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {s!r}") from None
    if not np.isfinite(v):
        raise ConfigError(f"config key {key!r}: value must be finite")
    return v


def _as_int(key: str, s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected an integer, got {s!r}") from None


def _as_positive(key: str, v: float) -> float:
    if v <= 0.0:
        raise ConfigError(f"config key {key!r}: value must be positive")
    return v


def _floats(key: str, s: str) -> list[float]:
    parts = [p for p in s.split(",") if p.strip() != ""]
    if not parts:
        raise ConfigError(f"config key {key!r}: expected comma-separated numbers")
    return [_as_float(key, p.strip()) for p in parts]


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; build_* methods produce the live objects."""

    domain_kind: str = "interval"
    domain_resolution: dict = field(default_factory=lambda: {"n": 64})
    potential_family: str = "zero"
    potential_params: dict = field(default_factory=dict)
    atoms: tuple = ()  # ((coords...), weight) pairs
    density_family: str | None = None
    density_params: dict = field(default_factory=dict)
    schedule_j: int = 14
    schedule_base: float = 2.0
    solver_tol: float = 1e-10
    solver_method: str = "auto"
    solver_max_iter: int | None = None
    trace_order: int = 1
    checks: tuple = ()
    samples: str = "all"
    seed: int = 0
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    hopf_refinements: int = 1
    certificate_refinements: int = 2
    comparison_alpha: float = 0.5
    comparison_epsilon: float | None = None
    study_levels: int = 3

    def build_domain(self) -> Domain:
        return build_domain(self.domain_kind, **self.domain_resolution)

    def build_potential(self) -> Potential:
        fam = self.potential_family
        p = self.potential_params
        if fam == "zero":
            return zero_potential()
        if fam == "constant":
            return constant_potential(p.get("value", 1.0))
        if fam == "power_distance":
            return power_distance_potential(p.get("alpha", 1.5), p.get("scale", 1.0))
        if fam == "interior_singularity":
            return interior_singularity_potential(
                p["x0"], p.get("alpha", 2.0), p.get("scale", 1.0)
            )
        raise ConfigError(f"config key 'potential.family': unknown family {fam!r}")

    def build_measure(self, domain: Domain) -> Measure:
        m = Measure()
        for coords, weight in self.atoms:
            if len(coords) != domain.dim:
                raise ConfigError(
                    f"config key 'measure.atom': expected {domain.dim} coordinate(s) "
                    f"plus a weight, got {(*coords, weight)}"
                )
            m = m + dirac(coords, weight)
        if self.density_family == "uniform":
            m = m + density_measure(uniform_density(self.density_params.get("value", 1.0)))
        elif self.density_family == "power_distance":
            m = m + density_measure(power_distance_density(
                self.density_params.get("alpha", 0.5),
                self.density_params.get("scale", 1.0),
            ))
        elif self.density_family is not None:
            raise ConfigError(
                f"config key 'measure.density': unknown family {self.density_family!r}"
            )
        return m

    def build_schedule(self) -> TruncationSchedule:
        return TruncationSchedule(J=self.schedule_j, base=self.schedule_base)

    def sample_indices(self, domain: Domain):
        """Boundary sample selection: None means every boundary node."""
        spec = self.samples
        if spec == "all":
            return None
        if spec.startswith("stride:"):
            stride = _as_int("samples", spec.split(":", 1)[1])
            if stride < 1:
                raise ConfigError("config key 'samples': stride must be >= 1")
            return np.arange(0, domain.n_boundary, stride)
        idx = np.array([_as_int("samples", p) for p in spec.split(",")], dtype=int)
        if np.any(idx < 0) or np.any(idx >= domain.n_boundary):
            raise ConfigError("config key 'samples': boundary index out of range")
        return idx

    def echo(self) -> dict:
        """JSON-ready echo of every setting (reports embed this)."""
        return {
            "domain.kind": self.domain_kind,
            "domain.resolution": dict(self.domain_resolution),
            "potential.family": self.potential_family,
            "potential.params": {k: v for k, v in self.potential_params.items()},
            "measure.atoms": [list(c) + [w] for c, w in self.atoms],
            "measure.density": self.density_family,
            "measure.density.params": dict(self.density_params),
            "schedule.j": self.schedule_j,
            "schedule.base": self.schedule_base,
            "solver.tol": self.solver_tol,
            "solver.method": self.solver_method,
            "solver.max_iter": self.solver_max_iter,
            "trace.order": self.trace_order,
            "checks": list(self.checks),
            "samples": self.samples,
            "seed": self.seed,
            "out": self.out_dir,
            "format": list(self.formats),
            "hopf.refinements": self.hopf_refinements,
            "certificate.refinements": self.certificate_refinements,
            "comparison.alpha": self.comparison_alpha,
            "comparison.epsilon": self.comparison_epsilon,
            "study.levels": self.study_levels,
        }


def config_from_pairs(pairs: list[tuple[str, str]]) -> RunConfig:
    """Build and validate a RunConfig from ordered key/value pairs."""
    scalars: dict[str, str] = {}
    atoms = []
    for key, value in pairs:
        if key == "measure.atom":
            nums = _floats(key, value)
            if len(nums) < 2:
                raise ConfigError(
                    "config key 'measure.atom': expected coordinates then a weight"
                )
            atoms.append((tuple(nums[:-1]), nums[-1]))
        else:
            scalars[key] = value

    kind = scalars.get("domain.kind", "interval")
    if kind not in ("interval", "disk", "rectangle"):
        raise ConfigError(f"config key 'domain.kind': unknown kind {kind!r}")
    if kind == "disk":
        resolution = {"nr": _as_int("domain.nr", scalars.get("domain.nr", "16"))}
        if "domain.ntheta" in scalars:
            resolution["ntheta"] = _as_int("domain.ntheta", scalars["domain.ntheta"])
        if "domain.n" in scalars:
            raise ConfigError("config key 'domain.n': disk resolution uses domain.nr")
    else:
        resolution = {"n": _as_int("domain.n", scalars.get("domain.n", "64"))}
        for k in ("domain.nr", "domain.ntheta"):
            if k in scalars:
                raise ConfigError(f"config key {k!r}: only the disk takes {k}")

    fam = scalars.get("potential.family", "zero")
    if fam not in ("zero", "constant", "power_distance", "interior_singularity"):
        raise ConfigError(f"config key 'potential.family': unknown family {fam!r}")
    pot_params: dict = {}
    if "potential.value" in scalars:
        pot_params["value"] = _as_float("potential.value", scalars["potential.value"])
    if "potential.alpha" in scalars:
        pot_params["alpha"] = _as_positive(
            "potential.alpha", _as_float("potential.alpha", scalars["potential.alpha"])
        )
    if "potential.scale" in scalars:
        pot_params["scale"] = _as_float("potential.scale", scalars["potential.scale"])
    if "potential.x0" in scalars:
        pot_params["x0"] = tuple(_floats("potential.x0", scalars["potential.x0"]))
    if fam == "interior_singularity" and "x0" not in pot_params:
        raise ConfigError("config key 'potential.x0': required for interior_singularity")

    dens_fam = scalars.get("measure.density")
    if dens_fam is not None and dens_fam not in ("uniform", "power_distance"):
        raise ConfigError(f"config key 'measure.density': unknown family {dens_fam!r}")
    dens_params: dict = {}
    if "measure.density.value" in scalars:
        dens_params["value"] = _as_float(
            "measure.density.value", scalars["measure.density.value"]
        )
    if "measure.density.alpha" in scalars:
        dens_params["alpha"] = _as_float(
            "measure.density.alpha", scalars["measure.density.alpha"]
        )
    if "measure.density.scale" in scalars:
        dens_params["scale"] = _as_float(
            "measure.density.scale", scalars["measure.density.scale"]
        )

    schedule_j = _as_int("schedule.j", scalars.get("schedule.j", "14"))
    if schedule_j < 1:
        raise ConfigError("config key 'schedule.j': must be >= 1")
    schedule_base = _as_float("schedule.base", scalars.get("schedule.base", "2.0"))
    if schedule_base <= 1.0:
        raise ConfigError("config key 'schedule.base': must exceed 1")

    solver_tol = _as_positive(
        "solver.tol", _as_float("solver.tol", scalars.get("solver.tol", "1e-10"))
    )
    method = scalars.get("solver.method", "auto")
    if method not in ("auto", "direct", "cg"):
        raise ConfigError(f"config key 'solver.method': unknown method {method!r}")
    max_iter = None
    if "solver.max_iter" in scalars:
        max_iter = _as_int("solver.max_iter", scalars["solver.max_iter"])
        if max_iter < 1:
            raise ConfigError("config key 'solver.max_iter': must be >= 1")

    trace_order = _as_int("trace.order", scalars.get("trace.order", "1"))
    if trace_order not in (1, 2):
        raise ConfigError("config key 'trace.order': must be 1 or 2")

    checks_raw = scalars.get("checks", "")
    checks = tuple(c.strip() for c in checks_raw.split(",") if c.strip())
    for c in checks:
        if c not in CHECK_NAMES:
            raise ConfigError(f"config key 'checks': unknown check {c!r}")

    formats_raw = scalars.get("format", "csv,json")
    formats = tuple(f.strip() for f in formats_raw.split(",") if f.strip())
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"config key 'format': unknown format {f!r}")

    hopf_refinements = _as_int("hopf.refinements", scalars.get("hopf.refinements", "1"))
    if hopf_refinements < 0:
        raise ConfigError("config key 'hopf.refinements': must be >= 0")
    certificate_refinements = _as_int(
        "certificate.refinements", scalars.get("certificate.refinements", "2")
    )
    if certificate_refinements < 1:
        raise ConfigError("config key 'certificate.refinements': must be >= 1")

    study_levels = _as_int("study.levels", scalars.get("study.levels", "3"))
    if study_levels < 2:
        raise ConfigError("config key 'study.levels': levels must refine (need >= 2)")

    comparison_alpha = _as_float(
        "comparison.alpha", scalars.get("comparison.alpha", "0.5")
    )
    if not 0.0 < comparison_alpha < 1.0:
        raise ConfigError("config key 'comparison.alpha': must lie in (0, 1)")
    comparison_epsilon = None
    if "comparison.epsilon" in scalars:
        comparison_epsilon = _as_positive(
            "comparison.epsilon",
            _as_float("comparison.epsilon", scalars["comparison.epsilon"]),
        )

    return RunConfig(
        domain_kind=kind,
        domain_resolution=resolution,
        potential_family=fam,
        potential_params=pot_params,
        atoms=tuple(atoms),
        density_family=dens_fam,
        density_params=dens_params,
        schedule_j=schedule_j,
        schedule_base=schedule_base,
        solver_tol=solver_tol,
        solver_method=method,
        solver_max_iter=max_iter,
        trace_order=trace_order,
        checks=checks,
        samples=scalars.get("samples", "all"),
        seed=_as_int("seed", scalars.get("seed", "0")),
        out_dir=scalars.get("out", "out"),
        formats=formats,
        hopf_refinements=hopf_refinements,
        certificate_refinements=certificate_refinements,
        comparison_alpha=comparison_alpha,
        comparison_epsilon=comparison_epsilon,
        study_levels=study_levels,
    )


def load_config(path: str, environ=None) -> RunConfig:
    """Read a config file and apply environment overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        pairs = parse_config_text(fh.read())
    overrides = env_overrides(environ)
    override_keys = {k for k, _ in overrides}
    if "measure.atom" in override_keys:
        pairs = [(k, v) for k, v in pairs if k != "measure.atom"]
    return config_from_pairs(pairs + overrides)
