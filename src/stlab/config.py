"""Run configurations: flat dotted-key text files with environment overrides.

Format: one ``key=value`` per line, ``#`` comments, blank lines ignored.
``measure.atom`` may repeat (one atom per line, coordinates then weight);
every other repeated key keeps its last value.  Environment variables with
the ``STL_`` prefix override file values: the variable name is matched
against the known keys with dots replaced by underscores, so
``STL_DOMAIN_KIND=disk`` overrides ``domain.kind`` and
``STL_SOLVER_MAX_ITER`` overrides ``solver.max_iter``.

Every key is one row of ``KEYS``: its parser, the bound its value must meet
and its default.  The environment names, the parse loop, the "config key"
errors and the report echo all come from that table; the rules that tie one
key to another follow the parse loop in ``config_from_pairs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .domain import Domain, build_domain
from .measure import (
    Measure,
    density_measure,
    dirac,
    power_distance_density,
    uniform_density,
)
from .operator import METHODS, Solver
from .potential import (
    Potential,
    PotentialError,
    TruncationSchedule,
    constant_potential,
    interior_singularity_potential,
    power_distance_potential,
    zero_potential,
)

ENV_PREFIX = "STL_"

# family -> (builder, the parameters it takes with their defaults); a None
# default marks a parameter the config must set
POTENTIALS = {
    "zero": (zero_potential, {}),
    "constant": (constant_potential, {"value": 1.0}),
    "power_distance": (power_distance_potential, {"alpha": 1.5, "scale": 1.0}),
    "interior_singularity": (
        interior_singularity_potential, {"x0": None, "alpha": 2.0, "scale": 1.0}
    ),
}
DENSITIES = {
    "uniform": (uniform_density, {"value": 1.0}),
    "power_distance": (power_distance_density, {"alpha": 0.5, "scale": 1.0}),
}
# (key naming the family, its families, echo group of its parameter keys)
FAMILIES = (
    ("potential.family", POTENTIALS, "potential.params"),
    ("measure.density", DENSITIES, "measure.density.params"),
)


class ConfigError(ValueError):
    pass


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _number(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not np.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _choice(text: str, names) -> str:
    if text not in names:
        raise ValueError(f"unknown value {text!r}, expected one of {', '.join(names)}")
    return text


@dataclass(frozen=True)
class Key:
    """One config key.

    ``kind`` names the parser: "int", "float", "choice", "choices" (a comma
    list of choices), "floats" (a comma list of numbers) or "text".
    ``bound`` is the closed range [lo, hi] of an int, the open range
    (lo, hi) of a float ([lo, hi) with ``closed_lo``), the accepted names of
    a choice, or the least length of a float list.  A ``default`` of None
    leaves the key unset.  ``group`` names the echo entry that collects the
    key under its last name segment (grid sizes and family parameters).
    ``readers`` names the commands and checks that read the key; empty means
    every one does.
    """

    name: str
    kind: str
    bound: object = None
    default: object = None
    group: str | None = None
    closed_lo: bool = False
    readers: tuple = ()

    def parse(self, text: str):
        """The value of ``text``; errors name this key."""
        try:
            return self._parse(text)
        except ValueError as exc:
            raise ConfigError(f"config key {self.name!r}: {exc}") from None

    def _parse(self, text: str):
        if self.kind == "text":
            return text
        if self.kind == "choice":
            return _choice(text, self.bound)
        items = [p.strip() for p in text.split(",") if p.strip()]
        if self.kind == "choices":
            return tuple(_choice(p, self.bound) for p in items)
        if self.kind == "floats":
            if len(items) < self.bound:
                raise ValueError(f"expected at least {self.bound} comma-separated numbers")
            return tuple(_number(p) for p in items)
        v = _integer(text) if self.kind == "int" else _number(text)
        if self.bound is not None:
            lo, hi = self.bound
            if self.kind == "int" and not lo <= v <= hi:
                raise ValueError(f"must lie in [{lo}, {hi}], got {v}")
            if self.kind == "float":
                above = lo <= v if self.closed_lo else lo < v
                if not (above and v < hi):
                    opening = "[" if self.closed_lo else "("
                    raise ValueError(f"must lie in {opening}{lo}, {hi}), got {v!r}")
        return v


# readers of the keys that not every command reads (see ``config_from_pairs``);
# ``seed`` and ``checks`` stay open to every command, because one config may
# drive several: acceptance criterion 9 runs solve and verify without energy
# on one config that sets both
_MEASURE = ("solve", "representation", "inequalities", "hopf", "energy")
_TRACE = ("solve", "kernel", "representation", "inequalities", "hopf", "hopf_certificate",
          "comparison")

KEYS = {key.name: key for key in (
    Key("domain.kind", "choice", ("interval", "disk", "rectangle"), "interval"),
    Key("domain.n", "int", (4, np.inf), 64, group="domain.resolution"),
    Key("domain.nr", "int", (4, np.inf), 16, group="domain.resolution"),
    Key("domain.ntheta", "int", (4, np.inf), group="domain.resolution"),
    Key("potential.family", "choice", tuple(POTENTIALS), "zero"),
    Key("potential.value", "float", (0.0, np.inf), group="potential.params", closed_lo=True),
    Key("potential.alpha", "float", (0.0, np.inf), group="potential.params"),
    Key("potential.scale", "float", (0.0, np.inf), group="potential.params", closed_lo=True),
    Key("potential.x0", "floats", 1, group="potential.params"),
    Key("measure.atom", "floats", 2, readers=_MEASURE),
    Key("measure.density", "choice", tuple(DENSITIES), readers=_MEASURE),
    Key("measure.density.value", "float", group="measure.density.params", readers=_MEASURE),
    Key("measure.density.alpha", "float", group="measure.density.params", readers=_MEASURE),
    Key("measure.density.scale", "float", group="measure.density.params", readers=_MEASURE),
    Key("schedule.j", "int", (1, np.inf), 14),
    Key("schedule.base", "float", (1.0, np.inf), 2.0),
    Key("solver.tol", "float", (0.0, np.inf), 1e-10),
    Key("solver.method", "choice", METHODS, "auto"),
    # hopf_certificate solves zero-potential systems only, by transforms
    Key("solver.max_iter", "int", (1, np.inf), readers=_MEASURE + ("kernel", "comparison")),
    Key("trace.order", "int", (1, 2), 1, readers=_TRACE),
    Key("checks", "choices", ("representation", "inequalities", "hopf", "hopf_certificate",
                              "comparison", "energy"), ()),
    Key("samples", "text", default="all", readers=("kernel", "representation", "comparison")),
    Key("seed", "int", default=0),
    Key("out", "text", default="out"),
    Key("format", "choices", ("csv", "json"), ("csv", "json")),
    Key("hopf.refinements", "int", (0, np.inf), 1, readers=("hopf",)),
    Key("certificate.refinements", "int", (1, np.inf), 2, readers=("hopf_certificate",)),
    Key("comparison.alpha", "float", (0.0, 1.0), 0.5, readers=("comparison",)),
    Key("comparison.epsilon", "float", (0.0, np.inf), readers=("comparison",)),
    Key("study.levels", "int", (2, np.inf), 3, readers=("study",)),
)}


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
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        pairs.append((key, value))
    return pairs


def env_overrides() -> list[tuple[str, str]]:
    """Overrides from STL_-prefixed environment variables, matched to known keys."""
    by_env_name = {ENV_PREFIX + k.replace(".", "_").upper(): k for k in KEYS}
    out = []
    for name, value in sorted(os.environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = by_env_name.get(name)
        if key is None:
            raise ConfigError(f"environment variable {name} matches no config key")
        out.append((key, value))
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: every key's value by its dotted name (None
    where unset) and the atoms; build_* methods produce the live objects."""

    values: dict
    atoms: tuple = ()  # (coords..., weight) per atom

    def __getitem__(self, name: str):
        return self.values[name]

    def params(self, group: str) -> dict:
        """The set keys of an echo group, by their last name segment."""
        return {
            key.name.rsplit(".", 1)[1]: self.values[key.name]
            for key in KEYS.values()
            if key.group == group and self.values[key.name] is not None
        }

    def build_domain(self) -> Domain:
        return build_domain(self["domain.kind"], **self.params("domain.resolution"))

    def build_potential(self) -> Potential:
        make, defaults = POTENTIALS[self["potential.family"]]
        return make(**{**defaults, **self.params("potential.params")})

    def build_measure(self, domain: Domain) -> Measure:
        m = Measure()
        for atom in self.atoms:
            if not domain.contains(np.array(atom[:-1]))[0]:
                raise ConfigError(f"config key 'measure.atom': atom at {atom[:-1]} is not "
                                  f"strictly inside the {domain.kind}")
            m = m + dirac(atom[:-1], atom[-1])
        if self["measure.density"] is not None:
            make, defaults = DENSITIES[self["measure.density"]]
            density = make(**{**defaults, **self.params("measure.density.params")})
            if not density.integrable:  # only power_distance, through its alpha
                raise ConfigError(f"config key 'measure.density.alpha': density {density.label} "
                                  "is not integrable; the data must be a finite measure")
            m = m + density_measure(density)
        return m

    def build_solver(self) -> Solver:
        schedule = TruncationSchedule(J=self["schedule.j"], base=self["schedule.base"])
        return Solver(self["solver.tol"], self["solver.method"], self["solver.max_iter"], schedule)

    def sample_indices(self, domain: Domain):
        """Boundary sample selection: None means every boundary node."""
        spec = self["samples"]
        if spec == "all":
            return None
        try:
            if spec.startswith("stride:"):
                stride = _integer(spec.split(":", 1)[1])
                if stride < 1:
                    raise ValueError("stride must be >= 1")
                return np.arange(0, domain.n_boundary, stride)
            idx = np.array([_integer(p) for p in spec.split(",")], dtype=int)
            if np.any(idx < 0) or np.any(idx >= domain.n_boundary):
                raise ValueError("boundary index out of range")
        except ValueError as exc:
            raise ConfigError(f"config key 'samples': {exc}") from None
        return idx

    def echo(self) -> dict:
        """JSON-ready echo of every setting (reports embed this)."""
        out = {"measure.atoms": [list(atom) for atom in self.atoms]}
        for key in KEYS.values():
            if key.group is not None:
                out[key.group] = self.params(key.group)
            elif key.name != "measure.atom":
                out[key.name] = self.values[key.name]
        return out


def config_from_pairs(pairs: list[tuple[str, str]], command: str | None = None) -> RunConfig:
    """Build and validate a RunConfig from ordered key/value pairs.

    With a ``command`` (an ``stlab`` subcommand) every set key must have a
    reader in the run: the command itself, and under verify and study every
    check that ``checks`` lists.  Without one the config is checked on its own.
    """
    texts: dict[str, str] = {}
    atoms = []
    for name, text in pairs:
        if name not in KEYS:
            raise ConfigError(f"unknown config key {name!r}")
        if name == "measure.atom":
            atoms.append(KEYS[name].parse(text))
        else:
            texts[name] = text
    values = {
        key.name: key.parse(texts[key.name]) if key.name in texts else key.default
        for key in KEYS.values()
        if key.name != "measure.atom"
    }

    # the disk is sized by domain.nr and domain.ntheta, the other grids by domain.n
    kind = values["domain.kind"]
    size_key = "domain.nr" if kind == "disk" else "domain.n"
    for name in ("domain.n", "domain.nr", "domain.ntheta"):
        if (name == "domain.n") == (kind == "disk"):
            if name in texts:
                raise ConfigError(f"config key {name!r}: {kind} resolution uses {size_key}")
            values[name] = None

    # a family takes only its own parameters; those without a default are required
    for family_key, families, group in FAMILIES:
        family = values[family_key]
        takes = families[family][1] if family is not None else {}
        for key in KEYS.values():
            if key.group != group:
                continue
            param = key.name.rsplit(".", 1)[1]
            if key.name in texts and param not in takes:
                raise ConfigError(
                    f"config key {key.name!r}: {family_key} = {family} takes no {param}"
                )
            if param in takes and takes[param] is None and key.name not in texts:
                raise ConfigError(f"config key {key.name!r}: required for {family}")

    # potential.x0 and the atoms are points of the grid
    dim = 1 if kind == "interval" else 2
    x0 = values["potential.x0"]
    if x0 is not None and len(x0) != dim:
        raise ConfigError(
            f"config key 'potential.x0': expected {dim} coordinate(s) on the {kind}, got {x0}"
        )
    for atom in atoms:
        if len(atom) != dim + 1:
            raise ConfigError(
                f"config key 'measure.atom': expected {dim} coordinate(s) plus a weight, got {atom}"
            )

    # only transform-PCG reads an iteration cap: the interval's cg solve is direct
    if "solver.max_iter" in texts and (values["solver.method"] != "cg" or kind == "interval"):
        raise ConfigError(f"config key 'solver.max_iter': read by solver.method = cg on the disk "
                          f"and the square only, not {values['solver.method']} on the {kind}")

    # levels() computes base**j up to j = J, which must not overflow a float
    try:
        TruncationSchedule(J=values["schedule.j"], base=values["schedule.base"])
    except PotentialError as exc:
        raise ConfigError(f"config key 'schedule.j': {exc}") from None

    # a key takes effect only where one of its readers runs
    if command is not None:
        running = {command, *values["checks"]} if command in ("verify", "study") else {command}
        given = {name for name, _ in pairs}
        for key in KEYS.values():
            if key.readers and key.name in given and running.isdisjoint(key.readers):
                raise ConfigError(f"config key {key.name!r}: read by {', '.join(key.readers)}, "
                                  f"not by this run's {', '.join(sorted(running))}")

    return RunConfig(values, tuple(atoms))


def load_config(path: str, command: str | None = None) -> RunConfig:
    """Read a config file, apply environment overrides and validate it for
    ``command`` (see ``config_from_pairs``)."""
    with open(path, "r", encoding="utf-8") as fh:
        pairs = parse_config_text(fh.read())
    overrides = env_overrides()
    override_keys = {k for k, _ in overrides}
    if "measure.atom" in override_keys:
        pairs = [(k, v) for k, v in pairs if k != "measure.atom"]
    return config_from_pairs(pairs + overrides, command)
