"""The benchmark's workloads: one ``stlab`` CLI invocation each.

A workload turns the benchmark seed into a config file; the program only
sees that file.  The seed draws the atoms of the measure (positive weights,
inside half the inscribed radius of the domain), so every seed is a valid
input on which the checks pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the seed whose outputs reference.json holds
DEFAULT_SEED = 0

_COMMON = (
    "potential.family = power_distance\n"
    "potential.alpha = 1.5\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # stlab subcommand
    why: str

    def config(self, seed: int) -> str:
        rng = np.random.default_rng(seed)
        if self.name == "verify_disk":
            text = "domain.kind = disk\ndomain.nr = 32\n" + _COMMON
            for x, y, w in _atoms(rng, 3, center=(0.0, 0.0), radius=0.5):
                text += f"measure.atom = {x!r},{y!r},{w!r}\n"
            return text + "checks = representation,inequalities,hopf,hopf_certificate,comparison\n"
        if self.name == "kernel_disk":
            return "domain.kind = disk\ndomain.nr = 32\n" + _COMMON
        if self.name == "solve_square":
            text = "domain.kind = rectangle\ndomain.n = 256\n" + _COMMON
            for x, y, w in _atoms(rng, 1, center=(0.5, 0.5), radius=0.25):
                text += f"measure.atom = {x!r},{y!r},{w!r}\n"
            return text
        raise KeyError(self.name)


def _atoms(rng, count: int, center, radius: float):
    """Atoms uniform in a disk of the given radius, weights in [0.25, 1]."""
    out = []
    for _ in range(count):
        r = radius * np.sqrt(rng.uniform())
        t = rng.uniform(0.0, 2.0 * np.pi)
        w = rng.uniform(0.25, 1.0)
        out.append((float(center[0] + r * np.cos(t)), float(center[1] + r * np.sin(t)), float(w)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_disk", "verify",
            "many small factorizations (78 of 23 distinct operators) and 7 domain builds; "
            "output is tiny",
        ),
        Workload(
            "kernel_disk", "kernel",
            "10 factorizations with 128-column solves and a 14.7 MB CSV; "
            "output formatting dominates",
        ),
        Workload(
            "solve_square", "solve",
            "one right-hand side through 13 large factorizations (65,025 unknowns); "
            "fill and peak memory dominate",
        ),
    )
}
