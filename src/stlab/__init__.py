"""stlab: a grid laboratory for Dirichlet problems with measure data and
singular nonnegative absorption.

The pieces: grid domains with exact boundary geometry (interval, disk,
square), finite measures (atoms plus densities) deposited onto the grid,
absorption potentials with truncation schedules, symmetric positive-definite
solves, inward-normal boundary traces, duality kernels from adjoint solves,
and theorem-level verification suites, all driven by a config-file CLI.
"""

from .domain import (
    Domain,
    DomainError,
    build_disk,
    build_domain,
    build_interval,
    build_rectangle,
)
from .fields import BoundaryTrace, Field
from .measure import (
    Density,
    Measure,
    MeasureError,
    density_measure,
    dirac,
    load_vector,
    power_distance_density,
    table_density,
    total_variation,
    uniform_density,
)
from .potential import (
    Potential,
    PotentialError,
    TruncationSchedule,
    constant_potential,
    interior_singularity_potential,
    power_distance_potential,
    sample,
    table_potential,
    zero_potential,
)
from .operator import (
    DiscreteOperator,
    Solver,
    SolverError,
    TruncationDiagnostics,
    assemble,
    energy,
    solve_dirichlet,
    solve_truncated_limit,
)
from .trace import flux_balance_residual, normal_derivative
from .kernel import (
    KernelSet,
    duality_kernel,
    kernel_set,
    positivity_set,
    truncation_kernels,
)
from .verify import (
    CheckCase,
    VerifyReport,
    comparison_check,
    energy_check,
    hopf_certificate,
    hopf_check,
    inequality_suite,
    representation_check,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "BoundaryTrace",
    "CheckCase",
    "ConfigError",
    "Density",
    "DiscreteOperator",
    "Domain",
    "DomainError",
    "Field",
    "KernelSet",
    "Measure",
    "MeasureError",
    "Potential",
    "PotentialError",
    "RunConfig",
    "Solver",
    "SolverError",
    "TruncationDiagnostics",
    "TruncationSchedule",
    "VerifyReport",
    "assemble",
    "build_disk",
    "build_domain",
    "build_interval",
    "build_rectangle",
    "comparison_check",
    "constant_potential",
    "density_measure",
    "dirac",
    "duality_kernel",
    "energy",
    "energy_check",
    "flux_balance_residual",
    "hopf_certificate",
    "hopf_check",
    "inequality_suite",
    "interior_singularity_potential",
    "kernel_set",
    "load_config",
    "load_vector",
    "normal_derivative",
    "positivity_set",
    "power_distance_density",
    "power_distance_potential",
    "representation_check",
    "sample",
    "solve_dirichlet",
    "solve_truncated_limit",
    "table_density",
    "table_potential",
    "total_variation",
    "truncation_kernels",
    "uniform_density",
    "zero_potential",
]
