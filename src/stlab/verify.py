"""Theorem-level checks: representation identity, inequality suite, boundary
positivity (Hopf) in both the positive and the obstructed regime, the
certificate construction for boundary positivity, and the comparison bound.

Every check returns a VerifyReport: named cases with left/right values,
residuals and pass flags, an optional refinement table, and for the boundary
positivity checks a verdict string ("positive", "obstruction",
"no_solution_expected", "inconclusive").  A report passes iff every case's
residual is within its tolerance; verdicts classify, they do not fail.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .domain import Domain
from .fields import Field
from .kernel import _adjoint_solve, kernel_set, positivity_set, resolve_samples
from .measure import (
    Measure,
    density_measure,
    is_nonnegative,
    load_vector,
    table_density,
    total_variation,
    uniform_density,
    variation,
)
from .operator import (
    Solver,
    _density_load,
    _quadratic_energy,
    assemble,
    limit_operator,
    solve_truncated_limit,
)
from .potential import Potential, ladder_diverges, sample, zero_potential
from .trace import normal_derivative

SLACK_RATE = 5.0  # discretization slack factor (1 + SLACK_RATE * h) on the estimates
COMPARISON_TOL = 1e-8  # absolute slack of the comparison bound eps * zeta <= v
POSITIVE_FLOOR = 1e-12  # least limit trace minimum of a "positive" hopf verdict
WEIGHTED_L1_REFINEMENTS = 3  # refinements of the certificate's distance-weighted norm


@dataclass(frozen=True)
class CheckCase:
    name: str
    left: float
    right: float
    residual: float
    tolerance: float
    passed: bool
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RefinementRow:
    h: float
    level: float
    residual: float


@dataclass(frozen=True)
class VerifyReport:
    check: str
    cases: tuple
    table: tuple = ()
    verdict: str = ""
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _case(name: str, residual: float, tolerance: float, left: float = 0.0,
          right: float = 0.0, **inputs) -> CheckCase:
    # adding 0.0 turns -0.0 into 0.0, so no report prints "-0"
    left, right, residual, tolerance = (float(x) + 0.0 for x in (left, right, residual, tolerance))
    return CheckCase(
        name=name,
        left=left,
        right=right,
        residual=residual,
        tolerance=tolerance,
        passed=bool(residual <= tolerance),
        inputs=inputs,
    )


def _bound_case(name: str, value: float, bound: float, **inputs) -> CheckCase:
    """Case asserting value <= bound; residual is the (clipped) excess."""
    return _case(name, max(float(value) - float(bound), 0.0), 0.0,
                 left=value, right=bound, **inputs)


def representation_check(
    domain: Domain,
    potential: Potential,
    measure: Measure,
    samples=None,
    solver: Solver | None = None,
    order: int = 1,
) -> VerifyReport:
    """Trace of the solve versus kernel pairing, one case per sampled boundary node.

    Both sides are evaluated with the same operator and the same trace
    stencil of ``order``, and atoms are deposited into the solve and
    interpolated from the kernels with the same multilinear weights, so the
    identity is algebraic for every measure, atoms included:
    the tolerance is 10 * solver.tol * max(1, total variation).
    ``details["branch"]`` records whether the measure has atoms ("continuum")
    or not ("grid_density"); it does not change the tolerance.
    """
    load = load_vector(measure, domain)  # refuses an infinite measure before any solve
    tv = total_variation(measure, domain)
    idx = resolve_samples(domain, samples)
    solver = solver or Solver()
    kernels, op, final_level = _adjoint_solve(domain, potential, idx, order, solver)
    u = Field(domain, op.solve_load(load, solver))
    tr = normal_derivative(domain, u, order).values
    paired = kernels.T @ load

    tol = 10.0 * solver.tol * max(1.0, tv)
    cases = []
    for col, a in enumerate(idx):
        left = float(tr[a])
        right = float(paired[col])
        cases.append(_case(
            f"boundary_node_{int(a)}",
            abs(left - right),
            tol,
            left=left,
            right=right,
            boundary_index=int(a),
        ))
    worst = max((c.residual for c in cases), default=0.0)
    return VerifyReport(
        check="representation",
        cases=tuple(cases),
        table=(RefinementRow(h=domain.h, level=final_level, residual=worst),),
        details={
            "branch": "continuum" if measure.atoms else "grid_density",
            "final_level": final_level,
            "total_variation": tv,
            "max_residual": worst,
        },
    )


def inequality_suite(
    domain: Domain,
    potential: Potential,
    measure: Measure,
    solver: Solver | None = None,
    order: int = 1,
) -> VerifyReport:
    """Mass-controlled estimate suite with discretization slack (1 + 5h).

    Asserts: absorbed mass <= total variation; boundary-trace L1 norm
    <= 2 * total variation; the double integral of kernel pairings against the
    variation measure over the boundary <= 2 * total variation; and the kernel
    comparison 0 <= P_a <= K_a nodewise over all boundary nodes.  Its walk
    starts from zero, as hopf's does: in one operator cache they share it.
    """
    slack = 1.0 + SLACK_RATE * domain.h
    u, diag = solve_truncated_limit(domain, potential, measure, solver,  # raises if TV is infinite
                                    guess=np.zeros(domain.n_interior))
    tv = total_variation(measure, domain)
    v_final = np.minimum(sample(potential, domain), diag.final_level)
    absorbed = float(np.sum(v_final * np.abs(u.values) * domain.system_weights))
    tr = normal_derivative(domain, u, order)
    kset = kernel_set(domain, potential, None, solver, with_reference=True, order=order)
    fatou = float(np.sum(domain.surface_weights * kset.pair_measure(variation(measure, domain))))
    upper_excess = float(np.max(kset.kernels - kset.reference))
    lower_excess = float(np.max(-kset.kernels))

    cases = (
        _bound_case("absorption_l1", absorbed, tv * slack, total_variation=tv),
        _bound_case("trace_l1", tr.l1_norm(), 2.0 * tv * slack, total_variation=tv),
        _bound_case("fatou_boundary", fatou, 2.0 * tv * slack, total_variation=tv),
        _case("kernel_upper", max(upper_excess, 0.0), 1e-8,
              left=upper_excess, right=1e-8),
        _case("kernel_lower", max(lower_excess, 0.0), 1e-8,
              left=lower_excess, right=1e-8),
    )
    return VerifyReport(
        check="inequalities",
        cases=cases,
        details={
            "total_variation": tv,
            "slack": slack,
            "final_level": diag.final_level,
            "monotone": diag.monotone,
        },
    )


def _trace_extrema(domain: Domain, u: Field, order: int) -> tuple[float, float]:
    """Min and max of the boundary trace, corners excluded on the rectangle."""
    tr = normal_derivative(domain, u, order).values
    keep = ~domain.corner_mask
    vals = tr[keep]
    return float(np.min(vals)), float(np.max(vals))


def hopf_check(
    domain: Domain,
    potential: Potential,
    measure: Measure,
    solver: Solver | None = None,
    refinements: int = 1,
    order: int = 1,
) -> VerifyReport:
    """Boundary positivity of the schedule-limit trace for nonnegative data.

    Verdicts: "positive" when the minimum trace stays above POSITIVE_FLOOR and
    varies by less than 20% across the last two grids; "obstruction" when the
    maximum trace decreases strictly through the whole schedule without the
    schedule converging (mass crushed by the singularity); otherwise
    "inconclusive".  When every atom of the measure sits outside the computed
    positivity set and there is no density part, the verdict is
    "no_solution_expected" and no classification is attempted.  Each grid's
    per-level trace extrema are recorded by ``solve_truncated_limit``'s
    ``on_level`` callback, so its stop rule is the rule here.  Every grid's
    walk starts its first level from zero, so on the disk and the square
    transform-PCG solves every level (see ``stlab.operator``) and only the
    positivity set factors.  The base grid's walk is the inequality suite's:
    inside the run's operator cache whichever check runs second replays it.
    """
    if refinements < 0:
        raise ValueError(f"refinements must be >= 0, got {refinements}")
    if measure.is_zero():
        raise ValueError("boundary positivity needs a nonzero measure")
    if not is_nonnegative(measure, domain):
        raise ValueError("boundary positivity is stated for nonnegative measures")
    load_vector(measure, domain)  # refuses an infinite measure before any solve

    solver = solver or Solver()
    mask = positivity_set(domain, potential, solver)
    if measure.density is None and measure.atoms:
        outside = []
        for loc, _ in measure.atoms:
            nodes, weights = domain.interp_weights(np.asarray(loc))
            outside.append(not np.any(mask[nodes[weights > 0.0]]))
        if all(outside):
            return VerifyReport(
                check="hopf",
                cases=(),
                verdict="no_solution_expected",
                details={"positivity_fraction": float(np.mean(mask))},
            )

    per_grid = []
    table = []
    cases = []
    for g in domain.ladder(refinements):
        rows = []  # (level, trace min, trace max); a saturated level repeats the previous row

        def record(level, u):
            extrema = rows[-1][1:] if u is None else _trace_extrema(g, Field(g, u), order)
            rows.append((float(level), *extrema))

        _, diag = solve_truncated_limit(g, potential, measure, solver, record, np.zeros(g.n_interior))
        _, lo, hi = rows[-1]
        per_grid.append({
            "h": g.h,
            "resolution": dict(g.resolution),
            "levels": [r[0] for r in rows],
            "trace_min": [r[1] for r in rows],
            "trace_max": [r[2] for r in rows],
            "limit_min": lo,
            "limit_max": hi,
            "converged": diag.converged,
        })
        table.append(RefinementRow(h=g.h, level=diag.final_level, residual=lo))
        cases.append(_case(
            f"trace_nonnegative_h_{g.h:.6g}", max(-lo, 0.0), solver.tol * 100.0,
            left=lo, right=0.0,
        ))

    verdict = "inconclusive"
    last = per_grid[-1]
    if len(per_grid) >= 2:
        a, b = per_grid[-2]["limit_min"], per_grid[-1]["limit_min"]
        stable = abs(a - b) <= 0.2 * max(abs(a), abs(b), POSITIVE_FLOOR)
        if a > POSITIVE_FLOOR and b > POSITIVE_FLOOR and stable and last["converged"]:
            verdict = "positive"
    elif last["limit_min"] > POSITIVE_FLOOR and last["converged"]:
        verdict = "positive"
    if verdict == "inconclusive":
        maxes = last["trace_max"]
        decreasing = len(maxes) >= 2 and all(
            later < earlier for earlier, later in zip(maxes, maxes[1:])
        )
        if decreasing and not last["converged"]:
            verdict = "obstruction"

    return VerifyReport(
        check="hopf",
        cases=tuple(cases),
        table=tuple(table),
        verdict=verdict,
        details={
            "grids": per_grid,
            "positivity_fraction": float(np.mean(mask)),
        },
    )


def hopf_certificate(
    domain: Domain,
    potential: Potential,
    refinements: int = 2,
    solver: Solver | None = None,
    order: int = 1,
) -> VerifyReport:
    """Certificate for boundary positivity: the unit-source zero-potential
    profile must pair integrably with the potential and have strictly positive
    trace.

    The pairing integral is evaluated on a ladder of refined grids; the
    certificate requires the ladder to look convergent (final/previous value
    ratio below 1.5 AND the increments decaying) and the minimum trace of the
    profile to be positive.  On the disk and the square each profile is a
    transform solve (see ``stlab.operator``), so the refined grids make no
    factor.

    The distance-weighted L1 norm, the quadrature of V(x) * dist(x, boundary),
    is reported alongside as the classical sufficient condition: a convergent
    ladder certifies the absorption integral, a non-decaying ladder raises
    the divergence flag.  It is read on the base grid and its first
    ``WEIGHTED_L1_REFINEMENTS`` refinements, whatever ``refinements`` is: one
    ladder serves both sums, and V is sampled once per grid.
    """
    if refinements < 1:
        raise ValueError(f"refinements must be >= 1, got {refinements}")
    source = density_measure(uniform_density(1.0))
    history, wl1_history = [], []
    for i, g in enumerate(domain.ladder(max(refinements, WEIGHTED_L1_REFINEMENTS))):
        v = sample(potential, g)
        if i <= WEIGHTED_L1_REFINEMENTS:
            wl1_history.append(float(np.sum(v * g.distances * g.volumes)))
        if i <= refinements:
            profile = assemble(g, zero_potential()).solve_load(load_vector(source, g), solver)
            theta = Field(g, profile)
            history.append(float(np.sum(v * theta.values * g.volumes)))
            if i == refinements:
                lo, _ = _trace_extrema(g, theta, order)
    divergent = ladder_diverges(history)
    ratios = [b / a if abs(a) > 0.0 else 1.0 for a, b in zip(history, history[1:])]
    certified = (not divergent) and lo > 0.0
    wl1_divergent = ladder_diverges(wl1_history)

    # hard invariants: the profile's trace is positive by the maximum
    # principle, and the distance-weighted norm is a sufficient condition,
    # so its convergence forces certification
    cases = (
        _case("trace_positive", float(not lo > 0.0), 0.0, left=lo, right=0.0),
        _case("sufficient_condition_consistent",
              1.0 if (not wl1_divergent and not certified) else 0.0, 0.0,
              left=float(not wl1_divergent), right=float(certified)),
    )
    return VerifyReport(
        check="hopf_certificate",
        cases=cases,
        verdict="certified" if certified else "rejected",
        details={
            "pairing_history": history,
            "pairing_ratios": ratios,
            "divergent": bool(divergent),
            "trace_min": lo,
            "weighted_l1": None if wl1_divergent else wl1_history[-1],
            "weighted_l1_divergent": wl1_divergent,
        },
    )


def comparison_check(
    domain: Domain,
    potential: Potential,
    v,
    alpha: float = 0.5,
    epsilon: float | None = None,
    solver: Solver | None = None,
) -> VerifyReport:
    """Lower comparison bound: a nonnegative field dominates the solution whose
    source is the concave clipped power of the field itself, for small enough
    coefficient.

    The source shape min(v, 1)^alpha is solved once, at the discrete limit
    (``limit_operator``); scaling the coefficient scales the solution
    linearly, so the largest admissible coefficient is located by a
    bracketed 20-step bisection on that one solve.  The reported pass case
    asserts the bound at the requested coefficient (default: half the
    located threshold).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if epsilon is not None and epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    vv = v.values if isinstance(v, Field) else np.asarray(v, dtype=float)
    if vv.shape != (domain.n_interior,):
        raise ValueError("comparison field does not match the domain")
    if float(np.min(vv)) < -1e-9:
        raise ValueError("comparison field must be nonnegative")
    shape = np.minimum(np.maximum(vv, 0.0), 1.0) ** alpha

    solver = solver or Solver()
    op, _ = limit_operator(domain, potential, solver)
    zs = op.solve_load(load_vector(density_measure(table_density(shape)), domain), solver)
    peak = float(np.max(zs))

    def feasible(eps: float) -> bool:
        return bool(np.all(eps * zs <= vv + COMPARISON_TOL))

    if peak <= solver.tol:
        threshold = float("inf")
    else:
        hi = 1.0
        while feasible(hi) and hi < 2.0 ** 60:
            hi *= 2.0
        lo = 0.0
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        threshold = lo

    eps_used = epsilon if epsilon is not None else (
        0.5 * threshold if np.isfinite(threshold) else 1.0
    )
    excess = float(np.max(eps_used * zs - vv))
    cases = (
        _case("domination", max(excess, 0.0), COMPARISON_TOL, left=excess,
              right=COMPARISON_TOL, epsilon=eps_used, alpha=alpha),
        _case("threshold_positive", 0.0 if threshold > 0.0 else 1.0, 0.0,
              left=threshold, right=0.0),
    )
    return VerifyReport(
        check="comparison",
        cases=cases,
        details={
            "threshold": threshold,
            "epsilon": eps_used,
            "alpha": alpha,
            "solution_peak": peak,
        },
    )


def energy_check(
    domain: Domain,
    potential: Potential,
    source: Measure,
    n_perturbations: int = 100,
    seed: int = 0,
    solver: Solver | None = None,
) -> VerifyReport:
    """The solve minimizes the quadratic energy: random perturbations only
    increase it.  Density sources only; the base energy and every
    perturbation are evaluated with the operator and load of the solve."""
    op = assemble(domain, potential)
    load = _density_load(domain, source)
    u = op.solve_load(load, solver)
    base = _quadratic_energy(op, load, u)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_perturbations):
        w = rng.standard_normal(domain.n_interior)
        w *= 0.1 / max(float(np.max(np.abs(w))), 1e-300)
        worst = min(worst, _quadratic_energy(op, load, u + w) - base)
    cases = (
        _case("minimum", max(-worst, 0.0), 1e-12 * max(abs(base), 1.0),
              left=base, right=base + worst),
    )
    return VerifyReport(
        check="energy",
        cases=cases,
        details={"energy": float(base), "worst_perturbation_gain": float(worst)},
    )


def suite_exit_status(reports) -> int:
    return 0 if all(r.passed for r in reports) else 1
