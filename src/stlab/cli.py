"""Command-line driver: config-described solves, kernel sets, check suites,
and grid-refinement studies, with CSV/JSON reports.

Exit status: 0 when everything ran and passed, 1 when a check failed, 2 for
configuration or usage errors (the diagnostic names the offending key).
Outputs are deterministic for a fixed config: each CSV block is printed with
one row template (ints and bools %d, floats %.17g, names %s), JSON keys are
sorted, and the only randomness (energy perturbations) is seeded from the
config.  The kernel table, whose node column is the same in every block,
formats that column once per run: each of its blocks formats only its
boundary node and its kernel values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .domain import Domain, DomainError
from .kernel import duality_kernel, kernel_set, kernel_summary
from .measure import MeasureError, load_vector, total_variation
from .operator import SolverError, cached_operators, solve_truncated_limit
from .potential import PotentialError, sample
from .trace import flux_balance_residual, normal_derivative
from .verify import (
    VerifyReport,
    comparison_check,
    energy_check,
    hopf_certificate,
    hopf_check,
    inequality_suite,
    representation_check,
    suite_exit_status,
)

FLOAT_FMT = "%.17g"
# the checks that refine the grid, and the key counting their refinements
LADDER_KEYS = {"hopf": "hopf.refinements", "hopf_certificate": "certificate.refinements"}


def _write_csv(path: str, header, blocks) -> None:
    """Write ``schema=1``, the header, then each block's rows.

    A block is a sequence of equal-length columns (arrays or lists).  Each
    block is one ``%``: a row template built from the column dtypes (ints
    and bools ``%d``, floats FLOAT_FMT, anything else ``%s``), repeated once
    per row and filled with every cell of the block, row by row, so each
    cell is formatted again in every block (``run_kernel`` writes its table
    from a template that holds its repeated node column already formatted,
    to the same bytes).  Nothing is quoted: every string cell is a case name
    the program makes (``boundary_node_<i>``, ``trace_nonnegative_h_<h>`` or
    a fixed name), none with a comma, quote or newline.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("schema=1\n" + ",".join(header) + "\n")
        for block in blocks:
            cols = [np.asarray(col) for col in block]
            row = ",".join("%d" if c.dtype.kind in "biu" else FLOAT_FMT if c.dtype.kind == "f"
                           else "%s" for c in cols) + "\n"
            cells = [None] * (len(cols) * len(cols[0]))
            for j, c in enumerate(cols):
                cells[j::len(cols)] = c.tolist()
            fh.write((row * len(cols[0])) % tuple(cells))


def _plain(obj):
    """``obj`` as plain JSON values: numpy scalars and arrays become Python
    ones, and every non-finite float becomes None (JSON null), so each
    report is strict JSON."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def run_solve(cfg: RunConfig, out_dir: str) -> int:
    domain = cfg.build_domain()
    potential = cfg.build_potential()
    measure = cfg.build_measure(domain)
    u, diag = solve_truncated_limit(domain, potential, measure, cfg.build_solver())
    tr = normal_derivative(domain, u, order=cfg["trace.order"])
    v_final = np.minimum(sample(potential, domain), diag.final_level)
    flux_residual = flux_balance_residual(u, tr, v_final, load_vector(measure, domain))
    if "csv" in cfg["format"]:
        coords = ("x",) if domain.dim == 1 else ("x", "y")
        _write_csv(os.path.join(out_dir, "solution.csv"),
                   ("node", *coords, "distance", "volume", "value"),
                   [(np.arange(domain.n_interior), *domain.interior_points.T,
                     domain.distances, domain.volumes, u.values)])
        _write_csv(os.path.join(out_dir, "trace.csv"),
                   ("boundary", "coord", "value", "surface_weight"),
                   [(np.arange(domain.n_boundary), domain.boundary_coords,
                     tr.values, domain.surface_weights)])
    if "json" in cfg["format"]:
        _write_json(os.path.join(out_dir, "solve.json"), {
            "config": cfg.echo(),
            "total_variation": total_variation(measure, domain),
            "trace_l1": tr.l1_norm(),
            "flux_residual": flux_residual,
            "schedule": asdict(diag),
        })
    return 0


def run_kernel(cfg: RunConfig, out_dir: str) -> int:
    domain = cfg.build_domain()
    potential = cfg.build_potential()
    kset = kernel_set(domain, potential, cfg.sample_indices(domain), cfg.build_solver(),
                      order=cfg["trace.order"])
    if "csv" in cfg["format"]:
        # _write_csv's rows, with the node column (the same in every block)
        # formatted once: each block fills in its boundary node, then its values
        rows = "".join(f"@,{i},{FLOAT_FMT}\n" for i in range(domain.n_interior))
        with open(os.path.join(out_dir, "kernels.csv"), "w", newline="", encoding="utf-8") as fh:
            fh.write("schema=1\nboundary,node,value\n")
            for col, a in enumerate(kset.samples):
                fh.write(rows.replace("@", str(int(a))) % tuple(kset.kernels[:, col].tolist()))
    if "json" in cfg["format"]:
        summary = kernel_summary(kset)
        summary["config"] = cfg.echo()
        _write_json(os.path.join(out_dir, "kernels.json"), summary)
    return 0


def _run_check(name: str, cfg: RunConfig, domain: Domain) -> VerifyReport:
    """One check on ``domain``; callers scope an operator cache to the grid."""
    potential = cfg.build_potential()
    solver = cfg.build_solver()
    order = cfg["trace.order"]
    if name == "representation":
        return representation_check(
            domain, potential, cfg.build_measure(domain),
            cfg.sample_indices(domain), solver, order=order,
        )
    if name == "inequalities":
        return inequality_suite(domain, potential, cfg.build_measure(domain), solver,
                                order=order)
    if name in LADDER_KEYS:
        key = LADDER_KEYS[name]
        try:
            if name == "hopf":
                return hopf_check(domain, potential, cfg.build_measure(domain), solver,
                                  refinements=cfg[key], order=order)
            return hopf_certificate(domain, potential, cfg[key], solver, order)
        except PotentialError as exc:
            if cfg["potential.family"] != "interior_singularity":
                raise
            # a refined grid can put a node on x0, where V is infinite
            raise ConfigError(f"config key 'potential.x0' is a node of a grid that "
                              f"{key!r} = {cfg[key]} refines: {exc}") from None
    if name == "comparison":
        idx = cfg.sample_indices(domain)
        a = int(idx[0]) if idx is not None else 0
        v = duality_kernel(domain, potential, a, solver, order=order)
        return comparison_check(
            domain, potential, v, alpha=cfg["comparison.alpha"],
            epsilon=cfg["comparison.epsilon"], solver=solver,
        )
    if name == "energy":
        return energy_check(
            domain, potential, cfg.build_measure(domain), seed=cfg["seed"], solver=solver
        )
    raise ConfigError(f"config key 'checks': unknown check {name!r}")


def run_verify(cfg: RunConfig, out_dir: str) -> int:
    domain = cfg.build_domain()
    with cached_operators(domain):
        reports = [_run_check(name, cfg, domain) for name in cfg["checks"]]
    if "csv" in cfg["format"]:
        for report in reports:
            cases = report.cases
            _write_csv(os.path.join(out_dir, f"{report.check}.csv"),
                       ("case", "left", "right", "residual", "tolerance", "passed"),
                       [([c.name for c in cases], [c.left for c in cases],
                         [c.right for c in cases], [c.residual for c in cases],
                         [c.tolerance for c in cases], [c.passed for c in cases])])
    if "json" in cfg["format"]:
        _write_json(os.path.join(out_dir, "report.json"), {
            "config": cfg.echo(),
            "passed": all(r.passed for r in reports),
            "checks": [r.to_dict() for r in reports],
        })
    return suite_exit_status(reports)


def _study_residual(report: VerifyReport) -> float:
    residuals = [c.residual for c in report.cases]
    return max(residuals) if residuals else 0.0


def _study_level(report: VerifyReport) -> float:
    if "final_level" in report.details:
        return float(report.details["final_level"])
    if report.table:
        return float(report.table[-1].level)
    return 0.0


def run_study(cfg: RunConfig, out_dir: str) -> int:
    if len(cfg["checks"]) != 1:
        raise ConfigError("config key 'checks': a study runs exactly one check")
    name = cfg["checks"][0]
    rows = []
    reports = []
    for d in cfg.build_domain().ladder(cfg["study.levels"] - 1):
        with cached_operators(d):
            report = _run_check(name, cfg, d)
        reports.append(report)
        rows.append((d.h, _study_level(report), _study_residual(report)))

    # an order without a finite value is None (JSON null)
    orders = [float(np.log2(r0 / r1)) if r0 > 0.0 and r1 > 0.0 else None
              for (_, _, r0), (_, _, r1) in zip(rows, rows[1:])]
    floor = 10.0 * cfg["solver.tol"]
    at_floor = all(r <= floor for _, _, r in rows)
    observed = None  # at the solver floor the residuals have no h-dependence
    if not at_floor and rows[0][2] > 0.0 and rows[-1][2] > 0.0:
        observed = float(np.log2(rows[0][2] / rows[-1][2]) / (len(rows) - 1))

    if "csv" in cfg["format"]:
        _write_csv(os.path.join(out_dir, "study.csv"), ("h", "k", "residual"),
                   [tuple(zip(*rows))])
    if "json" in cfg["format"]:
        _write_json(os.path.join(out_dir, "study.json"), {
            "config": cfg.echo(),
            "check": name,
            "rows": [{"h": h, "k": k, "residual": r} for h, k, r in rows],
            "pairwise_orders": orders,
            "observed_order": observed,
            "at_solver_floor": at_floor,
            "passed": all(r.passed for r in reports),
        })
    return suite_exit_status(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlab",
        description="Grid laboratory for Dirichlet problems with measure data "
                    "and singular absorption: solves, boundary-flux kernels, "
                    "and theorem-level check suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "solve the configured problem; write solution and trace"),
        ("kernel", "compute duality kernels for the sampled boundary nodes"),
        ("verify", "run the configured checks; exit 0 iff all pass"),
        ("study", "repeat one check across grid refinements"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory (default: config 'out')")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        out_dir = args.out if args.out is not None else cfg["out"]
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "solve":
            return run_solve(cfg, out_dir)
        if args.command == "kernel":
            return run_kernel(cfg, out_dir)
        if args.command == "verify":
            return run_verify(cfg, out_dir)
        return run_study(cfg, out_dir)
    except (ConfigError, DomainError, MeasureError, PotentialError, ValueError,
            SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
