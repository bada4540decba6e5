"""Correctness gate: every invocation's outputs are checked before it counts.

An invocation fails when its exit status is not 0, a CSV lacks the
``schema=1`` line, a row count is off, a number is not finite, a kernel is
negative, a solution is negative, a report did not pass, or a verdict is not
the expected one.  Where a reference from ``reference.json`` applies, every
number must also agree with it within ``100 * solver.tol`` relative to
``max(|reference|, scale)``: the CLI accepts a solve whose relative residual
is below that (``DiscreteOperator._check_residual``), so a correct program
that orders its arithmetic differently may differ by that much.  ``scale`` is
1 for JSON values, the column's largest magnitude for CSV cells, minima and
maxima, and a chunk's sum of magnitudes for its sums.  Each numeric CSV
column is cut into up to 256 chunks of consecutive rows; per chunk the
reference holds the sum, the sum of magnitudes and a sum weighted by
``k * PHI mod 1`` for row ``k`` (from 1), so a value moved to another row
changes it.  The 128 sampled rows are spread over the whole table rather
than taken at a fixed stride (``kernels.csv`` is 128 blocks of 3,969 rows,
and a stride of 3,969 samples one node of each).  Byte identity with the
reference is reported, not required.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os

import numpy as np

CHECKS = ("representation", "inequalities", "hopf", "hopf_certificate", "comparison")
EXPECTED_VERDICTS = {"hopf": "positive", "hopf_certificate": "certified"}
KERNEL_NODES, KERNEL_INTERIOR = 128, 3969  # disk nr=32: 4*nr boundary, 1 + 31*128 interior
SOLUTION_ROWS, TRACE_ROWS = 255 * 255, 4 * 256  # square n=256
SAMPLE_ROWS = 128  # rows of each CSV kept in the reference
CHUNKS = 256  # chunks of each numeric CSV column summed in the reference
# k * PHI mod 1 (k = 1, 2, ...) spreads evenly over (0, 1) and has no period
PHI = (5.0 ** 0.5 - 1.0) / 2.0


def _weyl(n: int) -> np.ndarray:
    # never 0, so an infinite tolerance weighs in as +inf, not as NaN
    return np.arange(1, n + 1) * PHI % 1.0


def sample_rows(n: int) -> np.ndarray:
    """Indices of the rows kept in the reference, spread over all ``n`` rows."""
    if n <= SAMPLE_ROWS:
        return np.arange(n)
    return np.unique((_weyl(SAMPLE_ROWS) * n).astype(np.int64))


def _chunk_sums(c: np.ndarray) -> dict:
    starts = np.linspace(0, c.size, min(CHUNKS, c.size) + 1).astype(np.int64)[:-1]
    return {"sum": np.add.reduceat(c, starts).tolist(),
            "abs_sum": np.add.reduceat(np.abs(c), starts).tolist(),
            "weighted": np.add.reduceat(c * _weyl(c.size), starts).tolist()}


def expected_files(workload: str) -> tuple:
    if workload == "verify_disk":
        return ("report.json",) + tuple(f"{c}.csv" for c in CHECKS)
    if workload == "kernel_disk":
        return ("kernels.csv", "kernels.json")
    return ("solution.csv", "trace.csv", "solve.json")


class Table:
    """A parsed stlab CSV: header, numeric columns as arrays, text columns as lists."""

    def __init__(self, raw: bytes):
        text = raw.decode("utf-8")
        self.schema_ok = text.startswith("schema=1\n")
        lines = text.split("\n", 2)
        self.header = lines[1].split(",") if len(lines) > 1 else []
        body = lines[2] if len(lines) > 2 else ""
        rows = list(csv.reader(body.splitlines()[:1]))
        if not rows:
            self.rows, self.sample = 0, []
            self.columns = {h: np.empty(0) for h in self.header}
            return
        numeric = [_is_number(c) for c in rows[0]]
        if all(numeric):
            data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            self.rows = data.shape[0]
            self.columns = {h: data[:, i] for i, h in enumerate(self.header)}
            self.sample = [[repr(float(v)) for v in r] for r in data[sample_rows(self.rows)]]
        else:
            rows = list(csv.reader(body.splitlines()))
            self.rows = len(rows)
            self.columns = {}
            for i, h in enumerate(self.header):
                cells = [r[i] for r in rows]
                self.columns[h] = np.array(cells, dtype=float) if numeric[i] else cells
            self.sample = [rows[i] for i in sample_rows(self.rows)]

    def numeric(self):
        return {h: c for h, c in self.columns.items() if isinstance(c, np.ndarray)}

    def digest(self) -> dict:
        return {
            "rows": self.rows,
            "header": self.header,
            "columns": {
                h: {"min": float(c.min()), "max": float(c.max()), **_chunk_sums(c)}
                for h, c in self.numeric().items() if c.size
            },
            "sample": self.sample,
        }


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _leaves(obj, path=""):
    """Flatten a JSON document to (path, leaf) pairs."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def _is_float(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Outputs:
    """The files one invocation wrote: hashed at once, parsed when first needed."""

    def __init__(self, workload: str, out_dir: str):
        self.workload = workload
        self.missing = []
        self.raw: dict[str, bytes] = {}
        self.nbytes = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()) \
            if os.path.isdir(out_dir) else 0
        for name in expected_files(workload):
            path = os.path.join(out_dir, name)
            if not os.path.isfile(path):
                self.missing.append(name)
                continue
            with open(path, "rb") as fh:
                self.raw[name] = fh.read()
        self.sha256 = {name: hashlib.sha256(raw).hexdigest() for name, raw in self.raw.items()}

    @functools.cached_property
    def tables(self) -> dict[str, Table]:
        return {name: Table(raw) for name, raw in self.raw.items() if name.endswith(".csv")}

    @functools.cached_property
    def docs(self) -> dict:
        return {name: json.loads(raw) for name, raw in self.raw.items() if name.endswith(".json")}

    @property
    def csv_rows(self) -> int:
        """Data rows of every CSV (each has a schema line and a header)."""
        return sum(raw.count(b"\n") - 2 for name, raw in self.raw.items() if name.endswith(".csv"))

    def digest(self) -> dict:
        out = {name: {"sha256": self.sha256[name], **t.digest()} for name, t in self.tables.items()}
        for name, doc in self.docs.items():
            out[name] = {"sha256": self.sha256[name], "leaves": dict(_leaves(doc))}
        return out

    def solver_tol(self) -> float:
        doc = next(iter(self.docs.values()))
        return float(doc["config"]["solver.tol"])


def check(outputs: Outputs, rc, reference: dict | None) -> list[str]:
    """Problems found in one invocation's outputs; empty when it is correct."""
    try:
        return _problems(outputs, rc, reference)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _problems(outputs: Outputs, rc, reference: dict | None) -> list[str]:
    problems = [f"exit status {rc}"] if rc != 0 else []
    problems += [f"{name} missing" for name in outputs.missing]
    for name, t in outputs.tables.items():
        if not t.schema_ok:
            problems.append(f"{name}: no schema=1 line")
        for h, c in t.numeric().items():
            bad = ~np.isfinite(c) & ~(_unbounded(h) & (c == np.inf))
            if np.any(bad):
                problems.append(f"{name}: non-finite {h}")
    for name, doc in outputs.docs.items():
        for path, v in _leaves(doc):
            if _is_float(v) and not math.isfinite(v) and not (_unbounded(path) and v == math.inf):
                problems.append(f"{name}: non-finite {path}")
    if outputs.missing:
        return problems
    problems += _WORKLOAD_CHECKS[outputs.workload](outputs)
    if reference is not None:
        problems += compare(outputs, reference)
    return problems


def _unbounded(key: str) -> bool:
    """A tolerance may be +inf: representation_check gives atomic measures an
    infinite tolerance.  Computed values must be finite."""
    return key.rsplit("/", 1)[-1] == "tolerance"


def _check_verify(o: Outputs) -> list[str]:
    p = []
    report = o.docs["report.json"]
    if report.get("passed") is not True:
        p.append("report.json: passed is not true")
    checks = {c["check"]: c for c in report.get("checks", [])}
    if tuple(checks) != CHECKS:
        p.append(f"report.json: checks {tuple(checks)}")
    for name, verdict in EXPECTED_VERDICTS.items():
        if checks.get(name, {}).get("verdict") != verdict:
            p.append(f"report.json: {name} verdict is not {verdict}")
    for name, c in checks.items():
        t = o.tables.get(f"{name}.csv")
        if t is not None and t.rows != len(c["cases"]):
            p.append(f"{name}.csv: {t.rows} rows for {len(c['cases'])} cases")
        if t is not None and t.rows and not np.all(t.columns["passed"] == 1):
            p.append(f"{name}.csv: a case did not pass")
    return p


def _check_kernel(o: Outputs) -> list[str]:
    p = []
    t = o.tables["kernels.csv"]
    if t.rows != KERNEL_NODES * KERNEL_INTERIOR:
        p.append(f"kernels.csv: {t.rows} rows, expected {KERNEL_NODES * KERNEL_INTERIOR}")
    elif not np.array_equal(t.columns["boundary"],
                            np.repeat(np.arange(KERNEL_NODES), KERNEL_INTERIOR)):
        p.append("kernels.csv: boundary column is not every node in order")
    if "value" in t.columns and t.rows and float(t.columns["value"].min()) < 0.0:
        p.append("kernels.csv: negative kernel value")
    summary = o.docs["kernels.json"]
    if summary.get("n_samples") != KERNEL_NODES:
        p.append("kernels.json: n_samples is not 128")
    if any(k["min"] < 0.0 for k in summary.get("kernels", [])):
        p.append("kernels.json: negative kernel minimum")
    return p


def _check_solve(o: Outputs) -> list[str]:
    p = []
    sol, tr = o.tables["solution.csv"], o.tables["trace.csv"]
    if sol.rows != SOLUTION_ROWS:
        p.append(f"solution.csv: {sol.rows} rows, expected {SOLUTION_ROWS}")
    if tr.rows != TRACE_ROWS:
        p.append(f"trace.csv: {tr.rows} rows, expected {TRACE_ROWS}")
    # nonnegative data: the solution and its inward-normal trace are nonnegative
    for name, t in (("solution.csv", sol), ("trace.csv", tr)):
        if "value" in t.columns and t.rows and float(t.columns["value"].min()) < 0.0:
            p.append(f"{name}: negative value")
    schedule = o.docs["solve.json"].get("schedule", {})
    if schedule.get("converged") is not True or schedule.get("monotone") is not True:
        p.append("solve.json: schedule not converged and monotone")
    return p


_WORKLOAD_CHECKS = {
    "verify_disk": _check_verify,
    "kernel_disk": _check_kernel,
    "solve_square": _check_solve,
}


def _close(x: float, ref: float, scale: float, rtol: float) -> bool:
    return x == ref or abs(x - ref) <= rtol * max(abs(ref), scale)


def compare(outputs: Outputs, reference: dict) -> list[str]:
    """Differences from the reference digest beyond 100 * solver.tol."""
    rtol = 100.0 * outputs.solver_tol()
    p = []
    got = outputs.digest()
    for name, ref in reference.items():
        cur = got.get(name)
        if cur is None:
            p.append(f"{name}: not in outputs")
        elif "leaves" in ref:
            p += _compare_leaves(name, cur["leaves"], ref["leaves"], rtol)
        else:
            p += _compare_table(name, cur, ref, rtol)
    return p


def _compare_leaves(name, cur, ref, rtol):
    if cur.keys() != ref.keys():
        return [f"{name}: fields differ from the reference"]
    for path, r in ref.items():
        v = cur[path]
        if _is_float(r) and _is_float(v):
            if not _close(float(v), float(r), 1.0, rtol):
                return [f"{name}: {path} = {v!r}, reference {r!r}"]
        elif v != r:
            return [f"{name}: {path} = {v!r}, reference {r!r}"]
    return []


def _compare_table(name, cur, ref, rtol):
    if cur["rows"] != ref["rows"] or cur["header"] != ref["header"]:
        return [f"{name}: shape differs from the reference"]
    for h, r in ref["columns"].items():
        c = cur["columns"][h]
        big = max(abs(r["min"]), abs(r["max"]))
        for stat in ("min", "max"):
            if not _close(c[stat], r[stat], big, rtol):
                return [f"{name}: column {h} {stat} = {c[stat]!r}, reference {r[stat]!r}"]
        # a weight is at most 1, so the chunk's sum of magnitudes bounds all three
        scale = np.array(r["abs_sum"])
        for stat in ("sum", "abs_sum", "weighted"):
            x, ref_x = np.array(c[stat]), np.array(r[stat])
            with np.errstate(invalid="ignore"):  # inf - inf where both are +inf
                ok = (x == ref_x) | (np.abs(x - ref_x) <= rtol * np.maximum(np.abs(ref_x), scale))
            if not ok.all():
                i = int(np.argmin(ok))
                return [f"{name}: column {h} {stat} of chunk {i} = {float(x[i])!r}, "
                        f"reference {float(ref_x[i])!r}"]
    # text columns have no statistics and compare exactly
    scales = [None if h not in ref["columns"] else
              max(abs(ref["columns"][h]["min"]), abs(ref["columns"][h]["max"]))
              for h in ref["header"]]
    for row, ref_row in zip(cur["sample"], ref["sample"]):
        for cell, ref_cell, scale in zip(row, ref_row, scales):
            if scale is None:
                if cell != ref_cell:
                    return [f"{name}: cell {cell!r}, reference {ref_cell!r}"]
            elif not _close(float(cell), float(ref_cell), scale, rtol):
                return [f"{name}: cell {cell!r}, reference {ref_cell!r}"]
    return []


def identical(outputs: Outputs, reference: dict) -> bool:
    """True when every output file is byte-identical to the reference."""
    return all(outputs.sha256.get(name) == ref["sha256"] for name, ref in reference.items())
