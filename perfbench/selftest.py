"""Show that the correctness gate fails corrupted outputs.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Runs each workload once at the default seed, checks that its clean outputs
pass, then corrupts a copy of them in one way at a time and checks that the
gate reports a problem.  One change stays within the gate's tolerance and
must pass while no longer being byte-identical.  The reference applies to
seeded workloads at the default seed only, so their corruptions must also
fail without it.  Exits 1 if any case goes the wrong way.
"""

import json
import os
import shutil
import sys

import numpy as np

import gate
from run import Bench, load_reference
from workloads import DEFAULT_SEED


def _edit_line(path, index, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    lines[index] = edit(lines[index])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _drop_line(path, index):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    del lines[index]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _set_cell(col, value):
    def edit(line):
        cells = line.split(",")
        cells[col] = value
        return ",".join(cells)
    return edit


def _set_last_cell(value):
    return _set_cell(-1, value)


def _shift_kernel(share):
    """Move the first kernel value by ``share`` of the largest kernel value
    (the gate's tolerance is 100 * solver.tol = 1e-8 of it)."""
    largest = load_reference("kernel_disk", DEFAULT_SEED)["kernels.csv"]["columns"]["value"]["max"]

    def edit(line):
        head, value = line.rsplit(",", 1)
        return f"{head},{float(value) + share * largest!r}"
    return lambda d: _edit_line(f"{d}/kernels.csv", 2, edit)


def _kernel_values(edit):
    """Rewrite the value column of kernels.csv; ``edit`` changes, in place, an
    array of the value cells with one row per boundary node."""
    def corrupt(d):
        path = f"{d}/kernels.csv"
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        body = slice(2, 2 + gate.KERNEL_NODES * gate.KERNEL_INTERIOR)
        heads, values = zip(*(line.rsplit(",", 1) for line in lines[body]))
        values = np.array(values, dtype=object).reshape(gate.KERNEL_NODES, gate.KERNEL_INTERIOR)
        edit(values)
        lines[body] = [f"{h},{v}" for h, v in zip(heads, values.ravel())]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    return corrupt


def _next_kernel_under(b):
    def edit(values):
        values[b] = values[b + 1].copy()
    return edit


def _swap_neighbours(values):
    values[0, 500], values[0, 501] = values[0, 501], values[0, 500]


def _reverse_nodes_after_centre(values):
    values[:, 1:] = values[:, :0:-1].copy()


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _check(doc, name):
    return next(c for c in doc["checks"] if c["check"] == name)


# (workload, description, corruption of the output directory, rc, must fail)
CASES = [
    ("kernel_disk", "negative kernel value",
     lambda d: _edit_line(f"{d}/kernels.csv", 500, _set_last_cell("-1e-3")), 0, True),
    ("kernel_disk", "NaN kernel value",
     lambda d: _edit_line(f"{d}/kernels.csv", 500, _set_last_cell("nan")), 0, True),
    ("kernel_disk", "dropped row",
     lambda d: _drop_line(f"{d}/kernels.csv", 500), 0, True),
    ("kernel_disk", "no schema line",
     lambda d: _edit_line(f"{d}/kernels.csv", 0, lambda _: "schema=2"), 0, True),
    ("kernel_disk", "value off the reference by 1e-6 of the largest kernel",
     _shift_kernel(1e-6), 0, True),
    ("kernel_disk", "value off the reference by 1e-12 of the largest kernel (within tolerance)",
     _shift_kernel(1e-12), 0, False),
    ("kernel_disk", "exit status 1", lambda d: None, 1, True),
    # the disk is rotationally symmetric: these keep every column's sum,
    # minimum and maximum and every kernel's summary in kernels.json
    ("kernel_disk", "kernel of boundary node 6 written under node 5",
     _kernel_values(_next_kernel_under(5)), 0, True),
    ("kernel_disk", "interior nodes after the centre reversed in every kernel",
     _kernel_values(_reverse_nodes_after_centre), 0, True),
    # within one chunk of the reference: only the position-weighted sum sees it
    ("kernel_disk", "two neighbouring values of one kernel swapped",
     _kernel_values(_swap_neighbours), 0, True),
    ("kernel_disk", "text in a numeric cell",
     lambda d: _edit_line(f"{d}/kernels.csv", 900, _set_last_cell("abc")), 0, True),
    ("verify_disk", "report not passed",
     lambda d: _edit_json(f"{d}/report.json", lambda r: r.update(passed=False)), 0, True),
    ("verify_disk", "hopf verdict inconclusive",
     lambda d: _edit_json(f"{d}/report.json",
                          lambda r: _check(r, "hopf").update(verdict="inconclusive")), 0, True),
    ("verify_disk", "certificate rejected",
     lambda d: _edit_json(f"{d}/report.json",
                          lambda r: _check(r, "hopf_certificate").update(verdict="rejected")),
     0, True),
    ("verify_disk", "check CSV missing", lambda d: os.remove(f"{d}/hopf.csv"), 0, True),
    ("verify_disk", "report.json cut short",
     lambda d: _edit_line(f"{d}/report.json", 5, lambda _: ""), 0, True),
    ("verify_disk", "failed case in a check CSV",
     lambda d: _edit_line(f"{d}/comparison.csv", 2, _set_last_cell("0")), 0, True),
    ("solve_square", "negative solution value",
     lambda d: _edit_line(f"{d}/solution.csv", 1000, _set_last_cell("-0.5")), 0, True),
    ("solve_square", "infinite trace value",
     lambda d: _edit_line(f"{d}/trace.csv", 10, _set_cell(2, "inf")), 0, True),
    ("solve_square", "schedule not converged",
     lambda d: _edit_json(f"{d}/solve.json",
                          lambda r: r["schedule"].update(converged=False)), 0, True),
]


def main() -> int:
    wrong = 0
    for workload in dict.fromkeys(c[0] for c in CASES):
        reference = load_reference(workload, DEFAULT_SEED)
        seeded = load_reference(workload, DEFAULT_SEED + 1) is None
        bench = Bench(os.getcwd(), workload, DEFAULT_SEED, False, reference)
        inv = bench.invoke(False)
        clean = os.path.join(bench.work, "out")
        print(f"{workload}: clean outputs -> {inv['problems'] or 'pass'}")
        wrong += bool(inv["problems"])
        for name, desc, corrupt, rc, must_fail in CASES:
            if name != workload:
                continue
            bad = os.path.join(bench.work, "corrupt")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(clean, bad)
            corrupt(bad)
            outputs = gate.Outputs(workload, bad)
            problems = gate.check(outputs, rc, reference)
            ok = bool(problems) == must_fail
            verdict = "counted failed" if problems else "passes"
            if seeded and must_fail:
                alone = gate.check(outputs, rc, None)
                ok = ok and bool(alone)
                verdict += ", also without the reference" if alone else \
                    ", but passes without the reference"
            wrong += not ok
            extra = "" if problems else f", byte-identical {gate.identical(outputs, reference)}"
            print(f"  {'ok   ' if ok else 'WRONG'} {desc}: {verdict}{extra}"
                  f"{' (' + problems[0] + ')' if problems else ''}")
        shutil.rmtree(bench.work)
    print("gate self-test", "passed" if not wrong else f"FAILED ({wrong} wrong)")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
