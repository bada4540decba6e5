"""stlab benchmark: runs ``stlab`` CLI invocations one at a time, each in a
fresh interpreter, checks every output, and prints the metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_disk --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
invocations.  ``--trace 1`` alternates untraced and traced invocations and
reports the per-layer metrics; ``trace_overhead_s`` is the difference of
their median wall times.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
is imported from ``src/`` of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
from layers import EXACT, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_INVOCATIONS = 3
HARD_LIMIT_S = 170.0  # a run must end within 180 s even when the program slows
# one BLAS thread: a plain single-threaded baseline that other load on the
# machine disturbs least; SuperLU itself is single-threaded
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken interpreter, ...)."""


class Bench:
    def __init__(self, root: str, workload: str, seed: int, trace: bool, reference):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = WORKLOADS[workload]
        self.trace = trace
        self.work = os.path.join(root, ".perfbench_work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = os.path.join(self.work, "run.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(self.workload.config(seed))
        self.reference = reference
        self.checked: dict = {}
        self.env = dict(os.environ, PYTHONPATH=self.src, **BLAS_ENV)
        # users' interpreters cache bytecode; so does every child after the warm-up
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.started = time.monotonic()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, cli_args=(), trace=False) -> tuple[dict, float]:
        """Run child.py; returns its result and the set-up time (spawn to import done)."""
        result_path = os.path.join(self.work, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path]
        if trace:
            cmd.append("--trace")
        if cli_args:
            cmd += ["--", *cli_args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("an invocation did not finish in time") from None
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no result written"]
            raise BenchError(f"child exited with status {proc.returncode}: {tail[0]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if not os.path.abspath(result["stlab_file"]).startswith(self.src + os.sep):
            raise BenchError(f"stlab imported from {result['stlab_file']}, not {self.src}")
        return result, result["imported"] - t0

    def warm_up(self) -> None:
        """One interpreter that only imports stlab.cli: bytecode and file caches fill."""
        self.spawn()

    def invoke(self, trace: bool) -> dict:
        out_dir = os.path.join(self.work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        w = self.workload
        result, setup = self.spawn((w.command, "--config", self.config, "--out", out_dir), trace)
        outputs = gate.Outputs(w.name, out_dir)
        key = (result["rc"], tuple(sorted(outputs.sha256.items())))
        if key not in self.checked:  # identical bytes get the same verdict
            self.checked[key] = gate.check(outputs, result["rc"], self.reference)
        problems = self.checked[key]
        inv = {
            "trace": trace,
            "wall_s": result["wall_s"],
            "setup_s": setup,
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            "problems": problems,
            "identical": gate.identical(outputs, self.reference) if self.reference else None,
        }
        if trace:
            inv["layers"] = layer_metrics(result, outputs.nbytes, outputs.csv_rows)
            with open(os.path.join(self.work, "spans.json"), "w", encoding="utf-8") as fh:
                json.dump({"spans": result["spans"], "counters": result["counters"]}, fh)
        return inv


def load_reference(workload: str, seed: int):
    """Reference digest of the outputs, when this seed's inputs are the reference's."""
    w = WORKLOADS[workload]
    if w.config(seed) != w.config(DEFAULT_SEED):
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def tail(samples: list) -> tuple[float, str]:
    """Highest percentile, p90 or above, with at least 10 samples beyond it.
    That needs 100 samples; a run holds fewer, so it reports the maximum."""
    s = sorted(samples)
    n = len(s)
    if n >= 100:
        return s[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples, 10 beyond"
    return s[-1], f"maximum of {n} samples, fewer than 100"


def measure(bench: Bench, seconds: float) -> list:
    """Invocations until the next one would overrun ``seconds`` (at least
    MIN_INVOCATIONS)."""
    start = time.monotonic()
    invocations, costs = [], []
    while True:
        t0 = time.monotonic()
        traced = bench.trace and len(invocations) % 2 == 1  # untraced, traced, untraced, ...
        inv = bench.invoke(traced)
        invocations.append(inv)
        costs.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        nxt = statistics.median(costs)
        if bench.remaining() < 2.0 * max(costs) and len(invocations) >= 1 + bench.trace:
            break
        if len(invocations) >= MIN_INVOCATIONS and elapsed + nxt > seconds:
            break
    return invocations


def end_to_end(invocations) -> tuple[dict, dict]:
    ok = [i for i in invocations if not i["problems"]] or invocations
    walls = [i["wall_s"] for i in ok]
    tail_value, tail_note = tail(walls)
    values = {
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail_value,
        "setup_s": statistics.median(i["setup_s"] for i in invocations),
        "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in ok),
    }
    notes = {
        "wall_s": f"median of {len(walls)} samples",
        "wall_s.tail": tail_note,
        "setup_s": f"median of {len(invocations)} samples",
        "peak_rss_mb": f"median of {len(ok)} samples",
    }
    return values, notes


def per_layer(invocations) -> tuple[dict, dict, list]:
    """Per-layer values, their notes, and the reasons the traced run is not correct."""
    traced = [i for i in invocations if i["trace"]]
    untraced = [i for i in invocations if not i["trace"]]
    # exact counters are checked to repeat below; times are medians
    values = {k: v if k in EXACT else statistics.median(t["layers"][k] for t in traced)
              for k, v in traced[0]["layers"].items()}
    values["trace_overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                  - statistics.median(u["wall_s"] for u in untraced))
    notes = {k: f"{'exact' if k in EXACT else 'median'}, {len(traced)} traced" for k in values}
    notes["trace_overhead_s"] = f"{len(traced)} traced vs {len(untraced)} untraced"
    # machine-independent counters must repeat exactly
    mismatched = [k for k in EXACT if len({t["layers"][k] for t in traced}) > 1]
    wrong = [f"counters did not repeat exactly: {mismatched}"] if mismatched else []
    # every solve needs a factorization: none counted means the program factors
    # some other way, and operator.factor_s would be counted as solve time
    if any(t["layers"]["operator.solve_calls"] and not t["layers"]["operator.factorizations"]
           for t in traced):
        wrong.append("solves traced but no splu factorization: the tracer misses "
                     "how the program factors")
    return values, notes, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if not os.path.isdir(os.path.join(root, "src", "stlab")):
            raise BenchError(f"no program: {os.path.join(root, 'src', 'stlab')} is missing")
        bench = Bench(root, args.workload, args.seed, bool(args.trace),
                      load_reference(args.workload, args.seed))
        bench.warm_up()
        invocations = measure(bench, args.seconds)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, notes, wrong = per_layer(invocations)
    else:
        values, notes = end_to_end(invocations)
        wrong = []
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark error: metrics not produced: {missing}", file=sys.stderr)
        return 2

    failed = [i for i in invocations if i["problems"]]
    w = bench.workload
    print(f"workload {w.name} (stlab {w.command}), seed {args.seed}, trace {args.trace}: "
          f"{w.why}")
    for inv in invocations:
        state = "ok" if not inv["problems"] else "FAILED: " + "; ".join(inv["problems"][:3])
        print(f"  {'traced  ' if inv['trace'] else 'untraced'} wall {inv['wall_s']:.4f} s, "
              f"set-up {inv['setup_s']:.4f} s, rss {inv['peak_rss_mb']:.1f} MiB: {state}")
    for m in declared:
        print(f"  {m['name']:<32} {values[m['name']]:>16.6g} {m['unit']:<6} "
              f"({notes.get(m['name'], '')})")
    print(f"  fail_ratio {len(failed) / len(invocations):.4g} "
          f"({len(failed)} failed of {len(invocations)} attempted)")
    if bench.reference is not None:
        same = sum(1 for i in invocations if i["identical"])
        print(f"  byte_identical {same} of {len(invocations)} (reference of seed {DEFAULT_SEED}; "
              "reported, not required)")
    else:
        print(f"  reference: not applied (outputs of seed {DEFAULT_SEED} only)")
    if args.trace:
        parts = sum(v for k, v in values.items() if k.endswith(".self_s"))
        parts += values["operator.factor_s"] + values["unattributed_s"]
        print(f"  layer self times + operator.factor_s + unattributed_s = {parts:.4f} s "
              f"(traced_wall_s {values['traced_wall_s']:.4f} s)")
    for reason in wrong:
        print(f"  not correct: {reason}")

    result = {
        "correct": not failed and not wrong,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
