"""Capture reference.json: the digest of each workload's outputs at the default seed.

Usage, from the root of a checkout:  python3 perfbench/capture.py

Run it only on a commit whose outputs are known good; the benchmark then
requires later commits to agree with them within the gate's tolerance.
"""

import json
import os
import shutil
import sys

import gate
from run import Bench
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    for name in WORKLOADS:
        bench = Bench(os.getcwd(), name, DEFAULT_SEED, False, None)
        inv = bench.invoke(False)
        if inv["problems"]:
            print(f"{name}: {inv['problems']}", file=sys.stderr)
            return 1
        reference[name] = gate.Outputs(name, os.path.join(bench.work, "out")).digest()
        shutil.rmtree(bench.work)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
