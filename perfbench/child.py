"""One ``stlab`` CLI invocation in a fresh interpreter, as a user runs it.

Usage: python3 child.py RESULT_JSON [--trace] [-- CLI ARGS...]

Without CLI arguments it only imports ``stlab.cli`` (a set-up probe).  It
writes to RESULT_JSON the monotonic clock reading when the import finished
(the parent subtracts its own reading taken before the spawn), the wall time
of ``stlab.cli.main``, its exit status, the peak resident set size and, with
``--trace``, the spans and counters of ``tracer.py``.
"""

import time
import json
import resource
import sys


def main() -> int:
    result_path, rest = sys.argv[1], sys.argv[2:]
    trace = bool(rest) and rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    import stlab.cli

    imported = time.monotonic()
    out = {"imported": imported, "stlab_file": stlab.cli.__file__}
    if cli_args:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = stlab.cli.main(cli_args)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed invocation, not a broken benchmark
            rc = f"{type(exc).__name__}: {exc}"
        out["wall_s"] = time.perf_counter() - t0
        out["rc"] = rc
        if tracer is not None:
            out.update(tracer.result())
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
