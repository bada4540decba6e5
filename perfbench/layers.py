"""Per-layer metrics from the spans and counters of one traced invocation.

A span's self time is its duration minus the durations of its direct
children.  Every span lies under the root span of ``cli.main``, so the
self times of the layers (the ``stlab`` modules, plus ``splu`` counted as
``operator.factor_s``) add up to the traced wall time; ``unattributed_s`` is
what is left, the cost of the root wrapper itself.
"""

from __future__ import annotations

from tracer import LAYERS

MIB = 2.0 ** 20
BUILD_SPANS = {"domain.build_domain", "domain.Domain.refine", "domain.build_interval",
               "domain.build_rectangle", "domain.build_disk"}
CHECK_SPANS = {
    "representation": "verify.representation_check",
    "inequalities": "verify.inequality_suite",
    "hopf": "verify.hopf_check",
    "hopf_certificate": "verify.hopf_certificate",
    "comparison": "verify.comparison_check",
}
# counters that must repeat exactly between runs of the same input
EXACT = ("operator.factorizations", "operator.assembled", "operator.distinct",
         "operator.nnz_lu", "operator.solve_calls", "operator.rhs_columns",
         "domain.builds", "domain.nodes", "kernel.dense_mb", "cli.output_mb", "cli.csv_rows",
         "tracer.spans")


def _layer(name: str) -> str:
    return "factor" if name == "splu" else name.split(".", 1)[0]


class SpanTree:
    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        covered = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, covered)]

    def self_sum(self, match) -> float:
        return sum(t for n, t in zip(self.names, self.self_time) if match(n))

    def outer_sum(self, match) -> float:
        """Inclusive time of matching spans not nested in another matching span."""
        total = 0.0
        for i, name in enumerate(self.names):
            if not match(name):
                continue
            p = self.parent[i]
            while p >= 0 and not match(self.names[p]):
                p = self.parent[p]
            if p < 0:
                total += self.dur[i]
        return total


def layer_metrics(result: dict, output_bytes: int, csv_rows: int) -> dict:
    """Metrics of one traced invocation (child result plus its gated outputs)."""
    t = SpanTree(result["spans"])
    c = result["counters"]
    m = {f"{layer}.self_s": t.self_sum(lambda n, l=layer: _layer(n) == l) for layer in LAYERS}
    factorizations = c.get("operator.factorizations", 0)
    m.update({
        "operator.factorizations": factorizations,
        "operator.factor_s": t.self_sum(lambda n: n == "splu"),
        "operator.assembled": c.get("operator.assembled", 0),
        "operator.distinct": c.get("operator.distinct", 0),
        "operator.factor_useful_ratio":
            c.get("operator.distinct", 0) / factorizations if factorizations else 0.0,
        "operator.nnz_lu": c.get("operator.nnz_lu", 0),
        "operator.solve_self_s": t.self_sum(lambda n: n == "operator.DiscreteOperator.solve_load"),
        "operator.solve_calls": c.get("operator.solve_calls", 0),
        "operator.rhs_columns": c.get("operator.rhs_columns", 0),
        "kernel.kernel_set_s": t.outer_sum(lambda n: n == "kernel.kernel_set"),
        "kernel.dense_mb": c.get("kernel.dense_bytes", 0) / MIB,
        "cli.output_s": t.self_sum(lambda n: n.startswith("cli.run_")),
        "cli.output_mb": output_bytes / MIB,
        "cli.csv_rows": csv_rows,
        "domain.build_s": t.outer_sum(BUILD_SPANS.__contains__),
        "domain.builds": c.get("domain.builds", 0),
        "domain.nodes": c.get("domain.nodes", 0),
        "potential.sample_s": t.outer_sum(lambda n: n == "potential.sample"),
        "potential.weighted_l1_s": t.outer_sum(lambda n: n == "potential.weighted_l1"),
        "measure.load_vector_s": t.outer_sum(lambda n: n == "measure.load_vector"),
        "trace.s": t.outer_sum(lambda n: _layer(n) == "trace"),
        "config.load_s": t.outer_sum(lambda n: n == "config.load_config"),
        "tracer.spans": len(t.names),
        "traced_wall_s": result["wall_s"],
        "unattributed_s": result["wall_s"] - sum(t.self_time),
    })
    for check, span in CHECK_SPANS.items():
        m[f"verify.{check}_s"] = t.outer_sum(lambda n, s=span: n == s)
    return m
