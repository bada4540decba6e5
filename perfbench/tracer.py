"""Spans and counters around the layers of ``stlab``, installed from outside.

``install`` wraps every public function and method of each ``stlab`` module
and rebinds the wrapper under every name that held the original, because
``cli`` and ``verify`` bind functions with ``from .x import f``.  It also
wraps ``scipy.sparse.linalg.splu`` to count factorizations, again under
every name that held it (in ``stlab`` and in scipy's ``factorized``).
Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends; ``layers.py`` derives self times from them.  No program
code changes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "config", "domain", "fields", "measure", "potential",
          "operator", "trace", "kernel", "verify")
BUILDERS = ("build_interval", "build_rectangle", "build_disk")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.operators: set = set()

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # counters read where the work happens ---------------------------------

    def _on_splu(self, args, lu):
        self.counters["operator.factorizations"] += 1
        # SuperLU.nnz, not .L/.U: those copy the factors and inflate memory
        self.counters["operator.nnz_lu"] += int(lu.nnz)

    def _on_operator(self, args, _):
        op = args[0]
        self.counters["operator.assembled"] += 1
        key = hashlib.sha1(op.v_values.tobytes())
        key.update(repr((op.domain.kind, sorted(op.domain.resolution.items()))).encode())
        self.operators.add(key.hexdigest())

    def _on_solve(self, args, _):
        shape = np.shape(args[1])
        self.counters["operator.solve_calls"] += 1
        self.counters["operator.rhs_columns"] += 1 if len(shape) == 1 else int(shape[1])

    def _on_kernel_set(self, args, kset):
        nbytes = kset.kernels.nbytes
        if kset.reference is not None and kset.reference is not kset.kernels:
            nbytes += kset.reference.nbytes
        self.counters["kernel.dense_bytes"] += int(nbytes)

    def _on_build(self, args, domain):
        self.counters["domain.builds"] += 1
        self.counters["domain.nodes"] += int(domain.n_interior)

    def after_hook(self, name: str):
        if name == "operator.DiscreteOperator.__init__":
            return self._on_operator
        if name == "operator.DiscreteOperator.solve_load":
            return self._on_solve
        if name == "kernel.kernel_set":
            return self._on_kernel_set
        if name.startswith("domain.") and name.split(".")[-1] in BUILDERS:
            return self._on_build
        return None

    def install(self) -> None:
        """Wrap the layers of the imported ``stlab``."""
        import scipy.sparse.linalg as spla
        from scipy.sparse.linalg._dsolve import linsolve

        modules = [m for n, m in sys.modules.items() if n == "stlab" or n.startswith("stlab.")]
        _rebind(spla.splu, self.wrap("splu", spla.splu, self._on_splu),
                modules + [spla, linsolve])
        for layer in LAYERS:
            mod = sys.modules[f"stlab.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
                elif _wrappable(obj):
                    name = f"{layer}.{attr}"
                    _rebind(obj, self.wrap(name, obj, self.after_hook(name)), modules)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, meth in list(vars(cls).items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue  # generated field assignment, not a layer boundary
            elif attr.startswith("_"):
                continue
            if _wrappable(meth):
                name = f"{prefix}.{attr}"
                setattr(cls, attr, self.wrap(name, meth, self.after_hook(name)))

    def result(self) -> dict:
        counters = dict(self.counters)
        counters["operator.distinct"] = len(self.operators)
        return {"spans": self.spans, "counters": counters}


def _rebind(old, new, modules) -> None:
    """Replace ``old`` by ``new`` under every name that bound it in ``modules``."""
    for m in modules:
        for k, v in list(vars(m).items()):
            if v is old:
                setattr(m, k, new)


def _wrappable(obj) -> bool:
    # generators return before their body runs; their work belongs to the caller
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
