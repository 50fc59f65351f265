"""Per-layer tracing of the triopoly package from outside it.

``Tracer.install()`` replaces every binding of the layer functions listed in
``LAYERS`` with a timing wrapper: module globals of every ``triopoly.*``
module (so calls inside a module and calls between modules are both seen)
and attributes of every class defined there (so methods are seen however
they are reached). The program's source is not touched.

Each layer accumulates calls, self time and errors. Self time is a span's
duration minus the time of the wrapped spans it encloses, so the layer self
times of one process add up to the traced part of its wall time. Spans are
aggregated as they close rather than kept one by one: the exact-form layer
alone sees hundreds of spans per work item.

Besides the layers, the tracer counts rational coercions, records which
``solve_equilibrium`` keys repeat (the input sharing a cache could exploit),
sums the draws the property suite checked, and reads ``cache_info()`` of
every ``lru_cache`` found in ``triopoly.equilibrium``.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, module, qualified name). A name the package no longer defines is
# skipped, so the trace keeps working while the program is refactored.
LAYERS = (
    *(("exact.forms", "exact", f"{cls}.{method}")
      for cls in ("AffineForm", "QuadraticForm")
      for method in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__neg__", "__mul__", "__rmul__", "evaluate", "gradient", "slice")),
    ("exact.linear_solve", "exact", "solve_linear"),
    ("exact.linear_solve", "exact", "_eliminate"),
    ("market.resolve", "market", "resolve_market"),
    ("market.resolve", "market", "MarketState.from_outputs"),
    ("market.resolve", "market", "inverse_demand"),
    ("market.resolve", "market", "direct_demand"),
    ("market.payoff", "market", "payoff_vector"),
    ("equilibrium.solve", "equilibrium", "solve_equilibrium"),
    ("equilibrium.closed_form", "equilibrium", "closed_form_outputs"),
    ("equilibrium.payoff_quadratic", "equilibrium", "build_payoff_quadratic"),
    ("verify.scan", "verify", "grid_minimax_pair"),
    ("verify.minimax", "verify", "minimax_check"),
    ("verify.suite", "verify", "property_suite"),
    ("verify.equivalence", "verify", "check_equivalence"),
    ("cli.run", "cli", "run_cli"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

# Counted, not timed: they run thousands of times per item inside other layers.
COERCIONS = (("exact", "as_rational"), ("exact", "rational_vector"))


def _lookup(module, qualname):
    """The plain function bound at ``module.qualname``, or None if there is none."""
    owner = module
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    value = vars(owner).get(name) if owner is not None else None
    if isinstance(value, classmethod):
        value = value.__func__
    return value if callable(value) else None


class Tracer:
    """Layer statistics of one process; ``install()`` starts collecting them."""

    def __init__(self):
        self.layers = {name: [0, 0.0, 0] for name in LAYER_NAMES}  # calls, self_s, errors
        self.coerce_calls = 0
        self.solve = {"calls": 0, "repeat_key": 0, "repeat_b": 0}
        self.suite_checked = 0
        self._stack = []  # per open span: time spent in wrapped children
        self._solve_keys = set()
        self._solve_b_keys = set()

    def install(self):
        # Imported here, not at the top: run.py uses merge() without the package.
        import triopoly.cli  # noqa: F401  (loads every triopoly.* module)
        from triopoly.market import as_assignment

        self._as_assignment = as_assignment
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "triopoly" or name.startswith("triopoly.")}
        wrappers = {}
        for layer, module, qualname in LAYERS:
            fn = _lookup(modules.get(f"triopoly.{module}"), qualname)
            if fn is not None and fn not in wrappers:
                wrappers[fn] = self._span(layer, fn)
        for module, name in COERCIONS:
            fn = _lookup(modules.get(f"triopoly.{module}"), name)
            if fn is not None:
                wrappers[fn] = self._count(fn)
        self._rebind(modules.values(), wrappers)

    def _rebind(self, modules, wrappers):
        classes = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
                elif isinstance(value, type) and value.__module__.startswith("triopoly"):
                    classes[id(value)] = value
        for cls in classes.values():
            for name, value in list(vars(cls).items()):
                if isinstance(value, classmethod) and value.__func__ in wrappers:
                    setattr(cls, name, classmethod(wrappers[value.__func__]))
                elif callable(value) and value in wrappers:
                    setattr(cls, name, wrappers[value])

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.coerce_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, layer, fn):
        stats = self.layers[layer]
        stack = self._stack
        before = self._observe_solve if layer == "equilibrium.solve" else None
        after = self._observe_suite if layer == "verify.suite" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result)
            return result
        return span

    def _observe_solve(self, params, assignment):
        asg = self._as_assignment(assignment)
        self.solve["calls"] += 1
        for keys, key, counter in ((self._solve_keys, (params, asg), "repeat_key"),
                                   (self._solve_b_keys, (params.b, asg), "repeat_b")):
            if key in keys:
                self.solve[counter] += 1
            else:
                keys.add(key)

    def _observe_suite(self, report):
        self.suite_checked += sum(p.checked for p in report.properties)

    def summary(self) -> dict:
        """Plain-data totals of this process, mergeable with :func:`merge`."""
        caches = {}
        for name, value in vars(sys.modules["triopoly.equilibrium"]).items():
            if callable(getattr(value, "cache_info", None)):
                info = value.cache_info()
                caches[name] = {"hits": info.hits, "misses": info.misses,
                                "entries": info.currsize, "maxsize": info.maxsize or 0}
        return {
            "layers": {name: list(stats) for name, stats in self.layers.items()},
            "coerce_calls": self.coerce_calls,
            "solve": {**self.solve, "distinct_keys": len(self._solve_keys)},
            "suite_checked": self.suite_checked,
            "caches": caches,
        }


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several processes.

    Counts and times add up. Working-set sizes (distinct solve keys, cache
    entries) are per process, so the largest one is kept.
    """
    total = {
        "layers": {name: [0, 0.0, 0] for name in LAYER_NAMES},
        "coerce_calls": 0,
        "solve": {"calls": 0, "repeat_key": 0, "repeat_b": 0, "distinct_keys": 0},
        "suite_checked": 0,
        "caches": {},
    }
    for s in summaries:
        for name, stats in s["layers"].items():
            total["layers"][name] = [a + b for a, b in zip(total["layers"][name], stats)]
        total["coerce_calls"] += s["coerce_calls"]
        total["suite_checked"] += s["suite_checked"]
        for key in ("calls", "repeat_key", "repeat_b"):
            total["solve"][key] += s["solve"][key]
        total["solve"]["distinct_keys"] = max(total["solve"]["distinct_keys"],
                                              s["solve"]["distinct_keys"])
        for name, info in s["caches"].items():
            into = total["caches"].setdefault(name, {**info, "hits": 0, "misses": 0})
            into["hits"] += info["hits"]
            into["misses"] += info["misses"]
            into["entries"] = max(into["entries"], info["entries"])
    return total
