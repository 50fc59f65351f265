"""Time the cold fill of the solver's caches during one pass of a benchmark workload.

Run from the repository root, for example:

    python3 tools/cold_fill.py --workload sweep --seed 4242

The script runs the first items of a workload from ``perfbench/workloads.py``
(``--items``, default the workload's pass size) in its own fresh process
against the sources in ``src/``, so every cache starts cold, as in a
benchmark pass. It reads the benchmark's files and changes none of them.

Three layers are timed from outside, per miss:

* ``operator``: each ``_operator`` miss, the build of one (b, assignment)
  operator, timed by wrapping its ``__wrapped__`` in a fresh ``lru_cache``
  of the same size;
* ``adjugate``: each first read of an operator's ``adjugate``, timed by
  wrapping the ``cached_property``'s function;
* ``table``: each ``_printed_output_table`` miss, wrapped like ``operator``.

Hits stay in the caches' own code and are not timed. The last stdout line is
one JSON object: the pass time, the items run, and per layer the misses, the
time and its share of the pass, plus the three layers' total share. Times
are wall-clock and unscaled, so compare runs made on one machine at one time.
Stdlib only.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _Layer:
    """Misses and time of one cache layer."""

    def __init__(self):
        self.misses = 0
        self.seconds = 0.0

    def timed(self, func):
        @functools.wraps(func)
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return func(*args)
            finally:
                self.seconds += time.perf_counter() - start
                self.misses += 1
        return wrapper


def _install(equilibrium) -> dict[str, _Layer]:
    """Wrap the three cold-fill layers of ``equilibrium``; return their counters."""
    layers = {"operator": _Layer(), "adjugate": _Layer(), "table": _Layer()}
    for layer, name in (("operator", "_operator"), ("table", "_printed_output_table")):
        cached = getattr(equilibrium, name)
        rewrapped = functools.lru_cache(maxsize=cached.cache_info().maxsize)(
            layers[layer].timed(cached.__wrapped__))
        setattr(equilibrium, name, rewrapped)
    prop = vars(equilibrium._Operator)["adjugate"]
    prop.func = layers["adjugate"].timed(prop.func)
    return layers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("sweep", "states", "verify", "minimax"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--items", type=int, default=None,
                        help="items to run (default: the workload's pass size)")
    args = parser.parse_args()
    if args.items is not None and args.items < 1:
        parser.error("--items must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from triopoly import equilibrium

    layers = _install(equilibrium)
    work = workloads.workload(args.workload)
    items = work.pass_items if args.items is None else args.items
    inputs = work.inputs(random.Random(args.seed))
    elapsed, failed = 0.0, 0
    for _ in range(items):
        item = next(inputs)
        start = time.perf_counter()
        ok, _ = work.run(item)
        elapsed += time.perf_counter() - start
        failed += not ok

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "items": items,
        "failed": failed,
        "pass_ms": elapsed * 1000,
        "layers": {name: {"misses": layer.misses, "ms": layer.seconds * 1000,
                          "share": layer.seconds / elapsed}
                   for name, layer in layers.items()},
        "cold_fill_share": sum(layer.seconds for layer in layers.values()) / elapsed,
    }))


if __name__ == "__main__":
    main()
