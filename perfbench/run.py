"""Benchmark of the triopoly package: end-to-end metrics and an outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (``workloads.py`` records why each exists): ``sweep``, ``states``,
``verify`` and ``minimax``. Each is a closed loop, one caller in one thread,
run against the sources in ``src/``; nothing is installed or built. A pass
runs a fixed list of items, drawn from ``--seed``, in a fresh process, so
caches start cold in every pass. The run repeats the pass until
``--seconds`` is spent, at least twice, and takes each item's median over
the passes.

Times are scaled to the core's nominal speed (``speed.py``): on a shared
machine other tenants slow everything down by up to about 1.8x for seconds
to minutes, which would otherwise swamp any change in the code. The raw
times are printed on stderr next to the scaled ones.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``items_per_s``: items over the sum of their times (one caller, so the
  inverse of the mean item time);
* ``item_p50_ms``, ``item_p90_ms``: median and 90th percentile item time;
* ``ok_ratio``: share of all items run whose outputs checked out and, where
  an item prints (``verify``), printed the same bytes in every pass;
* ``peak_rss_mb``: peak RSS of a pass process;
* ``setup_s``: median time, scaled the same way, of a fresh interpreter
  to finish ``import triopoly``, launched twice before each pass.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see ``tracer.py``), per item where
they are counts or times, the ``-X importtime`` self time of each package
module, and ``trace.overhead_ratio``: traced over untraced throughput.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Details go to stderr. The exit
code is not 0, and no result is printed, when the package sources are
missing or a pass process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

NAMES = ("sweep", "states", "verify", "minimax")
MODULES = ("exact", "market", "equilibrium", "verify", "cli")
MIN_ROUNDS = 2
SETUP_LAUNCHES_PER_ROUND = 2
IMPORTTIME_LAUNCHES = 5
# Upper bound on one pass process; the longest pass (one verify item) takes
# about 5 s.
PASS_TIMEOUT_S = 120


def _launch(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {' '.join(argv[1:3])} exited with {proc.returncode}")
    return proc


def setup_time(probe: SpeedProbe) -> float:
    """Wall time of a fresh interpreter running ``import triopoly``, scaled."""
    start = time.perf_counter()
    _launch([sys.executable, "-c", "import triopoly"], 60)
    end = time.perf_counter()
    return (end - start) * probe.scale(start, end)


def import_ms() -> dict[str, float]:
    """Median ``-X importtime`` self time of each package module, in ms."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_LAUNCHES):
        err = _launch([sys.executable, "-X", "importtime", "-c", "import triopoly"], 60).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("triopoly."):
                module = parts[2].strip().removeprefix("triopoly.")
                if module in samples:
                    samples[module].append(int(parts[0].split(":")[1]) / 1000)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def run_pass(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = _launch(argv, PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def repeat_passes(workload: str, seed: int, seconds: float, trace: int):
    """Rounds of passes until ``seconds`` is spent: untraced, then traced if asked.

    Returns the untraced passes, the traced ones and the set-up times.
    """
    _launch([sys.executable, "-c", "import triopoly"], 60)  # writes the bytecode cache
    untraced, traced, setup_times = [], [], []
    probe = SpeedProbe().start()
    start = time.perf_counter()
    while len(untraced) < MIN_ROUNDS or (
            time.perf_counter() - start) * (len(untraced) + 1) / len(untraced) <= seconds:
        if not trace:
            setup_times += [setup_time(probe) for _ in range(SETUP_LAUNCHES_PER_ROUND)]
        untraced.append(run_pass(workload, seed, 0))
        if trace:
            traced.append(run_pass(workload, seed, 1))
    probe.stop()
    print(f"{workload}: {len(untraced) + len(traced)} passes of "
          f"{len(untraced[0]['latencies'])} items", file=sys.stderr)
    return untraced, traced, setup_times


def item_times(passes: list[dict], key: str = "scaled") -> list[float]:
    """Each item's median time over the passes."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def failures(passes: list[dict]) -> int:
    """Items whose checks failed or whose output differs from the first pass's."""
    first = passes[0]["digests"]
    return sum(not ok or digest != first[i]
               for p in passes
               for i, (ok, digest) in enumerate(zip(p["ok"], p["digests"])))


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(passes: list[dict], setup_times: list[float], failed: int) -> dict:
    times = item_times(passes)
    raw = item_times(passes, "latencies")
    print(f"raw items_per_s {len(raw) / sum(raw):.6g}, item_p50_ms "
          f"{statistics.median(raw) * 1000:.6g}", file=sys.stderr)
    attempted = len(times) * len(passes)
    return {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1000, "ms"),
        "item_p90_ms": (p90(times) * 1000, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (max(p["peak_rss_kib"] for p in passes) / 1024, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    summary = merge([p["trace"] for p in traced])
    items = sum(len(p["latencies"]) for p in traced)
    metrics = {}
    for name, (calls, self_s, errors) in summary["layers"].items():
        metrics[f"{name}.calls"] = (calls / items, "count/item")
        metrics[f"{name}.self_ms"] = (self_s * 1000 / items, "ms/item")
        metrics[f"{name}.errors"] = (errors, "count")
    metrics["exact.coerce.calls"] = (summary["coerce_calls"] / items, "count/item")
    caches = summary["caches"]
    for name, info in caches.items():
        print(f"{workload}: cache {name}: {info}", file=sys.stderr)
    # The cache that misses most sets how often the solve path recomputes.
    used = [c for c in caches.values() if c["hits"] + c["misses"]]
    metrics["equilibrium.cache.hit_ratio"] = (
        min((c["hits"] / (c["hits"] + c["misses"]) for c in used), default=0.0), "ratio")
    metrics["equilibrium.cache.lookups"] = (
        sum(c["hits"] + c["misses"] for c in caches.values()) / items, "count/item")
    metrics["equilibrium.cache.entries"] = (sum(c["entries"] for c in caches.values()), "count")
    metrics["equilibrium.cache.maxsize"] = (
        min((c["maxsize"] for c in caches.values() if c["maxsize"]), default=0), "count")
    solve = summary["solve"]
    metrics["equilibrium.solve.repeat_key_share"] = (
        _share(solve["repeat_key"], solve["calls"]), "ratio")
    metrics["equilibrium.solve.repeat_b_share"] = (
        _share(solve["repeat_b"], solve["calls"]), "ratio")
    metrics["equilibrium.solve.distinct_keys"] = (solve["distinct_keys"], "count")
    metrics["verify.suite.checked"] = (summary["suite_checked"] / items, "count/item")
    for module, ms in import_ms().items():
        metrics[f"{module}.import_ms"] = (ms, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(item_times(untraced)) / sum(item_times(traced)), "ratio")
    metrics["trace.items"] = (items, "count")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "triopoly" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'triopoly'}")

    untraced, traced, setup_times = repeat_passes(args.workload, args.seed, args.seconds,
                                                  args.trace)
    passes = untraced + traced
    failed = failures(passes)
    if args.trace:
        metrics = per_layer(args.workload, untraced, traced)
    else:
        metrics = end_to_end(untraced, setup_times, failed)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8} {name:38} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
