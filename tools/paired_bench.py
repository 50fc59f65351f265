"""Paired benchmark runs of two commits, by the protocol in README's Testing section.

Run from the repository root, for example:

    python3 tools/paired_bench.py --base HEAD --workload verify --seed 4242 \
        --seconds 25 --pairs 10 --out BENCH.json

Each side is a ``git archive`` extract of a commit-ish into its own
directory. ``--change`` defaults to the working tree, taken with ``git
stash create`` (tracked files only: ``git add`` new files first), or HEAD
when nothing has changed. Both sides are extracts, never copies of the
checkout, since ``peak_rss_mb`` reads differently in a copy of the same
files.

The pairs run ``perfbench/run.py --trace 0`` of each extract, one process at
a time, alternating which side goes first. Every run is printed as it ends.
Then, for each end-to-end metric of the base's ``BENCHMARK.json``: each
side's median and quartiles, the pairs the change won (ties count for
neither) and the verdict. A gain holds when the change wins at least 9 in 10
pairs and its median beats the base's by more than the base's interquartile
range; a loss is a median worse than the base's by more than the metric's
bound. Otherwise a metric whose runs spread wider than its bound is
unresolved, not unchanged, unless every change run beats every base run.
Every record is appended to ``--out``, a JSON list with one entry per
invocation. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, dest: Path) -> str:
    """Extract ``rev`` (a commit-ish) into ``dest`` with ``git archive``; return its commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = dest.parent / f"{dest.name}.tar"
    git("archive", "--format=tar", "-o", str(archive), commit)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its last stdout line, parsed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), statistics' default (exclusive) method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric: ``base[i]`` and ``change[i]`` are pair i.

    ``better`` is "higher" or "lower"; ``bound`` the relative worsening the
    benchmark allows. "gain" needs at least 9 in 10 pairs won and a median
    gain above the base's interquartile range; "worse" is a median worse than
    the base's by more than ``bound``. Failing both, "unresolved" is a
    spread, the wider side's range of runs over the base's median, above
    ``bound``, unless every change run beats every base run; anything else
    is "no claim".
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change runs")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b_q, c_q = quartiles(base), quartiles(change)
    gain = sign * (c_q[1] - b_q[1])
    spread = max(max(base) - min(base), max(change) - min(change))
    ahead = min(sign * c for c in change) > max(sign * b for b in base)
    if 10 * wins >= 9 * len(base) and gain > b_q[2] - b_q[0]:
        outcome = "gain"
    elif -gain > bound * abs(b_q[1]):
        outcome = "worse"
    elif spread > bound * abs(b_q[1]) and not ahead:
        outcome = "unresolved"
    else:
        outcome = "no claim"
    return {"pairs": len(base), "wins": wins, "base_quartiles": list(b_q),
            "change_quartiles": list(c_q), "base_iqr": b_q[2] - b_q[0],
            "spread": spread / abs(b_q[1]) if b_q[1] else None,
            "median_change": (c_q[1] - b_q[1]) / b_q[1] if b_q[1] else None,
            "verdict": outcome}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="commit-ish of the parent side")
    parser.add_argument("--change", default=None,
                        help="commit-ish of the change side (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, help="JSON file the records are appended to")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    change_rev = args.change or git("stash", "create") or "HEAD"
    with tempfile.TemporaryDirectory(prefix="paired_bench_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        commits = {"base": extract(args.base, trees["base"]),
                   "change": extract(change_rev, trees["change"])}
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        runs = []
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                record = run_once(trees[side], args.workload, args.seed, args.seconds)
                runs.append({"pair": pair, "side": side, "first": side == order[0], **record})
                values = {k: v["value"] for k, v in record["metrics"].items()}
                print(f"pair {pair} {side:6} " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                      flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        series = {side: [r["metrics"][name]["value"] for r in runs if r["side"] == side]
                  for side in ("base", "change")}
        summary[name] = verdict(series["base"], series["change"], metric["better"],
                                metric["bound"])
        s = summary[name]
        print(f"{args.workload} {name}: base q1/med/q3 "
              + "/".join(f"{v:.6g}" for v in s["base_quartiles"]) + ", change "
              + "/".join(f"{v:.6g}" for v in s["change_quartiles"])
              + f", won {s['wins']} of {s['pairs']}: {s['verdict']}")

    out = Path(args.out)
    records = json.loads(out.read_text()) if out.exists() else []
    records.append({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "base": {"rev": args.base, "commit": commits["base"]},
                    "change": {"rev": args.change or "working tree",
                               "commit": commits["change"]},
                    "runs": runs, "summary": summary})
    out.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
