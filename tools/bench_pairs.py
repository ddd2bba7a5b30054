"""Run the benchmark in two tracelab trees, pair by pair, and compare the end-to-end metrics.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N --seconds S [--seed K]

Each root is a checkout holding ``perfbench/run.py`` and ``src/tracelab``.
Pair i runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
in both trees, one after the other: the parent first in even pairs, the
change first in odd ones.  Each run's metrics are read from the JSON that
run.py writes to its own tree's ``perfbench/out``; nothing else under
``perfbench/`` is touched.

The script prints each pair's end-to-end metrics, then per metric the
medians of both sides, the change's wins (pairs in which it reads better,
ties counting for neither), the parent's interquartile range, and a
verdict, with the metric names, directions and bounds taken from the
change tree's ``BENCHMARK.json``:

- ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's IQR;
- ``worse``: the change's median is worse than the parent's by more than
  the bound, a fraction of the parent's median;
- ``unresolved``: the parent's IQR is wider than the bound, and not every
  run of the change reads better than every run of the parent;
- ``within bound``: anything else.

It exits 1 when a run fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive of the extremes; one value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], spec: list[dict]) -> list[dict]:
    """One row per end-to-end metric of ``spec`` (BENCHMARK.json's entries)
    over ``pairs`` of (parent, change) metric values, keyed by name."""
    rows = []
    for metric in spec:
        name, sign = metric["name"], (-1.0 if metric["better"] == "lower" else 1.0)
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        q1, parent_med, q3 = quartiles(parent)
        change_med = quartiles(change)[1]
        gain = sign * (change_med - parent_med)  # > 0 when the change reads better
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        iqr, bound = q3 - q1, metric["bound"] * abs(parent_med)
        if 10 * wins >= 9 * len(pairs) and gain > iqr:
            verdict = "gain"
        elif -gain > bound:
            verdict = "worse"
        elif iqr > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append(dict(name=name, parent_median=parent_med, change_median=change_med, wins=wins,
                         pairs=len(pairs), parent_iqr=iqr, verdict=verdict))
    return rows


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float] | None:
    """The end-to-end metrics of one benchmark run in ``root``, or None when it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    out = root / "perfbench" / "out" / f"{workload}-s{seed}-t0.json"
    if proc.returncode != 0 or not out.exists():
        print(f"run failed in {root} (exit {proc.returncode}):\n{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    record = json.loads(out.read_text())
    return {name: m["value"] for name, m in record["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in spec]
    pairs = []
    for i in range(args.pairs):
        order = [("parent", args.parent), ("change", args.change)][:: 1 if i % 2 == 0 else -1]
        got = {side: run_once(root, args.workload, args.seed, args.seconds) for side, root in order}
        if None in got.values():
            return 1
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i} ({order[0][0]} first): "
              + "  ".join(f"{n} {got['parent'][n]:.4g} -> {got['change'][n]:.4g}" for n in names), flush=True)
    for row in summarize(pairs, spec):
        print(f"{row['name']}: median {row['parent_median']:.4g} -> {row['change_median']:.4g}, "
              f"change wins {row['wins']}/{row['pairs']}, parent IQR {row['parent_iqr']:.3g}: {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
