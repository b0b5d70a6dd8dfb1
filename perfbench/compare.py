"""Compare mode: two ledgers of runs, one row per workload and metric.

Each ledger is the JSON-lines file ``run.py --out`` appends to.  For every
workload and metric the two sides' medians and quartiles are printed with a
verdict against the bound BENCHMARK.json fixes for that metric:

* ``worse`` — the second median is worse than the first by more than the
  bound (or, when either side spreads wider than the bound, every run of the
  second side is worse than every run of the first);
* ``better`` — the second side wins at least 90% of all cross pairs of runs
  and its median beats the first by more than the first side's own spread
  (distance between its quartiles, as a share of its median);
* ``unresolved`` — either side spreads wider than the bound and the runs
  overlap;
* ``unchanged`` — otherwise.

Per-layer metrics and the ungated details (service hit/miss percentiles,
failed fraction) are listed with their medians and quartiles only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

DETAILS = ("miss_p50_ms", "miss_p90_ms", "hit_p50_ms", "hit_p90_ms", "failed_frac")


def load(path) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """(workload, trace) -> metric -> values, from one ledger file."""
    table: Dict[Tuple[str, int], Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        row = table[(entry["workload"], entry["trace"])]
        for name, metric in entry["result"]["metrics"].items():
            row[name].append(float(metric["value"]))
        for name in DETAILS:
            if name in entry["details"]:
                row[name].append(float(entry["details"][name]))
    return table


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(before: Sequence[float], after: Sequence[float], lower: bool, bound: float) -> str:
    sign = 1.0 if lower else -1.0  # positive = worse
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / abs(base) if base else 0.0
    pairs = [(a, b) for a in before for b in after]
    wins = sum(sign * (b - a) < 0 for a, b in pairs) / len(pairs)
    losses = sum(sign * (b - a) > 0 for a, b in pairs) / len(pairs)
    if max(spread(before), spread(after)) > bound:
        if wins == 1.0:
            return "better"
        if losses == 1.0:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if wins >= 0.9 and -change > spread(before):
        return "better"
    return "unchanged"


def main(before_path, after_path, benchmark_path) -> int:
    spec = json.loads(Path(benchmark_path).read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    before, after = load(before_path), load(after_path)
    fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
    for key in sorted(set(before) & set(after)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(next(iter(before[key].values())))}"
              f" vs {len(next(iter(after[key].values())))} runs")
        for name in before[key]:
            if name not in after[key]:
                continue
            a, b = before[key][name], after[key][name]
            if name in gated:
                metric = gated[name]
                word = verdict(a, b, metric["better"] == "lower", metric["bound"])
            else:
                word = "-"
            print(f"  {name:24s} {fmt(quartiles(a)):>40s} -> {fmt(quartiles(b)):>40s}  {word}")
    return 0
