#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py --output`` appends, one per run.
Every row shows both sides' median, quartiles and run count and a
verdict from the metric's bound in ``BENCHMARK.json``:

* ``unresolved`` - either side's spread (quartile distance / median)
  is wider than the bound, unless every change run reads better than
  every parent run;
* ``worse`` - the change's median is worse than the parent's by more
  than the bound;
* ``ok`` - otherwise.

Per-layer metrics have no bound and get ``-``.  With at least ten
pairs (runs of both sides with the same workload and seed, run
alternately) the ``gain`` column applies the win-rate rule: the change
wins at least nine tenths of the pairs, ties counting for neither, and
the medians differ by more than the parent's quartile distance.
Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from percentiles import quartiles

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _values(records: Sequence[Dict[str, Any]], workload: str, metric: str
            ) -> Dict[int, List[float]]:
    """Values of one metric by seed."""
    by_seed: Dict[int, List[float]] = {}
    for record in records:
        if record["workload"] == workload and metric in record["metrics"]:
            by_seed.setdefault(record["seed"], []).append(
                record["metrics"][metric]["value"])
    return by_seed


def _better(a: float, b: float, better: str) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if better == "lower" else b > a


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """``worse``, ``ok`` or ``unresolved`` (``-`` without a bound)."""
    if bound is None:
        return "-"
    q1a, med_a, q3a = quartiles(parent)
    q1b, med_b, q3b = quartiles(change)
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    if all(_better(a, b, better) for a in parent for b in change):
        return "ok"
    if spread > bound:
        return "unresolved"
    worse_by = (med_b - med_a) if better == "lower" else (med_a - med_b)
    return "worse" if med_a and worse_by / abs(med_a) > bound else "ok"


def win_rate(pairs: Sequence[Tuple[float, float]], better: str
             ) -> Tuple[int, int]:
    """(change wins, pairs); ties count for neither side."""
    return sum(1 for a, b in pairs if _better(a, b, better)), len(pairs)


def gain(parent: Sequence[float], change: Sequence[float],
         pairs: Sequence[Tuple[float, float]], better: str) -> str:
    """``yes``/``no`` under the win-rate rule, ``-`` below ten pairs."""
    if len(pairs) < MIN_PAIRS:
        return "-"
    wins, total = win_rate(pairs, better)
    q1a, med_a, q3a = quartiles(parent)
    med_b = statistics.median(change)
    apart = abs(med_b - med_a) > (q3a - q1a)
    return "yes" if wins >= WIN_SHARE * total and apart \
        and _better(med_a, med_b, better) else "no"


def rows(parent: List[Dict[str, Any]], change: List[Dict[str, Any]],
         spec: Dict[str, Any]) -> List[List[str]]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    metrics = spec["end_to_end"] + spec["per_layer"]
    workloads = [w["name"] for w in spec["workloads"]]
    table = []
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a_by_seed = _values(parent, workload, name)
            b_by_seed = _values(change, workload, name)
            a = [v for vs in a_by_seed.values() for v in vs]
            b = [v for vs in b_by_seed.values() for v in vs]
            if not a or not b:
                continue
            pairs = [(x, y) for seed in sorted(set(a_by_seed) & set(b_by_seed))
                     for x, y in zip(a_by_seed[seed], b_by_seed[seed])]
            q1a, med_a, q3a = quartiles(a)
            q1b, med_b, q3b = quartiles(b)
            change_pct = (f"{100 * (med_b - med_a) / abs(med_a):+.1f}%"
                          if med_a else "-")
            wins, total = win_rate(pairs, metric["better"])
            table.append([
                workload, name,
                f"{med_a:.4g} [{q1a:.4g}, {q3a:.4g}] n={len(a)}",
                f"{med_b:.4g} [{q1b:.4g}, {q3b:.4g}] n={len(b)}",
                change_pct, f"{wins}/{total}",
                gain(a, b, pairs, metric["better"]),
                verdict(a, b, metric["better"], bounds.get(name)),
            ])
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="records of the parent commit")
    parser.add_argument("change", help="records of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = rows(load(args.parent), load(args.change), spec)
    header = ["workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "change", "wins", "gain", "verdict"]
    widths = [max(len(str(row[i])) for row in [header] + table)
              for i in range(len(header))]
    for row in [header] + table:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "worse" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
