"""Compare two sets of benchmark records: ``run.py compare PARENT CHANGE``.

Each directory holds the JSON records that ``run.py --out DIR`` wrote,
ideally ten untraced runs per workload with distinct seeds.  For every
workload and end-to-end metric this prints each side's median and
quartiles, the fraction of pairs (matched by seed order) the change
wins, and a verdict, using the bounds in ``BENCHMARK.json``:

* ``improved``   over at least ten pairs, the change wins nine tenths
                 and its median beats the parent's by more than the
                 parent's interquartile spread;
* ``unresolved`` the parent's own spread is wider than the bound, and
                 not every change run beats every parent run;
* ``regressed``  the change's median is worse than the parent's by more
                 than the bound;
* ``unchanged``  otherwise.

Where a workload has several kinds of op (serve-mix: cache, table and
closed-form answers), it prints each kind's median p10 too, not gated.
It also flags a digest that differs between runs of the same workload
and seed, and any rise in the share of failed operations.  The exit
status is 1 when anything regressed or was flagged.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: A gain is claimed from at least this many pairs, never fewer.
MIN_PAIRS = 10


def load(directory: str) -> Dict[str, List[dict]]:
    """Untraced records by workload, each list sorted by seed."""
    records: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".obs.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            records.setdefault(record["workload"], []).append(record)
    for runs in records.values():
        runs.sort(key=lambda r: r["seed"])
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """Quartiles by linear interpolation between the runs; the default
    (exclusive) method extrapolates past the extremes of a few runs."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, fraction of pairs the change wins)``."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    won = wins / len(pairs) if pairs else 0.0
    p1, p_median, p3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gain = sign * (p_median - c_median)
    spread = (p3 - p1) / abs(p_median) if p_median else float("inf")
    if better == "lower":
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if len(pairs) >= MIN_PAIRS and won >= 0.9 and gain > (p3 - p1):
        return "improved", won
    if spread > bound and not every_run_better:
        return "unresolved", won
    if -gain > bound * abs(p_median):
        return "regressed", won
    return "unchanged", won


def print_kinds(workload: str, old: List[dict], new: List[dict]) -> None:
    """Each kind of op's median p10 on both sides, when there are several:
    which answer path moved ``op_p10_ms``.  Not gated."""
    sides = [[r["detail"].get("kinds", {}) for r in runs] for runs in (old, new)]
    kinds = sorted({kind for side in sides for run in side for kind in run})
    if len(kinds) < 2:
        return
    for kind in kinds:
        a, b = ([run[kind]["p10_ms"] for run in side if kind in run] for side in sides)
        if a and b:
            before, after = statistics.median(a), statistics.median(b)
            print(f"{workload:14s}   p10 of {kind:26s} {before:12.5g} ms -> "
                  f"{after:.5g} ms ({after / before - 1:+.1%}, not gated)")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT_DIR CHANGE_DIR")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    flagged = False
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s}  verdict")
    for workload in sorted(set(parent) | set(change)):
        old, new = parent.get(workload, []), change.get(workload, [])
        if not old or not new:
            print(f"{workload:14s} missing on one side")
            flagged = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in old]
            b = [r["metrics"][name]["value"] for r in new]
            result, won = verdict(a, b, metric["better"], metric["bound"])
            flagged |= result == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:14s} {name:12s} "
                  f"{qa[1]:12.5g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                  f"{qb[1]:12.5g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                  f"{won:5.2f}  {result}")
        print_kinds(workload, old, new)
        digests = {r["seed"]: r["digest"] for r in old}
        for record in new:
            expected = digests.get(record["seed"])
            if expected is not None and expected != record["digest"]:
                print(f"{workload:14s} DIGEST differs at seed {record['seed']}")
                flagged = True
        rates = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                 for runs in (old, new)]
        if rates[1] > rates[0]:
            print(f"{workload:14s} ERROR RATE rose {rates[0]:.4g} -> {rates[1]:.4g}")
            flagged = True
    return 1 if flagged else 0
