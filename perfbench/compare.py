"""Compare two result sets written by ``collect.py``.

Usage: ``python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl``

For each workload and metric it prints both sides' median and quartiles,
the change of the median, and a verdict:

* ``improved`` — the change wins at least nine tenths of the run pairs
  (paired by seed; ties count for neither) and the medians differ by
  more than the base's own quartile distance;
* ``worse`` — the change's median is worse than the base's by more than
  the metric's bound in ``BENCHMARK.json`` (per-layer metrics have no
  bound: worse means the mirror image of ``improved``);
* ``unresolved`` — either side's quartile distance, as a share of its
  median, is wider than the bound, and not every run of the change
  beats every run of the base;
* ``unchanged`` — otherwise.

A gain does not count when outputs are wrong: a workload where any run
of the change failed an operation (a failed output check, refusal or
error) gets the verdict ``failed`` on its ``outputs`` row.

The exit code is 1 when any workload is ``failed`` or any end-to-end
metric is ``worse`` or ``unresolved``, else 0.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from collect import by_metric, load_benchmark, load_results, quartiles


def pairs(base: Dict[int, float], change: Dict[int, float]):
    """Runs paired by seed where both sides have it, else by seed order."""
    common = sorted(set(base) & set(change))
    if common:
        return [(base[s], change[s]) for s in common]
    return list(zip((base[s] for s in sorted(base)),
                    (change[s] for s in sorted(change))))


def failures(records: List[Dict]) -> Dict[str, Tuple[int, int]]:
    """workload -> (runs with failed outputs, failed operations)."""
    out: Dict[str, Tuple[int, int]] = {}
    for rec in records:
        runs, ops = out.get(rec["workload"], (0, 0))
        result = rec["result"]
        out[rec["workload"]] = (runs + (not result["correct"]),
                                ops + result["failed"])
    return out


def verdict(base: List[float], change: List[float], paired, better: str,
            bound: Optional[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    if bound is not None:
        wide = max((b3 - b1) / bm if bm else 0.0,
                   (c3 - c1) / cm if cm else 0.0) > bound
        everywhere = all(sign * (c - b) > 0 for c in change for b in base)
        if wide and not everywhere:
            return "unresolved"
    wins = sum(1 for b, c in paired if sign * (c - b) > 0)
    losses = sum(1 for b, c in paired if sign * (c - b) < 0)
    separated = abs(cm - bm) > (b3 - b1)
    if wins >= 0.9 * len(paired) and separated and sign * (cm - bm) > 0:
        return "improved"
    if bound is not None:
        if bm and sign * (cm - bm) / bm < -bound:
            return "worse"
    elif losses >= 0.9 * len(paired) and separated:
        return "worse"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base_records, change_records = load_results(argv[0]), load_results(argv[1])
    base, change = by_metric(base_records), by_metric(change_records)
    bad = 0
    print(f"{'workload':12} {'metric':28} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'delta':>8}  verdict")
    base_failed, change_failed = failures(base_records), failures(change_records)
    for workload in sorted(set(base_failed) & set(change_failed)):
        b, c = base_failed[workload], change_failed[workload]
        v = "failed" if c[0] else "ok"
        bad += v == "failed"
        print(f"{workload:12} {'outputs (failed runs/ops)':28} "
              f"{'%d/%d' % b:>32} {'%d/%d' % c:>32} {'':>8}  {v}")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in spec:
            continue
        b, c = base[key], change[key]
        bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
        v = verdict(list(b.values()), list(c.values()), pairs(b, c),
                    spec[name]["better"], spec[name].get("bound"))
        if "bound" in spec[name] and v in ("worse", "unresolved"):
            bad += 1
        delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        print(f"{workload:12} {name:28} "
              f"{'/'.join(f'{x:.4g}' for x in bq):>32} "
              f"{'/'.join(f'{x:.4g}' for x in cq):>32} {delta:+8.1%}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
