"""Collect a result set: run workloads over several seeds, report spreads.

Usage (from the repository root)::

    python3 perfbench/collect.py --out a.jsonl [--seeds 10] [--first-seed 1]
        [--workload sweep-cold ...] [--trace 0|1] [--seconds N]

Each run is a fresh ``perfbench/run.py`` process; its result line is
appended to ``--out`` as ``{"workload", "seed", "trace", "result"}``.
Afterwards every metric's median, quartiles and spread — the distance
between the quartiles as a share of the median — are printed.  An
end-to-end metric whose spread is not below a third of its bound is
flagged ``WIDE``.  Compare two result sets with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> Dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_results(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: List[float]):
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def by_metric(records: List[Dict]) -> Dict:
    """(workload, metric) -> {seed: value}."""
    table: Dict = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            table.setdefault((rec["workload"], name), {})[rec["seed"]] = (
                m["value"]
            )
    return table


def report(records: List[Dict], bench: Dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = [r for r in records if not r["result"]["correct"]]
    print(f"{len(records)} runs, {len(failed)} with failed outputs")
    print(f"{'workload':12} {'metric':28} {'n':>3} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for (workload, name), values in sorted(by_metric(records).items()):
        vals = list(values.values())
        q1, med, q3 = quartiles(vals)
        sp = spread(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and sp >= bound / 3:
            flag = "WIDE"
        print(f"{workload:12} {name:28} {len(vals):3d} {q1:12.5g} {med:12.5g} "
              f"{q3:12.5g} {sp:7.2%} {'' if bound is None else bound:>6} "
              f"{flag}")


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    for workload in args.workload or names:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*bench["command"], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"no result", file=sys.stderr)
                return 1
            # a run whose outputs failed exits 1 but still counts: it is
            # kept so that compare.py can refuse the result set
            record = {"workload": workload, "seed": seed,
                      "trace": args.trace, "result": result}
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: failed {result['failed']}, "
                  + ", ".join(f"{k}={v['value']:.5g}"
                              for k, v in result["metrics"].items()),
                  flush=True)
    report(load_results(args.out), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
