"""Regenerate the output references under ``perfbench/refs/``.

Usage: ``python3 perfbench/make_refs.py [sweep_cold] [scale_256]``

References come from ``engine_mode="full"`` — per-rank interpretation,
not the replay engine the timed runs use under ``auto`` — with no cache,
so they are independent of the code paths being timed.  The 256-rank
full runs take minutes; run this only when a change is meant to alter
simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    REFS,
    SCALE_JOBS,
    SRC,
    run_record,
    scale_job,
    sweep_record,
    sweep_specs,
)


def write(name: str, data) -> None:
    REFS.mkdir(exist_ok=True)
    with open(REFS / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFS / name}.json")


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    from repro import Session

    targets = argv or ["sweep_cold", "scale_256"]
    session = Session(cache_dir=None)
    if "sweep_cold" in targets:
        write("sweep_cold",
              sweep_record(session.sweep(sweep_specs(0, engine_mode="full"))))
    if "scale_256" in targets:
        write("scale_256", {
            name: run_record(session.run(scale_job(name, "full")))
            for name in sorted(SCALE_JOBS)
        })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
