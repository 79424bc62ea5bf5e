"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` spends half the time
untraced and half under the span tracer, and prints the per-layer
metrics, including the tracing overhead; a layer the workload does not
exercise reads 0.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every operation's
output is checked against a reference; a mismatch, refusal or error
counts as failed, and a run with any failed operation exits 1 after
printing its result.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import statistics
import subprocess
import sys
import traceback
from typing import Dict, List, Tuple

import calib
from collect import load_benchmark
from workloads import (
    ROOT,
    SRC,
    Scale256,
    ServeMixed,
    SweepCold,
    clock,
    percentile,
    scratch_dir,
)

WORKLOADS = {w.name: w for w in (SweepCold, Scale256, ServeMixed)}
#: setup is timed this many times per run; the median is reported
SETUP_SAMPLES = 5
#: the layers that should dominate a serve-mixed cache hit
FRONT_END_LAYERS = ("lang.parse", "lang.unparse", "transform.pipeline",
                    "harness.expand")


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    bench = load_benchmark()
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def probe_setup(workload: str, seed: int) -> float:
    """Launch a fresh process that sets the workload up and reports ready;
    returns seconds from launch to ready."""
    t0 = clock()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--probe"],
        cwd=ROOT, stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline() if ready else b""
        elapsed = clock() - t0
        if line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return elapsed


def timed_setup(workload: str, seed: int) -> float:
    """Median of :data:`SETUP_SAMPLES` set-up probes, each scaled to the
    reference host speed by samples taken before and after it."""
    times = []
    before = calib.sample()
    for _ in range(SETUP_SAMPLES):
        elapsed = probe_setup(workload, seed)
        after = calib.sample()
        times.append(elapsed * calib.factor(before, after))
        before = after
    return statistics.median(times)


def probe(workload: str, seed: int) -> None:
    """The probe child: set up as a timed run would, say so, and exit."""
    w = WORKLOADS[workload](seed)
    if isinstance(w, ServeMixed):
        w.start()
        print("ready", flush=True)
        w.stop()
    else:
        print("ready", flush=True)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def timed_ops(w, seconds: float, tracer=None) -> Tuple[List[float], int]:
    """Run operations until ``seconds`` of them have passed (at least
    one); returns their times scaled to the reference host speed
    (:mod:`calib`) and the number that failed.  The reference
    computation is timed between the steps of an operation
    (``w.steps()``), and each step's wall time is scaled by the samples
    around it; each output is checked outside the timed region."""
    wall: List[float] = []
    normalised: List[float] = []
    failed = 0
    before = calib.sample()
    while not wall or sum(wall) < seconds:
        op_wall = op_normalised = 0.0
        try:
            for step in w.steps():
                t0 = clock()
                try:
                    if tracer is None:
                        step()
                    else:
                        with tracer.root("bench.op"):
                            step()
                finally:
                    elapsed = clock() - t0
                    after = calib.sample()
                    op_wall += elapsed
                    op_normalised += elapsed * calib.factor(before, after)
                    before = after
            w.check()
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            traceback.print_exc()
        wall.append(op_wall)
        normalised.append(op_normalised)
    print(f"{w.name}: {len(wall)} operations, wall p50 "
          f"{statistics.median(wall) * 1000:.1f} ms, at reference speed "
          f"{statistics.median(normalised) * 1000:.1f} ms")
    return normalised, failed


def report_split(spans, label: str, group: str = "") -> None:
    """Print each group's share of wall time per layer."""
    from tracer import split

    for name, layers in sorted(split(spans, group).items()):
        if group and not name:
            continue  # spans outside any group
        shares = sorted(layers.items(), key=lambda kv: -kv[1])
        print(f"{label}{' ' + name if name else ''} self-time split: "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in shares
                          if share >= 0.005))


def serve_latencies(records) -> Dict[str, float]:
    hits = [r[1] * 1000 for r in records if r[2] == "hit"]
    misses = [r[1] * 1000 for r in records if r[2] == "miss"]
    return {
        "serve.hit_p50_ms": percentile(hits, 50),
        "serve.hit_p90_ms": percentile(hits, 90),
        "serve.miss_p50_ms": percentile(misses, 50),
        "serve.miss_p90_ms": percentile(misses, 90),
        "serve.hit_share": len(hits) / max(len(records), 1),
    }


def run_serve(w: ServeMixed, seconds: float, trace: bool):
    from tracer import Tracer, layer_metrics, roots_of, self_times

    half = seconds / 2 if trace else seconds
    w.start()
    try:
        latencies, elapsed = w.drive(half)
    finally:
        w.stop()
    untraced = list(w.records)
    stats = w.status["stats"]
    mix = w.mix()
    print(f"serve-mixed: {len(untraced)} requests in {elapsed:.1f}s at "
          f"reference speed: "
          f"{mix['hit']} hits, {mix['miss']} misses, {mix['refused']} "
          f"refused; {stats['simulations']} simulations")
    print("serve-mixed: " + ", ".join(
        f"{k} {v:.4g}" for k, v in serve_latencies(untraced).items()))
    if not trace:
        metrics = {
            "op_p50_ms": statistics.median(latencies) * 1000,
            "ops_per_s": len(latencies) / elapsed,
            # before the output check, whose reference sweep is not the
            # system under test (the server and its pool are reaped)
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        spans_path = scratch_dir("spans-") + "/spans.json"
        w.start(spans=spans_path)
        try:
            _, traced_elapsed = w.drive(half)
        finally:
            w.stop()
        spans = Tracer.load(spans_path)
        traced = w.records[len(untraced):]
        metrics = layer_metrics(spans, len(traced))
        metrics.update(serve_latencies(untraced))
        self_t, roots = self_times(spans), roots_of(spans)
        front = sum(
            self_t[s.id] for s in spans
            if s.layer in FRONT_END_LAYERS
            and roots[s.id].attrs.get("kind") == "hit"
        )
        hit_wall = sum(r[1] for r in traced if r[2] == "hit")
        metrics["serve.hit_front_share"] = front / hit_wall if hit_wall else 0
        metrics["serve.dedup_ratio"] = (
            stats["simulations"] / max(stats["points_requested"], 1)
        )
        metrics["serve.refused"] = w.refused
        metrics["trace.overhead_ratio"] = (
            (len(untraced) / elapsed) / (len(traced) / traced_elapsed)
        )
        report_split(spans, "serve-mixed (server side)", group="kind")
        print(f"serve-mixed: front end is "
              f"{metrics['serve.hit_front_share']:.1%} of hit latency")
    failed = w.check() + w.refused
    return metrics, len(w.records), failed


def run_inprocess(w, seconds: float, trace: bool):
    from tracer import TRACER, layer_metrics

    if not trace:
        latencies, failed = timed_ops(w, seconds)
        metrics = {
            "op_p50_ms": statistics.median(latencies) * 1000,
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, len(latencies), failed
    plain, failed_plain = timed_ops(w, seconds / 2)
    TRACER.install()
    w.job_span = lambda job: TRACER.span("bench.job", job=job)
    traced, failed_traced = timed_ops(w, seconds / 2, tracer=TRACER)
    metrics = layer_metrics(TRACER.spans, len(traced))
    metrics.update(w.extra_metrics())
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain)
    )
    report_split(TRACER.spans, w.name)
    report_split(TRACER.spans, w.name, group="job")
    TRACER.dump(scratch_dir("spans-") + "/spans.json")
    return metrics, len(plain) + len(traced), failed_plain + failed_traced


def result_line(metrics: Dict[str, float], trace: bool, attempted: int,
                failed: int) -> str:
    """The final JSON line; every declared metric, and nothing else."""
    units = declared_metrics(trace)
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    values = dict.fromkeys(units, 0.0) if trace else {}
    values.update(metrics)
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"declared metrics not measured: {missing}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in sorted(values)
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)  # setup-time probe child
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe:
        probe(args.workload, args.seed)
        return 0

    metrics: Dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = timed_setup(args.workload, args.seed)
    w = WORKLOADS[args.workload](args.seed)
    run = run_serve if isinstance(w, ServeMixed) else run_inprocess
    measured, attempted, failed = run(w, args.seconds, bool(args.trace))
    metrics.update(measured)
    print(result_line(metrics, bool(args.trace), attempted, failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
