"""Self-tests for the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``;
they are not part of the repository's tier-1 test paths.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np
import pytest

from workloads import (
    ROOT,
    SERVE_APPS,
    SERVE_NETWORKS,
    SERVE_NEW_EVERY,
    SERVE_POINTS,
    SERVE_RANKS,
    SRC,
    CheckFailed,
    ServeMixed,
    check_run,
    check_sweep,
    run_record,
    serve_spec,
    serve_strata,
    serve_stream,
    serve_universe,
    sweep_record,
    sweep_specs,
)

sys.path.insert(0, str(SRC))

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_serve_stream_is_deterministic_per_seed():
    first = list(itertools.islice(serve_stream(7), 400))
    assert first == list(itertools.islice(serve_stream(7), 400))
    assert first != list(itertools.islice(serve_stream(8), 400))


def test_serve_stream_mix_and_acceptance():
    universe = serve_universe()
    items = list(itertools.islice(serve_stream(3), 400))
    new = [index for index, is_new in items if is_new]
    assert len(set(new)) == len(new)  # a new point is never repeated as new
    # after the first block (which has nothing to repeat yet) every block
    # of SERVE_NEW_EVERY requests holds exactly one new point
    blocks = [items[i:i + SERVE_NEW_EVERY]
              for i in range(SERVE_NEW_EVERY, len(items), SERVE_NEW_EVERY)]
    assert all(sum(is_new for _, is_new in b) == 1 for b in blocks)
    seen = set()
    for index, is_new in items:
        assert is_new or index in seen
        seen.add(index)
        point = universe[index]
        assert point["variant"] in SERVE_APPS[point["app"]][1]
    # every round of new points holds one point of each cost group
    strata = serve_strata()
    group = {i: key for key, members in strata.items() for i in members}
    assert {group[i] for i in new[:len(strata)]} == set(strata)
    assert all(len(m) == len(strata[next(iter(strata))])
               for m in strata.values())
    # cg and halo carry no alltoall site: only `original` may reach them
    assert all(p["variant"] == "original" for p in universe
               if p["app"] in ("cg", "halo"))


def test_sweep_specs_are_deterministic_and_seed_only_reorders():
    a, b = sweep_specs(1), sweep_specs(1)
    assert [s.to_dict() for s in a] == [s.to_dict() for s in b]
    other = sweep_specs(2)
    key = lambda specs: sorted(  # noqa: E731
        json.dumps(dict(s.to_dict(), networks=sorted(s.to_dict()["networks"])),
                   sort_keys=True)
        for s in specs
    )
    assert key(a) == key(other)


def test_result_line_emits_exactly_the_declared_metrics():
    from run import result_line

    e2e = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
    line = json.loads(result_line(e2e, False, 3, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(e2e)
    with pytest.raises(KeyError):
        result_line(dict(e2e, bogus=1.0), False, 3, 0)
    with pytest.raises(KeyError):
        result_line({"setup_s": 1.0}, False, 3, 0)


def test_calibration_cancels_a_uniform_slowdown():
    import calib

    ref = calib.sample()
    assert ref > 0
    # a host twice as slow doubles both the wall and the reference time
    assert calib.factor(2 * ref, 2 * ref) * 2.0 == pytest.approx(
        calib.factor(ref, ref) * 1.0)
    assert calib.factor(ref, ref) == pytest.approx(calib.REF_S / ref)


def test_traced_run_prints_only_declared_metrics():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
         "--seed", "5", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["interp.full_s"]["value"] > 0


# ------------------------------------------------ perturbed results fail


@dataclass
class _Measurement:
    time: float
    messages: int

    def to_dict(self) -> Dict[str, Any]:
        return {"time": self.time, "messages": self.messages}


@dataclass
class _Run:
    axes: Dict[str, Any]
    measurement: _Measurement


@dataclass
class _Stats:
    verify_checks: int = 3


@dataclass
class _Result:
    runs: List[_Run]
    stats: _Stats = field(default_factory=_Stats)


def _sweep_result(time: float) -> _Result:
    runs = [
        _Run({"app": app, "variant": v, "network": "mpich-gm", "nranks": 8,
              "cpu_scale": 8.0}, _Measurement(time, 10))
        for app in ("fft", "indirect") for v in ("original", "prepush")
    ]
    return _Result(runs)


def test_perturbed_sweep_result_fails_the_check():
    refs = sweep_record(_sweep_result(0.25))
    check_sweep(_sweep_result(0.25), refs)
    perturbed = _sweep_result(0.25)
    perturbed.runs[2].measurement.time = 0.25000000000000006
    with pytest.raises(CheckFailed):
        check_sweep(perturbed, refs)
    with pytest.raises(CheckFailed):  # a skipped equivalence check fails too
        check_sweep(_Result(_sweep_result(0.25).runs, _Stats(2)), refs)


def _cluster_run(value: int):
    from repro.interp.runner import ClusterRun
    from repro.runtime.events import RankStats, SimResult

    result = SimResult(time=1.5, rank_times=[1.5, 1.25],
                       stats=[RankStats(), RankStats()], ops_processed=9)
    outputs = [[("sum", value)], [("sum", value)]]
    arrays = [{"a": np.arange(4)}, {"a": np.arange(4) + value}]
    return ClusterRun(result=result, outputs=outputs, arrays=arrays)


def test_perturbed_cluster_run_fails_the_check():
    refs = {"job": run_record(_cluster_run(1))}
    check_run("job", _cluster_run(1), refs)
    with pytest.raises(CheckFailed):
        check_run("job", _cluster_run(2), refs)  # outputs and arrays differ
    slower = _cluster_run(1)
    slower.result.rank_times[1] = 1.3
    with pytest.raises(CheckFailed):
        check_run("job", slower, refs)


def test_perturbed_serve_response_fails_the_check():
    from repro import Session

    index = 0
    reference = Session(cache_dir=None).sweep(serve_spec(index))
    good = reference.runs[0].measurement.to_dict()
    bad = dict(good, time=good["time"] * (1 + 1e-12))
    w = ServeMixed(seed=1)
    w.records = [(index, 0.01, "miss", [good]), (index, 0.01, "hit", [good])]
    assert w.check() == 0
    w.records.append((index, 0.01, "hit", [bad]))
    assert w.check() == 1


def test_every_app_variant_and_network_is_accepted():
    from repro import Session

    wanted = {}
    for index, p in enumerate(SERVE_POINTS):
        wanted.setdefault((p["app"], p["variant"]), index)
        wanted.setdefault(p["network"], index)
        wanted.setdefault((p["app"], p["nranks"]), index)
    result = Session(cache_dir=None).sweep(
        [serve_spec(i) for i in sorted(set(wanted.values()))])
    assert {r.axes["nranks"] for r in result.runs} == set(SERVE_RANKS)
    assert {r.axes["network"] for r in result.runs} >= {
        # the registry reports aliases under their canonical names
        {"gmnet": "mpich-gm"}.get(n, n) for n in SERVE_NETWORKS}


def test_compare_verdicts():
    from compare import verdict

    base = [100.0 + i for i in range(10)]

    def judge(change, bound=0.25, better="lower"):
        return verdict(base, change, list(zip(base, change)), better, bound)

    assert judge([80.0 + i for i in range(10)]) == "improved"
    assert judge([130.0 + i for i in range(10)]) == "worse"
    assert judge([101.0 + i for i in range(10)]) == "unchanged"
    assert judge([60.0, 200.0] * 5) == "unresolved"  # spread wider than bound
    assert judge([130.0 + i for i in range(10)], better="higher") == "improved"
    assert judge([130.0 + i for i in range(10)], bound=None) == "worse"


def test_compare_refuses_a_change_with_failed_outputs(tmp_path, capsys):
    from compare import main

    def result_set(name, failed, ms=100.0):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            for seed in range(1, 11):
                metrics = {"op_p50_ms": {"value": ms - seed, "unit": "ms"}}
                result = {"correct": not failed, "attempted": 5,
                          "failed": failed, "metrics": metrics}
                fh.write(json.dumps({"workload": "sweep-cold", "seed": seed,
                                     "trace": 0, "result": result}) + "\n")
        return str(path)

    base = result_set("base.jsonl", 0)
    assert main([base, result_set("same.jsonl", 0)]) == 0
    # twice as fast is no gain when outputs fail
    assert main([base, result_set("broken.jsonl", 1, ms=50.0)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[-2].split()[-1] == "failed"
    assert rows[-1].split()[-1] == "improved"
