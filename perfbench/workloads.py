"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Every workload issues *operations* and times each one:

* ``sweep-cold`` — one operation is a serial, cold ``Session.sweep``
  (verify on) of Figure 1's axes on ``indirect`` plus ``fft`` and
  ``nodeloop``, into an empty cache directory;
* ``scale-256`` — one operation is a round of two 256-rank jobs under
  ``engine_mode="auto"``: the recorder-heavy ``nodeloop`` (bruck
  alltoall) and the engine-heavy ``halo`` (default allgather);
* ``serve-mixed`` — one operation is one single-point sweep request to a
  ``compuniformer serve --jobs 2`` process, sent by a closed loop of two
  connections; most requests repeat an earlier point (cache reads), the
  rest are new points (cache writes plus a pool simulation).

The seed only reorders work (spec and job order) or draws the serve
request stream; it never changes how much work an operation does, so
runs with different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
SCRATCH = ROOT / ".perfbench"

clock = time.perf_counter


class CheckFailed(Exception):
    """An output did not match its reference."""


def scratch_dir(prefix: str) -> str:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def digest(obj: Any) -> str:
    """sha-256 of a canonical JSON rendering (numpy scalars as Python)."""
    blob = json.dumps(
        obj, sort_keys=True, separators=(",", ":"),
        default=lambda o: o.item() if hasattr(o, "item") else repr(o),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_refs(name: str) -> Dict[str, Any]:
    with open(REFS / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ sweep-cold

#: app -> app_kwargs, sized so one cold sweep takes about 1.5 s on a
#: 2-vCPU Xeon VM: many short operations make a steadier median
SWEEP_APPS = {
    "indirect": {"n": 8, "stages": 6},
    "fft": {"n": 16, "steps": 1},
    "nodeloop": {"n": 16, "steps": 1},
}


def sweep_specs(seed: int, engine_mode: Optional[str] = None):
    """Figure 1's axes (original/prepush x mpich/mpich-gm, cpu_scale 8,
    8 ranks) for each app; the seed permutes spec and network order."""
    from repro.harness.figures import MPICH_GM, MPICH_P4
    from repro.harness.sweep import SweepSpec

    rng = random.Random(seed)
    apps = sorted(SWEEP_APPS)
    rng.shuffle(apps)
    specs = []
    for app in apps:
        networks = [MPICH_P4, MPICH_GM]
        rng.shuffle(networks)
        specs.append(
            SweepSpec(
                name=f"sweep-cold-{app}",
                app=app,
                app_kwargs=SWEEP_APPS[app],
                nranks=(8,),
                variants=("original", "prepush"),
                networks=tuple(networks),
                cpu_scales=(8.0,),
                verify=True,
                engine_mode=engine_mode,
            )
        )
    return specs


def sweep_key(axes: Dict[str, Any]) -> str:
    return "|".join(
        str(axes[k]) for k in ("app", "variant", "network", "nranks",
                               "cpu_scale")
    )


def sweep_record(result) -> Dict[str, Dict[str, Any]]:
    """Reference form of a sweep result: virtual time + measurement digest
    per point."""
    return {
        sweep_key(run.axes): {
            "time": run.measurement.time,
            "digest": digest(run.measurement.to_dict()),
        }
        for run in result.runs
    }


def check_sweep(result, refs: Dict[str, Any]) -> None:
    got = sweep_record(result)
    if set(got) != set(refs):
        raise CheckFailed(f"sweep points {sorted(got)} != {sorted(refs)}")
    if result.stats.verify_checks != len(SWEEP_APPS):
        raise CheckFailed(
            f"{result.stats.verify_checks} equivalence checks, expected "
            f"{len(SWEEP_APPS)}"
        )
    for key, ref in refs.items():
        if got[key] != ref:
            raise CheckFailed(f"{key}: {got[key]} != reference {ref}")


def prepush_speedups(record: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Geometric mean over apps of original/prepush virtual time, per stack."""
    out = {}
    for network, metric in (("mpich-gm", "gm"), ("mpich", "mpich")):
        logs = []
        for app in SWEEP_APPS:
            orig = record[f"{app}|original|{network}|8|8.0"]["time"]
            pre = record[f"{app}|prepush|{network}|8|8.0"]["time"]
            logs.append(math.log(orig / pre))
        out[metric] = math.exp(sum(logs) / len(logs))
    return out


class SweepCold:
    name = "sweep-cold"

    def __init__(self, seed: int) -> None:
        from repro import Session

        self.refs = load_refs("sweep_cold")
        self.specs = sweep_specs(seed)
        self.session_cls = Session
        self.last = None

    def steps(self):
        """One operation: a single step."""
        return [self._sweep]

    def _sweep(self) -> None:
        cache = scratch_dir("sweep-")
        try:
            session = self.session_cls(cache_dir=cache)
            try:
                self.last = session.sweep(self.specs)
            finally:
                session.close()
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def check(self) -> None:
        check_sweep(self.last, self.refs)

    def extra_metrics(self) -> Dict[str, float]:
        sp = prepush_speedups(sweep_record(self.last))
        return {
            "sim.prepush_speedup_gm": sp["gm"],
            "sim.prepush_speedup_mpich": sp["mpich"],
        }


# ------------------------------------------------------------- scale-256

SCALE_RANKS = 256
#: job name -> (app, app_kwargs, collective)
SCALE_JOBS = {
    "nodeloop": ("nodeloop", {"n": 256, "steps": 1, "stages": 0},
                 {"alltoall": "bruck"}),
    "halo": ("halo", {"steps": 1}, None),
}


def scale_job(name: str, engine_mode: str):
    from repro import Job
    from repro.apps import build_app

    app, kwargs, collective = SCALE_JOBS[name]
    spec = build_app(app, nranks=SCALE_RANKS, **kwargs)
    return Job(
        program=spec.source,
        nranks=SCALE_RANKS,
        network="gmnet",
        collective=collective,
        engine_mode=engine_mode,
    )


def run_record(run) -> Dict[str, Any]:
    """Reference form of a ClusterRun: digests of the SimResult with the
    per-rank outputs, and of every rank's final arrays."""
    res = run.result
    arrays = hashlib.sha256()
    for rank_arrays in run.arrays:
        for name in sorted(rank_arrays):
            arr = rank_arrays[name]
            arrays.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            arrays.update(arr.tobytes(order="F"))
    return {
        "time": res.time,
        "result": digest(
            {
                "time": res.time,
                "rank_times": res.rank_times,
                "stats": [vars(s) for s in res.stats],
                "warnings": res.warnings,
                "ops_processed": res.ops_processed,
                "outputs": run.outputs,
            }
        ),
        "arrays": arrays.hexdigest(),
    }


def check_run(name: str, run, refs: Dict[str, Any]) -> None:
    got = run_record(run)
    ref = refs[name]
    if run.data_approximate:  # arrays are representatives, not contents
        got["arrays"] = ref["arrays"]
    if got != ref:
        raise CheckFailed(f"{name}: {got} != reference {ref}")


class Scale256:
    name = "scale-256"

    def __init__(self, seed: int) -> None:
        from repro import Session

        self.refs = load_refs("scale_256")
        order = sorted(SCALE_JOBS)
        random.Random(seed).shuffle(order)
        self.jobs = [(n, scale_job(n, "auto")) for n in order]
        self.session = Session()
        self.last: List[Tuple[str, Any]] = []
        #: job name -> context manager around the job (a span when traced)
        self.job_span = lambda name: contextlib.nullcontext()

    def steps(self):
        """One operation, a round: one step per job."""
        self.last = []
        return [functools.partial(self._run, name, job)
                for name, job in self.jobs]

    def _run(self, name: str, job) -> None:
        with self.job_span(name):
            self.last.append((name, self.session.run(job)))

    def check(self) -> None:
        for name, run in self.last:
            check_run(name, run, self.refs)
        self.last = []

    def extra_metrics(self) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------- serve-mixed

SERVE_NETWORKS = ("gmnet", "mpich", "rdma-100g", "tcp-10g", "gm-2rail",
                  "gm-congested", "gm-rendezvous")
SERVE_SCALES = (1.0, 2.0, 4.0, 8.0)
SERVE_RANKS = (2, 4, 8)
#: app -> (app_kwargs, variants the service accepts for it).  The
#: collective-only apps cg and halo carry no alltoall site, so any
#: transforming variant is refused; they only pair with ``original``.
SERVE_APPS = {
    "fft": ({"n": 16, "steps": 1},
            ("original", "prepush", "no-interchange", "tile-only")),
    "nodeloop": ({"n": 16, "steps": 1},
                 ("original", "prepush", "no-interchange", "tile-only")),
    "stencil": ({"n": 16, "steps": 1},
                ("original", "prepush", "no-interchange", "tile-only")),
    "indirect": ({"n": 8},
                 ("original", "prepush", "no-interchange", "tile-only")),
    "cg": ({"n": 64, "steps": 2}, ("original",)),
    "halo": ({"n": 64, "steps": 2}, ("original",)),
}
#: one request in this many is a new point; the rest repeat earlier ones
SERVE_NEW_EVERY = 4
#: repeats avoid the newest points, which may still be in flight on the
#: other connection (a repeat of those is coalesced, not a cache read)
SERVE_REPEAT_GAP = 2
SERVE_CONNECTIONS = 2
#: the closed loop pauses this often for a calibration sample
SERVE_SLICE_S = 2.0
#: seconds of requests sent, checked but not timed, before timing starts
SERVE_WARMUP_S = 1.0


def serve_universe() -> List[Dict[str, Any]]:
    """Every point the request generator may draw, in a fixed order."""
    points = []
    for app, (kwargs, variants) in SERVE_APPS.items():
        for variant in variants:
            for nranks in SERVE_RANKS:
                for network in SERVE_NETWORKS:
                    for scale in SERVE_SCALES:
                        points.append(
                            {
                                "app": app,
                                "app_kwargs": kwargs,
                                "variant": variant,
                                "nranks": nranks,
                                "network": network,
                                "cpu_scale": scale,
                            }
                        )
    return points


SERVE_POINTS = serve_universe()


def serve_strata() -> Dict[Tuple[str, str, int], List[int]]:
    """Universe indices grouped by (app, variant, rank count), the axes
    that set what a new point costs; every group has the same size."""
    strata: Dict[Tuple[str, str, int], List[int]] = {}
    for index, p in enumerate(SERVE_POINTS):
        key = (p["app"], p["variant"], p["nranks"])
        strata.setdefault(key, []).append(index)
    return strata


def serve_stream(seed: int) -> Iterator[Tuple[int, bool]]:
    """Seeded request stream: (universe index, is_new) per request.

    Each block of :data:`SERVE_NEW_EVERY` requests holds exactly one new
    point at a seeded position; the others repeat a seeded earlier point,
    so the hit/miss mix is the same for every seed.  New points come in
    rounds that draw one point of every :func:`serve_strata` group in a
    seeded order, so the new points of every seed cost about the same.
    The stream ends when the universe has no new point left.
    """
    rng = random.Random(seed)
    strata = list(serve_strata().values())
    for members in strata:
        rng.shuffle(members)
    order: List[int] = []
    for _ in range(len(strata[0])):
        rng.shuffle(strata)
        order.extend(members.pop() for members in strata)
    fresh = iter(order)
    issued: List[int] = []
    while True:
        slot = rng.randrange(SERVE_NEW_EVERY)
        for i in range(SERVE_NEW_EVERY):
            old = issued[:-SERVE_REPEAT_GAP]
            if i == slot or not old:
                index = next(fresh, None)
                if index is None:
                    return
                issued.append(index)
                yield index, True
            else:
                yield rng.choice(old), False


def serve_spec(index: int):
    from repro.harness.sweep import SweepSpec

    p = SERVE_POINTS[index]
    return SweepSpec.single(
        name=f"point-{index}",
        app=p["app"],
        app_kwargs=p["app_kwargs"],
        variant=p["variant"],
        nranks=p["nranks"],
        network=p["network"],
        cpu_scale=p["cpu_scale"],
        verify=False,
    )


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class ServerProcess:
    """One ``compuniformer serve --jobs 2`` child on an ephemeral port,
    optionally under the tracer (``spans`` = where it writes them)."""

    def __init__(self, spans: Optional[str] = None) -> None:
        self.cache = scratch_dir("serve-")
        args = ["serve", "--port", "0", "--jobs", "2",
                "--cache-dir", self.cache]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), spans, *args]
        self.log = open(os.path.join(self.cache, "server.log"), "wb")
        self.port: Optional[int] = None
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.port = self._await_port(timeout=60.0)

    def _await_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Drain-shutdown the server (kill it if it hangs) and reap it."""
        from repro.errors import ReproError
        from repro.serve import ServeClient

        try:
            if self.proc.poll() is None:
                try:
                    if self.port is None:
                        raise OSError("server never reported its port")
                    with ServeClient(port=self.port, timeout=30) as c:
                        c.shutdown()
                except (OSError, ReproError):
                    self.proc.terminate()
                self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.log.close()
            shutil.rmtree(self.cache, ignore_errors=True)


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int) -> None:
        from repro.serve import ServeClient

        self.seed = seed
        self.client_cls = ServeClient
        self.server: Optional[ServerProcess] = None
        self.clients: List[Any] = []
        #: (universe index, latency s, kind, measurements) per request
        self.records: List[Tuple[int, float, str, Any]] = []
        self.refused = 0
        self.status: Dict[str, Any] = {}

    def start(self, spans: Optional[str] = None) -> None:
        self.server = ServerProcess(spans)
        self.clients = [
            self.client_cls(port=self.server.port, timeout=120)
            for _ in range(SERVE_CONNECTIONS)
        ]

    def stop(self) -> None:
        for c in self.clients:
            c.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def drive(self, seconds: float) -> Tuple[List[float], float]:
        """Closed loop over a fresh stream until ``seconds`` pass after a
        warm-up, paused every :data:`SERVE_SLICE_S` for a calibration
        sample while the server is idle; returns this pass's latencies
        and its elapsed time, both scaled to the reference host speed
        (:mod:`calib`)."""
        stream = serve_stream(self.seed)
        specs: Dict[int, Dict[str, Any]] = {}
        latencies: List[float] = []
        elapsed = spent = 0.0
        # untimed warm-up: the server's pool starts on the first misses
        _, _, exhausted = self._slice(stream, specs, SERVE_WARMUP_S)
        before = calib.sample()
        while spent < seconds and not exhausted:
            records, took, exhausted = self._slice(
                stream, specs, min(SERVE_SLICE_S, seconds - spent))
            after = calib.sample()
            scale = calib.factor(before, after)
            latencies.extend(r[1] * scale for r in records)
            elapsed += took * scale
            spent += took
            before = after
        self.status = self.clients[0].status()
        return latencies, elapsed

    def _slice(self, stream, specs, seconds: float):
        """Both connections in a closed loop for ``seconds``; returns the
        slice's records, its wall time and whether the stream ended."""
        from repro.errors import ReproError

        lock = threading.Lock()
        records: List[Tuple[int, float, str, Any]] = []
        refused = [0]
        exhausted = [False]
        deadline = clock() + seconds
        errors: List[BaseException] = []

        def loop(client) -> None:
            try:
                while clock() < deadline:
                    with lock:
                        item = next(stream, None)
                    if item is None:
                        exhausted[0] = True  # every point was used
                        return
                    index = item[0]
                    spec = specs.get(index) or specs.setdefault(
                        index, serve_spec(index).to_dict())
                    t0 = clock()
                    try:
                        result = client.sweep(spec)
                    except ReproError:
                        refused[0] += 1
                        records.append((index, clock() - t0, "refused", None))
                        continue
                    latency = clock() - t0
                    runs = result["runs"]
                    kind = "hit" if all(r["cached"] for r in runs) else "miss"
                    records.append(
                        (index, latency, kind,
                         [r["measurement"] for r in runs])
                    )
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)

        start = clock()
        threads = [
            threading.Thread(target=loop, args=(c,)) for c in self.clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        took = clock() - start
        if errors:
            raise errors[0]
        self.records.extend(records)
        self.refused += refused[0]
        return records, took, exhausted[0]

    def check(self) -> int:
        """Compare every response with an in-process ``Session.sweep`` of
        the same spec; returns the number of mismatched responses."""
        from repro import Session

        indices = sorted({r[0] for r in self.records if r[3] is not None})
        session = Session(cache_dir=None, jobs=2)
        try:
            result = session.sweep([serve_spec(i) for i in indices])
        finally:
            session.close()
        reference = {
            int(run.axes["spec"].split("-")[1]): [run.measurement.to_dict()]
            for run in result.runs
        }
        return sum(
            1 for index, _lat, _kind, got in self.records
            if got is not None and got != reference[index]
        )

    def mix(self) -> Dict[str, int]:
        kinds = [r[2] for r in self.records]
        return {k: kinds.count(k) for k in ("hit", "miss", "refused")}


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, inclusive method)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
