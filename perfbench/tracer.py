"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps repro's public layer functions from outside ``src/``:
it rebinds each function in every ``repro.*`` module that imported it,
so the program's own code is unchanged and an untraced run executes
none of this.  Each call becomes a span (layer, start, end, parent);
spans stay in memory and are written out when the run ends.

The interpreter is the one layer that is not a function call: the
engine resumes one generator per rank millions of times.  Those
resumptions are timed by a thin generator proxy and folded into a
single ``interp.full`` child span per ``Engine.run``, instead of one
span per resumption.  The proxy's own cost per resumption is measured
once on an empty generator (:func:`proxy_cost`) and moved out of both
``interp.full`` and the engine's self time into a ``trace.proxy`` span,
so ``runtime.engine`` is the engine's own time.

Simulations that a serve process ships to its process pool come back
with the worker's spans attached to the returned run (see
:func:`traced_execute_job`); :meth:`Tracer.adopt` grafts them under the
dispatching span.  ``time.perf_counter`` is system-wide monotonic on
Linux, so worker spans share the parent's timeline.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: layer name -> (module, attribute[, class attribute]) of the call it wraps
LAYERS = {
    "lang.parse": ("repro.lang.parser", "parse"),
    "lang.unparse": ("repro.lang.unparser", "unparse"),
    "transform.pipeline": ("repro.transform.pipeline", "Pipeline", "run"),
    "harness.expand": ("repro.harness.sweep", "expand_spec"),
    "harness.fingerprint": ("repro.interp.runner", "job_fingerprint"),
    "harness.cache_get": ("repro.harness.sweep", "SweepCache", "get"),
    "harness.cache_put": ("repro.harness.sweep", "SweepCache", "put"),
    "harness.verify": ("repro.verify", "compare_runs"),
    "interp.record": ("repro.interp.replay", "record_trace"),
    "runtime.engine": ("repro.runtime.simulator", "Engine", "run"),
}


class Span:
    __slots__ = ("id", "parent", "layer", "start", "end", "attrs")

    def __init__(self, id, parent, layer, start, end=None, attrs=None):
        self.id = id
        self.parent = parent
        self.layer = layer
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.parent, self.layer, self.start, self.end,
                self.attrs]

    @classmethod
    def from_list(cls, data: list) -> "Span":
        return cls(*data)


class _TimedGenerator:
    """Proxy for one rank's interpreter generator: times every resumption
    into ``acc[0]`` and counts them in ``acc[1]``."""

    __slots__ = ("_gen", "_acc")

    def __init__(self, gen, acc: List[float]) -> None:
        self._gen = gen
        self._acc = acc

    def send(self, value):
        t0 = clock()
        try:
            return self._gen.send(value)
        finally:
            acc = self._acc
            acc[0] += clock() - t0
            acc[1] += 1

    def __next__(self):
        return self.send(None)

    def __iter__(self):
        return self

    def throw(self, *args):
        return self._gen.throw(*args)

    def close(self) -> None:
        self._gen.close()


def proxy_cost(resumptions: int = 20000,
               repeats: int = 7) -> Tuple[float, float]:
    """Seconds the proxy adds to one resumption, as (inside its timer,
    total): the least of ``repeats`` timings of ``resumptions`` sends to
    an empty generator, proxied against direct."""

    def empty():
        while True:
            yield

    def timed(gen):
        send = gen.send
        send(None)
        t0 = clock()
        for _ in range(resumptions):
            send(None)
        return (clock() - t0) / resumptions

    best = None
    for _ in range(repeats):
        direct = timed(empty())
        acc = [0.0, 0]
        proxied = timed(_TimedGenerator(empty(), acc))
        timer = acc[0] / acc[1]
        if best is None or proxied - direct < best[1]:
            best = (max(timer - direct, 0.0), max(proxied - direct, 0.0))
    return best


class Tracer:
    """Collects spans; :meth:`install` wraps the layers in :data:`LAYERS`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: the process that owns the spans; a pool worker forked from it
        #: ships its spans back with each result instead
        self.owner = os.getpid()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.installed = False
        #: :func:`proxy_cost`, measured when the tracer is installed
        self.proxy_cost = (0.0, 0.0)

    # ---------------------------------------------------------- spans

    def _new_id(self) -> str:
        return f"{os.getpid()}-{next(self._ids)}"

    @contextlib.contextmanager
    def span(self, layer: str, **attrs: Any):
        parent = self._current.get()
        s = Span(self._new_id(), parent.id if parent else None, layer,
                 clock(), attrs=attrs)
        token = self._current.set(s)
        try:
            yield s
        finally:
            s.end = clock()
            self._current.reset(token)
            self.spans.append(s)

    @contextlib.contextmanager
    def root(self, layer: str, **attrs: Any):
        """A span with no parent, whatever span is current."""
        token = self._current.set(None)
        try:
            with self.span(layer, **attrs) as s:
                yield s
        finally:
            self._current.reset(token)

    def adopt(self, spans: List[list], parent: Span) -> None:
        """Graft another process's spans under ``parent``."""
        for data in spans:
            s = Span.from_list(data)
            if s.parent is None:
                s.parent = parent.id
            self.spans.append(s)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_list() for s in self.spans], fh)

    @staticmethod
    def load(path: str) -> List[Span]:
        with open(path, "r", encoding="utf-8") as fh:
            return [Span.from_list(d) for d in json.load(fh)]

    # -------------------------------------------------------- wrapping

    def _wrap(self, fn: Callable, layer: str,
              after: Optional[Callable] = None) -> Callable:
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(layer) as s:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    s.attrs["error"] = type(exc).__name__
                    raise
                if after is not None:
                    after(s, args, result)
                return result

        return wrapper

    @staticmethod
    def _rebind(original: Callable, replacement: Callable) -> None:
        """Point every ``repro.*`` module binding of ``original`` at
        ``replacement`` (modules import layer functions by name)."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every layer call; idempotent."""
        if self.installed:
            return
        import importlib

        from repro.runtime.simulator import Engine

        self.proxy_cost = proxy_cost()
        after = {
            "harness.cache_get": _after_cache_get,
            "runtime.engine": _after_engine_run,
        }
        for layer, target in LAYERS.items():
            module = importlib.import_module(target[0])
            if len(target) == 3:
                cls = getattr(module, target[1])
                original = getattr(cls, target[2])
                setattr(cls, target[2],
                        self._wrap(original, layer, after.get(layer)))
            else:
                original = getattr(module, target[1])
                self._rebind(
                    original, self._wrap(original, layer, after.get(layer))
                )

        engine_init = Engine.__init__

        @functools.wraps(engine_init)
        def init(engine, programs, *args, **kwargs):
            acc = [0.0, 0]
            programs = [
                _TimedGenerator(g, acc) if _is_interpreter(g) else g
                for g in programs
            ]
            engine._perfbench_gen_s = acc
            engine_init(engine, programs, *args, **kwargs)

        Engine.__init__ = init

        import repro.interp.runner as runner

        global _ORIGINAL_EXECUTE_JOB
        _ORIGINAL_EXECUTE_JOB = runner.execute_job
        self._rebind(runner.execute_job, traced_execute_job)
        self.installed = True


def _is_interpreter(gen) -> bool:
    code = getattr(gen, "gi_code", None)
    return code is not None and code.co_name == "run_collecting"


def _after_cache_get(span: Span, args, result) -> None:
    span.attrs["hit"] = result is not None


def _after_engine_run(span: Span, args, result) -> None:
    engine = args[0]
    span.attrs["events"] = result.ops_processed
    span.attrs["messages"] = sum(s.messages_sent for s in result.stats)
    gen_s, resumptions = getattr(engine, "_perfbench_gen_s", (0.0, 0))
    if resumptions:
        inside, total = TRACER.proxy_cost
        gen_s = max(gen_s - resumptions * inside, 0.0)
        start = span.start
        for layer, seconds in (("interp.full", gen_s),
                               ("trace.proxy", resumptions * total)):
            TRACER.spans.append(
                Span(TRACER._new_id(), span.id, layer, start, start + seconds)
            )
            start += seconds


#: the process-wide tracer (pool workers inherit it through fork)
TRACER = Tracer()
_ORIGINAL_EXECUTE_JOB: Optional[Callable] = None


def traced_execute_job(job):
    """``execute_job`` as an ``interp.job`` span.  In a pool worker the
    worker's spans ride back to the dispatcher on the returned run."""
    if os.getpid() == TRACER.owner:
        with TRACER.span("interp.job"):
            return _ORIGINAL_EXECUTE_JOB(job)
    # forked worker: drop the parent's spans, keep only this job's
    TRACER.spans = []
    with TRACER.root("interp.job"):
        run = _ORIGINAL_EXECUTE_JOB(job)
    run._perfbench_spans = [s.to_list() for s in TRACER.spans]
    TRACER.spans = []
    return run


traced_execute_job.__module__ = "repro.interp.runner"
traced_execute_job.__qualname__ = "execute_job"


# ------------------------------------------------------------ roll-up


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: Dict[str, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def roots_of(spans: List[Span]) -> Dict[str, Span]:
    """Span id -> the root span it descends from."""
    by_id = {s.id: s for s in spans}
    roots: Dict[str, Span] = {}
    for s in spans:
        top = s
        while top.parent in by_id:
            top = by_id[top.parent]
        roots[s.id] = top
    return roots


def layer_metrics(spans: List[Span], ops: int) -> Dict[str, float]:
    """Per-layer totals per operation (times in seconds, counts as counts)
    plus the layer ratios, from one traced pass of ``ops`` operations."""
    self_t = self_times(spans)
    sums: Dict[str, float] = {}
    for s in spans:
        sums[s.layer] = sums.get(s.layer, 0.0) + self_t[s.id]

    def count(layer: str) -> int:
        return sum(1 for s in spans if s.layer == layer)

    records = [s for s in spans if s.layer == "interp.record"]
    replays = sum(1 for s in records if "error" not in s.attrs)
    fallbacks = sum(1 for s in records if s.attrs.get("error") == "SymmetryError")
    gets = [s for s in spans if s.layer == "harness.cache_get"]
    engines = [s for s in spans if s.layer == "runtime.engine"]
    events = sum(s.attrs.get("events", 0) for s in engines)
    engine_wall = sum(s.duration for s in engines)
    ops = max(ops, 1)
    out = {
        "interp.full_s": sums.get("interp.full", 0.0) / ops,
        "interp.record_s": sums.get("interp.record", 0.0) / ops,
        "interp.job_s": sums.get("interp.job", 0.0) / ops,
        "interp.replay_jobs": replays / ops,
        "interp.fallbacks": fallbacks / ops,
        "interp.fallback_wasted_s": sum(
            s.duration for s in records if "error" in s.attrs
        ) / ops,
        "interp.replay_ratio": (
            replays / len(records) if records else 0.0
        ),
        "runtime.engine_s": sums.get("runtime.engine", 0.0) / ops,
        "trace.proxy_s": sums.get("trace.proxy", 0.0) / ops,
        "runtime.events": events / ops,
        "runtime.events_per_s": events / engine_wall if engine_wall else 0.0,
        "runtime.messages": sum(
            s.attrs.get("messages", 0) for s in engines
        ) / ops,
        "lang.parse_s": sums.get("lang.parse", 0.0) / ops,
        "lang.parse_calls": count("lang.parse") / ops,
        "lang.unparse_s": sums.get("lang.unparse", 0.0) / ops,
        "transform.pipeline_s": sums.get("transform.pipeline", 0.0) / ops,
        "transform.runs": count("transform.pipeline") / ops,
        "harness.expand_s": sums.get("harness.expand", 0.0) / ops,
        "harness.fingerprint_s": sums.get("harness.fingerprint", 0.0) / ops,
        "harness.fingerprints": count("harness.fingerprint") / ops,
        "harness.cache_get_s": sums.get("harness.cache_get", 0.0) / ops,
        "harness.cache_hit_ratio": (
            sum(1 for s in gets if s.attrs.get("hit")) / len(gets)
            if gets else 0.0
        ),
        "harness.cache_put_s": sums.get("harness.cache_put", 0.0) / ops,
        "harness.verify_s": sums.get("harness.verify", 0.0) / ops,
        "api.pool_dispatch_s": sums.get("api.pool_dispatch", 0.0) / ops,
        "bench.other_s": sum(
            t for layer, t in sums.items()
            if layer.startswith("bench.") or layer == "serve.request"
        ) / ops,
    }
    return out


def split(spans: List[Span], group: str = "") -> Dict[str, Dict[str, float]]:
    """Group -> layer -> share of the group's wall time spent in the layer
    (self time).  Spans group by the ``group`` attribute of the nearest
    ancestor span that has one (``""`` = everything in one group)."""
    by_id = {s.id: s for s in spans}
    self_t = self_times(spans)

    def group_of(s: Span) -> str:
        while s is not None:
            if group in s.attrs:
                return str(s.attrs[group])
            s = by_id.get(s.parent)
        return ""

    totals: Dict[str, float] = {}
    shares: Dict[str, Dict[str, float]] = {}
    for s in spans:
        g = group_of(s) if group else ""
        layers = shares.setdefault(g, {})
        layers[s.layer] = layers.get(s.layer, 0.0) + self_t[s.id]
        totals[g] = totals.get(g, 0.0) + self_t[s.id]
    return {
        g: {k: v / totals[g] for k, v in layers.items()}
        for g, layers in shares.items() if totals[g]
    }
