"""Host-speed calibration for the benchmark's timed metrics.

The benchmark shares a few cores of a host whose speed swings by up to
2x, from one second to the next and over minutes, as other tenants come
and go; an operation's wall time swings with it.  So between operations
the benchmark times a fixed reference computation that does not use the
repro package, and scales each wall time to a reference host speed::

    normalised = wall * REF_S / (reference time around the operation)

A change to the program moves the wall time but not the reference time,
so it moves the normalised time in full; a slow phase of the host moves
both and cancels.  The reference is the geometric mean of two kernels
whose slow-downs bracket the program's: a loop of closures over numpy
element loads and stores with a heap (the shape of the interpreter's
and the engine's hot paths, hit hardest by a busy neighbour) and a walk
over a large randomly linked object graph (cache misses, hit least).
On a 2-vCPU Xeon VM their geometric mean halved the spread of single
cold-sweep times and of 25-second medians; either kernel alone did
about as well as no calibration.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
import time
from typing import Callable, List, Optional

import numpy as np

clock = time.perf_counter

#: the reference time (s) of one :func:`sample` on a quiet 2-vCPU Xeon
#: VM; normalised times read as wall times at that speed
REF_S = 0.005
#: repetitions of each kernel per sample (the median is kept)
REPS = 5
#: closure-loop iterations and graph-walk steps per repetition
LOOP_ITERS = 3000
WALK_STEPS = 20000
#: nodes in the walked graph (about 20 MB of small objects)
WALK_NODES = 100_000


def _closure_loop() -> Callable[[int], float]:
    """An expression tree compiled to closures, evaluated over numpy
    element loads and stores, with a cost cell and a heap."""
    a = np.zeros(64)
    b = np.arange(64, dtype=float)
    acc = [0.0]

    def var(name):
        return lambda fr: fr[name]

    def lit(v):
        return lambda fr: v

    def add(x, y):
        def f(fr):
            acc[0] += 1.0
            return x(fr) + y(fr)
        return f

    def mul(x, y):
        def f(fr):
            acc[0] += 2.0
            return x(fr) * y(fr)
        return f

    def load(arr, ix):
        def f(fr):
            acc[0] += 1.0
            return arr[(ix(fr) % 64,)]
        return f

    rhs = add(mul(load(b, var("i")), lit(0.5)),
              load(a, add(var("i"), lit(1))))

    def loop(n: int) -> float:
        fr = {"i": 0}
        heap: List = []
        for i in range(n):
            fr["i"] = i
            a[(i % 64,)] = rhs(fr)
            if i & 7 == 0:
                heapq.heappush(heap, (acc[0], i))
        while heap:
            heapq.heappop(heap)
        return acc[0]

    return loop


class Calibrator:
    """Times the reference kernels; built once per process (the graph
    takes a fraction of a second)."""

    def __init__(self) -> None:
        self.loop = _closure_loop()
        rng = random.Random(0)
        order = list(range(WALK_NODES))
        rng.shuffle(order)
        self.nodes = [{"v": float(i), "n": 0} for i in range(WALK_NODES)]
        for i in range(WALK_NODES):
            self.nodes[order[i]]["n"] = order[(i + 1) % WALK_NODES]

    def _walk(self) -> float:
        nodes, i, s = self.nodes, 0, 0.0
        for _ in range(WALK_STEPS):
            node = nodes[i]
            s += node["v"]
            i = node["n"]
        return s

    def _median_time(self, fn: Callable[[], float]) -> float:
        times = []
        for _ in range(REPS):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return statistics.median(times)

    def sample(self) -> float:
        """Seconds of one reference computation at the host's current
        speed."""
        loop = self._median_time(lambda: self.loop(LOOP_ITERS))
        walk = self._median_time(self._walk)
        return math.sqrt(loop * walk)


_CALIBRATOR: Optional[Calibrator] = None


def sample() -> float:
    """One reference sample (s) from this process's calibrator, which is
    built on first use."""
    global _CALIBRATOR
    if _CALIBRATOR is None:
        _CALIBRATOR = Calibrator()
        _CALIBRATOR.sample()  # the first sample runs slow; drop it
    return _CALIBRATOR.sample()


def factor(before: float, after: float) -> float:
    """Scale from wall time to reference-speed time for an interval
    between two samples."""
    return REF_S / ((before + after) / 2)
