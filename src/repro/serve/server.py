"""The asyncio sweep service (DESIGN.md §11).

:class:`SweepServer` puts a job server in front of the
:class:`~repro.api.Session` façade so the reproduction behaves as shared
infrastructure rather than a per-process convenience: many concurrent
clients submit sweep/compare/verify requests as JSON
(:mod:`repro.serve.protocol`), the server expands and fingerprints their
points, **coalesces** concurrent identical work so each fingerprint is
simulated at most once cluster-wide, shards the live simulations across
the session's persistent process pool, and streams per-point progress
events back to each subscriber.

Deduplication happens at three layers, cheapest first:

1. the content-addressed :class:`~repro.harness.sweep.SweepCache` —
   previously simulated fingerprints are served without any work;
2. an in-process map of in-flight fingerprints to futures — a request
   arriving while an identical point simulates *subscribes* to the
   running simulation instead of starting its own;
3. the cache's cross-process claim markers
   (:meth:`~repro.harness.sweep.SweepCache.claim`) — any other process
   sharing the cache directory (a CLI sweep, a tune, another server)
   that claimed an entry first is waited for instead of duplicated.

Layers 1 and 3 are the resolution core every sweep shares
(:mod:`repro.harness.sweep`); this module adds what is asynchronous:
the in-flight map, admission control, event streaming and a non-blocking
peer wait.  Measurement points and §4 verifications are resolved alike.

Backpressure is admission control at expansion time: a sweep whose
expanded point count would push the server past ``max_pending_points``
is refused with a structured :class:`~repro.errors.OverloadError`
before any simulation starts, so the queue can never grow without
bound.  :meth:`SweepServer.shutdown` with ``drain=True`` stops
accepting work, lets every in-flight request finish and stream its
terminal event, then releases the executor and (when the server created
it) the session.

:class:`ThreadedServer` runs the whole service on a background thread
with its own event loop — how the benchmarks, the tests, and any
synchronous embedder host a server in-process.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api.context import UNSET, CompareRequest, VerifyRequest
from ..api.session import Session
from ..apps import build_app
from ..errors import OverloadError, ReproError, RequestError
from ..harness.sweep import (
    CLAIM_STALE_AFTER,
    WAIT_FOR_PEER,
    SweepResult,
    SweepSpec,
    assemble_result,
    entry_slot,
    expand_specs,
    member_source,
    resolve_entry,
)
from ..interp.runner import ClusterJob, execute_job
from ..runtime.simulator import ENGINE_VERSION
from .protocol import (
    PROTOCOL_VERSION,
    MAX_MESSAGE_BYTES,
    ServeRequest,
    decode_message,
    encode_message,
    error_event,
    event,
    parse_request,
)

__all__ = ["ServeStats", "SweepServer", "ThreadedServer"]


@dataclasses.dataclass
class ServeStats:
    """Lifetime accounting of one server (the ``status`` verb payload).

    ``dedup_ratio`` — measurement simulations actually run divided by
    sweep points requested — is the service's headline number: 1.0
    means every requested point cost a simulation; anything below means
    the cache, the in-flight coalescing, or a peer's claim absorbed the
    difference.
    """

    requests: int = 0
    sweeps: int = 0
    compares: int = 0
    verifies: int = 0
    tunes: int = 0
    errors: int = 0
    rejected: int = 0
    points_requested: int = 0
    simulations: int = 0
    verify_simulations: int = 0
    cache_hits: int = 0
    peer_served: int = 0
    coalesced: int = 0
    verify_checks: int = 0
    verify_hits: int = 0

    @property
    def dedup_ratio(self) -> float:
        if not self.points_requested:
            return 1.0
        return self.simulations / self.points_requested

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["dedup_ratio"] = self.dedup_ratio
        return data


class SweepServer:
    """An asyncio job-queue server over one :class:`~repro.api.Session`.

    ``session=None`` builds a private session from the remaining
    keywords (``cache_dir``/``jobs``/``engine_mode`` and friends are
    forwarded to :class:`~repro.api.ExecutionContext`) and closes it on
    shutdown; a caller-supplied session is shared and left open.
    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).

    One connection handles its requests strictly in order (the
    protocol's framing guarantee); concurrency comes from concurrent
    connections, whose simulations all flow through one executor and
    one in-flight fingerprint map.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_points: int = 4096,
        **session_kwargs: Any,
    ) -> None:
        if session is not None and session_kwargs:
            raise ReproError(
                f"session and session keywords "
                f"{sorted(session_kwargs)} are mutually exclusive"
            )
        self._owns_session = session is None
        self.session = session or Session(**session_kwargs)
        self.host = host
        self.port = port
        self.max_pending_points = max_pending_points
        self.stats = ServeStats()

        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread_executor = None
        #: cache key -> future of (value, source) for every entry —
        #: measurement or verdict — currently in flight (layer 2 dedup)
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._conn_tasks: set = set()
        self._active_requests = 0
        self._pending_points = 0
        self._draining = False
        self._idle: Optional[asyncio.Event] = None
        self._closed: Optional[asyncio.Event] = None

    # -------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self.port,
            limit=MAX_MESSAGE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes."""
        if self._server is None:
            await self.start()
        await self._closed.wait()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the server (idempotent).

        The §11 drain contract: stop accepting connections, refuse new
        requests on existing connections (structured
        :class:`~repro.errors.RequestError`), wait until every admitted
        request has streamed its terminal event (bounded by
        ``timeout``), then close connections and release the executor
        and owned session.  ``drain=False`` cancels in-flight work
        instead of waiting.
        """
        if self._draining and self._closed is not None:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._thread_executor is not None:
            self._thread_executor.shutdown(wait=True)
            self._thread_executor = None
        if self._owns_session:
            self.session.close()
        if self._closed is not None:
            self._closed.set()

    # -------------------------------------------------------- executors

    def _executor_for(self, job: ClusterJob):
        """Where one simulation runs: the session's shared persistent
        process pool when it has one and the job can cross a process
        boundary, otherwise a lazily-created thread pool (correct
        either way; the thread pool trades parallelism for
        availability in sandboxes without multiprocessing)."""
        pool = self.session.pool() if job.externals is None else None
        if pool is not None:
            return pool
        if self._thread_executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._thread_executor = ThreadPoolExecutor(
                max_workers=4,
                thread_name_prefix="repro-serve",
            )
        return self._thread_executor

    async def _run_job(self, job: ClusterJob):
        return await self._loop.run_in_executor(
            self._executor_for(job), execute_job, job
        )

    # ------------------------------------------------------ connections

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        send_lock = asyncio.Lock()

        async def send(message: Mapping[str, Any]) -> None:
            async with send_lock:
                writer.write(encode_message(message))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                stop = await self._serve_one(line, send)
                if stop:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError, OSError):
                pass

    async def _serve_one(self, line: bytes, send) -> bool:
        """Handle one request line; True stops the connection loop."""
        self.stats.requests += 1
        try:
            request = parse_request(decode_message(line))
        except RequestError as exc:
            self.stats.errors += 1
            await send(error_event("", exc))
            return False
        if self._draining and request.type not in ("status",):
            self.stats.errors += 1
            await send(
                error_event(
                    request.id,
                    RequestError(
                        "server is draining for shutdown and not "
                        "accepting new work"
                    ),
                )
            )
            return False
        self._active_requests += 1
        self._idle.clear()
        try:
            # parse_request admits only REQUEST_TYPES, one handler each
            await getattr(self, f"_handle_{request.type}")(request, send)
            if request.type == "shutdown":
                return True
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.stats.errors += 1
            if isinstance(exc, OverloadError):
                self.stats.rejected += 1
            try:
                await send(error_event(request.id, exc))
            except (ConnectionError, OSError):
                return True
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()
        return False

    # ----------------------------------------------------------- verbs

    @staticmethod
    def _reject_unknown(body: Mapping[str, Any], known: Tuple[str, ...]):
        unknown = sorted(set(body) - set(known))
        if unknown:
            raise RequestError(
                f"unknown request keys {unknown}; accepted: {sorted(known)}"
            )

    def _parse_specs(self, body: Mapping[str, Any]) -> List[SweepSpec]:
        self._reject_unknown(body, ("spec", "specs"))
        if ("spec" in body) == ("specs" in body):
            raise RequestError(
                "a sweep request carries exactly one of 'spec' "
                "(one object) or 'specs' (a non-empty list)"
            )
        raw = body.get("specs", [body.get("spec")])
        if not isinstance(raw, list) or not raw:
            raise RequestError("'specs' must be a non-empty list")
        specs = []
        for item in raw:
            if not isinstance(item, dict):
                raise RequestError(
                    f"each spec must be a JSON object "
                    f"(got {type(item).__name__})"
                )
            try:
                specs.append(SweepSpec.from_dict(item))
            except (ReproError, TypeError, ValueError) as exc:
                raise RequestError(f"invalid sweep spec: {exc}") from None
        return specs

    async def _handle_sweep(self, request: ServeRequest, send) -> None:
        self.stats.sweeps += 1
        specs = self._parse_specs(request.body)

        async def notify(name: str, **fields: Any) -> None:
            await send(event(name, request.id, **fields))

        # the Session.sweep artifact; "coalesced" is the wire's name for
        # points an identical in-flight simulation served
        payload = (await self._sweep(specs, notify)).to_json()
        payload["stats"]["coalesced"] = payload["stats"]["deduplicated"]
        await send(event("result", request.id, result=payload))

    async def _sweep(self, specs: List[SweepSpec], notify=None) -> SweepResult:
        """Expand, admit and resolve ``specs`` — the one path of sweep
        requests and tune rounds.  ``notify(name, **fields)``, when
        given, streams the ``accepted`` and per-point events."""
        specs = [
            s
            if s.engine_mode is not None
            else dataclasses.replace(s, engine_mode=self.session.engine_mode)
            for s in specs
        ]
        try:
            # expansion transforms programs: CPU work off the event loop
            points, verifications = await asyncio.to_thread(
                expand_specs, specs
            )
        except ReproError as exc:
            raise RequestError(f"sweep expansion failed: {exc}") from None

        # admission control (§11 backpressure): refuse before simulating
        if self._pending_points + len(points) > self.max_pending_points:
            raise OverloadError(
                f"sweep expands to {len(points)} points but the server "
                f"already has {self._pending_points} pending of a "
                f"{self.max_pending_points}-point budget; retry later "
                f"or split the spec"
            )
        self._pending_points += len(points)
        self.stats.points_requested += len(points)
        self.stats.verify_checks += len(verifications)
        entries = (*points, *verifications)
        groups: Dict[Any, List[int]] = {}  # slot -> indices, resolved once
        for index, entry in enumerate(entries):
            groups.setdefault(entry_slot(entry), []).append(index)
        outcomes: Dict[Any, Tuple[Any, str]] = {}
        done = 0

        async def resolve(members: List[int]) -> None:
            nonlocal done
            value, source = await self._resolve(entries[members[0]])
            outcomes[entry_slot(entries[members[0]])] = (value, source)
            for n, index in enumerate(members):
                if notify is None or index >= len(points):
                    continue  # verdicts resolve silently
                done += 1
                await notify(
                    "point",
                    seq=done,
                    total=len(points),
                    index=index,
                    axes=points[index].axes,
                    source=member_source(source, n == 0),
                    time=value.time,
                )

        try:
            if notify is not None:
                await notify(
                    "accepted",
                    points=len(points),
                    verifications=len(verifications),
                )
            await asyncio.gather(*(resolve(m) for m in groups.values()))
        finally:
            self._pending_points -= len(points)

        result = assemble_result(specs, points, verifications, outcomes)
        stats = result.stats
        self.stats.simulations += stats.simulated
        self.stats.verify_simulations += stats.verify_simulated
        self.stats.cache_hits += stats.cache_hits
        self.stats.peer_served += stats.peer_served
        self.stats.coalesced += stats.deduplicated
        self.stats.verify_hits += stats.verify_hits
        return result

    # ------------------------------------------------- dedup core

    async def _resolve(self, entry) -> Tuple[Any, str]:
        """One entry's ``(value, source)``, subscribing to an identical
        entry already in flight on this server (any request)."""
        key = entry.key
        if key is None:  # externals: uncacheable, uncoalesceable
            return await self._drive(entry)
        holder = self._inflight.get(key)
        if holder is not None:
            value, source = await asyncio.shield(holder)
            return value, member_source(source, False)
        future = self._loop.create_future()
        self._inflight[key] = future
        try:
            outcome = await self._drive(entry)
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # a lone holder must not warn on GC
            raise
        finally:
            self._inflight.pop(key, None)
        future.set_result(outcome)
        return outcome

    async def _drive(self, entry) -> Tuple[Any, str]:
        """Run the shared resolution protocol
        (:func:`~repro.harness.sweep.resolve_entry`) without blocking
        the event loop."""
        resolver = resolve_entry(self.session.cache, entry)
        reply = None
        while True:
            try:
                ask = resolver.send(reply)
            except StopIteration as done:
                return done.value
            try:
                if ask is WAIT_FOR_PEER:
                    reply = await self._wait_for_peer(entry.key)
                else:
                    reply = await asyncio.gather(
                        *(self._run_job(job) for job in ask)
                    )
            except BaseException:
                resolver.close()  # releases the claim it holds
                raise

    async def _wait_for_peer(self, key: str) -> Optional[Dict[str, Any]]:
        """Async twin of :meth:`SweepCache.wait_for`: poll for the
        claiming peer's entry without blocking the event loop."""
        cache = self.session.cache
        deadline = self._loop.time() + CLAIM_STALE_AFTER
        while cache.claim_live(key) and self._loop.time() < deadline:
            await asyncio.sleep(0.05)
        return cache.get(key)

    # ----------------------------------------------- compare and verify

    async def _handle_compare(self, request: ServeRequest, send) -> None:
        self.stats.compares += 1
        body = dict(request.body)
        self._reject_unknown(
            body,
            (
                "app",
                "app_kwargs",
                "nranks",
                "network",
                "collective",
                "variant",
                "tile_size",
                "interchange",
            ),
        )
        name = body.get("app")
        if not isinstance(name, str):
            raise RequestError("compare needs 'app': a workload name")

        def work():
            app = build_app(
                name,
                nranks=body.get("nranks", 8),
                **dict(body.get("app_kwargs", {})),
            )
            return self.session.compare(
                CompareRequest(
                    app=app,
                    network=body.get("network"),
                    collective=(
                        body["collective"] if "collective" in body else UNSET
                    ),
                    variant=body.get("variant"),
                    tile_size=body.get("tile_size", "auto"),
                    interchange=body.get("interchange", "auto"),
                )
            )

        try:
            pair = await asyncio.to_thread(work)
        except ReproError as exc:
            raise RequestError(f"compare failed: {exc}") from None
        await send(
            event(
                "result",
                request.id,
                result={
                    "app": pair.app,
                    "network": pair.network,
                    "original": pair.original.to_dict(),
                    "transformed": pair.prepush.to_dict(),
                    "speedup": pair.speedup,
                    "equivalent": pair.equivalent,
                },
            )
        )

    async def _handle_verify(self, request: ServeRequest, send) -> None:
        self.stats.verifies += 1
        body = dict(request.body)
        self._reject_unknown(
            body,
            (
                "program",
                "nranks",
                "tile_size",
                "interchange",
                "variant",
                "network",
                "collective",
            ),
        )
        program = body.get("program")
        if not isinstance(program, str):
            raise RequestError("verify needs 'program': source text")

        def work():
            return self.session.verify(
                VerifyRequest(
                    program=program,
                    nranks=body.get("nranks", 8),
                    tile_size=body.get("tile_size", "auto"),
                    interchange=body.get("interchange", "auto"),
                    variant=body.get("variant"),
                    network=body.get("network"),
                    collective=(
                        body["collective"] if "collective" in body else UNSET
                    ),
                )
            )

        try:
            result = await asyncio.to_thread(work)
        except ReproError as exc:
            raise RequestError(f"verify failed: {exc}") from None
        eq = result.equivalence
        await send(
            event(
                "result",
                request.id,
                result={
                    "equivalent": eq.equivalent,
                    "speedup": eq.speedup,
                    "time_original": eq.time_original,
                    "time_transformed": eq.time_transformed,
                    "compared_arrays": list(eq.compared_arrays),
                    "mismatches": list(eq.mismatches),
                    "transformed": result.transform.unparse(),
                },
            )
        )

    # -------------------------------------------------------------- tune

    async def _handle_tune(self, request: ServeRequest, send) -> None:
        """Run a :func:`repro.tune.tune` search server-side.

        The search loop itself runs on a worker thread (it is ordinary
        blocking orchestration), but every candidate evaluation is
        routed back onto the event loop through :meth:`_sweep`, so tune
        evaluations enjoy the same three-layer dedup as sweep points
        and coalesce with any concurrent client measuring the same
        fingerprints.
        """
        from ..errors import TuneError
        from ..tune.driver import tune as run_tune
        from ..tune.space import SearchSpace
        from ..tune.strategies import get_strategy

        self.stats.tunes += 1
        body = dict(request.body)
        self._reject_unknown(
            body,
            (
                "space",
                "strategy",
                "budget",
                "objective",
                "seed",
                "strategy_params",
            ),
        )
        space_data = body.get("space")
        if not isinstance(space_data, dict):
            raise RequestError(
                "tune needs 'space': a SearchSpace.to_dict() object"
            )
        try:
            space = SearchSpace.from_dict(space_data)
        except (ReproError, TypeError, ValueError) as exc:
            raise RequestError(f"invalid search space: {exc}") from None
        strategy = body.get("strategy", "hill-climb")
        if not isinstance(strategy, str):
            raise RequestError("'strategy' must be a string")
        try:
            get_strategy(strategy)
        except TuneError as exc:
            raise RequestError(str(exc)) from None
        budget = body.get("budget", 32)
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
            raise RequestError("'budget' must be a positive integer")
        # admission control: a tune evaluates up to `budget` points (x2
        # with baselines); refuse searches the pending-point budget
        # could never admit round by round
        if budget > self.max_pending_points:
            raise OverloadError(
                f"tune budget {budget} exceeds the server's "
                f"{self.max_pending_points}-point admission budget; "
                f"lower the budget or raise --max-pending"
            )
        objective = body.get("objective", "time")
        if objective not in ("time", "speedup"):
            raise RequestError(
                "'objective' must be 'time' or 'speedup' over the wire"
            )
        seed = body.get("seed")
        if seed is not None and (
            not isinstance(seed, int) or isinstance(seed, bool)
        ):
            raise RequestError("'seed' must be an integer")
        params = body.get("strategy_params") or {}
        if not isinstance(params, dict):
            raise RequestError("'strategy_params' must be an object")

        await send(
            event(
                "accepted",
                request.id,
                budget=budget,
                strategy=strategy,
                space_fingerprint=space.fingerprint(),
            )
        )

        loop = self._loop

        def evaluator(specs):
            # called on the driver's worker thread; hop each round back
            # onto the event loop where the dedup machinery lives
            return asyncio.run_coroutine_threadsafe(
                self._sweep(specs), loop
            ).result()

        def on_step(step) -> None:
            asyncio.run_coroutine_threadsafe(
                send(event("step", request.id, **step.to_dict())), loop
            ).result()

        def work():
            return run_tune(
                space,
                session=self.session,
                strategy=strategy,
                budget=budget,
                objective=objective,
                seed=seed,
                strategy_params=params,
                evaluate=evaluator,
                on_step=on_step,
            )

        try:
            result = await asyncio.to_thread(work)
        except TuneError as exc:
            raise RequestError(f"tune failed: {exc}") from None
        payload = result.to_dict()
        payload["trajectory"] = {
            "header": result.trajectory.header,
            "steps": [s.to_dict() for s in result.trajectory.steps],
        }
        await send(event("result", request.id, result=payload))

    # --------------------------------------------------- status/shutdown

    async def _handle_status(self, request: ServeRequest, send) -> None:
        cache = self.session.cache
        await send(
            event(
                "result",
                request.id,
                result={
                    "protocol": PROTOCOL_VERSION,
                    "engine": ENGINE_VERSION,
                    "host": self.host,
                    "port": self.port,
                    "draining": self._draining,
                    "active_requests": self._active_requests,
                    "pending_points": self._pending_points,
                    "max_pending_points": self.max_pending_points,
                    "stats": self.stats.to_dict(),
                    "cache": (
                        None if cache is None else vars(cache.stats).copy()
                    ),
                },
            )
        )

    async def _handle_shutdown(self, request: ServeRequest, send) -> None:
        body = dict(request.body)
        self._reject_unknown(body, ("drain",))
        drain = body.get("drain", True)
        if not isinstance(drain, bool):
            raise RequestError("'drain' must be a boolean")
        await send(event("result", request.id, result={"stopping": True}))
        # detached: shutdown(drain) waits for active requests, and this
        # handler IS one — awaiting it here would deadlock the drain
        asyncio.ensure_future(self.shutdown(drain=drain))


class ThreadedServer:
    """Host a :class:`SweepServer` on a dedicated thread + event loop.

    The synchronous embedding used by the benchmarks and tests::

        with ThreadedServer(cache_dir=".cache") as ts:
            client = ServeClient(port=ts.port)
            ...

    ``stop()`` (or context exit) performs a drain shutdown.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = server_kwargs
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[SweepServer] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-host", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.server = SweepServer(**self._kwargs)
                await self.server.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # surface on the caller thread
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self.server.wait_closed()

        asyncio.run(main())

    def stop(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        if self._loop is None or self.server is None:
            return
        # a client's shutdown verb (or a signal) may already have stopped
        # the server and closed its loop; stop() stays idempotent
        future = None
        if not self._loop.is_closed():
            try:
                future = asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(drain=drain), self._loop
                )
            except RuntimeError:  # loop closed since the check
                pass
        try:
            if future is not None:
                future.result(timeout)
        finally:
            self._thread.join(timeout)
            self._loop = None

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
