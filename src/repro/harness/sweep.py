"""Declarative sweep engine with a content-addressed result cache.

The paper's evaluation is a cross-product — workload x transform variant
x tile size x network scenario x collective algorithm x rank count x
compute/communication ratio — and every figure used to hand-roll its own
nested loops.  This module separates the *experiment spec* from the
*execution engine*:

* :class:`SweepSpec` names the axes; :func:`expand_spec` expands the
  cross-product into :class:`SweepPoint`\\ s (transforming each workload
  once per tile/interchange choice, not once per point);
* :func:`run_sweep` runs every point through the sharded
  :func:`~repro.interp.runner.run_many` pool, deduplicating points whose
  content fingerprints coincide (e.g. the untransformed baseline of a
  tile-size sweep), and folds each run into a
  :class:`~repro.harness.runner.Measurement`;
* :class:`SweepCache` stores each measurement on disk keyed by
  :func:`~repro.interp.runner.job_fingerprint` — the sha-256 of
  (program text, network parameters, cost model, collective suite, rank
  count, engine semantic version).  DESIGN.md §3.2 guarantees the
  simulation is a pure function of exactly that key, so a warm re-run
  performs **zero simulations** and reproduces bit-identical results.

Every figure/ablation in :mod:`repro.harness.figures` is a thin
:class:`SweepSpec` constructor over this engine, and the
``compuniformer sweep`` CLI subcommand drives it from flags or a JSON
spec file.  See DESIGN.md §7 for the cache-key definition and the
invalidation rules.
"""

from __future__ import annotations

import json
import hashlib
import os
import socket
import tempfile
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from itertools import product
from pathlib import Path
from typing import (
    Any,
    Dict,
    Generator,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:  # POSIX advisory locks; Windows degrades to O_EXCL-only claims
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..apps import build_app
from ..errors import ReproError
from ..interp.runner import ClusterJob, ClusterRun, job_fingerprint, run_many
from ..lang.ast_nodes import SourceFile
from ..runtime.collectives import (
    COLLECTIVES,
    CollectiveSpec,
    resolve_suite,
)
from ..interp.symmetry import SYMMETRY_VERSION
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.network import IDEAL, NetworkModel, resolve_model
from ..runtime.simulator import ENGINE_VERSION
from ..transform.options import TransformOptions
from ..transform.pipeline import (
    Pipeline,
    list_variants,
    resolve_variant,
    variant_identity,
    variant_label,
)
from ..transform.prepush import TransformReport
from .runner import Measurement, PreparedApp, measurement_from_run

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepCache",
    "CacheStats",
    "CLAIM_STALE_AFTER",
    "SweepRun",
    "SweepStats",
    "SweepResult",
    "collective_label",
    "expand_spec",
    "run_sweep",
]

NetworkLike = Union[str, NetworkModel]
VariantLike = Union[str, Pipeline]

#: Default ``variants`` axis: the classic original-vs-prepush pair.
#: Any name registered with
#: :func:`repro.transform.pipeline.register_variant` (or a raw
#: :class:`~repro.transform.pipeline.Pipeline` instance) is a valid
#: axis value.
VARIANTS = ("original", "prepush")


def collective_label(spec: CollectiveSpec) -> str:
    """Canonical short axis label for a collective choice.

    ``"default"`` when every collective keeps its default algorithm,
    otherwise the non-default selections as sorted ``collective=name``
    pairs — so a dict, the CLI string form, and ``None`` that resolve to
    the same suite always carry the same label.
    """
    suite = resolve_suite(spec)
    defaults = resolve_suite(None)
    diff = [f"{c}={suite[c]}" for c in COLLECTIVES if suite[c] != defaults[c]]
    return ",".join(diff) if diff else "default"


# ----------------------------------------------------------------- spec


@dataclass
class SweepSpec:
    """One declarative experiment: a workload crossed with sweep axes.

    Every sequence field is an axis; the expansion is the full
    cross-product ``nranks x tile_sizes x interchange x cpu_scales x
    variants x networks x collectives``.  Workload geometry lives in
    ``app_kwargs`` (passed to the registered app builder together with
    each ``nranks`` value).
    """

    name: str
    app: str
    app_kwargs: Mapping[str, Any] = field(default_factory=dict)
    nranks: Sequence[int] = (8,)
    variants: Sequence[VariantLike] = VARIANTS
    tile_sizes: Sequence[Union[int, str]] = ("auto",)
    interchange: Sequence[str] = ("auto",)
    networks: Sequence[NetworkLike] = ("gmnet",)
    collectives: Sequence[CollectiveSpec] = (None,)
    cpu_scales: Sequence[float] = (1.0,)
    base_cost_model: CostModel = DEFAULT_COST_MODEL
    verify: bool = True
    detect_races: bool = True
    #: engine selection for every point (DESIGN.md §10): ``"auto"``
    #: replays symmetric programs and falls back otherwise, ``"replay"``
    #: forces replay, ``"full"`` forces per-rank interpretation;
    #: ``None`` inherits the executing Session's default.  Not an
    #: axis: all modes are bit-identical and share cache keys, so
    #: sweeping it would only measure the same points twice.
    engine_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine_mode not in (None, "auto", "replay", "full"):
            raise ReproError(
                f"sweep {self.name!r}: unknown engine_mode "
                f"{self.engine_mode!r} (expected 'auto', 'replay', or "
                f"'full')"
            )
        unknown = sorted(
            v
            for v in self.variants
            if isinstance(v, str) and v not in list_variants()
        )
        bad_types = [
            v
            for v in self.variants
            if not isinstance(v, (str, Pipeline))
        ]
        if unknown or bad_types:
            raise ReproError(
                f"sweep {self.name!r}: unknown variants "
                f"{unknown + [repr(v) for v in bad_types]}; "
                f"accepted: registered names {list_variants()} or "
                f"Pipeline instances"
            )
        labels = [variant_label(v) for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ReproError(
                f"sweep {self.name!r}: duplicate variant labels "
                f"{sorted(labels)} would make axis lookups ambiguous"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (network instances become their names)."""
        return {
            "name": self.name,
            "app": self.app,
            "app_kwargs": dict(self.app_kwargs),
            "nranks": list(self.nranks),
            "variants": [self._serializable_variant(v) for v in self.variants],
            "tile_sizes": list(self.tile_sizes),
            "interchange": list(self.interchange),
            "networks": [
                n.name if isinstance(n, NetworkModel) else n
                for n in self.networks
            ],
            "collectives": [
                dict(c) if isinstance(c, Mapping) else c
                for c in self.collectives
            ],
            "cpu_scales": list(self.cpu_scales),
            "verify": self.verify,
            "engine_mode": self.engine_mode,
        }

    @staticmethod
    def _serializable_variant(v: VariantLike) -> str:
        """A variant as a JSON-safe *reconstructible* name.

        Serializing an unregistered Pipeline instance by label would be
        lossy: loading the spec back would either fail validation or —
        worse — silently resolve to a different registered pipeline of
        the same name.  Such specs are refused here instead.
        """
        from ..transform.pipeline import get_variant

        label = variant_label(v)
        if isinstance(v, Pipeline):
            if (
                label not in list_variants()
                or get_variant(label) is not v
            ):
                raise ReproError(
                    f"cannot serialize unregistered pipeline variant "
                    f"{label!r}; register_variant() it first so the "
                    f"name round-trips"
                )
        return label

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a JSON object (the ``--spec`` file format)."""
        # every field but the two that only the library API sets
        known = {f.name for f in fields(cls)} - {
            "base_cost_model",
            "detect_races",
        }
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"sweep spec has unknown keys {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        if "name" not in data or "app" not in data:
            raise ReproError("sweep spec needs at least 'name' and 'app'")
        return cls(**{k: data[k] for k in data})

    @classmethod
    def single(
        cls,
        *,
        name: str,
        app: str,
        app_kwargs: Optional[Mapping[str, Any]] = None,
        variant: VariantLike = "original",
        tile_size: Union[int, str] = "auto",
        interchange: str = "auto",
        network: NetworkLike = "gmnet",
        collective: CollectiveSpec = None,
        nranks: int = 8,
        cpu_scale: float = 1.0,
        verify: bool = False,
        engine_mode: Optional[str] = None,
    ) -> "SweepSpec":
        """A one-point spec: every axis a single value.

        This is the evaluation unit of the :mod:`repro.tune` search
        driver — one candidate configuration becomes one single-point
        spec, so its expansion carries exactly one fingerprint and the
        sweep cache acts as the search loop's memo table.  Expanding it
        yields exactly one :class:`SweepPoint` per variant-producing
        axis value (i.e. one, since every axis is singular).
        """
        return cls(
            name=name,
            app=app,
            app_kwargs=dict(app_kwargs or {}),
            nranks=(nranks,),
            variants=(variant,),
            tile_sizes=(tile_size,),
            interchange=(interchange,),
            networks=(network,),
            collectives=(collective,),
            cpu_scales=(cpu_scale,),
            verify=verify,
            engine_mode=engine_mode,
        )


@dataclass
class SweepPoint:
    """One fully-resolved simulation of a sweep (pre-execution).

    Also the measurement kind of cache entry: :attr:`key` addresses it,
    :meth:`jobs` is the simulation a miss runs, :meth:`build` folds that
    run into a label-less :class:`Measurement`, and :meth:`encode` /
    :meth:`decode` are the only writer and reader of its payload.
    """

    kind = "measurement"

    axes: Dict[str, Any]
    program: Union[str, SourceFile]
    nranks: int
    network: NetworkModel
    collective: CollectiveSpec
    cost_model: CostModel
    detect_races: bool
    label: str
    externals: Any = None
    transform: Optional[TransformReport] = None
    fingerprint: Optional[str] = None  # None = uncacheable (externals)
    #: transformation provenance (pipeline identity + options) of
    #: transformed points; None for the untransformed baseline
    variant_id: Optional[Dict[str, Any]] = None
    engine_mode: str = "auto"

    def job(self) -> ClusterJob:
        return ClusterJob(
            program=self.program,
            nranks=self.nranks,
            network=self.network,
            cost_model=self.cost_model,
            detect_races=self.detect_races,
            externals=self.externals,
            label=self.label,
            collective=self.collective,
            variant=self.variant_id,
            engine_mode=self.engine_mode,
        )

    @property
    def key(self) -> Optional[str]:
        return self.fingerprint

    def jobs(self) -> List[ClusterJob]:
        job = self.job()
        # the label is result-neutral: a cached job drops it so its run
        # is shared by every point of the fingerprint
        return [job if self.fingerprint is None else replace(job, label="")]

    def build(self, runs: Sequence[ClusterRun]) -> Measurement:
        return measurement_from_run(
            runs[0], network=self.network, collective=self.collective
        )

    def encode(self, measurement: Measurement) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "inputs": dict(self.axes),
            "measurement": measurement.to_dict(),
        }

    def decode(self, payload: Mapping[str, Any]) -> Measurement:
        return Measurement.from_dict(payload["measurement"])


@dataclass
class _Verification:
    """A pending original/transformed equivalence check of one spec —
    the verify kind of cache entry (same interface as
    :class:`SweepPoint`; its value is the verdict ``True``)."""

    kind = "verify"

    prepared: PreparedApp
    #: content address (None = uncacheable: externals); the §4 verdict
    #: is a pure function of the two program texts, the rank count and
    #: the cost model under one engine version — the same §3.2 argument
    #: that makes measurement caching sound
    key: Optional[str] = field(init=False)

    def __post_init__(self) -> None:
        pa = self.prepared
        self.key = None
        if pa.app.externals is None:
            blob = json.dumps(
                {
                    "kind": self.kind,
                    "engine": ENGINE_VERSION,
                    "original": pa.app.source,
                    "transformed": pa.transform.unparse(),
                    "nranks": pa.app.nranks,
                    "cost": pa.cost_model.canonical_params(),
                    "skip": sorted(pa.transform.dead_arrays),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            self.key = hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def jobs(self) -> List[ClusterJob]:
        app, report = self.prepared.app, self.prepared.transform
        tag = variant_label(self.prepared.variant)
        return [
            ClusterJob(
                program=program,
                nranks=app.nranks,
                network=IDEAL,
                cost_model=self.prepared.cost_model,
                externals=app.externals,
                label=f"{app.name}/verify-{name}",
            )
            for program, name in (
                (app.source, "original"),
                (report.source, tag),
            )
        ]

    def build(self, runs: Sequence[ClusterRun]) -> bool:
        self.prepared.check_equivalence(*runs)  # raises on mismatch
        return True

    def encode(self, verdict: bool) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "equivalent": verdict,
            "app": self.prepared.app.name,
            "nranks": self.prepared.app.nranks,
        }

    def decode(self, payload: Mapping[str, Any]) -> bool:
        if payload["equivalent"] is not True:
            raise ValueError("verify entries only ever record equivalence")
        self.prepared.equivalent = True
        return True


# ---------------------------------------------------------------- cache


@dataclass
class CacheStats:
    """Accounting of one cache over one or more sweeps."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    verify_hits: int = 0
    verify_misses: int = 0

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.corrupt} corrupt, "
            f"verify {self.verify_hits} hits / {self.verify_misses} misses"
        )


#: seconds after which an in-flight claim marker counts as abandoned
#: and may be broken by another process — the only staleness test for a
#: writer on another host; a local writer's marker goes stale as soon as
#: its pid is gone (generous: the longest single simulation in the repo
#: — a 1024-rank replay — finishes well under this)
CLAIM_STALE_AFTER = 900.0


def _pid_alive(pid: Any) -> bool:
    """Whether ``pid`` names a live process on this host (anything that
    cannot be checked counts as alive, leaving the age rule to judge)."""
    if os.name != "posix" or not isinstance(pid, int) or pid <= 0:
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM: alive, owned by another user
        pass
    return True


class SweepCache:
    """Content-addressed on-disk store of sweep results.

    One JSON file per entry, named by its sha-256 key under a two-hex
    fan-out directory (``ab/abcdef....json``).  Entries are write-once
    in practice — a key collision means the same simulation inputs,
    hence (§3.2) the same result — and writes are atomic (tempfile +
    rename) so a crashed sweep can never leave a half-written entry a
    later run would trust.  A corrupted or stale entry reads as a miss
    (counted in :attr:`CacheStats.corrupt`) and is overwritten by the
    re-simulation.

    **Multi-writer protocol** (DESIGN.md §11): concurrent processes
    sharing one cache directory coordinate through per-entry *in-flight
    claim markers*.  :meth:`claim` atomically (``O_CREAT|O_EXCL``)
    creates ``<key>.inflight`` next to the entry; the winner simulates
    and :meth:`put` (which removes the marker), losers :meth:`wait_for`
    the entry to land instead of duplicating the simulation.  Claim
    decisions are serialized under a per-entry advisory ``flock``
    (:meth:`lock`) so breaking a stale marker — one left by a crashed
    writer: its pid is gone from this host, or it is older than
    :data:`CLAIM_STALE_AFTER` — cannot race a live claim.  The protocol
    is *advisory*: a writer that skips it and simulates anyway stays
    correct (entries are deterministic and writes atomic), it just
    wastes the duplicate work the markers exist to avoid.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` (miss).

        Unreadable/undecodable/mismatched entries count as ``corrupt``
        and read as a miss, so the caller falls back to re-simulation.
        """
        try:
            return self._read(key)
        except ValueError:
            self.stats.corrupt += 1
            return None

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload under ``key``, ``None`` when absent; raises
        :class:`ValueError` for a corrupt entry."""
        try:
            with open(self.path(key), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"unreadable cache entry {key}") from exc
        if not isinstance(payload, dict) or payload.get("key") != key:
            raise ValueError(f"mismatched cache entry {key}")
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically store ``payload`` (annotated with its key) and
        release any in-flight claim this writer held on it."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(
            payload, key=key, engine=ENGINE_VERSION, symmetry=SYMMETRY_VERSION
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.release(key)

    # ------------------------------------------- multi-writer protocol

    def claim_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.inflight"

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Per-entry advisory lock serializing claim/break decisions.

        Held only around marker bookkeeping (microseconds), never around
        a simulation.  Without :mod:`fcntl` (non-POSIX) this degrades to
        a no-op and :meth:`claim` relies on ``O_CREAT|O_EXCL`` alone,
        which still guarantees a single winner per marker — only the
        stale-marker *break* loses its race protection.
        """
        lock_file = self.root / key[:2] / f"{key}.lock"
        lock_file.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_file, os.O_CREAT | os.O_RDWR)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _claim_stale(self, marker: Path) -> bool:
        """True when ``marker`` was abandoned: its writer ran on this
        host and its pid is gone, or it recorded a timestamp more than
        :data:`CLAIM_STALE_AFTER` seconds ago (the only test a marker
        from another host, or an unreadable one, gets).  A vanished
        marker is *not* stale — it means the entry just landed."""
        try:
            with open(marker, "r", encoding="utf-8") as fh:
                info = json.load(fh)
            claimed_at = float(info["time"])
        except FileNotFoundError:
            return False
        except (OSError, ValueError, TypeError, KeyError):
            return True  # unreadable marker: treat as abandoned
        local = info.get("host") == socket.gethostname()
        if local and not _pid_alive(info.get("pid")):
            return True
        return (time.time() - claimed_at) > CLAIM_STALE_AFTER

    def claim(self, key: str) -> bool:
        """Atomically claim the right to simulate ``key``.

        ``True``: this process owns the in-flight marker and must either
        :meth:`put` the entry (which releases it) or :meth:`release` on
        failure.  ``False``: a readable entry already exists, or another
        live writer holds the claim — :meth:`wait_for` the result
        instead.  A corrupt entry can be claimed (and overwritten).
        """
        with self.lock(key):
            try:
                if self._read(key) is not None:
                    return False
            except ValueError:
                pass
            marker = self.claim_path(key)
            marker.parent.mkdir(parents=True, exist_ok=True)
            if self._claim_stale(marker):
                # abandoned by a crashed writer: break it (safe under
                # the entry lock) and claim afresh
                self.release(key)
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            info = {"pid": os.getpid(), "host": socket.gethostname()}
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(dict(info, time=time.time()), fh)
            return True

    def release(self, key: str) -> None:
        """Drop the in-flight claim on ``key`` (idempotent)."""
        try:
            os.unlink(self.claim_path(key))
        except OSError:
            pass

    def claim_live(self, key: str) -> bool:
        """True while some live writer holds the in-flight claim on
        ``key`` (marker present and not stale) — i.e. waiting for the
        entry is still worthwhile."""
        marker = self.claim_path(key)
        return marker.exists() and not self._claim_stale(marker)

    def wait_for(
        self,
        key: str,
        *,
        timeout: float = CLAIM_STALE_AFTER,
        poll: float = 0.05,
    ) -> Optional[Dict[str, Any]]:
        """Block while another writer's claim on ``key`` is live (its
        :meth:`put` writes the entry, then drops the claim), then read
        the entry.

        Returns the payload, or ``None`` when the claim vanished or went
        stale without producing an entry (the caller should
        :meth:`claim` and simulate itself) or ``timeout`` elapsed.
        """
        deadline = time.monotonic() + timeout
        while self.claim_live(key) and time.monotonic() < deadline:
            time.sleep(poll)
        return self.get(key)

    # ------------------------------------------------- introspection

    def entries(self) -> Iterator[Tuple[Path, Optional[Dict[str, Any]]]]:
        """Every on-disk entry as ``(path, payload)``, payload ``None``
        for undecodable files (deterministic order)."""
        for path in sorted(self.root.glob("*/*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                if not isinstance(payload, dict):
                    payload = None
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                payload = None
            yield path, payload

    def _entry_stale(self, payload: Optional[Dict[str, Any]]) -> bool:
        """A prunable entry: corrupt, or written under a different
        engine version — or, for measurements (whose fingerprints fold
        the symmetry-recorder version), a different/unrecorded symmetry
        version.  Verify verdicts are keyed by engine version only."""
        if payload is None:
            return True
        if payload.get("engine") != ENGINE_VERSION:
            return True
        if payload.get("kind") == "measurement":
            return payload.get("symmetry") != SYMMETRY_VERSION
        return False

    def info(self) -> Dict[str, Any]:
        """Inventory: entry/kind counts, on-disk bytes, per-version
        breakdown, live in-flight claims, and how much ``prune`` would
        delete."""
        kinds: Dict[str, int] = {}
        versions: Dict[str, int] = {}
        total = stale = 0
        size = stale_size = 0
        for path, payload in self.entries():
            total += 1
            nbytes = path.stat().st_size
            size += nbytes
            kind = payload.get("kind", "corrupt") if payload else "corrupt"
            kinds[kind] = kinds.get(kind, 0) + 1
            label = "corrupt"
            if payload is not None:
                label = (
                    f"engine={payload.get('engine', '?')}/"
                    f"symmetry={payload.get('symmetry', '?')}"
                )
            versions[label] = versions.get(label, 0) + 1
            if self._entry_stale(payload):
                stale += 1
                stale_size += nbytes
        claims = list(self.root.glob("*/*.inflight"))
        return {
            "root": str(self.root),
            "entries": total,
            "bytes": size,
            "kinds": dict(sorted(kinds.items())),
            "versions": dict(sorted(versions.items())),
            "current_version": (
                f"engine={ENGINE_VERSION}/symmetry={SYMMETRY_VERSION}"
            ),
            "stale_entries": stale,
            "stale_bytes": stale_size,
            "inflight_claims": len(claims),
        }

    def prune(self, *, dry_run: bool = False) -> Dict[str, Any]:
        """Delete stale-version (and corrupt) entries plus abandoned
        in-flight markers; ``dry_run`` only reports what would go."""
        removed = kept = freed = 0
        for path, payload in self.entries():
            if self._entry_stale(payload):
                removed += 1
                freed += path.stat().st_size
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            else:
                kept += 1
        stale_claims = 0
        for marker in sorted(self.root.glob("*/*.inflight")):
            if self._claim_stale(marker):
                stale_claims += 1
                if not dry_run:
                    try:
                        os.unlink(marker)
                    except OSError:
                        pass
        return {
            "removed": removed,
            "kept": kept,
            "freed_bytes": freed,
            "stale_claims_removed": stale_claims,
            "dry_run": dry_run,
        }


def _as_cache(
    cache: Union[None, str, Path, SweepCache]
) -> Optional[SweepCache]:
    if cache is None or isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


# ------------------------------------------------------------ expansion


def expand_spec(
    spec: SweepSpec,
) -> Tuple[List[SweepPoint], List[_Verification]]:
    """Expand one spec into its cross-product of points.

    Each (nranks, tile, interchange, variant) combination is
    transformed exactly once through the variant registry
    (:mod:`repro.transform.pipeline`) and the resulting report is
    attached to every point it produced, so figures can read resolved
    tile sizes and schemes without re-deriving them; untransformed
    baseline points carry the first transforming variant's report (the
    classic "both variants see the prepush transform" contract).
    Transformed points also carry the pipeline's identity + canonical
    options, which :func:`~repro.interp.runner.job_fingerprint` folds
    into the cache key.  Verification requests (one per *transformed*
    variant, when ``spec.verify``) come back separately so
    :func:`run_sweep` can satisfy them from the cache or shard their
    simulations into the same pool batch; variants that leave a
    program unchanged (e.g. ``tile-only`` on an indirect workload)
    have nothing to verify and are measured as-is.
    """
    points: List[SweepPoint] = []
    verifications: List[_Verification] = []
    resolved_variants = [
        (variant_label(v), resolve_variant(v)) for v in spec.variants
    ]
    first_cost = spec.base_cost_model.scaled(spec.cpu_scales[0])

    for nr in spec.nranks:
        app = build_app(spec.app, nranks=nr, **dict(spec.app_kwargs))
        for tile, inter in product(spec.tile_sizes, spec.interchange):
            options = TransformOptions(tile_size=tile, interchange=inter)
            prepared: Dict[str, Optional[PreparedApp]] = {}
            fallback: Optional[TransformReport] = None
            for label, pipeline in resolved_variants:
                if pipeline.empty:
                    prepared[label] = None
                    continue
                pa = PreparedApp(
                    app,
                    options=options,
                    variant=pipeline,
                    verify=False,
                    cost_model=first_cost,
                    # nothing in the sweep reads intermediate texts;
                    # skip one unparse per pass per point
                    snapshots=False,
                )
                prepared[label] = pa
                if fallback is None:
                    fallback = pa.transform
                if spec.verify and pa.transform.changed:
                    verifications.append(_Verification(pa))
            for scale, (label, pipeline), network, coll in product(
                spec.cpu_scales,
                resolved_variants,
                spec.networks,
                spec.collectives,
            ):
                pa = prepared[label]
                model = resolve_model(network)
                program = app.source if pa is None else pa.transform.source
                points.append(
                    SweepPoint(
                        axes={
                            "spec": spec.name,
                            "app": app.name,
                            "variant": label,
                            "nranks": nr,
                            "tile_size": tile,
                            "interchange": inter,
                            "network": model.name,
                            "collective": collective_label(coll),
                            "cpu_scale": scale,
                        },
                        program=program,
                        nranks=nr,
                        network=model,
                        collective=coll,
                        cost_model=spec.base_cost_model.scaled(scale),
                        detect_races=spec.detect_races,
                        label=f"{app.name}/{label}",
                        externals=app.externals,
                        transform=fallback if pa is None else pa.transform,
                        variant_id=(
                            None
                            if pa is None
                            else variant_identity(pipeline, options)
                        ),
                        engine_mode=spec.engine_mode or "auto",
                    )
                )
    return points, verifications


# ------------------------------------------------------------ execution


@dataclass
class SweepRun:
    """One executed (or cache-served) sweep point."""

    axes: Dict[str, Any]
    measurement: Measurement
    cached: bool
    fingerprint: Optional[str]
    transform: Optional[TransformReport] = None


@dataclass
class SweepStats:
    """How one :func:`run_sweep` call was satisfied."""

    points: int = 0
    simulated: int = 0  # measurement simulations actually run
    verify_simulated: int = 0  # verification simulations actually run
    cache_hits: int = 0
    cache_misses: int = 0
    peer_served: int = 0  # points whose entry a claiming peer wrote
    deduplicated: int = 0  # points served by an identical simulation
    uncacheable: int = 0  # points with externals (never cached)
    verify_checks: int = 0
    verify_hits: int = 0  # checks answered without simulating them here
    mode: str = "none"  # "pool" | "serial" | "none" (no jobs needed)
    processes: int = 1

    @property
    def total_simulated(self) -> int:
        """Every simulation this invocation ran (zero on a warm cache)."""
        return self.simulated + self.verify_simulated

    def summary(self) -> str:
        return (
            f"{self.points} points: {self.simulated} simulated + "
            f"{self.verify_simulated} verify sims ({self.mode}), "
            f"{self.cache_hits} cache hits, {self.peer_served} from a "
            f"peer, {self.deduplicated} deduplicated; verify "
            f"{self.verify_hits}/{self.verify_checks} cached"
        )


@dataclass
class SweepResult:
    """All measurements of one engine invocation, addressable by axes."""

    runs: List[SweepRun]
    stats: SweepStats
    specs: List[SweepSpec]

    def select(self, **axes: Any) -> List[SweepRun]:
        """Every run whose axes match all given ``key=value`` pairs."""
        return [
            r
            for r in self.runs
            if all(r.axes.get(k) == v for k, v in axes.items())
        ]

    def get(self, **axes: Any) -> SweepRun:
        """The unique run matching ``axes`` (raises otherwise)."""
        matches = self.select(**axes)
        if len(matches) != 1:
            raise ReproError(
                f"{len(matches)} sweep runs match {axes!r} "
                f"(of {len(self.runs)})"
            )
        return matches[0]

    def measurement(self, **axes: Any) -> Measurement:
        return self.get(**axes).measurement

    def to_json(self) -> Dict[str, Any]:
        """JSON artifact: specs, execution stats, and every measurement."""
        return {
            "engine": ENGINE_VERSION,
            "specs": [s.to_dict() for s in self.specs],
            "stats": vars(self.stats).copy(),
            "runs": [
                {
                    "axes": r.axes,
                    "cached": r.cached,
                    "fingerprint": r.fingerprint,
                    "measurement": r.measurement.to_dict(),
                }
                for r in self.runs
            ],
        }


# ------------------------------------------------------ resolution core
#
# Measurement points and verifications are both cache *entries*: a key
# (None = uncacheable), the jobs a miss runs, and build/encode/decode.
# resolve_entry() is the one protocol that turns an entry into a value —
# lookup, claim, wait for a peer, simulate, store — written as a
# generator so that the synchronous driver below can batch the
# simulations of many entries into one pool dispatch while the asyncio
# driver in repro.serve.server awaits each one.  assemble_result() turns
# the outcomes into the SweepResult both drivers return.

#: what :func:`resolve_entry` yields to ask for a peer's claimed entry
WAIT_FOR_PEER = "wait-for-peer"


def expand_specs(
    specs: Sequence[SweepSpec],
) -> Tuple[List[SweepPoint], List[_Verification]]:
    """Expand every spec and fingerprint its points (externals leave
    the fingerprint ``None``: uncacheable)."""
    points: List[SweepPoint] = []
    verifications: List[_Verification] = []
    for spec in specs:
        pts, vers = expand_spec(spec)
        points.extend(pts)
        verifications.extend(vers)
    for point in points:
        if point.externals is None:
            point.fingerprint = job_fingerprint(point.job())
    return points, verifications


def entry_slot(entry: Any) -> Any:
    """What one resolution serves: the key, or the uncacheable entry."""
    return entry.key if entry.key is not None else id(entry)


def member_source(source: str, first: bool) -> str:
    """How one member of a resolved group was served: after the first,
    members of a simulated group rode on that one simulation."""
    return source if first or source != "simulated" else "coalesced"


def resolve_entry(
    cache: Optional[SweepCache], entry: Any
) -> Generator[Any, Any, Tuple[Any, str]]:
    """Resolve one entry to ``(value, source)``, ``source`` being
    ``"cache"``, ``"peer"`` or ``"simulated"``.

    The generator yields :data:`WAIT_FOR_PEER` (send back the payload
    of the peer that claimed the key, or ``None`` when none landed) or
    the entry's jobs (send back their runs).  Closing it, or throwing
    into it, releases a claim it still holds.
    """

    def decode(payload: Optional[Dict[str, Any]]) -> Any:
        if payload is None or payload.get("kind") != entry.kind:
            return None
        try:
            return entry.decode(payload)
        except (TypeError, ValueError, KeyError):
            cache.stats.corrupt += 1
            return None

    if entry.key is None:
        cache = None
    claimed = False
    if cache is not None:
        value = decode(cache.get(entry.key))
        hit = value is not None
        if entry.kind == "verify":
            cache.stats.verify_hits += hit
            cache.stats.verify_misses += not hit
        else:
            cache.stats.hits += hit
            cache.stats.misses += not hit
        if hit:
            return value, "cache"
        claimed = cache.claim(entry.key)
        if not claimed:
            value = decode((yield WAIT_FOR_PEER))
            if value is not None:
                return value, "peer"
            # the peer gave up (or outlived the wait): take over; an
            # unclaimed duplicate simulation is still correct
            claimed = cache.claim(entry.key)
    try:
        value = entry.build((yield entry.jobs()))
        if cache is not None:
            cache.put(entry.key, entry.encode(value))  # releases the claim
    except BaseException:
        if claimed:
            cache.release(entry.key)
        raise
    return value, "simulated"


def assemble_result(
    specs: Sequence[SweepSpec],
    points: Sequence[SweepPoint],
    verifications: Sequence[_Verification],
    outcomes: Mapping[Any, Tuple[Any, str]],
) -> SweepResult:
    """The :class:`SweepResult` of resolved entries (``outcomes`` maps
    each :func:`entry_slot` to its first member's ``(value, source)``)."""
    stats = SweepStats(points=len(points), verify_checks=len(verifications))
    runs: List[SweepRun] = []
    seen: set = set()
    for point in points:
        slot = entry_slot(point)
        measurement, source = outcomes[slot]
        source = member_source(source, slot not in seen)
        seen.add(slot)
        if source == "cache":
            stats.cache_hits += 1
        elif source == "peer":
            stats.peer_served += 1
        elif source == "coalesced":
            stats.deduplicated += 1
        else:
            stats.simulated += 1
            if point.key is None:
                stats.uncacheable += 1
            else:
                stats.cache_misses += 1
        runs.append(
            SweepRun(
                axes=point.axes,
                measurement=replace(measurement, label=point.label),
                cached=source in ("cache", "peer"),
                fingerprint=point.fingerprint,
                transform=point.transform,
            )
        )
    for ver in verifications:
        slot = entry_slot(ver)
        if member_source(outcomes[slot][1], slot not in seen) == "simulated":
            stats.verify_simulated += 2
        else:
            stats.verify_hits += 1
        seen.add(slot)
    return SweepResult(runs=runs, stats=stats, specs=list(specs))


def _execute_sweep(
    specs: Union[SweepSpec, Sequence[SweepSpec]],
    *,
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, SweepCache] = None,
    executor=None,
) -> SweepResult:
    """Execute one or more sweep specs through the shared engine.

    ``jobs`` > 1 shards the simulations over a
    :func:`~repro.interp.runner.run_many` process pool (verification
    runs ride in the same batch); a live ``executor`` (a
    :class:`repro.api.Session`'s persistent pool) takes precedence and
    is left running afterwards.  ``cache`` (a directory path or a
    :class:`SweepCache`) serves previously-simulated points without
    re-simulating; ``None`` disables caching entirely.  Points whose
    fingerprints coincide are simulated once per batch regardless of
    caching.

    Misses are claimed before they are simulated (DESIGN.md §11): an
    entry another process sharing the cache claimed first is waited
    for once this call's own batch is done, and whatever the peer never
    delivered is simulated in a second batch.  Claims still held when
    this exits by an exception are released.

    This is the engine behind :meth:`repro.api.Session.sweep`; the
    kwargs-style :func:`run_sweep` is a deprecation shim over it.
    """
    if isinstance(specs, SweepSpec):
        specs = [specs]
    cache = _as_cache(cache)
    points, verifications = expand_specs(specs)
    resolvers = {}  # slot -> the resolution of its first entry
    for entry in (*points, *verifications):
        if entry_slot(entry) not in resolvers:
            resolvers[entry_slot(entry)] = resolve_entry(cache, entry)
    outcomes: Dict[Any, Tuple[Any, str]] = {}
    dispatch = ("none", 1)  # how the last batch ran: (mode, processes)

    def step(replies: Mapping[Any, Any]) -> Dict[Any, Any]:
        """Send each resolver its reply; collect what it asks next."""
        asks = {}
        for slot, reply in replies.items():
            try:
                asks[slot] = resolvers[slot].send(reply)
            except StopIteration as done:
                outcomes[slot] = done.value
        return asks

    def simulate(asks: Mapping[Any, List[ClusterJob]]) -> None:
        nonlocal dispatch
        if not asks:
            return
        batch = run_many(
            [job for js in asks.values() for job in js],
            processes=jobs,
            executor=executor,
        )
        dispatch = (batch.mode, batch.processes)
        runs = iter(batch)
        step({slot: [next(runs) for _ in js] for slot, js in asks.items()})

    try:
        asks = step(dict.fromkeys(resolvers))
        own = {s: a for s, a in asks.items() if a is not WAIT_FOR_PEER}
        simulate(own)
        held = [slot for slot in asks if slot not in own]
        simulate(step({slot: cache.wait_for(slot) for slot in held}))
    except BaseException:
        for resolver in resolvers.values():
            resolver.close()
        raise
    result = assemble_result(specs, points, verifications, outcomes)
    result.stats.mode, result.stats.processes = dispatch
    return result


def run_sweep(
    specs: Union[SweepSpec, Sequence[SweepSpec]],
    *,
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, SweepCache] = None,
) -> SweepResult:
    """Deprecated kwargs-style entry; use
    :meth:`repro.api.Session.sweep` on a session constructed with
    ``cache_dir=``/``jobs=``.

    The shim builds a one-shot :class:`repro.api.Session` (so any pool
    it creates is torn down again — the whole point of a real Session is
    to keep that pool alive between calls).
    """
    warnings.warn(
        "run_sweep(...) is deprecated; use "
        "repro.Session(cache_dir=..., jobs=...).sweep(specs)",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api.session import Session

    session = Session(cache_dir=cache, jobs=jobs)
    try:
        return session.sweep(specs)
    finally:
        session.close()
