"""Streaming batch execution of (algorithm × instance) grids.

The shape every experiment in this library shares — "run these
algorithms on these instances and collect per-cell summaries" — lives
here, once. The core is a *streaming* generator:
:meth:`BatchRunner.iter_records` yields one ``(index, record)`` pair per
:class:`RunRequest` cell **as results complete** (cache hits first, then
pool futures in completion order), so callers can render progress, feed
dashboards, or bail early on very large grids without holding every
record in memory. :meth:`BatchRunner.run` is a thin collecting wrapper
that reorders the stream back into **request order** — byte-identical to
the records the historical eager implementation returned.

Records are plain JSON-able measurements (cost, energy, acceptance,
certified ratio, per-cell wall time, the full serialized schedule),
which buys two properties at once:

* **parallel == serial**: worker processes ship back the exact payload a
  serial run would produce, so results are bit-identical whatever the
  worker count (``wall_time`` is the one measured, non-deterministic
  field; it is excluded from record equality);
* **cacheable**: the same payload is what the content-addressed
  :class:`~repro.engine.cache.ResultCache` stores, so a cache hit is
  indistinguishable from a fresh run (and a warm sweep recomputes
  nothing — only changed cells miss). The stored wall time is the
  *original* measured cost of the cell.

The certified ratio is filled for exactly the algorithms whose registry
entry declares the ``certificate-producing`` capability; other cells
carry ``NaN`` there, never a fake number.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

from ..errors import CacheError, InvalidParameterError
from ..io.serialize import (
    SCHEMA_VERSION,
    instance_to_dict,
    schedule_to_dict,
    stable_hash,
)
from ..model.job import Instance
from .cache import CacheBackend, DirectoryCache
from .registry import REGISTRY

__all__ = [
    "RunRequest",
    "RunRecord",
    "RunnerStats",
    "BatchRunner",
    "ClaimTable",
    "InProcessClaimTable",
    "request_key",
    "evaluate_request",
    "merge_shards",
    "shard_requests",
    "record_to_payload",
    "record_from_payload",
]

#: Bumped whenever the record payload changes shape, so stale cache
#: entries from an older build miss instead of deserializing wrongly.
#: Also bumped when results move by design, so a cache never mixes
#: records from two solvers. (2: added the measured ``wall_time``
#: field. 3: the exact water-fill replaced the bisection, which moves
#: PD's floats in the last bits; the payload fields are unchanged.)
RECORD_VERSION = 3

#: Shard-scheduling strategies. ``rr`` is *static* — shard ``(i, k)``
#: owns positions ``i, i+k, ...`` (:func:`shard_requests`) — while
#: ``steal`` is *dynamic*: membership is decided cell by cell at run
#: time through a shared :class:`ClaimTable`
#: (:meth:`BatchRunner.run_stolen`).
SHARD_STRATEGIES = ("rr", "steal")


class ClaimTable(Protocol):
    """What work-stealing execution needs from a claim source.

    One claim table fronts one compiled request list; ``claim(count)``
    atomically hands out up to ``count`` not-yet-claimed request
    positions (each position at most once *at a time*, across every
    cooperating worker), and an empty list means the table is drained.
    Two implementations ship: :class:`InProcessClaimTable` (threads of
    one process) and :class:`repro.engine.remote.HttpClaimTable`
    (workers on separate machines, served by ``repro cache-serve``).

    Tables may optionally implement **claim leases**: a handed-out
    position not reported via ``done(positions)`` within the table's
    lease TTL is *reissued* to a later claimer, so one crashed worker
    cannot strand tail cells. Leases trade exactly-once claiming for
    at-least-once: a position can be recomputed (the result cache makes
    the recompute cheap, and the merge step still detects genuine
    duplicates loudly). Tables without leases keep the historical
    exactly-once behavior and need no ``done``.
    """

    def claim(self, count: int = 1) -> list[int]: ...


def _check_claim_count(count: int) -> None:
    if not isinstance(count, int) or count < 1:
        raise InvalidParameterError(
            f"claim count must be an int >= 1, got {count!r}"
        )


def _check_lease_ttl(lease_ttl) -> float | None:
    if lease_ttl is None:
        return None
    if (
        not isinstance(lease_ttl, (int, float))
        or isinstance(lease_ttl, bool)
        or not math.isfinite(float(lease_ttl))
        or float(lease_ttl) <= 0.0
    ):
        raise InvalidParameterError(
            f"lease_ttl must be a positive number of seconds or None, "
            f"got {lease_ttl!r}"
        )
    return float(lease_ttl)


def _check_done_positions(positions, total: int) -> list[int]:
    out = []
    for position in positions:
        if (
            not isinstance(position, int)
            or isinstance(position, bool)
            or not 0 <= position < total
        ):
            raise InvalidParameterError(
                f"done positions must be ints in 0..{total - 1}, "
                f"got {position!r}"
            )
        out.append(position)
    return out


class InProcessClaimTable:
    """A lock-guarded claim cursor for single-host runs.

    The in-process coordinator: several runners (threads) sharing one
    instance partition ``0..total-1`` between them dynamically — each
    claims the next position the moment it finishes the last one, so a
    runner stuck on an expensive cell simply claims fewer.

    With ``lease_ttl`` set, every handed-out position carries a lease:
    if :meth:`done` is not called for it within ``lease_ttl`` seconds
    (by the table's ``clock``), the position is reissued to the next
    claimer — the crash-recovery semantics of the claim-lease protocol.
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        total: int,
        *,
        lease_ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not isinstance(total, int) or total < 0:
            raise InvalidParameterError(
                f"claim-table total must be an int >= 0, got {total!r}"
            )
        self.total = total
        self.lease_ttl = _check_lease_ttl(lease_ttl)
        self._clock = clock
        self._cursor = 0
        #: position -> lease deadline (leased, not yet reported done)
        self._outstanding: dict[int, float] = {}
        self._done: set[int] = set()
        self._lock = threading.Lock()

    def claim(self, count: int = 1) -> list[int]:
        _check_claim_count(count)
        with self._lock:
            positions: list[int] = []
            if self.lease_ttl is not None:
                now = self._clock()
                expired = sorted(
                    position
                    for position, deadline in self._outstanding.items()
                    if deadline <= now
                )
                for position in expired:
                    if len(positions) == count:
                        break
                    self._outstanding[position] = now + self.lease_ttl
                    positions.append(position)
            take = min(count - len(positions), self.total - self._cursor)
            if take > 0:
                fresh = list(range(self._cursor, self._cursor + take))
                self._cursor += take
                if self.lease_ttl is not None:
                    deadline = self._clock() + self.lease_ttl
                    for position in fresh:
                        self._outstanding[position] = deadline
                positions.extend(fresh)
            return positions

    def done(self, positions: Sequence[int]) -> None:
        """Report computed positions; their leases stop being reissuable."""
        checked = _check_done_positions(positions, self.total)
        with self._lock:
            for position in checked:
                self._outstanding.pop(position, None)
                self._done.add(position)

    def pending(self) -> int:
        """Leased positions not yet reported done.

        Nonzero after an empty :meth:`claim` means the table is not
        drained — those cells will either be reported done by their
        holders or expire back into the queue, so a lease-aware worker
        waits instead of exiting (the crash-recovery guarantee needs a
        survivor still claiming when the leases expire).
        """
        with self._lock:
            return len(self._outstanding)

    @property
    def done_count(self) -> int:
        """Positions reported done so far."""
        with self._lock:
            return len(self._done)

    @property
    def remaining(self) -> int:
        with self._lock:
            return self.total - self._cursor


@dataclass(frozen=True)
class RunRequest:
    """One grid cell: an algorithm name, an instance, and caller context.

    ``tag`` is an arbitrary JSON-able mapping the caller threads through
    to the record (sweep parameters, seed, ...); it does not participate
    in the cache key — only the algorithm and the instance content do.
    """

    algorithm: str
    instance: Instance
    tag: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class RunRecord:
    """The measurements of one evaluated cell.

    ``schedule`` is the full :func:`~repro.io.serialize.schedule_to_dict`
    form — everything needed to audit or replay the cell offline.
    ``certified_ratio`` / ``dual_g`` are ``NaN`` unless the algorithm's
    registry entry produces certificates. ``cached`` tells whether this
    record was served without a fresh evaluation for this request —
    from the on-disk result cache, or from an identical cell earlier in
    the same batch.

    ``wall_time`` is the measured evaluation cost of the cell in
    seconds. A cached record carries the time of the *original*
    computation, and the field is excluded from equality/comparison —
    it is a measurement of the machine, not of the algorithm, so two
    otherwise-identical records still compare equal.
    """

    algorithm: str
    cost: float
    energy: float
    lost_value: float
    acceptance: float
    certified_ratio: float
    dual_g: float
    schedule: dict[str, Any] = field(repr=False)
    key: str = ""
    cached: bool = False
    tag: Mapping[str, Any] | None = None
    wall_time: float = field(default=math.nan, compare=False)

    @property
    def finished(self) -> tuple[bool, ...]:
        """Per-job finished flags, in the schedule's job order."""
        return tuple(bool(f) for f in self.schedule["finished"])


def request_key(algorithm: str, instance: Instance) -> str:
    """Content address of a cell: algorithm (+ parsed variant
    parameters) + full instance content.

    Variant specs are resolved through the registry first, so every
    spelling of the same variant (``pd?delta=0.05`` / ``pd?delta=5e-2``)
    keys identically, and a parameter that changes results always
    changes the key. Base entries and variants share one key *scheme*
    (the ``params`` field is only present for variants), but every key
    also folds in :data:`RECORD_VERSION` — so a payload-shape bump
    (such as the one that added ``wall_time``) deliberately cold-starts
    existing caches rather than serving records an older build wrote.
    """
    info = REGISTRY.info(algorithm)
    payload = {
        "kind": "run-request",
        "schema": SCHEMA_VERSION,
        "record": RECORD_VERSION,
        "algorithm": info.base,
        "instance": instance_to_dict(instance),
    }
    if info.params:
        payload["params"] = dict(info.params)
    return stable_hash(payload)


def evaluate_request(request: RunRequest) -> dict[str, Any]:
    """Evaluate one cell and return its JSON-able payload.

    Module-level (not a method) so worker processes can unpickle it by
    name; called identically by the serial path, which is what makes
    ``workers=1`` and ``workers=N`` byte-for-byte interchangeable.

    The measured ``wall_time`` covers the algorithm run *and* its
    certificate evaluation — the full cost of the cell, which is what a
    cost-aware scheduler needs to balance.
    """
    info = REGISTRY.info(request.algorithm)
    start = time.perf_counter()
    outcome = REGISTRY.run(request.algorithm, request.instance)
    ratio = g = math.nan
    if info.certificate is not None:
        cert = info.certificate(outcome.raw)
        ratio = float(cert.ratio)
        g = float(cert.g)
    elapsed = time.perf_counter() - start
    schedule = outcome.schedule
    return {
        "kind": "run-record",
        "schema": SCHEMA_VERSION,
        "record": RECORD_VERSION,
        # info.name is canonical: every spelling of a variant spec
        # produces the identical record payload.
        "algorithm": info.name,
        "cost": float(schedule.cost),
        "energy": float(schedule.energy),
        "lost_value": float(schedule.lost_value),
        "acceptance": float(schedule.finished.mean()) if len(schedule.finished) else 1.0,
        "certified_ratio": ratio,
        "dual_g": g,
        "schedule": schedule_to_dict(schedule),
        "wall_time": elapsed,
    }


def _record_from_payload(
    payload: dict[str, Any], *, key: str, cached: bool, tag: Mapping[str, Any] | None
) -> RunRecord:
    return RunRecord(
        algorithm=payload["algorithm"],
        cost=float(payload["cost"]),
        energy=float(payload["energy"]),
        lost_value=float(payload["lost_value"]),
        acceptance=float(payload["acceptance"]),
        certified_ratio=float(payload["certified_ratio"]),
        dual_g=float(payload["dual_g"]),
        schedule=payload["schedule"],
        key=key,
        cached=cached,
        tag=tag,
        wall_time=float(payload.get("wall_time", math.nan)),
    )


def record_to_payload(record: RunRecord) -> dict[str, Any]:
    """Serialize a record (shard files, archival) — JSON-able, lossless.

    ``certified_ratio`` / ``dual_g`` / ``wall_time`` may be ``NaN``; the
    payload is meant for :func:`json.dump` with the default
    (Python-dialect) ``allow_nan=True``, which round-trips them.
    """
    return {
        "kind": "run-record",
        "schema": SCHEMA_VERSION,
        "record": RECORD_VERSION,
        "algorithm": record.algorithm,
        "cost": record.cost,
        "energy": record.energy,
        "lost_value": record.lost_value,
        "acceptance": record.acceptance,
        "certified_ratio": record.certified_ratio,
        "dual_g": record.dual_g,
        "schedule": record.schedule,
        "key": record.key,
        "cached": record.cached,
        "tag": dict(record.tag) if record.tag is not None else None,
        "wall_time": record.wall_time,
    }


#: Every key :func:`record_to_payload` emits — the full vocabulary of a
#: record payload. :func:`record_from_payload` rejects anything else:
#: an unknown key means the payload came from a different build (or was
#: hand-edited), and silently dropping it would quietly lose data.
_RECORD_PAYLOAD_KEYS = frozenset({
    "kind",
    "schema",
    "record",
    "algorithm",
    "cost",
    "energy",
    "lost_value",
    "acceptance",
    "certified_ratio",
    "dual_g",
    "schedule",
    "key",
    "cached",
    "tag",
    "wall_time",
})


def record_from_payload(payload: dict[str, Any]) -> RunRecord:
    """Inverse of :func:`record_to_payload`, with version validation.

    Unknown keys raise a clear :class:`~repro.errors.ReproError`
    (rather than being silently dropped), and the measured ``wall_time``
    round-trips losslessly.
    """
    if payload.get("kind") != "run-record":
        raise InvalidParameterError(
            f"expected a 'run-record' payload, got {payload.get('kind')!r}"
        )
    unknown = set(payload) - _RECORD_PAYLOAD_KEYS
    if unknown:
        raise InvalidParameterError(
            f"unknown record payload key(s) {sorted(unknown)}; this build "
            f"understands exactly {sorted(_RECORD_PAYLOAD_KEYS)} — refusing "
            "to silently drop data from a different build"
        )
    if (
        payload.get("schema") != SCHEMA_VERSION
        or payload.get("record") != RECORD_VERSION
    ):
        raise InvalidParameterError(
            f"record payload versions (schema={payload.get('schema')!r}, "
            f"record={payload.get('record')!r}) do not match this build "
            f"(schema={SCHEMA_VERSION}, record={RECORD_VERSION})"
        )
    return _record_from_payload(
        payload,
        key=str(payload.get("key", "")),
        cached=bool(payload.get("cached", False)),
        tag=payload.get("tag"),
    )


def _check_shard(shard: tuple[int, int]) -> tuple[int, int]:
    try:
        index, count = shard
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"shard must be an (index, count) pair, got {shard!r}"
        ) from None
    if not isinstance(index, int) or not isinstance(count, int):
        raise InvalidParameterError(
            f"shard indices must be ints, got {shard!r}"
        )
    if count < 1 or not 0 <= index < count:
        raise InvalidParameterError(
            f"shard index must satisfy 0 <= index < count, got {shard!r}"
        )
    return index, count


def shard_requests(
    requests: Sequence[RunRequest], shard: tuple[int, int]
) -> list[RunRequest]:
    """The deterministic subset of ``requests`` owned by one shard.

    Positional round-robin: shard ``(i, k)`` owns positions ``i, i+k,
    i+2k, ...``. Membership is a pure function of the request list, so
    machines agree on the split without coordination.
    """
    index, count = _check_shard(shard)
    return list(requests)[index::count]


def merge_shards(shards: Sequence[Sequence[RunRecord]]) -> list[RunRecord]:
    """Recombine per-shard record lists into full-run request order.

    ``shards[i]`` must be the records of shard ``(i, len(shards))`` over
    one common request list; the result is exactly what an unsharded
    ``run`` of that list returns. Shapes are validated (shard ``i`` of
    ``k`` owns ``ceil((n - i) / k)`` positions), so passing shards from
    different sweeps, a missing shard, or a wrong order fails loudly
    instead of silently interleaving garbage.
    """
    count = len(shards)
    if count == 0:
        raise InvalidParameterError("need at least one shard to merge")
    total = sum(len(s) for s in shards)
    for index, records in enumerate(shards):
        expected = (total - index + count - 1) // count
        if len(records) != expected:
            raise InvalidParameterError(
                f"shard {index}/{count} has {len(records)} records, "
                f"expected {expected} of {total} total — shards are "
                "incomplete, duplicated, or from different request lists"
            )
    return [shards[pos % count][pos // count] for pos in range(total)]


@dataclass
class RunnerStats:
    """Cumulative work accounting of a :class:`BatchRunner`.

    ``computed`` counts algorithm evaluations; ``cache_hits`` requests
    served from the on-disk cache; ``deduplicated`` requests that
    repeated another cell of the same batch and reused its result
    (possible with or without a cache).
    """

    computed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0

    @property
    def total(self) -> int:
        return self.computed + self.cache_hits + self.deduplicated


#: Queue sentinel telling a :class:`_PutBatcher`'s drain thread to
#: flush what it holds and exit.
_FLUSH_STOP = object()


class _PutBatcher:
    """Background write-behind batcher for the stolen path's cache puts.

    Computed payloads are handed to a daemon thread that groups them
    into ``put_many`` calls, so the steal loop's claim/compute cycle
    never blocks on cache-write round trips — the flush half of the
    pipelined stolen sweep. Engaged only for backends exposing
    ``put_many`` (the HTTP client, tiered stacks over it), where a
    write is a network round trip worth hiding; local backends keep
    their cheap synchronous writes and immediate-visibility semantics.

    Batches flush at ``batch_size`` entries (default: the backend's
    own ``batch_size``) or after ``max_delay`` seconds of quiet,
    whichever comes first — a crashing worker therefore loses at most
    a few tens of milliseconds of finished work to the shared cache,
    and those cells' claim leases were already reported done by the
    caller, so correctness never depends on the flush. ``close()``
    drains the queue, joins the thread, and re-raises the first
    backend error it swallowed (the remote put path is lenient by
    contract, so normally there is none).
    """

    def __init__(
        self,
        cache: CacheBackend,
        *,
        batch_size: int | None = None,
        max_delay: float = 0.05,
    ) -> None:
        self._cache = cache
        if batch_size is None:
            batch_size = max(1, int(getattr(cache, "batch_size", 32)))
        self._batch_size = batch_size
        self._max_delay = max_delay
        self._queue: queue.Queue[Any] = queue.Queue()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Enqueue one write; returns immediately."""
        self._queue.put((key, payload))

    def _flush(self, buffered: list[tuple[str, dict[str, Any]]]) -> None:
        if not buffered:
            return
        try:
            self._cache.put_many(dict(buffered))  # type: ignore[attr-defined]
        except BaseException as exc:  # noqa: BLE001 - reported at close()
            if self._failure is None:
                self._failure = exc
        buffered.clear()

    def _drain(self) -> None:
        buffered: list[tuple[str, dict[str, Any]]] = []
        while True:
            try:
                item = self._queue.get(timeout=self._max_delay)
            except queue.Empty:
                self._flush(buffered)
                continue
            if item is _FLUSH_STOP:
                self._flush(buffered)
                return
            buffered.append(item)
            if len(buffered) >= self._batch_size:
                self._flush(buffered)

    def close(self) -> None:
        """Flush everything queued, stop the thread, surface errors."""
        self._queue.put(_FLUSH_STOP)
        self._thread.join()
        if self._failure is not None:
            raise self._failure


class BatchRunner:
    """Evaluates request grids, optionally in parallel and/or cached.

    Parameters
    ----------
    workers:
        ``1`` runs cells serially in-process (no pool, no pickling —
        also the mode where monkeypatching registry runners works, which
        tests rely on). ``> 1`` fans uncached cells out to that many
        worker processes.
    cache:
        ``None`` (no caching), a directory path (opened as a
        :class:`~repro.engine.cache.DirectoryCache`), or any ready
        :class:`~repro.engine.cache.CacheBackend` — e.g. a
        :class:`~repro.engine.cache.SqliteCache`. Hits skip evaluation
        entirely; backends are interchangeable bit for bit.
    claim_batch:
        Positions leased per claim round trip on the stolen path
        (:meth:`iter_stolen`) — the ``k`` of the server's
        ``claim_next?k=N``. ``None`` (default) picks ``workers`` for
        pooled runs and 1 for serial ones (the finest stealing
        granularity, the historical behavior). Larger batches amortize
        claim latency against a remote table at the cost of coarser
        stealing: a worker holds at most one batch beyond its pool
        capacity.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache: CacheBackend | str | Path | None = None,
        claim_batch: int | None = None,
    ) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise InvalidParameterError(
                f"workers must be an int >= 1, got {workers!r}"
            )
        self.workers = workers
        if claim_batch is not None and (
            not isinstance(claim_batch, int)
            or isinstance(claim_batch, bool)
            or claim_batch < 1
        ):
            raise InvalidParameterError(
                f"claim_batch must be an int >= 1 or None, got {claim_batch!r}"
            )
        self.claim_batch = claim_batch
        if isinstance(cache, (str, Path)):
            cache = DirectoryCache(cache)
        elif cache is not None and not (
            hasattr(cache, "get") and hasattr(cache, "put")
        ):
            raise InvalidParameterError(
                f"cache must be a path or a CacheBackend, got {cache!r}"
            )
        self.cache = cache
        self.stats = RunnerStats()

    def reset_stats(self) -> None:
        self.stats = RunnerStats()

    # ------------------------------------------------------------------
    def run_one(self, algorithm: str, instance: Instance) -> RunRecord:
        """Convenience wrapper: evaluate a single cell."""
        return self.run([RunRequest(algorithm, instance)])[0]

    def _probe_cache(
        self, keys: Sequence[str]
    ) -> Iterator[tuple[str, dict[str, Any]]]:
        """Yield ``(key, payload)`` for every cache hit among ``keys``.

        Backends with a ``get_many`` (remote/tiered) are probed in
        chunks of their ``batch_size`` — one round trip per chunk
        instead of one per key; everything else falls back to per-key
        ``get``. Either way hits stream out chunk by chunk.
        """
        fetch_many = getattr(self.cache, "get_many", None)
        if fetch_many is None:
            for key in keys:
                payload = self.cache.get(key)
                if payload is not None:
                    yield key, payload
            return
        chunk = max(1, int(getattr(self.cache, "batch_size", 32)))
        for start in range(0, len(keys), chunk):
            block = keys[start : start + chunk]
            found = fetch_many(block)
            for key in block:
                payload = found.get(key)
                if payload is not None:
                    yield key, payload

    def iter_records(
        self, requests: Sequence[RunRequest]
    ) -> Iterator[tuple[int, RunRecord]]:
        """Yield ``(index, record)`` pairs in **completion order**.

        The streaming core every other entry point wraps. ``index`` is
        the request's position in ``requests``. Cache hits stream first
        (they are complete before any work starts), then freshly
        computed cells as they finish — serially in request order for
        ``workers=1``, in pool completion order otherwise. Duplicate
        cells (same algorithm + instance content) are computed once;
        when their payload lands, every requesting position is yielded,
        the lowest marked fresh and the rest ``cached`` (in-batch
        deduplication, exactly the eager semantics).

        Each record is yielded exactly once; fully consuming the stream
        and sorting by ``index`` reproduces :meth:`run`'s output.
        """
        requests = list(requests)
        keys = [request_key(r.algorithm, r.instance) for r in requests]

        # Positions per unique cell, ascending (ascending order is what
        # makes "first occurrence is the computation" reproducible).
        positions: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            positions.setdefault(key, []).append(index)

        # Stream cache hits as they are fetched — each payload (which
        # carries a full serialized schedule) is yielded and released
        # before the next chunk is read, so a warm sweep's peak memory
        # is one probe chunk, not the whole grid. Backends exposing
        # get_many (the HTTP backend, tiered stacks over it) are probed
        # in batched round trips to amortize network latency.
        hit_keys: set[str] = set()
        if self.cache is not None:
            for key, payload in self._probe_cache(list(positions)):
                hit_keys.add(key)
                for index in positions[key]:
                    self.stats.cache_hits += 1
                    yield index, _record_from_payload(
                        payload, key=key, cached=True, tag=requests[index].tag
                    )

        # Unique cells still to compute, in first-appearance order.
        pending = [
            (key, requests[indexes[0]])
            for key, indexes in positions.items()
            if key not in hit_keys
        ]

        def deliver(
            key: str, payload: dict[str, Any]
        ) -> Iterator[tuple[int, RunRecord]]:
            self.stats.computed += 1
            if self.cache is not None:
                self.cache.put(key, payload)
            for order, index in enumerate(positions[key]):
                cached = order > 0
                if cached:
                    self.stats.deduplicated += 1
                yield index, _record_from_payload(
                    payload,
                    key=key,
                    cached=cached,
                    tag=requests[index].tag,
                )

        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for key, request in pending:
                yield from deliver(key, evaluate_request(request))
        else:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            try:
                futures = {
                    pool.submit(evaluate_request, request): key
                    for key, request in pending
                }
                for future in as_completed(futures):
                    yield from deliver(futures[future], future.result())
            finally:
                # Reached on exhaustion, on a worker exception, and on
                # GeneratorExit when the consumer abandons the stream
                # early: cancel queued cells instead of silently
                # computing-and-discarding the rest of the grid.
                pool.shutdown(wait=False, cancel_futures=True)

    def run(
        self,
        requests: Sequence[RunRequest],
        *,
        shard: tuple[int, int] | None = None,
        on_record: Callable[[RunRecord, int, int], None] | None = None,
    ) -> list[RunRecord]:
        """Evaluate all cells; results are in request order.

        A thin collecting wrapper over :meth:`iter_records`: the stream
        arrives in completion order and is reordered back to request
        order, so the returned list is byte-identical to the historical
        eager implementation whatever the worker count or cache state.

        ``on_record(record, done, total)`` (if given) fires once per
        record *in completion order* as results land — progress bars and
        live dashboards hook in here without giving up the ordered
        return value.

        ``shard=(i, k)`` evaluates only the deterministic ``i``-th of
        ``k`` round-robin slices of the request list (see
        :func:`shard_requests`) and returns that slice's records; :func:`merge_shards` recombines
        the ``k`` slices into the unsharded result, so a grid can be
        split across machines and recombined into bit-identical
        measurements. (Only the ``cached`` bookkeeping flag can differ,
        since it reflects each shard's own cache state.)
        """
        requests = (
            list(requests)
            if shard is None
            else shard_requests(requests, shard)
        )
        total = len(requests)
        records: list[RunRecord | None] = [None] * total
        done = 0
        for index, record in self.iter_records(requests):
            records[index] = record
            done += 1
            if on_record is not None:
                on_record(record, done, total)
        return records  # type: ignore[return-value]  # every slot filled

    def iter_stolen(
        self, requests: Sequence[RunRequest], claims: ClaimTable
    ) -> Iterator[tuple[int, RunRecord]]:
        """Work-stealing streaming execution over a shared claim table.

        Every cooperating worker holds the *same* ``requests`` list and
        a claim table fronting it; each claims positions one at a time
        and yields ``(position, record)`` pairs as they complete, so a
        worker bogged down in an expensive cell simply claims fewer —
        the queue drains into whoever is fastest *right now*, with no
        precomputed split and no cost model needed.

        Per claimed block: one claim round trip (``claim_batch``
        positions — see the constructor), one batched cache probe
        (hits stream back without occupying a pool slot), then
        evaluation — serial for ``workers=1``, otherwise on a process
        pool that keeps at most ``workers`` cells in flight. The
        pooled loop is *pipelined*: while futures compute, the next
        claim batch is already being leased and probed (the worker
        processes run independently, so those round trips overlap
        compute instead of serializing with it), and completed
        payloads flush to the cache through a background ``put_many``
        batcher when the backend has one. A worker therefore holds at
        most one claim batch beyond its pool capacity — bounded
        hoarding, traded for claim traffic that scales with batches
        instead of cells. In-batch deduplication does not apply —
        positions are claimed individually — but a shared cache gives
        duplicate cells across workers one computation in practice.

        The union of every worker's pairs is exactly the full request
        list, each position once; sorting by position reproduces the
        unsharded :meth:`run` measurements bit for bit. (With a leased
        claim table, "each position once" holds per worker — a lease
        the *same* worker re-receives after expiry is skipped here, and
        completed cells are reported back via the table's ``done`` so
        healthy workers' leases are never reissued.)
        """
        requests = list(requests)
        total = len(requests)
        # Leases are a table property: done-reporting (and the
        # wait-on-pending drain rule) apply only when the table was
        # created with a TTL — a lease-less steal sweep keeps the
        # historical exactly-once protocol and zero extra traffic.
        leased = getattr(claims, "lease_ttl", None) is not None
        report = getattr(claims, "done", None) if leased else None
        pending = getattr(claims, "pending", None) if leased else None
        poll = (
            min(max(claims.lease_ttl / 20.0, 0.005), 0.5) if leased else 0.0
        )
        seen: set[int] = set()
        completed: set[int] = set()

        def claim_new(count: int) -> tuple[list[int], str]:
            """Claim; classify the outcome and filter re-leases.

            A slow worker can outlive its own lease; the table may then
            hand a position straight back to it. Re-receipts of cells
            this worker *finished* are re-reported done (the original
            report raced the expiry); re-receipts of cells still in
            flight here are simply dropped — their lease stays live and
            the eventual completion reports it. Returns the genuinely
            new positions plus a status: ``"ok"``, ``"drained"`` (empty
            claim with no unexpired leases outstanding anywhere), or
            ``"waiting"`` (empty claim but other workers still hold
            leases — cells may yet flow back, so do not exit).
            """
            claimed = claims.claim(count)
            if not claimed:
                if pending is not None and pending():
                    return [], "waiting"
                return [], "drained"
            stale = [p for p in claimed if p in seen]
            if stale:
                if not leased:
                    # Without leases a repeat handout is a table bug,
                    # not a reissue — keep the historical loud failure.
                    raise CacheError(
                        f"claim table handed out position {stale[0]} twice — "
                        "it does not implement exactly-once claiming"
                    )
                finished = [p for p in stale if p in completed]
                if finished:
                    report(finished)
            fresh_positions = [p for p in claimed if p not in seen]
            if not fresh_positions:
                # Everything handed out was a re-lease of our own work
                # (reported or still in flight): no new cells right now,
                # but not drained either — harvest/poll, don't spin.
                return [], "waiting"
            return fresh_positions, "ok"

        def resolve(position: int) -> tuple[RunRequest, str]:
            if not isinstance(position, int) or not 0 <= position < total:
                # A fabric fault, not a parameter problem: CacheError,
                # like every other claim-table conflict.
                raise CacheError(
                    f"claim table handed out position {position!r}, valid "
                    f"range is 0..{total - 1} — claim table and request "
                    "list are out of sync"
                )
            request = requests[position]
            return request, request_key(request.algorithm, request.instance)

        # Write-behind batcher: computed payloads flush to the cache on
        # a background thread through put_many, so the steal loop never
        # blocks on a cache-write round trip. Backends without put_many
        # (local disk, memory) keep synchronous writes — they are cheap
        # and their immediate visibility is part of their contract.
        flusher = (
            _PutBatcher(self.cache)
            if self.cache is not None and hasattr(self.cache, "put_many")
            else None
        )

        def fresh(
            position: int, key: str, payload: dict[str, Any]
        ) -> tuple[int, RunRecord]:
            self.stats.computed += 1
            if flusher is not None:
                flusher.put(key, payload)
            elif self.cache is not None:
                self.cache.put(key, payload)
            return position, _record_from_payload(
                payload, key=key, cached=False, tag=requests[position].tag
            )

        def claim_block(count: int) -> tuple[
            list[tuple[int, RunRequest, str, dict[str, Any] | None]], str
        ]:
            """One pipeline stage: claim a block, batch-probe the cache.

            Returns ``(staged, status)`` where each staged element is
            ``(position, request, key, hit_payload_or_None)``. Hits are
            done-reported here, one round trip per block, so their
            leases clear as soon as they are known good.
            """
            claimed, status = claim_new(count)
            if status != "ok":
                return [], status
            resolved = [resolve(position) for position in claimed]
            seen.update(claimed)
            hits = (
                dict(self._probe_cache([key for _, key in resolved]))
                if self.cache is not None
                else {}
            )
            hit_positions = [
                position
                for position, (_, key) in zip(claimed, resolved)
                if key in hits
            ]
            if hit_positions:
                completed.update(hit_positions)
                if report is not None:
                    report(hit_positions)
            return [
                (position, request, key, hits.get(key))
                for position, (request, key) in zip(claimed, resolved)
            ], "ok"

        if self.workers == 1:
            # Serial path: claim_batch defaults to 1 — the finest
            # stealing granularity — but honors an explicit batch, which
            # turns N claim round trips and N probes into one of each.
            batch = self.claim_batch or 1
            try:
                while True:
                    staged, status = claim_block(batch)
                    if status == "drained":
                        return
                    if status == "waiting":
                        time.sleep(poll)
                        continue
                    for position, request, key, payload in staged:
                        if payload is not None:
                            self.stats.cache_hits += 1
                            record = _record_from_payload(
                                payload, key=key, cached=True, tag=request.tag
                            )
                        else:
                            _, record = fresh(
                                position, key, evaluate_request(request)
                            )
                            completed.add(position)
                            if report is not None:
                                report([position])
                        yield position, record
            finally:
                if flusher is not None:
                    flusher.close()

        batch = self.claim_batch or self.workers
        pool = ProcessPoolExecutor(max_workers=self.workers)
        in_flight: dict[Any, tuple[int, str]] = {}
        ready: deque[tuple[int, RunRequest, str, dict[str, Any] | None]] = (
            deque()
        )
        drained = False
        try:
            while True:
                waiting = False
                # Drain the staged queue: hits stream straight out
                # without occupying a slot, misses fill free slots.
                while ready:
                    position, request, key, payload = ready[0]
                    if payload is not None:
                        ready.popleft()
                        self.stats.cache_hits += 1
                        yield position, _record_from_payload(
                            payload, key=key, cached=True, tag=request.tag
                        )
                    elif len(in_flight) < self.workers:
                        ready.popleft()
                        future = pool.submit(evaluate_request, request)
                        in_flight[future] = (position, key)
                    else:
                        break
                # Prefetch: with nothing staged, claim+probe the next
                # block *now* — while the pool is computing — so the
                # next free slot finds work already staged instead of
                # waiting out a claim and a probe round trip. Bounded
                # hoarding: never more than one batch beyond capacity.
                if not drained and not ready:
                    staged, status = claim_block(batch)
                    if status == "drained":
                        drained = True
                    elif status == "waiting":
                        # Other workers hold live leases; cells may yet
                        # flow back. Keep harvesting (or idle-poll
                        # below) instead of exiting — the crash-recovery
                        # guarantee needs a claimer alive at expiry.
                        waiting = True
                    elif staged:
                        ready.extend(staged)
                        continue
                if in_flight:
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    pairs = []
                    for future in done:
                        position, key = in_flight.pop(future)
                        pairs.append(fresh(position, key, future.result()))
                        completed.add(position)
                    if report is not None:
                        # One done round trip per harvest, not per cell.
                        report([position for position, _ in pairs])
                    for pair in pairs:
                        yield pair
                    continue
                if ready:
                    continue
                if drained:
                    return
                if waiting:
                    time.sleep(poll)
                    continue
                return
        finally:
            # Reached on exhaustion, on a worker exception, and on
            # GeneratorExit: cancel queued cells instead of silently
            # computing-and-discarding. Unstarted claimed cells are
            # lost to this claim session — the merge step detects the
            # hole loudly rather than re-issuing positions. The flush
            # batcher drains after the pool stops feeding it.
            pool.shutdown(wait=False, cancel_futures=True)
            if flusher is not None:
                flusher.close()

    def run_stolen(
        self,
        requests: Sequence[RunRequest],
        claims: ClaimTable,
        *,
        on_record: Callable[[RunRecord, int, int], None] | None = None,
    ) -> list[tuple[int, RunRecord]]:
        """Drain the claim table; return this worker's ``(position,
        record)`` pairs sorted by position.

        The work-stealing analogue of :meth:`run`: positions are
        ascending (a worker's records are in request order for the
        positions it won), so concatenating every worker's pairs and
        sorting by position is byte-identical to the unsharded run.
        ``on_record(record, done, total)`` fires in completion order;
        ``total`` is the full grid size — how much of it this worker
        ends up doing is decided by the stealing itself.
        """
        pairs: list[tuple[int, RunRecord]] = []
        seen: set[int] = set()
        done = 0
        for position, record in self.iter_stolen(requests, claims):
            if position in seen:
                raise CacheError(
                    f"claim table handed out position {position} twice — "
                    "it does not implement exactly-once claiming"
                )
            seen.add(position)
            pairs.append((position, record))
            done += 1
            if on_record is not None:
                on_record(record, done, len(requests))
        pairs.sort(key=lambda pair: pair[0])
        return pairs
