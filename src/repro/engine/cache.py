"""Pluggable content-addressed caches for batch-runner results.

Every backend stores immutable JSON payloads under string keys (the
:func:`repro.io.serialize.stable_hash` of the *request*: algorithm name
+ parsed variant parameters + the instance's serialized form + the
record schema version). Re-running a sweep with one changed cell
therefore recomputes exactly that cell: every other request hashes to an
existing entry.

Four backends ship with the library, behind the common
:class:`CacheBackend` protocol:

* :class:`DirectoryCache` — one ``<sha256>.json`` file per entry under a
  directory. No index, no eviction, no locking beyond atomic-rename
  writes; ``rm -r`` of the directory is always a safe reset. This is
  the historical backend (``ResultCache`` remains its alias).
* :class:`SqliteCache` — a single-file SQLite database in WAL mode,
  friendlier to filesystems that hate directories with tens of
  thousands of small files, and safe under concurrent writers (content
  addressing makes every write idempotent, so writers can only race to
  store the same bytes; busy-lock collisions retry with backoff).
* :class:`MemoryCache` — a bounded in-process LRU, the hot tier of a
  :class:`TieredCache` (and a zero-setup backend for tests and the
  cache server).
* :class:`TieredCache` — a composite that probes fast tiers first,
  writes through to every tier, and promotes hits upward, so a hot key
  behind a remote :class:`~repro.engine.remote.HttpCache` tier is
  fetched over the network at most once.

Backends are interchangeable by construction: the parity tests assert
bit-identical records whichever one a :class:`~repro.engine.runner.
BatchRunner` is given.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from ..errors import InvalidParameterError

__all__ = [
    "CacheBackend",
    "DirectoryCache",
    "MemoryCache",
    "ResultCache",
    "SqliteCache",
    "TieredCache",
    "backend_stats",
    "open_cache",
]

#: Prefix of in-flight temp files a :class:`DirectoryCache` writes before
#: the atomic rename. Key-addressed entries are hex digests, so nothing
#: legitimate ever starts with this.
_TMP_PREFIX = ".tmp-"

#: Minimum age (seconds) before an on-disk temp file is considered
#: orphaned. Live writers hold their temp file for milliseconds; a
#: generous threshold keeps the init-time sweep from racing them.
_TMP_STALE_SECONDS = 3600.0

#: Suffix of the per-entry timing sidecars older builds wrote next to
#: each ``<key>.json``. Nothing reads them any more; ``gc`` deletes them.
_LEGACY_TIMING_SUFFIX = ".timing"


@runtime_checkable
class CacheBackend(Protocol):
    """What the batch runner needs from a result cache.

    Entries are immutable: ``put`` under an existing key must be a no-op
    or an idempotent overwrite with equal content (keys are content
    addresses, so both are indistinguishable). ``get`` of a missing or
    unreadable entry returns ``None`` — a miss, never an error.

    ``close`` releases whatever the backend holds open (connections,
    sidecar files); it must be idempotent, and a closed backend may
    lazily reopen on the next use. Every backend is also a context
    manager (``with open_cache(...) as cache: ...``) that closes on
    exit — long-lived callers like the CLI use that instead of leaving
    cleanup to the garbage collector.
    """

    def get(self, key: str) -> dict[str, Any] | None: ...

    def put(self, key: str, payload: dict[str, Any]) -> None: ...

    def keys(self) -> Iterator[str]: ...

    def close(self) -> None: ...

    def __contains__(self, key: str) -> bool: ...

    def __len__(self) -> int: ...


class DirectoryCache:
    """A directory of content-addressed JSON payloads (one file each)."""

    #: Concurrent callers are safe: every write is an atomic rename of
    #: immutable content, every read a single-file parse — the striped
    #: :class:`~repro.io.server.CacheServer` may serve this backend
    #: from parallel handler threads.
    thread_safe = True

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files orphaned by a killed writer.

        An interrupted ``put`` (process killed between ``mkstemp`` and
        ``os.replace``) leaks a ``.tmp-*`` file that nothing would ever
        clean up. Only files older than :data:`_TMP_STALE_SECONDS` are
        swept — a live writer holds its temp file for milliseconds, so
        the age gate keeps concurrent cache users (shards sharing one
        directory) from deleting each other's in-flight writes; should
        that ever happen anyway, ``put`` retries the write.
        """
        cutoff = time.time() - _TMP_STALE_SECONDS
        for stale in self.directory.glob(f"{_TMP_PREFIX}*"):
            try:
                if stale.stat().st_mtime < cutoff:
                    stale.unlink()
            except OSError:
                pass

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _atomic_write(self, path: Path, text: str) -> None:
        """Write-then-rename, retried if a racing cleaner steals the temp
        file — content addressing makes the whole operation idempotent,
        so retrying is always correct."""
        for attempt in range(3):
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=_TMP_PREFIX, suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                if attempt == 2:
                    raise
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key``, or ``None`` on a miss.

        A corrupt file (interrupted write from a pre-atomic-rename tool,
        disk trouble) is treated as a miss, not an error — the entry will
        be recomputed and rewritten.
        """
        path = self._path(key)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            return None

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic write-then-rename)."""
        self._atomic_write(self._path(key), json.dumps(payload))

    def stats(self) -> dict[str, Any]:
        """Backend, entry count, and payload bytes."""
        entries = total_bytes = 0
        for path in self.directory.glob("*.json"):
            if path.name.startswith(_TMP_PREFIX):
                continue
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # deleted under us: not an entry anymore
            entries += 1
        return {
            "backend": "dir",
            "location": str(self.directory),
            "entries": entries,
            "total_bytes": total_bytes,
        }

    def gc(self, older_than: float) -> int:
        """Prune entries not modified in ``older_than`` seconds.

        Removes each stale entry, stale ``.tmp-*`` leftovers past the
        cutoff, and every timing sidecar an older build left behind.
        Returns the number of *entries* pruned.
        """
        cutoff = time.time() - float(older_than)
        removed = 0
        for path in list(self.directory.iterdir()):
            name = path.name
            try:
                stale = path.stat().st_mtime < cutoff
            except OSError:
                continue
            if name.startswith(_TMP_PREFIX):
                if stale:
                    path.unlink(missing_ok=True)
                continue
            if name.endswith(".json") and stale:
                path.unlink(missing_ok=True)
                removed += 1
            elif name.endswith(_LEGACY_TIMING_SUFFIX):
                path.unlink(missing_ok=True)
        return removed

    def keys(self) -> Iterator[str]:
        """The stored keys (entry files only, never in-flight temp files).

        ``Path.glob`` matches dotfiles, so ``*.json`` alone would also
        yield ``.tmp-*.json`` files from writers we are racing with —
        those are not entries yet and must not be counted or listed.
        """
        for path in self.directory.glob("*.json"):
            if not path.name.startswith(_TMP_PREFIX):
                yield path.stem

    def close(self) -> None:
        """No-op: every operation opens and closes its own file."""

    def __enter__(self) -> "DirectoryCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


#: Backward-compatible name for the historical JSON-directory backend.
ResultCache = DirectoryCache


class SqliteCache:
    """A single-file SQLite backend (WAL mode, concurrent-writer safe).

    One table, ``entries(key TEXT PRIMARY KEY, payload TEXT, created_at
    REAL)``. (Databases written by older builds also carry a
    ``wall_time REAL`` column; it is left in place and never read.)
    Writes use ``INSERT OR REPLACE`` inside an implicit transaction;
    WAL mode plus a generous busy timeout lets several runner processes
    share the file, and content addressing means the worst a race can
    do is store the same bytes twice. A write that still loses the lock
    race (``SQLITE_BUSY`` surviving the busy timeout — seen with many
    processes hammering one file) is retried with bounded exponential
    backoff instead of surfacing ``sqlite3.OperationalError`` mid-sweep.

    Connections are per-process (reopened after fork) and shared by the
    process's threads: ``check_same_thread=False``, with an internal
    lock held around every use of the connection, so two threads never
    interleave statements or transactions on it.
    """

    #: Every connection use holds the internal lock, so handler threads
    #: of the striped :class:`~repro.io.server.CacheServer` (or a steal
    #: worker's background put batcher) may share one instance.
    thread_safe = True

    #: Bounded backoff for writes that lose the WAL lock race: attempt
    #: ``i`` sleeps ``_BUSY_BASE_DELAY * 2**i`` seconds before retrying,
    #: ~0.6 s in total before the error is surfaced for real.
    _BUSY_ATTEMPTS = 6
    _BUSY_BASE_DELAY = 0.02

    def __init__(self, path: str | Path, *, timeout: float = 30.0) -> None:
        self.path = Path(path)
        if self.path.parent:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._timeout = timeout
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._pid = -1
        self._connect()  # fail loudly now if the path is unusable

    def _connect(self) -> sqlite3.Connection:
        """This process's connection, opened on first use (callers that
        go on to use it hold the lock through :meth:`_connection`)."""
        with self._lock:
            # Reopen after fork: SQLite connections must not cross
            # processes (worker pools fork the parent mid-life).
            if self._conn is None or self._pid != os.getpid():
                conn = sqlite3.connect(
                    self.path, timeout=self._timeout, check_same_thread=False
                )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries ("
                    "key TEXT PRIMARY KEY, payload TEXT NOT NULL, "
                    "created_at REAL)"
                )
                try:
                    # Migrate older databases in place; the duplicate-
                    # column error on current ones is the cheap
                    # existence probe.
                    conn.execute(
                        "ALTER TABLE entries ADD COLUMN created_at REAL"
                    )
                except sqlite3.OperationalError:
                    pass
                conn.commit()
                self._conn = conn
                self._pid = os.getpid()
            return self._conn

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """The connection, held exclusively for the ``with`` block."""
        with self._lock:
            yield self._connect()

    @staticmethod
    def _is_busy(exc: sqlite3.OperationalError) -> bool:
        text = str(exc).lower()
        return "locked" in text or "busy" in text

    def _write_with_retry(self, operation):
        """Run a write closure on the connection, retrying
        lock-contention failures (the backoff sleeps outside the
        internal lock).

        Content addressing makes every write idempotent, so a retry can
        only re-store the same bytes; anything that is not a busy/locked
        condition re-raises immediately.
        """
        for attempt in range(self._BUSY_ATTEMPTS):
            try:
                with self._connection() as conn, conn:
                    return operation(conn)
            except sqlite3.OperationalError as exc:
                if not self._is_busy(exc) or attempt == self._BUSY_ATTEMPTS - 1:
                    raise
            time.sleep(self._BUSY_BASE_DELAY * (2 ** attempt))

    def _query(self, sql: str, params: tuple = ()) -> list[tuple]:
        with self._connection() as conn:
            return conn.execute(sql, params).fetchall()

    def get(self, key: str) -> dict[str, Any] | None:
        rows = self._query("SELECT payload FROM entries WHERE key = ?", (key,))
        if not rows:
            return None
        try:
            return json.loads(rows[0][0])
        except json.JSONDecodeError:
            return None  # corrupt entry reads as a miss, like the dir backend

    def put(self, key: str, payload: dict[str, Any]) -> None:
        text = json.dumps(payload)
        self._write_with_retry(
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO entries (key, payload, created_at) "
                "VALUES (?, ?, ?)",
                (key, text, time.time()),
            )
        )

    def stats(self) -> dict[str, Any]:
        """Backend, entry count, and payload bytes."""
        ((entries, total_bytes),) = self._query(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) FROM entries"
        )
        return {
            "backend": "sqlite",
            "location": str(self.path),
            "entries": int(entries),
            "total_bytes": int(total_bytes),
        }

    def gc(self, older_than: float) -> int:
        """Prune entries stored more than ``older_than`` seconds ago.

        Entries written by a pre-timestamp build (``created_at`` NULL)
        have unknowable age and are treated as old — ``gc`` is an
        explicit maintenance request, and keeping undatable entries
        forever would defeat it. Returns the number pruned.
        """
        cutoff = time.time() - float(older_than)
        return self._write_with_retry(
            lambda conn: int(
                conn.execute(
                    "DELETE FROM entries "
                    "WHERE created_at IS NULL OR created_at < ?",
                    (cutoff,),
                ).rowcount
            )
        )

    def keys(self) -> Iterator[str]:
        for (key,) in self._query("SELECT key FROM entries ORDER BY key"):
            yield key

    def __contains__(self, key: str) -> bool:
        return bool(self._query("SELECT 1 FROM entries WHERE key = ?", (key,)))

    def __len__(self) -> int:
        return int(self._query("SELECT COUNT(*) FROM entries")[0][0])

    def close(self) -> None:
        """Checkpoint the WAL and close the connection.

        The explicit ``wal_checkpoint(TRUNCATE)`` folds the ``-wal`` /
        ``-shm`` sidecar files back into the database before closing, so
        a finished run leaves one shippable file behind instead of
        relying on the garbage collector to get around to it. Safe to
        call twice; the connection reopens lazily on the next use.
        """
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
                except sqlite3.Error:
                    pass  # best effort: closing still detaches the sidecars
                self._conn.close()
            self._conn = None

    def __enter__(self) -> "SqliteCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemoryCache:
    """A bounded in-process LRU backend.

    The hot tier of a :class:`TieredCache` (and a zero-setup backend for
    tests and the cache server). Payloads are stored in their canonical
    JSON text form and re-parsed on ``get`` — the same round trip every
    other backend performs — so a caller mutating a returned dict can
    never corrupt the stored entry, and parity with the on-disk backends
    holds bit for bit.

    Eviction is LRU over *entry count* (``max_entries``; ``None`` means
    unbounded — the right setting when the memory cache IS the store,
    as under ``cache-serve --backend memory``, where a silent LRU cap
    would evict a fleet's results mid-sweep): a ``get`` or ``put``
    refreshes recency, and the stalest entry is dropped when the bound
    is exceeded. Entries also remember their insertion time, so
    ``gc(older_than)`` works like the durable backends'.

    A small internal mutex makes every operation atomic under
    concurrent callers — LRU bookkeeping (``move_to_end`` racing a
    ``popitem``) is the kind of compound mutation the GIL alone does
    not protect — so the striped :class:`~repro.io.server.CacheServer`
    can serve this backend from parallel handler threads.
    """

    #: See the class docstring: all compound mutations are mutex-atomic.
    thread_safe = True

    def __init__(self, max_entries: int | None = 1024) -> None:
        if max_entries is not None and (
            not isinstance(max_entries, int) or max_entries < 1
        ):
            raise InvalidParameterError(
                f"max_entries must be an int >= 1 or None, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._lock = threading.Lock()
        # key -> (created_at, payload text)
        self._entries: OrderedDict[str, tuple[float, str]] = OrderedDict()

    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
        return json.loads(entry[1])

    def put(self, key: str, payload: dict[str, Any]) -> None:
        created = time.time()
        text = json.dumps(payload)
        with self._lock:
            self._entries[key] = (created, text)
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)

    def keys(self) -> Iterator[str]:
        with self._lock:
            snapshot = list(self._entries)
        yield from snapshot

    def stats(self) -> dict[str, Any]:
        bound = "unbounded" if self.max_entries is None else self.max_entries
        with self._lock:
            entries = list(self._entries.values())
        return {
            "backend": "memory",
            "location": f"lru({bound})",
            "entries": len(entries),
            "total_bytes": sum(len(e[1]) for e in entries),
        }

    def gc(self, older_than: float) -> int:
        cutoff = time.time() - float(older_than)
        with self._lock:
            stale = [k for k, e in self._entries.items() if e[0] < cutoff]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def close(self) -> None:
        """No-op: entries live and die with the object."""

    def __enter__(self) -> "MemoryCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class TieredCache:
    """A composite backend: fast tiers shield slow ones.

    ``tiers`` is ordered fastest-first (the canonical stack is
    ``[MemoryCache(), DirectoryCache(...), HttpCache(...)]``). Reads
    probe tier by tier and **promote** a hit into every faster tier, so
    a hot key behind the network tier is fetched remotely at most once
    per process. Writes go **through** to every tier, so the remote
    stays authoritative and a restarted worker finds its local tiers
    warm. ``keys``/``len``/``contains`` answer from the *last* tier —
    the authoritative one; faster tiers are partial replicas by
    construction.
    """

    def __init__(self, tiers: Sequence[CacheBackend]) -> None:
        tiers = list(tiers)
        if not tiers:
            raise InvalidParameterError("TieredCache needs at least one tier")
        for tier in tiers:
            if not (hasattr(tier, "get") and hasattr(tier, "put")):
                raise InvalidParameterError(
                    f"every tier must be a CacheBackend, got {tier!r}"
                )
        self.tiers = tiers

    @property
    def thread_safe(self) -> bool:
        """A stack is only as concurrent as its weakest tier."""
        return all(
            bool(getattr(tier, "thread_safe", False)) for tier in self.tiers
        )

    def get(self, key: str) -> dict[str, Any] | None:
        for depth, tier in enumerate(self.tiers):
            payload = tier.get(key)
            if payload is not None:
                for upper in self.tiers[:depth]:
                    upper.put(key, payload)
                return payload
        return None

    def get_many(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Batched probe: each tier sees only the keys the faster tiers
        missed, and every deep hit is promoted upward."""
        found: dict[str, dict[str, Any]] = {}
        level: dict[str, int] = {}
        missing = list(keys)
        for depth, tier in enumerate(self.tiers):
            if not missing:
                break
            fetch_many = getattr(tier, "get_many", None)
            if fetch_many is not None:
                hits = fetch_many(missing)
            else:
                hits = {}
                for key in missing:
                    payload = tier.get(key)
                    if payload is not None:
                        hits[key] = payload
            for key, payload in hits.items():
                found[key] = payload
                level[key] = depth
            missing = [key for key in missing if key not in found]
        for key, depth in level.items():
            for upper in self.tiers[:depth]:
                upper.put(key, found[key])
        return found

    def put(self, key: str, payload: dict[str, Any]) -> None:
        for tier in self.tiers:
            tier.put(key, payload)

    def keys(self) -> Iterator[str]:
        return self.tiers[-1].keys()

    def stats(self) -> dict[str, Any]:
        """The authoritative tier's numbers, plus one entry per tier.

        Each tier's stats are computed exactly once — a directory walk
        or a strict HTTP round trip is not free, and repeating it would
        turn one server hiccup into a spurious failure.
        """
        per_tier = [backend_stats(tier) for tier in self.tiers]
        authoritative = per_tier[-1]
        return {
            "backend": "tiered",
            "location": " -> ".join(
                stats.get("backend", "?") for stats in per_tier
            ),
            "entries": authoritative.get("entries"),
            "total_bytes": authoritative.get("total_bytes"),
            "tiers": per_tier,
        }

    def gc(self, older_than: float) -> int:
        """GC every tier that supports it; reports the authoritative
        (last) tier's count."""
        removed = 0
        for depth, tier in enumerate(self.tiers):
            collect = getattr(tier, "gc", None)
            if collect is not None:
                count = collect(older_than)
                if depth == len(self.tiers) - 1:
                    removed = count
        return removed

    def close(self) -> None:
        for tier in self.tiers:
            tier.close()

    def __enter__(self) -> "TieredCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, key: str) -> bool:
        return key in self.tiers[-1]

    def __len__(self) -> int:
        return len(self.tiers[-1])


def backend_stats(cache: CacheBackend) -> dict[str, Any]:
    """A backend's ``stats()`` dict, or a minimal fallback for backends
    that predate the stats surface (entry count only — computing bytes
    generically would parse every payload)."""
    probe = getattr(cache, "stats", None)
    if probe is not None:
        return probe()
    return {"backend": type(cache).__name__, "entries": len(cache)}


def _open_http(url: str | Path) -> CacheBackend:
    # Imported here only to keep the module dependency one-way on paper
    # (remote is the layer above); the engine package __init__ loads
    # .remote eagerly anyway, so nothing is actually deferred.
    from .remote import HttpCache

    return HttpCache(str(url))


#: Constructors by CLI/backend name; the single source of truth for
#: ``--cache-backend`` choices. ``http`` interprets the path as the
#: cache server's base URL; ``memory`` ignores it (one process's RAM
#: has no path) and is unbounded — when the memory cache is the whole
#: store (``cache-serve --backend memory``), the hot-tier LRU default
#: would silently evict results mid-sweep. The ``tiered`` composite is
#: assembled explicitly (it needs a local path *and* a URL), not
#: through this table.
BACKENDS = {
    "dir": DirectoryCache,
    "sqlite": SqliteCache,
    "memory": lambda path=None: MemoryCache(max_entries=None),
    "http": _open_http,
}


def open_cache(path: str | Path, backend: str = "dir") -> CacheBackend:
    """Construct a cache backend by name (``dir``, ``sqlite``,
    ``memory``, or ``http`` — where ``path`` is the server URL)."""
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise InvalidParameterError(
            f"unknown cache backend {backend!r}; "
            f"available: {', '.join(sorted(BACKENDS))}"
        ) from None
    return factory(path)
