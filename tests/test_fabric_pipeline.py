"""Tests for the high-throughput fabric: connection pooling, deflate
negotiation, retry backoff, batched claims, lock-free stats, and the
pipelined steal loop.

The companion of ``test_cache_fabric.py`` (protocol parity and fault
tolerance): everything here is about the *throughput* machinery added
on top — keep-alive sockets that survive and transparently redial,
compression that only engages after negotiation, ``/stats`` that never
waits on a slow backend, ``?k=N`` claim batches, and a steal loop that
overlaps claim/probe round trips with compute while a write-behind
batcher flushes puts.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request
import zlib

import pytest

from repro.engine import (
    BatchRunner,
    HttpCache,
    HttpClaimTable,
    MemoryCache,
    RunRequest,
)
from repro.engine.remote import (
    COMPRESS_MIN_BYTES,
    HttpConnectionPool,
    RetryPolicy,
)
from repro.engine.runner import _PutBatcher, request_key
from repro.errors import CacheError, InvalidParameterError
from repro.io.server import CacheServer, FabricStats
from repro.workloads import poisson_instance


@pytest.fixture(scope="module")
def requests():
    insts = [poisson_instance(5, m=1, alpha=3.0, seed=s) for s in range(2)]
    return [
        RunRequest(a, i, tag={"seed": s})
        for s, i in enumerate(insts)
        for a in ("pd", "oa")
    ]


@pytest.fixture(scope="module")
def plain_records(requests):
    return BatchRunner().run(requests)


@pytest.fixture()
def server():
    backend = MemoryCache()
    srv = CacheServer(backend).start()
    yield srv
    srv.stop()


def _strip(records):  # NaN-safe comparison form (NaN != NaN)
    return [
        (r.algorithm, r.cost, r.energy,
         None if math.isnan(r.certified_ratio) else r.certified_ratio,
         r.schedule)
        for r in records
    ]


class TestConnectionPool:
    """Keep-alive reuse, stale-socket redial, per-request escape hatch."""

    def test_keep_alive_reuses_one_socket(self, server):
        with HttpConnectionPool(server.url) as pool:
            assert pool.idle_count() == 0
            for _ in range(5):
                status, _, _ = pool.request("GET", "/stats")
                assert status == 200
            # Sequential traffic parks and reuses exactly one socket.
            assert pool.idle_count() == 1

    def test_keep_alive_false_parks_nothing(self, server):
        with HttpConnectionPool(server.url, keep_alive=False) as pool:
            for _ in range(3):
                status, _, _ = pool.request("GET", "/stats")
                assert status == 200
            assert pool.idle_count() == 0

    def test_stale_socket_redials_transparently(self, server):
        cache = HttpCache(server.url)
        cache.put("k", {"v": 1})
        assert cache.pool.idle_count() == 1
        host, port = server.address
        server.stop()  # severs the parked connection
        revived = CacheServer(MemoryCache(), host=host, port=port).start()
        try:
            revived.cache.put("k2", {"v": 2})
            # The parked socket is dead; the pool must redial once and
            # answer from the revived server without surfacing a fault.
            assert cache.get("k2") == {"v": 2}
        finally:
            revived.stop()
            cache.close()

    def test_pool_close_is_not_fatal(self, server):
        cache = HttpCache(server.url)
        cache.put("k", {"v": 1})
        cache.close()
        assert cache.pool.idle_count() == 0
        assert cache.get("k") == {"v": 1}  # fresh dial, same answer
        cache.close()

    def test_max_idle_validated(self, server):
        with pytest.raises(InvalidParameterError, match="max_idle"):
            HttpConnectionPool(server.url, max_idle=0)


class TestCompressionNegotiation:
    """Deflate engages only after the peer advertises it (RFC-7694)."""

    def test_first_request_is_identity_then_negotiated(self, server):
        cache = HttpCache(server.url)
        assert not cache.pool.peer_accepts_deflate
        cache.put("probe", {"v": 0})  # first exchange: identity
        assert cache.pool.peer_accepts_deflate
        cache.close()

    def test_large_bodies_deflate_both_directions(self, server):
        cache = HttpCache(server.url)
        big = {"body": "x" * (4 * COMPRESS_MIN_BYTES)}
        cache.put("warm", {"v": 0})  # negotiate
        entries = {f"big-{i}": big for i in range(4)}
        cache.put_many(entries)  # request body deflated
        assert cache.get_many(list(entries)) == entries  # response deflated
        fabric = server.stats_counters.snapshot()
        assert fabric["deflate_bodies_in"] >= 1
        assert fabric["deflate_bodies_out"] >= 1
        cache.close()

    def test_small_bodies_stay_identity(self, server):
        cache = HttpCache(server.url)
        cache.put("warm", {"v": 0})
        cache.put("small", {"v": 1})  # far below COMPRESS_MIN_BYTES
        assert server.stats_counters.deflate_bodies_in == 0
        cache.close()

    def test_compress_false_never_deflates_requests(self, server):
        cache = HttpCache(server.url, compress=False)
        big = {"body": "x" * (4 * COMPRESS_MIN_BYTES)}
        cache.put("warm", {"v": 0})
        cache.put("big", big)
        assert server.stats_counters.deflate_bodies_in == 0
        assert cache.get("big") == big
        cache.close()

    def test_plain_client_gets_identity_responses(self, server):
        """An old client that never advertises deflate must receive
        plain JSON even for large bodies."""
        cache = HttpCache(server.url)
        big = {"body": "y" * (4 * COMPRESS_MIN_BYTES)}
        cache.put("big", big)
        cache.close()
        with urllib.request.urlopen(f"{server.url}/records/big") as reply:
            raw = reply.read()
            assert reply.headers.get("Content-Encoding") is None
        assert json.loads(raw) == big

    def test_deflated_garbage_is_a_400(self, server):
        with HttpConnectionPool(server.url) as pool:
            status, _, _ = pool.request(
                "PUT",
                "/records/bad",
                b"not deflate at all",
                {"Content-Encoding": "deflate"},
            )
            assert status == 400

    def test_handrolled_deflate_request_accepted(self, server):
        """A client may deflate unprompted — the server's standing
        offer — and the payload must land bit-identical."""
        payload = {"body": "z" * (4 * COMPRESS_MIN_BYTES)}
        raw = zlib.compress(json.dumps(payload).encode("utf-8"))
        with HttpConnectionPool(server.url) as pool:
            status, _, _ = pool.request(
                "PUT",
                "/records/handrolled",
                raw,
                {"Content-Encoding": "deflate"},
            )
        assert status in (200, 204)
        assert server.cache.get("handrolled") == payload


class TestRetryPolicy:
    """Seeded jitter, bounded growth, shared by every lenient route."""

    def test_delays_are_deterministic_per_seed(self):
        first = list(RetryPolicy(5, seed=7).delays())
        second = list(RetryPolicy(5, seed=7).delays())
        other = list(RetryPolicy(5, seed=8).delays())
        assert first == second
        assert first != other

    def test_delays_bounded_and_growing(self):
        policy = RetryPolicy(
            6, base_delay=0.05, max_delay=0.4, jitter=0.25, seed=0
        )
        delays = list(policy.delays())
        assert len(delays) == 6
        assert all(0 < d <= 0.4 * 1.25 for d in delays)
        # Exponential growth dominates the +-25% jitter early on.
        assert delays[2] > delays[0]

    def test_zero_retries_is_single_shot(self):
        assert list(RetryPolicy(0).delays()) == []

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="retries"):
            RetryPolicy(-1)
        with pytest.raises(InvalidParameterError, match="jitter"):
            RetryPolicy(1, jitter=2.0)
        with pytest.raises(InvalidParameterError, match="delays"):
            RetryPolicy(1, base_delay=-0.1)

    def test_lenient_routes_back_off_then_miss(self, monkeypatch):
        import socket as socket_mod

        sock = socket_mod.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        naps: list[float] = []
        monkeypatch.setattr(
            "repro.engine.remote.time.sleep", naps.append
        )
        cache = HttpCache(
            f"http://127.0.0.1:{port}",
            timeout=0.5,
            retry=RetryPolicy(3, seed=1),
        )
        assert cache.get("anything") is None  # miss, not a crash
        assert naps == list(RetryPolicy(3, seed=1).delays())

    def test_claim_traffic_never_retries(self, monkeypatch):
        """Claim faults must stay loud and immediate — backoff there
        would let two workers guess at overlapping positions."""
        import socket as socket_mod

        sock = socket_mod.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        naps: list[float] = []
        monkeypatch.setattr(
            "repro.engine.remote.time.sleep", naps.append
        )
        with pytest.raises(CacheError, match="unreachable"):
            HttpClaimTable(f"http://127.0.0.1:{port}", "t", 2, timeout=0.5)
        assert naps == []


class TestBatchedClaims:
    """``?k=N`` leases N positions in one round trip."""

    def test_claim_batch_is_one_round_trip(self, server):
        table = HttpClaimTable(server.url, "batched", 12)
        before = server.stats_counters.claim_requests
        assert table.claim(5) == [0, 1, 2, 3, 4]
        assert server.stats_counters.claim_requests == before + 1
        assert table.claim(100) == list(range(5, 12))  # clamped to tail
        table.close()

    def test_query_k_overrides_body_count(self, server):
        HttpClaimTable(server.url, "wire", 9).close()
        with HttpConnectionPool(server.url) as pool:
            status, _, raw = pool.request(
                "POST",
                "/claims/wire/next?k=3",
                json.dumps({"count": 1}).encode("utf-8"),
            )
            assert status == 200
            assert json.loads(raw)["positions"] == [0, 1, 2]
            # Old-style body-only claims keep working on the new server.
            status, _, raw = pool.request(
                "POST",
                "/claims/wire/next",
                json.dumps({"count": 2}).encode("utf-8"),
            )
            assert status == 200
            assert json.loads(raw)["positions"] == [3, 4]
            status, _, _ = pool.request(
                "POST",
                "/claims/wire/next?k=nope",
                json.dumps({"count": 1}).encode("utf-8"),
            )
            assert status == 400


class TestLockFreeStats:
    """Satellite: ``GET /stats`` answers while the backend is busy."""

    def test_stats_fast_does_not_wait_on_a_slow_backend(self):
        entered = threading.Event()
        release = threading.Event()

        class SlowCache(MemoryCache):
            thread_safe = True

            def get(self, key):
                entered.set()
                release.wait(timeout=10.0)
                return super().get(key)

        srv = CacheServer(SlowCache()).start()
        try:
            slow = HttpCache(srv.url)
            blocker = threading.Thread(
                target=slow.get, args=("stuck",), daemon=True
            )
            blocker.start()
            assert entered.wait(timeout=5.0)
            # The backend (and its stripe) is now held mid-get; the
            # fast snapshot must come back anyway, and quickly.
            probe = HttpCache(srv.url)
            start = time.perf_counter()
            snapshot = probe.stats(deep=False)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0
            assert snapshot["deep"] is False
            assert snapshot["backend"] == "http(memory)"
            # The blocked get hasn't finished, so it isn't a
            # record_get yet — but its dispatch was counted.
            assert snapshot["fabric"]["requests"] >= 1
        finally:
            release.set()
            blocker.join(timeout=5.0)
            slow.close()
            probe.close()
            srv.stop()

    def test_entry_counter_tracks_new_vs_overwrite(self, server):
        cache = HttpCache(server.url)
        assert cache.stats(deep=False)["entries"] == 0
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.put("a", {"v": 3})  # overwrite: count must not move
        fast = cache.stats(deep=False)
        assert fast["entries"] == 2
        assert fast["fabric"]["record_puts"] == 3
        assert fast["fabric"]["new_records"] == 2
        deep = cache.stats(deep=True)
        assert deep["deep"] is True
        assert deep["entries"] == 2
        cache.close()

    def test_fast_snapshot_counts_hits_and_misses(self, server):
        cache = HttpCache(server.url)
        cache.put("hit", {"v": 1})
        assert cache.get("hit") is not None
        assert cache.get("miss") is None
        fabric = cache.stats(deep=False)["fabric"]
        assert fabric["record_gets"] == 2
        assert fabric["record_hits"] == 1
        cache.close()

    def test_fabric_stats_counters_are_plain(self):
        stats = FabricStats()
        stats.note_put(new=True)
        stats.note_put(new=False)
        stats.note_removed(1)
        assert stats.entries == 0
        assert stats.snapshot()["record_puts"] == 2
        assert stats.snapshot()["new_records"] == 1


class TestStripedLocks:
    def test_stripes_require_thread_safe_backend(self):
        class SerialCache(MemoryCache):
            thread_safe = False

        srv = CacheServer(SerialCache())  # collapses to one stripe
        assert len(srv._records) == 1
        with pytest.raises(InvalidParameterError, match="thread"):
            CacheServer(SerialCache(), stripes=4)

    def test_thread_safe_backend_gets_striped(self, tmp_path):
        from repro.engine import SqliteCache

        srv = CacheServer(MemoryCache())
        assert len(srv._records) > 1
        with SqliteCache(tmp_path / "c.db") as sqlite:
            assert len(CacheServer(sqlite)._records) > 1
        narrow = CacheServer(MemoryCache(), stripes=2)
        assert len(narrow._records) == 2
        with pytest.raises(InvalidParameterError, match="stripes"):
            CacheServer(MemoryCache(), stripes=0)


class TestPipelinedSteal:
    """The batched, pipelined loop yields exactly the plain run."""

    def test_serial_claim_batch_matches_run(
        self, requests, plain_records, server
    ):
        cache = HttpCache(server.url)
        claims = HttpClaimTable(server.url, "serial-batch", len(requests))
        runner = BatchRunner(cache=cache, claim_batch=3)
        try:
            pairs = runner.run_stolen(requests, claims)
        finally:
            claims.close()
            cache.close()
        assert [p for p, _ in pairs] == list(range(len(requests)))
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_pooled_claim_batch_matches_run(
        self, requests, plain_records, server
    ):
        cache = HttpCache(server.url)
        claims = HttpClaimTable(server.url, "pooled-batch", len(requests))
        runner = BatchRunner(workers=2, cache=cache, claim_batch=2)
        try:
            pairs = runner.run_stolen(requests, claims)
        finally:
            claims.close()
            cache.close()
        assert _strip([r for _, r in pairs]) == _strip(plain_records)

    def test_write_behind_flusher_lands_every_put(self, requests, server):
        cache = HttpCache(server.url)
        claims = HttpClaimTable(server.url, "flush", len(requests))
        runner = BatchRunner(cache=cache, claim_batch=2)
        try:
            runner.run_stolen(requests, claims)
            # run_stolen closed its flusher before returning, so every
            # computed record must already be on the server.
            keys = {
                request_key(r.algorithm, r.instance) for r in requests
            }
            assert set(cache.keys()) == keys
        finally:
            claims.close()
            cache.close()

    def test_warm_batched_steal_is_all_hits(self, requests, server):
        cache = HttpCache(server.url)
        BatchRunner(cache=cache).run(requests)
        claims = HttpClaimTable(server.url, "warm-batch", len(requests))
        runner = BatchRunner(cache=cache, claim_batch=4)
        try:
            pairs = runner.run_stolen(requests, claims)
        finally:
            claims.close()
            cache.close()
        assert all(record.cached for _, record in pairs)
        assert runner.stats.computed == 0
        assert runner.stats.cache_hits == len(requests)

    def test_claim_batch_validated(self):
        with pytest.raises(InvalidParameterError, match="claim_batch"):
            BatchRunner(claim_batch=0)
        with pytest.raises(InvalidParameterError, match="claim_batch"):
            BatchRunner(claim_batch=True)

    def test_put_batcher_flushes_and_propagates_failures(self):
        class Sink:
            batch_size = 4

            def __init__(self):
                self.entries: dict = {}
                self.flushes = 0

            def put_many(self, entries):
                self.flushes += 1
                self.entries.update(entries)

        sink = Sink()
        batcher = _PutBatcher(sink, batch_size=4)
        for i in range(10):
            batcher.put(f"k{i}", {"v": i})
        batcher.close()
        assert len(sink.entries) == 10
        assert sink.entries["k7"] == {"v": 7}
        assert sink.flushes >= 3  # 10 puts / batch of 4

        class Exploding:
            batch_size = 2

            def put_many(self, entries):
                raise CacheError("disk on fire")

        failing = _PutBatcher(Exploding())
        failing.put("k", {"v": 1})
        with pytest.raises(CacheError, match="disk on fire"):
            failing.close()


class TestConcurrentStress:
    """Satellite: threads hammer one live server; nothing is lost."""

    def test_mixed_traffic_under_contention(self, server):
        total = 60
        writers = 3
        per_writer = 40
        HttpClaimTable(server.url, "stress", total).close()
        errors: list[BaseException] = []
        claimed: dict[int, list[int]] = {}
        barrier = threading.Barrier(writers + 3)

        def write_and_verify(slot: int, compress: bool) -> None:
            cache = HttpCache(server.url, compress=compress, batch_size=16)
            try:
                barrier.wait(timeout=10.0)
                entries = {
                    f"w{slot}-{i}": {
                        "slot": slot,
                        "i": i,
                        "body": "x" * (COMPRESS_MIN_BYTES if compress else 8),
                    }
                    for i in range(per_writer)
                }
                cache.put_many(entries)
                # Sever the parked sockets underneath the pool: the
                # next round trip reuses a dead connection and must
                # recover through the transparent redial, mid-batch.
                for conn in list(cache.pool._idle):
                    if conn.sock is not None:
                        conn.sock.close()
                found = cache.get_many(list(entries))
                if found != entries:
                    raise AssertionError(
                        f"writer {slot} lost {len(entries) - len(found)}"
                    )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                cache.close()

        def claimer(slot: int) -> None:
            table = HttpClaimTable(server.url, "stress", total)
            try:
                barrier.wait(timeout=10.0)
                got: list[int] = []
                while True:
                    batch = table.claim(4)
                    if not batch:
                        break
                    got.extend(batch)
                    table.done(batch)
                claimed[slot] = got
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                table.close()

        def chaos() -> None:
            cache = HttpCache(server.url)
            try:
                barrier.wait(timeout=10.0)
                for _ in range(10):
                    cache.put("chaos", {"v": 1})
                    # Churn connections mid-run: every put after a
                    # close dials fresh while the writers are severing
                    # and redialing their own sockets.
                    cache.pool.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                cache.close()

        threads = [
            threading.Thread(target=write_and_verify, args=(s, s % 2 == 0))
            for s in range(writers)
        ]
        threads += [
            threading.Thread(target=claimer, args=(s,)) for s in range(2)
        ]
        threads.append(threading.Thread(target=chaos))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        handed = sorted(claimed[0] + claimed[1])
        assert handed == list(range(total))  # exact partition, no doubles
        check = HttpCache(server.url)
        try:
            assert check.stats(deep=True)["entries"] == (
                writers * per_writer + 1  # +1 for the chaos key
            )
        finally:
            check.close()

    def test_concurrent_steal_merge_is_byte_identical(
        self, requests, plain_records, server
    ):
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            cache = HttpCache(server.url, compress=slot % 2 == 0)
            table = HttpClaimTable(server.url, "stress-steal", len(requests))
            try:
                results[slot] = BatchRunner(
                    cache=cache, claim_batch=2
                ).run_stolen(requests, table)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                table.close()
                cache.close()

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not errors
        merged = sorted(results[0] + results[1])
        assert [p for p, _ in merged] == list(range(len(requests)))
        assert _strip([r for _, r in merged]) == _strip(plain_records)
