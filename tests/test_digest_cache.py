"""The digest LRU and the single-digest close path (ISSUE 2 tentpole).

Covers the cache in isolation (hit/miss accounting, LRU eviction at
capacity) and through the engine: Class-B move-back re-inspections and
same-content rewrites must hit, checkpoint/restore must carry counters
but never entries, and the close path must digest each version at most
once (``bytes_digested <= bytes_closed`` on steady-state rewrites).
"""

import random

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import DigestCache, FileStateCache
from repro.corpus.wordlists import paragraphs
from repro.crypto import chacha20_xor
from repro.fs import DOCUMENTS, ProcessSuspended, TEMP, VirtualFileSystem
from repro.perfstats import collect

def _text(seed, n=9000):
    return paragraphs(random.Random(seed), n).encode()


class TestDigestCacheUnit:
    def test_hit_and_miss_accounting(self):
        cache = FileStateCache()
        a = cache.inspect(_text(1))
        assert cache.digest_cache.misses == 1
        assert cache.digest_cache.hits == 0
        again = cache.inspect(_text(1))
        assert cache.digest_cache.hits == 1
        assert again is a
        cache.inspect(_text(2))
        assert cache.digest_cache.misses == 2

    def test_hit_skips_digesting(self):
        cache = FileStateCache()
        content = _text(3)
        cache.inspect(content)
        digested = cache.digest_cache.bytes_digested
        cache.inspect(content)
        assert cache.digest_cache.bytes_digested == digested

    def test_eviction_at_capacity(self):
        cache = FileStateCache(digest_cache_entries=4)
        for i in range(6):
            cache.inspect(_text(i, 2000))
        dc = cache.digest_cache
        assert len(dc) == 4
        assert dc.evictions == 2
        # oldest entries (0, 1) were evicted; 5 is still resident
        cache.inspect(_text(5, 2000))
        assert dc.hits == 1
        cache.inspect(_text(0, 2000))
        assert dc.misses == 7

    def test_lru_order_respects_recency(self):
        cache = FileStateCache(digest_cache_entries=2)
        cache.inspect(_text(0, 2000))
        cache.inspect(_text(1, 2000))
        cache.inspect(_text(0, 2000))   # refresh 0 → 1 becomes oldest
        cache.inspect(_text(2, 2000))   # evicts 1
        cache.inspect(_text(0, 2000))
        assert cache.digest_cache.hits == 2
        cache.inspect(_text(1, 2000))
        assert cache.digest_cache.misses == 4

    def test_zero_capacity_disables_caching(self):
        cache = FileStateCache(digest_cache_entries=0)
        content = _text(4)
        first = cache.inspect(content)
        second = cache.inspect(content)
        assert first is not second
        assert len(cache.digest_cache) == 0
        assert cache.digest_cache.hits == 0
        assert cache.digest_cache.misses == 2

    def test_oversize_content_not_digested_but_typed(self):
        cache = FileStateCache(max_inspect_bytes=1000)
        result = cache.inspect(_text(5, 4000))
        assert not result.digested
        assert result.digest is None
        assert result.file_type is not None
        assert cache.digest_cache.bytes_digested == 0
        # the non-digested result is still cacheable
        assert cache.inspect(_text(5, 4000)).digested is False
        assert cache.digest_cache.hits == 1

    def test_counters_exposed_in_stats(self):
        cache = FileStateCache()
        cache.inspect(_text(6))
        stats = cache.digest_cache.stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["bytes_digested"] > 0

    def test_key_is_content_hash(self):
        assert DigestCache.key(b"abc") == DigestCache.key(b"abc")
        assert DigestCache.key(b"abc") != DigestCache.key(b"abd")


@pytest.fixture
def env():
    vfs = VirtualFileSystem()
    vfs._ensure_dirs(DOCUMENTS)
    vfs._ensure_dirs(TEMP)
    for i in range(6):
        vfs.peek_write(DOCUMENTS / f"doc{i}.txt", _text(i))
    monitor = CryptoDropMonitor(vfs).attach()
    pid = vfs.processes.spawn("app.exe").pid
    return vfs, monitor, pid


def _encrypt_docs(vfs, pid, indices):
    """Class-A in-place encryption of the given documents; stops quietly
    once the detector suspends the writer."""
    try:
        for i in indices:
            path = DOCUMENTS / f"doc{i}.txt"
            handle = vfs.open(pid, path, "rw")
            data = vfs.read(pid, handle)
            vfs.seek(pid, handle, 0)
            vfs.write(pid, handle, chacha20_xor(bytes(32), bytes(12), data))
            vfs.close(pid, handle)
    except ProcessSuspended:
        pass


def _rewrite_same(vfs, pid, path):
    handle = vfs.open(pid, path, "rw")
    data = vfs.read(pid, handle)
    vfs.seek(pid, handle, 0)
    vfs.write(pid, handle, data)
    vfs.close(pid, handle)


class TestEngineCachePath:
    def test_same_content_rewrite_hits(self, env):
        vfs, monitor, pid = env
        path = DOCUMENTS / "doc0.txt"
        _rewrite_same(vfs, pid, path)
        dc = monitor.engine.cache.digest_cache
        # pre-op baseline capture misses; the close inspects identical
        # bytes and hits
        assert dc.hits >= 1
        hits = dc.hits
        _rewrite_same(vfs, pid, path)
        assert dc.hits > hits

    def test_single_digest_invariant_on_rewrites(self, env):
        vfs, monitor, pid = env
        for _ in range(4):
            for i in range(6):
                _rewrite_same(vfs, pid, DOCUMENTS / f"doc{i}.txt")
        stats = collect(monitor)
        assert stats.bytes_closed > 0
        assert stats.bytes_digested <= stats.bytes_closed
        assert stats.single_digest_holds
        # only the six baseline captures ever digested
        assert stats.bytes_digested == sum(len(_text(i)) for i in range(6))

    def test_class_b_move_back_reuses_digest(self, env):
        """Move out to temp, back into Documents, close unchanged: the
        re-inspections reuse the cached digest of the baseline bytes."""
        vfs, monitor, pid = env
        src = DOCUMENTS / "doc1.txt"
        staged = TEMP / "doc1.txt"
        vfs.rename(pid, src, staged)
        dc = monitor.engine.cache.digest_cache
        vfs.rename(pid, staged, src)
        _rewrite_same(vfs, pid, src)
        assert dc.hits >= 1
        stats = collect(monitor)
        assert stats.bytes_digested <= stats.bytes_inspected

    def test_no_scoreboard_row_for_hit_free_ops(self, env):
        vfs, monitor, pid = env
        _rewrite_same(vfs, pid, DOCUMENTS / "doc2.txt")
        # benign identical rewrite applies no indicator hit: the engine
        # must not have materialised a scoreboard row for the process
        assert all(row.root_pid != pid
                   for row in monitor.engine.scoreboard.rows())

    def test_wall_time_counters_accumulate(self, env):
        vfs, monitor, pid = env
        _rewrite_same(vfs, pid, DOCUMENTS / "doc3.txt")
        wall = monitor.engine.op_wall_us
        assert wall.get("close", 0.0) > 0.0
        assert wall.get("write", 0.0) > 0.0

    def test_stats_surface_cache_counters(self, env):
        vfs, monitor, pid = env
        _rewrite_same(vfs, pid, DOCUMENTS / "doc4.txt")
        stats = monitor.stats()
        assert stats["digest_cache"]["hits"] >= 1
        assert stats["bytes_closed"] > 0
        assert "close" in stats["op_wall_us"]


class TestCheckpointInteraction:
    def test_checkpoint_carries_counters_not_entries(self, env):
        vfs, monitor, pid = env
        _rewrite_same(vfs, pid, DOCUMENTS / "doc0.txt")
        state = monitor.checkpoint()
        cache_state = state["cache"]["digest_cache"]
        assert cache_state["hits"] >= 1
        # counters only: no entry contents, and no ephemeral entry count
        # (a restored cache starts empty, so including it would make
        # checkpoint → restore → checkpoint non-idempotent)
        assert "entries" not in cache_state
        assert not any(isinstance(v, dict) for v in cache_state.values())

    def test_restore_does_not_resurrect_entries(self, env):
        vfs, monitor, pid = env
        _rewrite_same(vfs, pid, DOCUMENTS / "doc0.txt")
        state = monitor.checkpoint()
        restored = CryptoDropMonitor.from_checkpoint(
            VirtualFileSystem(), state)
        dc = restored.engine.cache.digest_cache
        assert len(dc) == 0                    # no stale cached inspections
        assert dc.hits == monitor.engine.cache.digest_cache.hits
        assert dc.bytes_digested == \
            monitor.engine.cache.digest_cache.bytes_digested

    def test_restored_engine_rescores_identically(self, env):
        """A restored engine re-digests (cold cache) but keeps scoring
        exactly as the original would."""
        vfs, monitor, pid = env
        _rewrite_same(vfs, pid, DOCUMENTS / "doc5.txt")
        state = monitor.checkpoint()
        monitor.detach()
        resumed = CryptoDropMonitor.from_checkpoint(vfs, state).attach()
        _rewrite_same(vfs, pid, DOCUMENTS / "doc5.txt")
        assert not resumed.detected
        assert resumed.engine.cache.digest_cache.misses > 0
        resumed.detach()

    def test_old_checkpoints_without_cache_stats_load(self, env):
        vfs, monitor, pid = env
        _rewrite_same(vfs, pid, DOCUMENTS / "doc0.txt")
        state = monitor.checkpoint()
        del state["cache"]["digest_cache"]     # pre-ISSUE-2 snapshot shape
        del state["bytes_closed"]
        del state["op_wall_us"]
        restored = CryptoDropMonitor.from_checkpoint(
            VirtualFileSystem(), state)
        assert restored.engine.bytes_closed == 0
        assert restored.engine.cache.digest_cache.hits == 0

    def test_streaming_era_checkpoint_restores_like_a_fresh_one(self):
        """Checkpoints written while the engine still streamed digests
        carry a ``streams`` block and a ``bytes_streamed`` cache counter.
        Restoring one must ignore both: the resumed run's verdict and its
        next checkpoint equal those of a fresh round trip."""
        def resume(legacy):
            vfs = VirtualFileSystem()
            vfs._ensure_dirs(DOCUMENTS)
            for i in range(12):
                vfs.peek_write(DOCUMENTS / f"doc{i}.txt", _text(i))
            monitor = CryptoDropMonitor(vfs).attach()
            pid = vfs.processes.spawn("locker.exe").pid
            _encrypt_docs(vfs, pid, range(2))
            state = monitor.checkpoint()
            monitor.detach()
            if legacy:
                state["streams"] = {"started": 3, "finalized": 1,
                                    "bytes_streamed": 4096,
                                    "fallbacks": {"nonsequential": 1}}
                state["cache"]["digest_cache"]["bytes_streamed"] = 4096
            resumed = CryptoDropMonitor.from_checkpoint(vfs, state).attach()
            _encrypt_docs(vfs, pid, range(2, 12))
            verdict = [(d.process_name, d.score, d.union_fired,
                        sorted(d.flags), d.trigger_path)
                       for d in resumed.detections]
            after = resumed.checkpoint()
            del after["op_wall_us"]   # measured wall time, never identical
            return verdict, after

        fresh_verdict, fresh_state = resume(legacy=False)
        legacy_verdict, legacy_state = resume(legacy=True)
        assert fresh_verdict, "the resumed encryptor must be suspended"
        assert legacy_verdict == fresh_verdict
        assert legacy_state == fresh_state
        assert "streams" not in legacy_state
        assert "bytes_streamed" not in legacy_state["cache"]["digest_cache"]
