"""Streaming incremental digests and the scheduler's pending-bytes cap.

* :class:`StreamingDigestState` must produce **bit-identical** digests to
  whole-buffer :func:`sdhash` for *every* chunking of the same bytes —
  including chunks smaller than one ``WINDOW``, anchors whose context
  straddles chunk boundaries, and the ``None`` gates (size / feature
  floors) — and its in-flight state must survive a JSON checkpoint
  round-trip without perturbing the result.  The engine does not use it:
  every close digests the whole content through the lazy, batched path.
* The InspectionScheduler's pending-bytes watermark bounds what deferred
  captures retain, and its gauge tracks the retained bytes exactly.
"""

import json
import random

import pytest

from repro.core import CryptoDropConfig, CryptoDropMonitor
from repro.core.filestate import DigestCache
from repro.corpus.wordlists import paragraphs
from repro.crypto import chacha20_xor
from repro.fs import DOCUMENTS, ProcessSuspended, TEMP, VirtualFileSystem
from repro.simhash import sdhash
from repro.simhash.sdhash import (MIN_DIGEST_BYTES, WINDOW,
                                  StreamingDigestState, _STREAM_TAIL,
                                  sdhash_scalar)

KEY, NONCE = bytes(32), bytes(12)


def _text(seed, n=6000):
    return paragraphs(random.Random(seed), n).encode()


def _chunked(content, size):
    return [content[i:i + size] for i in range(0, len(content), size)]


def _random_chunks(content, seed):
    rng = random.Random(seed)
    out, i = [], 0
    while i < len(content):
        step = rng.randrange(1, 4096)
        out.append(content[i:i + step])
        i += step
    return out


def _stream(chunks, min_stream_bytes=0):
    state = StreamingDigestState(min_stream_bytes=min_stream_bytes)
    for chunk in chunks:
        state.update(chunk)
    return state


def _assert_same(got, ref):
    if ref is None:
        assert got is None
        return
    assert got is not None
    assert got.hexdigest() == ref.hexdigest()
    assert got.n_features == ref.n_features
    assert got.source_len == ref.source_len
    assert len(got) == len(ref)


class TestBitIdentity:
    # chunkings that exercise every boundary class: sub-window chunks
    # (anchors + their 8-byte rolling context straddle chunk joins),
    # exactly-one-window, one-past-the-carried-tail, page-ish, ragged
    CHUNKS = [7, 63, WINDOW, WINDOW + 1, _STREAM_TAIL, _STREAM_TAIL + 1,
              1024, 4096]

    def _contents(self):
        rng = random.Random(5)
        return [
            rng.randbytes(MIN_DIGEST_BYTES),       # exactly at the floor
            rng.randbytes(30_000),                 # anchor-dense
            _text(1, 9000),                        # realistic document
            bytes(4096),                           # zeros: typed, gated
            _text(2, 40_000) + rng.randbytes(2000),
        ]

    def test_matrix_matches_whole_buffer(self):
        for content in self._contents():
            ref = sdhash(content)
            for size in self.CHUNKS:
                got = _stream(_chunked(content, size)).finalize()
                _assert_same(got, ref)
            got = _stream(_random_chunks(content, 23)).finalize()
            _assert_same(got, ref)
            got = _stream([content]).finalize()  # whole buffer at once
            _assert_same(got, ref)

    def test_single_byte_chunks(self):
        # the worst chunking there is: every anchor context, window and
        # popularity neighbourhood straddles a chunk boundary
        content = _text(3, 700)
        ref = sdhash(content)
        _assert_same(_stream(_chunked(content, 1)).finalize(), ref)

    def test_matches_scalar_reference(self):
        content = _text(4, 8000)
        got = _stream(_chunked(content, 100)).finalize()
        ref = sdhash_scalar(content)
        _assert_same(got, ref)

    def test_none_gates_match(self):
        rng = random.Random(9)
        for content in (b"", b"short", rng.randbytes(WINDOW - 1),
                        rng.randbytes(MIN_DIGEST_BYTES - 1), bytes(2048),
                        b"ab" * 40):
            got = _stream(_chunked(content, 5)).finalize()
            _assert_same(got, sdhash(content))

    def test_empty_chunks_are_no_ops(self):
        content = _text(6, 3000)
        state = StreamingDigestState()
        for chunk in _chunked(content, 512):
            state.update(b"")
            state.update(chunk)
        state.update(b"")
        _assert_same(state.finalize(), sdhash(content))

    def test_key_matches_digest_cache_key(self):
        content = _text(7, 2000)
        state = _stream(_chunked(content, 333))
        assert state.key() == DigestCache.key(content)

    def test_finalize_twice_raises(self):
        state = _stream([b"x" * 1000])
        state.finalize()
        with pytest.raises(RuntimeError):
            state.finalize()


class TestBufferedMode:
    def test_threshold_crossing_preserves_identity(self):
        content = _text(8, 20_000)
        ref = sdhash(content)
        for threshold in (1, 100, 5000, len(content), len(content) + 1,
                          10 ** 9):
            state = _stream(_chunked(content, 777),
                            min_stream_bytes=threshold)
            assert state.streaming == (threshold <= len(content))
            _assert_same(state.finalize(), ref)

    def test_buffered_until_threshold(self):
        state = StreamingDigestState(min_stream_bytes=1000)
        state.update(b"a" * 999)
        assert not state.streaming
        state.update(b"b")  # crosses: replays the buffered refs
        assert state.streaming
        assert state.total == 1000


class TestCheckpointRestore:
    def _roundtrip(self, state):
        return StreamingDigestState.from_state(
            json.loads(json.dumps(state.to_state())))

    def test_midstream_cuts_preserve_identity(self):
        content = _text(10, 30_000)
        ref = sdhash(content)
        for cut in (0, 1, 999, len(content) // 2, len(content) - 1):
            state = _stream(_chunked(content[:cut], 900))
            restored = self._roundtrip(state)
            for chunk in _chunked(content[cut:], 900):
                restored.update(chunk)
            _assert_same(restored.finalize(), ref)

    def test_buffered_state_roundtrips(self):
        content = _text(11, 4000)
        state = _stream(_chunked(content[:2000], 300),
                        min_stream_bytes=10 ** 9)
        restored = self._roundtrip(state)
        assert not restored.streaming
        for chunk in _chunked(content[2000:], 300):
            restored.update(chunk)
        _assert_same(restored.finalize(), sdhash(content))

    def test_restored_state_has_no_cache_key(self):
        state = _stream(_chunked(_text(12, 2000), 500))
        assert state.key() is not None
        assert self._roundtrip(state).key() is None


@pytest.fixture
def env():
    def make(**overrides):
        vfs = VirtualFileSystem()
        vfs._ensure_dirs(DOCUMENTS)
        vfs._ensure_dirs(TEMP)
        for i in range(12):
            vfs.peek_write(DOCUMENTS / f"doc{i}.txt", _text(i))
        config = CryptoDropConfig(telemetry_enabled=True, **overrides)
        monitor = CryptoDropMonitor(vfs, config=config).attach()
        pid = vfs.processes.spawn("sample.exe").pid
        return vfs, monitor, pid
    return make


def _encrypt_in_place(vfs, pid, path):
    handle = vfs.open(pid, path, "rw")
    data = vfs.read(pid, handle)
    vfs.seek(pid, handle, 0)
    vfs.write(pid, handle, chacha20_xor(KEY, NONCE, data))
    vfs.close(pid, handle)


def _run_encryptor(vfs, monitor, pid):
    try:
        for i in range(12):
            _encrypt_in_place(vfs, pid, DOCUMENTS / f"doc{i}.txt")
    except ProcessSuspended:
        pass


class TestSchedulerWatermark:
    def test_cap_forces_flush(self, env):
        vfs, monitor, pid = env(scheduler_pending_bytes_cap=1000)
        scheduler = monitor.engine.scheduler
        assert scheduler.pending_bytes_cap == 1000
        _run_encryptor(vfs, monitor, pid)
        stats = scheduler.stats()
        assert stats["forced_flushes"] >= 1
        assert stats["pending_bytes"] <= 1000

    def test_pending_bytes_tracks_gauge(self, env):
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        content = vfs.peek_read(DOCUMENTS / "doc1.txt")
        handle = vfs.open(pid, DOCUMENTS / "doc1.txt", "rw")
        vfs.write(pid, handle, b"x")
        assert scheduler.pending_bytes == len(content)
        gauge = monitor.telemetry_export()["metrics"][
            "cryptodrop_scheduler_pending_bytes"]["state"]
        assert gauge[0][1] == float(len(content))
        monitor.flush_inspections()
        assert scheduler.pending_bytes == 0
        gauge = monitor.telemetry_export()["metrics"][
            "cryptodrop_scheduler_pending_bytes"]["state"]
        assert gauge[0][1] == 0.0
        vfs.close(pid, handle)

    def test_discard_releases_pending_bytes(self, env):
        vfs, monitor, pid = env()
        scheduler = monitor.engine.scheduler
        content = vfs.peek_read(DOCUMENTS / "doc2.txt")
        node_id = vfs.peek_stat(DOCUMENTS / "doc2.txt").node_id
        handle = vfs.open(pid, DOCUMENTS / "doc2.txt", "rw")
        vfs.write(pid, handle, b"y")
        assert scheduler.pending_bytes == len(content)
        scheduler.discard(node_id)
        assert scheduler.pending_bytes == 0
        gauge = monitor.telemetry_export()["metrics"][
            "cryptodrop_scheduler_pending_bytes"]["state"]
        assert gauge[0][1] == 0.0
        vfs.close(pid, handle)

    def test_zero_cap_never_forces(self, env):
        vfs, monitor, pid = env()  # default test config: cap from config
        _run_encryptor(vfs, monitor, pid)
        # the default 64 MiB cap is far above what 12 docs can pend
        assert monitor.engine.scheduler.stats()["forced_flushes"] == 0
