"""``repro.telemetry`` — structured detection telemetry.

Four pieces (see ``docs/observability.md`` for the operator view):

* :mod:`~repro.telemetry.events` — typed, timestamped events on a
  bounded ring-buffer bus with pluggable subscribers;
* :mod:`~repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms, checkpoint- and campaign-merge-able, absorbing the
  ``repro.perfstats`` counters behind a compatibility shim;
* :mod:`~repro.telemetry.export` — JSONL event logs and Prometheus text
  exposition;
* :mod:`~repro.telemetry.timeline` — per-process detection narratives
  rebuilt from the event stream.

:class:`TelemetrySession` bundles a bus and a registry with the hot
instruments pre-resolved, and is the single object instrumented code
holds.  The contract with the hot paths is: the engine/scoreboard/cache
keep a ``telemetry`` slot that is ``None`` when disabled, and every emit
point is behind one ``is None`` check — no event construction, no dict
lookups, no callable indirection on the disabled path.  The bench
harness gates that at <2% (``telemetry_overhead`` in ``BENCH_4.json``).
"""

from __future__ import annotations

from typing import Optional

from .events import (EVENT_TYPES, BaselineResolved, BreakerTripped,
                     CacheEvicted, DigestBatchFlushed, EventBus,
                     FaultInjected, IndicatorFired, LoadShed,
                     ProcessSuspended, ScoreDelta, ShardRestarted,
                     StoreBuilt, StoreOpened, StorePageIn,
                     TelemetryEvent, UnionBoost, event_from_dict,
                     events_as_dicts)
from .export import (JsonlWriter, read_jsonl, render_prometheus,
                     validate_exposition, write_jsonl)
from .metrics import (BATCH_SIZE_BUCKETS, FILES_LOST_BUCKETS,
                      OP_WALL_US_BUCKETS, QUEUE_DEPTH_BUCKETS,
                      SCORE_BUCKETS,
                      Counter, Gauge, Histogram, MetricsRegistry,
                      collect_perfstats, engine_snapshot, ingest_snapshot,
                      merge_metric_states)
from .timeline import (DetectionTimeline, TimelineEntry, build_timeline,
                       indicator_totals, merge_indicator_totals,
                       timelines_by_process)

__all__ = [
    "TelemetrySession",
    # events
    "TelemetryEvent", "IndicatorFired", "ScoreDelta", "UnionBoost",
    "ProcessSuspended", "BaselineResolved", "CacheEvicted",
    "DigestBatchFlushed",
    "FaultInjected", "StoreBuilt", "StoreOpened", "StorePageIn",
    "LoadShed", "BreakerTripped", "ShardRestarted", "EventBus",
    "EVENT_TYPES", "event_from_dict", "events_as_dicts",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "BATCH_SIZE_BUCKETS", "FILES_LOST_BUCKETS", "SCORE_BUCKETS",
    "OP_WALL_US_BUCKETS", "QUEUE_DEPTH_BUCKETS",
    "collect_perfstats", "engine_snapshot", "ingest_snapshot",
    "merge_metric_states",
    # export
    "JsonlWriter", "write_jsonl", "read_jsonl", "render_prometheus",
    "validate_exposition",
    # timeline
    "TimelineEntry", "DetectionTimeline", "build_timeline",
    "timelines_by_process", "indicator_totals", "merge_indicator_totals",
]


class TelemetrySession:
    """One run's telemetry: an event bus plus a metrics registry.

    The hot instruments are resolved once at construction and held as
    attributes, so emit points pay one attribute access, not a registry
    lookup.  Everything instrumented code needs hangs off this object:

    ``session.bus.emit(...)`` for events, ``session.indicator_hits.inc``
    etc. for metrics, ``session.export()`` for the merged snapshot that
    rides on ``SampleResult.telemetry`` and folds into campaign totals.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.bus = EventBus(capacity=capacity)
        self.registry = MetricsRegistry()
        r = self.registry
        self.indicator_hits = r.counter(
            "cryptodrop_indicator_hits_total",
            "indicator hits folded into the scoreboard, per indicator")
        self.union_boosts = r.counter(
            "cryptodrop_union_boosts_total",
            "union indications fired (all three primary flags present)")
        self.suspensions = r.counter(
            "cryptodrop_suspensions_total",
            "detection verdicts, labeled by policy action")
        self.score_at_suspension = r.histogram(
            "cryptodrop_score_at_suspension", SCORE_BUCKETS,
            "reputation score at the moment of the verdict")
        self.files_lost = r.histogram(
            "cryptodrop_detection_files_lost", FILES_LOST_BUCKETS,
            "files lost before suspension (detection latency, paper Fig. 3)")
        self.op_wall_us = r.histogram(
            "cryptodrop_op_wall_us", OP_WALL_US_BUCKETS,
            "measured post_operation wall time, microseconds, per op kind")
        self.baseline_resolutions = r.counter(
            "cryptodrop_baseline_resolutions_total",
            "inspections by digest source (lru/store/live/deferred)")
        self.cache_evictions = r.counter(
            "cryptodrop_cache_evictions_total",
            "digest-LRU evictions")
        self.digest_batches = r.counter(
            "cryptodrop_digest_batches_total",
            "InspectionScheduler flushes that drained pending digests")
        self.digest_batch_size = r.histogram(
            "cryptodrop_digest_batch_size", BATCH_SIZE_BUCKETS,
            "pending inspections drained per scheduler flush")
        self.scheduler_pending_bytes = r.gauge(
            "cryptodrop_scheduler_pending_bytes",
            "content bytes retained by deferred (pending) inspections")
        self.faults = r.counter(
            "cryptodrop_faults_injected_total",
            "injected faults, per fault kind")
        self.load_sheds = r.counter(
            "cryptodrop_load_shed_total",
            "ingest records shed under overload, per tenant")
        self.breaker_trips = r.counter(
            "cryptodrop_breaker_trips_total",
            "circuit-breaker opens on transient inspection failures, "
            "per tenant")
        self.shard_restarts = r.counter(
            "cryptodrop_shard_restarts_total",
            "watchdog-driven shard restarts, per tenant and reason")
        self.retry_backoff = r.counter(
            "cryptodrop_retry_backoff_total",
            "delayed (exponential-backoff) retry resubmissions in the "
            "parallel campaign dispatcher")
        self.store_page_ins = r.counter(
            "cryptodrop_store_page_ins_total",
            "baseline-store records deserialised from disk on first "
            "touch (mmap backend)")
        self.store_resident = r.gauge(
            "cryptodrop_store_resident_entries",
            "baseline-store entries resident in memory (hot-entry LRU "
            "occupancy for the mmap backend, all entries for dict)")

    @classmethod
    def from_config(cls, config) -> Optional["TelemetrySession"]:
        """A session when the config asks for one, else ``None``.

        ``None`` *is* the disabled fast path — instrumented code guards
        every emit point with ``if telemetry is not None``.
        """
        if not getattr(config, "telemetry_enabled", False):
            return None
        return cls(capacity=getattr(config, "telemetry_events", 4096))

    # -- convenience observations --------------------------------------------

    def observe_files_lost(self, n: int) -> None:
        """Record detection latency; called post-assessment by the runner
        (damage is only measurable after the run)."""
        self.files_lost.observe(n)

    def timeline(self, root_pid: Optional[int] = None) -> DetectionTimeline:
        return build_timeline(self.bus.events(), root_pid=root_pid)

    def render_prometheus(self) -> str:
        return render_prometheus(self.registry)

    # -- result / campaign plumbing ------------------------------------------

    def export(self) -> dict:
        """JSON-safe snapshot: ring events + bus stats + metric state.

        This is the payload stored on ``SampleResult.telemetry`` and
        merged campaign-wide by :func:`merge_telemetry_dicts` — the same
        shape whether it came from a live session or a pickled worker.
        """
        return {
            "events": events_as_dicts(self.bus.events()),
            "bus": self.bus.stats(),
            "counts_by_kind": self.bus.counts_by_kind(),
            "metrics": self.registry.checkpoint(),
        }


def merge_telemetry_dicts(snapshots) -> dict:
    """Fold per-sample/per-worker :meth:`TelemetrySession.export` dicts
    into one campaign-wide view (the telemetry analogue of
    ``perfstats.merge_perf_dicts``).

    Metric states add; bus counters add; per-kind counts add.  Ring
    events are *not* concatenated — a campaign keeps per-sample event
    logs where it wants them and aggregates numbers here.
    """
    merged = {"bus": {"capacity": 0, "buffered": 0, "emitted": 0,
                      "dropped": 0},
              "counts_by_kind": {}, "metrics": {}, "samples": 0}
    registry = MetricsRegistry()
    for snap in snapshots:
        if not snap:
            continue
        merged["samples"] += 1
        bus = snap.get("bus", {})
        for key in ("buffered", "emitted", "dropped"):
            merged["bus"][key] += bus.get(key, 0)
        merged["bus"]["capacity"] = max(merged["bus"]["capacity"],
                                        bus.get("capacity", 0))
        for kind, n in snap.get("counts_by_kind", {}).items():
            merged["counts_by_kind"][kind] = \
                merged["counts_by_kind"].get(kind, 0) + n
        registry.merge(snap.get("metrics", {}))
    merged["metrics"] = registry.checkpoint()
    return merged


__all__.append("merge_telemetry_dicts")
