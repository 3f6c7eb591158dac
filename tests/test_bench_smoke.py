"""Structural smoke pass over the ``make bench`` harness (ISSUEs 2–9).

Runs the benchmark harness at smoke scale — seconds, not minutes — and
checks the report's shape (via the harness's own schema validator), the
single-digest invariant, the headline speedups, the campaign-throughput
section, the telemetry-overhead guardrail, and the regression
comparator's accept/reject logic.  Full
numbers live in the newest committed ``BENCH_<N>.json`` (regenerate with
``make bench``, gate with ``make bench-check``).
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from check_regression import compare_reports, newest_baseline
from run_bench import main as run_bench_main
from run_bench import run as run_bench
from run_bench import validate_report

pytestmark = pytest.mark.benchmarks


@pytest.fixture(scope="module")
def report():
    return run_bench(smoke=True)


class TestReportShape:
    def test_hot_paths_named_and_positive(self, report):
        for name in ("sdhash_digest", "compare_batched",
                     "close_heavy_campaign", "campaign_throughput",
                     "digest_many_batch", "store_build_batched",
                     "ingest_session", "store_open"):
            assert report["hot_paths"][name]["seconds"] > 0

    def test_schema_validator_accepts_report(self, report):
        assert validate_report(report) == []

    def test_schema_validator_catches_damage(self, report):
        broken = copy.deepcopy(report)
        del broken["hot_paths"]["campaign_throughput"]
        broken["campaign"].pop("speedup")
        problems = validate_report(broken)
        assert any("campaign_throughput" in p for p in problems)
        assert any("speedup" in p for p in problems)

    def test_counters_present(self, report):
        counters = report["counters"]
        assert counters["bytes_closed"] > 0
        assert counters["digest_cache"]["hits"] > 0
        assert counters["op_counts"]["close"] > 0
        assert counters["op_wall_us"]["close"] > 0

    def test_json_serialisable(self, report):
        json.dumps(report)


class TestInvariantsAndSpeedups:
    def test_single_digest_invariant(self, report):
        assert report["invariants"]["bytes_digested_le_bytes_closed"]
        counters = report["counters"]
        assert counters["bytes_digested"] <= counters["bytes_closed"]

    def test_close_path_speedup(self, report):
        # ISSUE 2 target: ≥2x on close-heavy campaigns (cache on vs off)
        assert report["speedups"]["close_path_cached_vs_uncached"] >= 2.0

    def test_compare_speedup(self, report):
        # smoke scale uses fewer filters than the ≥5x/32-filter bar the
        # full bench pins (benchmarks/bench_compare_batch.py); even so the
        # batched path must already win
        assert report["speedups"]["compare_batched_vs_scalar"] >= 2.0

    def test_digest_vectorisation_wins(self, report):
        assert report["speedups"]["sdhash_vectorised_vs_scalar"] >= 1.5

    def test_campaign_results_identical_across_modes(self, report):
        # the ISSUE-3 correctness bar: store-backed, store-less, serial
        # and parallel runs agree bit-for-bit on detection outcomes
        assert report["invariants"]["campaign_results_identical"]
        assert report["campaign"]["results_identical"]

    def test_store_leaves_untouched_corpus_undigested(self, report):
        assert report["invariants"]["store_untouched_bytes_digested_zero"]

    def test_digest_many_beats_per_file(self, report):
        # the ISSUE-5 bar is ≥2x on a 32-doc batch at full scale; even the
        # 16-doc smoke batch must already win
        assert report["speedups"]["digest_many_vs_per_file"] > 1.0
        assert report["invariants"]["digest_many_identical"]

    def test_store_build_batched_beats_serial(self, report):
        # full scale gates ≥3x (store_build_speedup_ge_3); smoke only pins
        # a win plus entry-for-entry identity with the serial reference
        assert report["speedups"]["store_build_batched_vs_serial"] > 1.0
        assert report["invariants"]["store_build_identical"]
        assert report["store_build"]["entries_identical"]
        assert report["store_build"]["entries"] > 0

    def test_batched_campaign_results_identical(self, report):
        # scheduler-deferred digesting must not perturb a single verdict
        assert report["invariants"]["batch_results_identical"]

    def test_campaign_section_counters(self, report):
        sweep = report["campaign"]
        assert sweep["samples"] > 0
        assert sweep["store_entries"] > 0
        # the store sits in the resolution path for every first-touch
        # inspection; whether lookups hit depends on the cohort's attack
        # shapes, so smoke only pins that it was consulted (the committed
        # full-scale baseline pins store_hits > 0 below)
        assert sweep["store_hits"] + sweep["store_misses"] > 0
        # smoke legs run ~25ms each, so the ratio is scheduler noise —
        # the ≥3x bar is gated at full scale (campaign_speedup_ge_3)
        assert sweep["speedup"] > 0
        assert sweep["store_build_seconds"] > 0


class TestTelemetryOverhead:
    def test_disabled_path_costs_under_two_percent(self, report):
        # the ISSUE-4 bar: with telemetry disabled every emit point is a
        # single None check, so the close-heavy workload must run within
        # 2% of the (equally telemetry-free) regression-gated hot path
        assert report["telemetry_overhead"]["disabled_vs_baseline"] < 1.02

    def test_enabled_path_captures_events(self, report):
        assert report["telemetry_overhead"]["events_captured"] > 0

    def test_counters_identical_either_way(self, report):
        # telemetry observes the engine; it must never perturb what the
        # engine counts
        assert report["telemetry_overhead"]["counters_identical"]
        assert report["invariants"]["telemetry_counters_identical"]

    def test_detection_results_identical_either_way(self, report):
        assert report["telemetry_overhead"]["campaign_results_identical"]
        assert report["invariants"]["telemetry_results_identical"]

    def test_schema_validator_requires_section(self, report):
        broken = copy.deepcopy(report)
        del broken["telemetry_overhead"]["disabled_vs_baseline"]
        broken["invariants"].pop("telemetry_counters_identical")
        problems = validate_report(broken)
        assert any("disabled_vs_baseline" in p for p in problems)
        assert any("telemetry_counters_identical" in p for p in problems)


class TestStorePersistence:
    def test_backend_verdicts_identical(self, report):
        # the ISSUE-9 correctness bar: the mmap backend is storage,
        # never semantics — dict and disk legs agree bit-for-bit
        assert report["invariants"]["store_backend_results_identical"]
        assert report["store_persistence"]["results_identical"]
        assert report["invariants"]["store_fingerprint_identical"]
        assert report["store_persistence"]["storage_legs"] == \
            ["dict", "mmap"]

    def test_mmap_leg_consulted_the_store(self, report):
        # whether campaign lookups hit depends on the cohort's attack
        # shapes, same caveat as the campaign section; the sweep below
        # pins hits == lookups on pristine content
        section = report["store_persistence"]
        assert section["mmap_store_hits"] + section["mmap_store_misses"] > 0

    def test_pristine_rerun_digests_nothing(self, report):
        assert report["invariants"]["store_rerun_bytes_digested_zero"]
        for leg in report["store_persistence"]["scaling"]:
            assert leg["sweep_bytes_digested"] == 0
            assert leg["sweep_store_hits"] == leg["lookups"]
            assert leg["page_ins"] > 0

    def test_residency_bounded_and_files_clean(self, report):
        assert report["invariants"]["store_resident_bounded"]
        assert report["invariants"]["store_fsck_clean"]
        for leg in report["store_persistence"]["scaling"]:
            assert leg["resident"] <= leg["hot_entries"]
            assert leg["fsck_ok"]

    def test_reopen_beats_rebuild(self, report):
        # the ≤50 ms / ≥100x bars are gated at full scale
        # (store_open_le_50ms, store_open_vs_rebuild_ge_100); even the
        # ~1k-entry smoke store must reopen clearly faster than it built
        assert report["speedups"]["store_open_vs_rebuild"] > 1.0
        for leg in report["store_persistence"]["scaling"]:
            assert leg["open_seconds"] < leg["build_seconds"]

    def test_schema_validator_requires_section(self, report):
        broken = copy.deepcopy(report)
        del broken["store_persistence"]["open_vs_rebuild"]
        broken["invariants"].pop("store_backend_results_identical")
        problems = validate_report(broken)
        assert any("open_vs_rebuild" in p for p in problems)
        assert any("store_backend_results_identical" in p
                   for p in problems)

    def test_comparator_gates_scaling_tiers(self, report):
        slow = copy.deepcopy(report)
        leg = slow["store_persistence"]["scaling"][-1]
        leg["open_seconds"] *= 2.0
        regs = compare_reports(report, slow, threshold=0.25)
        assert [r[0] for r in regs] == [f"store_open[{leg['files']}]"]


class TestIngestResilience:
    def test_verdicts_survive_the_fault_storm(self, report):
        # the ISSUE-6 correctness bar: kills, poisons, stalls and
        # transient denials change nothing about what the detector
        # decides once the watchdog has replayed the lost tail
        assert report["invariants"]["ingest_verdicts_identical"]
        assert report["ingest_resilience"]["verdicts_identical"]

    def test_no_cross_tenant_leakage(self, report):
        assert report["invariants"]["ingest_no_cross_tenant_events"]

    def test_every_shed_is_observable(self, report):
        # degraded mode must be loud: each dropped record surfaces as a
        # LoadShed bus event and a per-tenant counter increment
        assert report["invariants"]["ingest_shed_observable"]
        resilience = report["ingest_resilience"]
        assert resilience["sheds"] > 0
        assert resilience["shed_events_observed"] == resilience["sheds"]

    def test_nonshed_tenants_unchanged_under_overload(self, report):
        assert report["invariants"]["ingest_nonshed_unchanged"]

    def test_faults_actually_fired(self, report):
        resilience = report["ingest_resilience"]
        assert resilience["shard_kills"] > 0
        assert resilience["restarts"] > 0
        assert resilience["events_applied"] > 0

    def test_throughput_ratio_positive(self, report):
        # the ≥0.70 bar is gated at full scale
        # (ingest_throughput_ratio_ge_0p7); smoke legs are too short to
        # pin a ratio against scheduler noise
        assert report["ingest_resilience"]["throughput_ratio"] > 0

    def test_schema_validator_requires_section(self, report):
        broken = copy.deepcopy(report)
        del broken["ingest_resilience"]["throughput_ratio"]
        broken["invariants"].pop("ingest_verdicts_identical")
        problems = validate_report(broken)
        assert any("throughput_ratio" in p for p in problems)
        assert any("ingest_verdicts_identical" in p for p in problems)


class TestComparator:
    def test_no_regression_against_self(self, report):
        assert compare_reports(report, report) == []

    def test_detects_slowdown(self, report):
        slow = copy.deepcopy(report)
        entry = slow["hot_paths"]["sdhash_digest"]
        entry["seconds"] *= 2.0
        regs = compare_reports(report, slow, threshold=0.25)
        assert [r[0] for r in regs] == ["sdhash_digest"]

    def test_tolerates_slowdown_below_threshold(self, report):
        slow = copy.deepcopy(report)
        slow["hot_paths"]["sdhash_digest"]["seconds"] *= 1.10
        assert compare_reports(report, slow, threshold=0.25) == []

    def test_speedup_never_fails(self, report):
        fast = copy.deepcopy(report)
        for entry in fast["hot_paths"].values():
            entry["seconds"] *= 0.5
        assert compare_reports(report, fast) == []

    def test_new_paths_ignored(self, report):
        grown = copy.deepcopy(report)
        grown["hot_paths"]["brand_new_bench"] = {"seconds": 1.0}
        assert compare_reports(report, grown) == []

    def test_scale_mismatch_rejected(self, report):
        full = copy.deepcopy(report)
        full["scale"] = "full"
        with pytest.raises(ValueError):
            compare_reports(report, full)


class TestCli:
    def test_writes_report_and_exits_zero(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run_bench_main(["--smoke", "--output", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["scale"] == "smoke"

    def test_committed_baseline_matches_schema(self, report):
        baseline_path = newest_baseline()
        assert baseline_path.name == "BENCH_8.json"
        baseline = json.loads(baseline_path.read_text())
        assert baseline["schema"] == report["schema"]
        assert baseline["scale"] == "full"
        assert set(report["hot_paths"]) <= set(baseline["hot_paths"])
        assert baseline["invariants"]["bytes_digested_le_bytes_closed"]
        assert baseline["invariants"]["campaign_results_identical"]
        assert baseline["campaign"]["store_hits"] > 0
        assert validate_report(baseline) == []
