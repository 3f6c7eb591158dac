#!/usr/bin/env python3
"""Benchmark of CryptoDrop's added cost, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  The
metric names and units are read from ``BENCHMARK.json``.  The last line
of standard output is the result as one JSON object; the line before it
carries details (pass count, machine-speed calibration, errors).  A run
whose output checks fail prints ``"correct": false`` and exits with 1.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: fewest timed passes per run: each leg and call is timed this often
MIN_PASSES = 3


def _load_program() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}"
                         "; run it from the root of a repository checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def calibrate_ms() -> float:
    """A fixed numpy + blake2b kernel, median of five timings, in ms.

    Recorded beside the results as a machine-speed covariate; no metric
    is rescaled by it.
    """
    import numpy as np
    buf = np.random.default_rng(12345).integers(0, 256, 1 << 21,
                                                dtype=np.uint8)
    timings = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(4):
            np.bincount(buf, minlength=256)
            np.sort(buf[: 1 << 18])
            hashlib.blake2b(buf.tobytes()).digest()
        timings.append((time.perf_counter() - started) * 1e3)
    return statistics.median(timings)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(workload: str, scale, times: int):
    from workloads import WORKLOADS
    durations, built = [], None
    for _ in range(times):
        built = None
        gc.collect()
        started = time.perf_counter()
        built = WORKLOADS[workload](scale)
        durations.append(time.perf_counter() - started)
    # everything set-up made stays alive for the whole run; leave it out
    # of every later collection
    gc.collect()
    gc.freeze()
    return built, durations


def measure(workload: str, seed: int, seconds: float, scale) -> tuple:
    """The untraced run: end-to-end metrics."""
    from harness import Campaign, CallTimer, end_to_end, run_passes
    built, setups = _set_up(workload, scale, SETUPS)
    campaign = Campaign(built, seed)
    campaign.warm_up()
    # the program's own peak: set-ups and one run of every item (the
    # timed passes only add the harness's records)
    rss = peak_rss_mb()
    passes = run_passes(campaign, seconds, CallTimer(), MIN_PASSES)
    metrics = end_to_end(passes)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss
    detail = {"passes": len(passes), "setups_s": setups,
              "items": len(built.items), "figures": metrics}
    return campaign, metrics, detail


def _sum_stats(legs) -> dict:
    total = {"lru_hits": 0, "lru_misses": 0, "store_hits": 0,
             "store_misses": 0, "bytes_digested": 0, "bytes_closed": 0,
             "flushes": 0, "materialised": 0, "op_wall_us": 0.0}
    for leg in legs:
        stats = leg.stats
        cache = stats["digest_cache"]
        total["lru_hits"] += cache["hits"]
        total["lru_misses"] += cache["misses"]
        total["store_hits"] += cache["store_hits"]
        total["store_misses"] += cache["store_misses"]
        total["bytes_digested"] += cache["bytes_digested"]
        total["bytes_closed"] += stats["bytes_closed"]
        if stats["scheduler"] is not None:
            total["flushes"] += stats["scheduler"]["flushes"]
            total["materialised"] += stats["scheduler"]["materialised"]
        total["op_wall_us"] += sum(stats["op_wall_us"].values())
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: str, seed: int, scale, out_dir: Path) -> tuple:
    """The traced run: one untraced pass, one traced pass, per-layer
    metrics from the traced pass's monitored legs."""
    from harness import Campaign
    from tracing import DETECTOR_LAYERS, Tracer
    built, _ = _set_up(workload, scale, 1)
    campaign = Campaign(built, seed)
    campaign.warm_up()
    untraced = campaign.paired_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = campaign.paired_pass(tracer=tracer)
    finally:
        tracer.uninstall()
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"trace-{workload}-seed{seed}.npz")

    us = 1e-3  # ns → µs
    layers = tracer.layer_self_ns()
    wall_ns = tracer.wall_ns
    untraced_s = sum(mon.cycle_s for mon, _ in untraced)
    legs = [mon for mon, _ in traced]
    stats = _sum_stats(legs)
    calls, gcalls = tracer.calls, tracer.group_calls
    gns, gcount = tracer.group_ns, tracer.group_count
    m = {
        "fs.vfs.calls": sum(calls.get(f"fs.vfs.{op}", 0) for op in (
            "open", "read", "write", "close", "rename", "delete", "stat",
            "listdir")),
        "fs.vfs.self_us": layers.get("fs.vfs", 0) * us,
        "fs.filters.self_us": layers.get("fs.filters", 0) * us,
        "core.engine.self_us": layers.get("core.engine", 0) * us,
        "core.engine.op_wall_ratio": _ratio(
            sum(v for k, v in tracer.incl_ns.items()
                if k.startswith("core.engine.post.")) * us,
            stats["op_wall_us"]),
        "entropy.bytes": gcount.get("entropy", 0),
        "entropy.busy_us": gns.get("entropy", 0) * us,
        "magic.identify_calls": gcalls.get("magic", 0),
        "magic.busy_us": gns.get("magic", 0) * us,
        "core.filestate.inspect_calls": gcalls.get("core.filestate.inspect",
                                                   0),
        "core.filestate.self_us": layers.get("core.filestate", 0) * us,
        "core.filestate.lru_hit_ratio": _ratio(
            stats["lru_hits"], stats["lru_hits"] + stats["lru_misses"]),
        "core.filestate.store_hit_ratio": _ratio(
            stats["store_hits"], stats["store_hits"] + stats["store_misses"]),
        "core.filestate.digested_per_closed": _ratio(
            stats["bytes_digested"], stats["bytes_closed"]),
        "core.schedule.flushes": stats["flushes"],
        "core.schedule.batch_mean": _ratio(stats["materialised"],
                                           stats["flushes"]),
        "core.schedule.busy_us": gns.get("core.schedule", 0) * us,
        "core.scoring.hits": calls.get("core.scoring.apply", 0),
        "simhash.digest_bytes": gcount.get("simhash.digest", 0),
        "simhash.digest_busy_us": gns.get("simhash.digest", 0) * us,
        "simhash.compare_calls": gcalls.get("simhash.compare", 0),
        "simhash.compare_busy_us": gns.get("simhash.compare", 0) * us,
        "simhash.stream_bytes": gcount.get("simhash.stream", 0),
        "simhash.stream_busy_us": gns.get("simhash.stream", 0) * us,
        "corpus.baselines.lookups": gcalls.get("corpus.baselines", 0),
        "corpus.baselines.hit_ratio": _ratio(
            gcount.get("corpus.baselines", 0),
            gcalls.get("corpus.baselines", 0)),
        "corpus.baselines.busy_us": gns.get("corpus.baselines", 0) * us,
        "corpus.baselines.build_s": built.phases.get("store_build_s", 0.0),
        "corpus.builder.generate_s": built.phases.get("generate_s", 0.0),
        "crypto.busy_us": gns.get("crypto", 0) * us,
        "crypto.bytes": gcount.get("crypto", 0),
        "sandbox.assess_us": gns.get("sandbox.assess", 0) * us,
        "sandbox.revert_us": gns.get("sandbox.revert", 0) * us,
        "program.self_us": layers.get("program", 0) * us,
        "bench.self_us": layers.get("bench", 0) * us,
        "trace.wall_s": wall_ns * 1e-9,
        "trace.overhead_s": wall_ns * 1e-9 - untraced_s,
        "trace.overhead_x": _ratio(wall_ns * 1e-9, untraced_s),
        "trace.detector_share": _ratio(
            sum(layers.get(layer, 0) for layer in DETECTOR_LAYERS), wall_ns),
        "trace.accounted_share": 1.0 - _ratio(layers.get("bench", 0),
                                              wall_ns),
        "trace.spans": len(tracer.span_name),
        "verdict.files_lost_per_sample": statistics.mean(
            leg.files_lost for leg in legs),
        "verdict.detection_rate": statistics.mean(
            float(leg.verdict[0]) for leg in legs),
        "verdict.alarms": sum(1 for leg in legs if leg.verdict[0]),
    }
    for kind in ("open", "read", "write", "close", "rename", "delete"):
        m[f"core.engine.calls.{kind}"] = calls.get(f"core.engine.post.{kind}",
                                                    0)
        m[f"core.engine.busy_us.{kind}"] = gns.get(f"core.engine.{kind}",
                                                    0) * us
    detail = {"layers_self_s": {k: v * 1e-9 for k, v in sorted(
        layers.items())}, "untraced_s": untraced_s}
    return campaign, m, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    _load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    scale = workloads.FULL if args.scale == "full" else workloads.SMOKE

    calibration = calibrate_ms()
    if args.trace:
        campaign, values, detail = trace(args.workload, args.seed, scale,
                                         HERE / "out")
        values["calibration_ms"] = calibration
        wanted = spec["per_layer"]
    else:
        campaign, values, detail = measure(args.workload, args.seed,
                                           args.seconds, scale)
        wanted = spec["end_to_end"]
    detail["calibration_ms"] = calibration
    detail["errors"] = campaign.errors[:20]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]} for entry in wanted}
    correct = not campaign.errors
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": campaign.attempted,
                      "failed": campaign.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
