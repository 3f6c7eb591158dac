"""Paired monitored/unmonitored legs over one reverted VM.

Every workload is a list of :class:`Item`s: programs the sandbox runs
(ransomware samples, benign applications).
One *leg* runs one item once on the workload's single
:class:`~repro.sandbox.VirtualMachine`, then assesses and reverts it:

* the **monitored** leg attaches a fresh ``CryptoDropMonitor`` at the
  default config, exactly as ``run_sample``/``run_benign`` do;
* the **unmonitored** leg runs the same item with no detector.

Both legs carry an :class:`OpCounter` filter.  It counts completed
filesystem operations, and in an unmonitored leg it suspends the
process after the same number of operations at which the detector
suspended it in the monitored leg.  Both legs therefore issue the same
operation stream, which the checks below verify (equal counts per
operation kind, equal damage, equal content hashes).

A warm-up pass runs every monitored leg once untimed: it fills lazy
caches, fixes each item's operation cap and verdict fingerprint, and
the timed passes must reproduce that fingerprint exactly.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.monitor import CryptoDropMonitor
from repro.fs.filters import FilterDriver, PostVerdict
from repro.fs.vfs import VirtualFileSystem

__all__ = ["CallTimer", "Campaign", "Item", "LegResult", "OpCounter",
           "Workload", "end_to_end", "percentile", "run_leg", "run_passes"]


@dataclass
class Item:
    """One program the workload runs, rebuilt fresh for every leg."""

    key: str
    make: Callable[[], object]
    #: call ``prepare(machine)`` (``BenignApplication``'s out-of-band
    #: asset planting) before each leg, outside the timed region
    prepare: bool = False


@dataclass
class Workload:
    """What a workload's set-up hands the harness."""

    machine: object
    items: List[Item]
    #: what a correct monitored leg looks like: called with
    #: (item, LegResult); returns an error string or None
    expect: Callable[[Item, "LegResult"], Optional[str]]
    #: a campaign pays damage assessment and revert per item (cohort);
    #: otherwise they are harness work, outside timing and tracing
    campaign: bool = False
    #: set-up phase timings of the last set-up, seconds
    phases: Dict[str, float] = field(default_factory=dict)


class OpCounter(FilterDriver):
    """Counts completed operations; optionally suspends after ``cap``."""

    name = "bench-op-counter"

    def __init__(self, cap: Optional[int] = None) -> None:
        self.cap = cap
        self.total = 0
        self.by_kind: Dict[str, int] = {}

    def post_operation(self, op) -> PostVerdict:
        self.total += 1
        kind = op.kind.value
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if self.cap is not None and self.total >= self.cap:
            return PostVerdict(True, "bench op cap")
        return PostVerdict.ALLOW


class CallTimer:
    """Per-call wall time of ``VirtualFileSystem.read``, ``write`` and
    ``close``.

    Installed on the class for the duration of the timed passes, so it
    times every call a program issues, whichever helper (``read_file``,
    an ``ExecutionContext`` proxy) issued it.  Samples go, in call
    order, to :attr:`current` (kind → microseconds), which each leg
    sets to its own record; None between legs.
    """

    KINDS = ("read", "write", "close")

    def __init__(self) -> None:
        self.current: Optional[Dict[str, List[float]]] = None
        self._saved: Dict[str, Callable] = {}

    def _timed(self, kind: str, fn: Callable) -> Callable:
        perf = time.perf_counter_ns
        timer = self

        def timed(*args):
            record = timer.current
            if record is None:
                return fn(*args)
            started = perf()
            try:
                return fn(*args)
            finally:
                record[kind].append((perf() - started) / 1000.0)
        return timed

    def install(self) -> None:
        for kind in self.KINDS:
            self._saved[kind] = getattr(VirtualFileSystem, kind)
            setattr(VirtualFileSystem, kind,
                    self._timed(kind, self._saved[kind]))

    def uninstall(self) -> None:
        for kind, fn in self._saved.items():
            setattr(VirtualFileSystem, kind, fn)
        self._saved.clear()


@dataclass
class LegResult:
    """What one leg did, and how long it took."""

    key: str
    monitored: bool
    run_s: float
    cycle_s: float
    ops: int
    ops_by_kind: Dict[str, int]
    suspended: bool
    error: Optional[str]
    files_lost: int
    #: SHA-256 of every file the leg changed or created, by path
    outcome: tuple
    #: (detected, files_lost, score, union_fired); monitored legs only
    verdict: Optional[tuple] = None
    #: monitor.stats() of a monitored leg
    stats: Optional[dict] = None
    #: per-call microseconds by kind, in call order (timed passes only)
    calls: Optional[Dict[str, List[float]]] = None


def _outcome(machine, damage) -> tuple:
    changed = sorted(damage.modified) + sorted(damage.new_files)
    vfs = machine.vfs
    return (tuple(str(p) for p in sorted(damage.missing)),
            tuple((str(p), hashlib.sha256(vfs.peek_read(p)).hexdigest())
                  for p in changed))


def run_leg(machine, item: Item, monitored: bool, campaign: bool,
            cap: Optional[int] = None, timer: Optional[CallTimer] = None,
            tracer=None) -> LegResult:
    """Run one leg of ``item``: attach, run, detach, assess, revert.

    ``run_s`` is the program's run, where the two legs issue identical
    streams.  ``cycle_s`` adds the monitor's set-up and, for a
    ``campaign`` workload, the damage assessment and revert a campaign
    pays per sample.  Asset planting and the harness's own hashing of
    the outcome stay outside both, and outside the ``tracer``'s root
    spans, which cover exactly what ``cycle_s`` covers.
    """
    program = item.make()
    vfs = machine.vfs
    if item.prepare:
        # out-of-band planting emits no events, so it may precede the
        # monitor (run_benign attaches first only for error handling)
        program.prepare(machine)
    gc.collect()
    if tracer is not None:
        tracer.begin()
    t0 = time.perf_counter()
    monitor = None
    if monitored:
        monitor = CryptoDropMonitor(vfs,
                                    baseline_store=machine.baseline_store)
        monitor.attach()
    counter = OpCounter(None if monitored else cap)
    vfs.filters.attach(counter)
    calls = None
    try:
        if timer is not None:
            calls = timer.current = {kind: [] for kind in timer.KINDS}
        t1 = time.perf_counter()
        outcome = machine.run_program(program)
        t2 = time.perf_counter()
    finally:
        if timer is not None:
            timer.current = None
        vfs.filters.detach(counter)
        if monitor is not None:
            monitor.detach()
    if campaign:
        damage = machine.assess()
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.end()
    if not campaign:
        damage = machine.assess()
    verdict = stats = None
    if monitor is not None:
        row = monitor.engine.row_of(outcome.pid)
        verdict = (bool(monitor.detections), damage.files_lost,
                   row.score, row.union_fired)
        stats = monitor.stats()
    files = _outcome(machine, damage)
    if campaign and tracer is not None:
        tracer.begin()
    t4 = time.perf_counter()
    machine.revert()
    t5 = time.perf_counter()
    if campaign and tracer is not None:
        tracer.end()
    return LegResult(
        key=item.key, monitored=monitored, run_s=t2 - t1,
        cycle_s=(t3 - t0) + ((t5 - t4) if campaign else 0.0),
        ops=counter.total, ops_by_kind=dict(counter.by_kind),
        suspended=outcome.suspended, error=outcome.error,
        files_lost=damage.files_lost, outcome=files,
        verdict=verdict, stats=stats, calls=calls)


def percentile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Campaign:
    """Warm-up, then timed passes of paired legs, with every check."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.caps: Dict[str, Optional[int]] = {}
        self.expected: Dict[str, LegResult] = {}
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0

    def _count(self, leg: LegResult) -> None:
        self.attempted += 1
        if leg.error is not None:
            self.failed += 1
            self.errors.append(f"{leg.key}: program error {leg.error}")

    def warm_up(self) -> None:
        """Monitored legs once each: fixes caps and fingerprints."""
        for item in self.workload.items:
            leg = run_leg(self.workload.machine, item, monitored=True,
                          campaign=self.workload.campaign)
            self._count(leg)
            problem = self.workload.expect(item, leg)
            if problem is not None:
                self.errors.append(f"{item.key}: {problem}")
            self.caps[item.key] = leg.ops if leg.suspended else None
            self.expected[item.key] = leg

    def check_pair(self, mon: LegResult, unmon: LegResult) -> None:
        """Monitored legs repeat the warm-up exactly; the unmonitored
        twin issued the same operations and left the same files."""
        ref = self.expected[mon.key]
        if mon.verdict != ref.verdict:
            self.errors.append(f"{mon.key}: verdict {mon.verdict} differs "
                               f"from warm-up {ref.verdict}")
        for side, leg in (("monitored", mon), ("unmonitored", unmon)):
            if leg.ops_by_kind != ref.ops_by_kind:
                self.errors.append(f"{leg.key}: {side} op counts "
                                   f"{leg.ops_by_kind} != {ref.ops_by_kind}")
            if leg.outcome != ref.outcome:
                self.errors.append(f"{leg.key}: {side} leg left different "
                                   "files than the warm-up")

    def paired_pass(self, timer: Optional[CallTimer] = None,
                    tracer=None) -> List[tuple]:
        """Every item once per leg, in a seeded order; returns
        (monitored, unmonitored) LegResult pairs.  A ``tracer`` records
        the monitored legs only.
        """
        order = list(self.workload.items)
        self.rng.shuffle(order)
        machine = self.workload.machine
        pairs = []
        for item in order:
            cap = self.caps[item.key]
            legs = {}
            first_monitored = self.rng.random() < 0.5
            for monitored in (first_monitored, not first_monitored):
                leg = run_leg(machine, item, monitored,
                              self.workload.campaign, cap=cap, timer=timer,
                              tracer=tracer if monitored else None)
                self._count(leg)
                legs[monitored] = leg
            self.check_pair(legs[True], legs[False])
            pairs.append((legs[True], legs[False]))
        return pairs


def run_passes(campaign: Campaign, seconds: float, timer: CallTimer,
               min_passes: int) -> List[List[tuple]]:
    """Timed passes: at least ``min_passes``, then more while another
    pass of the average length still ends within ``seconds``."""
    passes = []
    started = time.perf_counter()
    timer.install()
    try:
        while True:
            elapsed = time.perf_counter() - started
            if (len(passes) >= min_passes
                    and elapsed * (len(passes) + 1) / len(passes) > seconds):
                break
            passes.append(campaign.paired_pass(timer))
    finally:
        timer.uninstall()
    return passes


def _paired(by_item: Dict[str, List[tuple]], per_pass: Callable) -> float:
    """A monitored-over-unmonitored figure that the machine's speed
    cancels out of.

    ``per_pass(mon, unmon)`` is the numerator for one pass's two legs,
    which ran back to back; the denominator is the unmonitored run
    time.  Both are reduced to each item's median over the passes and
    summed over the items.
    """
    num = den = 0.0
    for pairs in by_item.values():
        num += statistics.median(per_pass(m, u) for m, u in pairs)
        den += statistics.median(u.run_s for _, u in pairs)
    return num / den


def end_to_end(passes: List[List[tuple]]) -> dict:
    """Every end-to-end figure of the timed passes.

    ``overhead_x`` is the monitored run time over the unmonitored one;
    ``<kind>_added_x`` is the time the monitor adds to one kind of call
    (monitored minus unmonitored call time), in units of the unmonitored
    run time.  Both compare identical operation streams (see
    :func:`_paired`).  The absolute figures (``*_per_s``, ``*_us``) use
    each item's median over the passes and carry the machine's speed.
    """
    med = statistics.median
    by_item: Dict[str, List[tuple]] = {}
    for pairs in passes:
        for pair in pairs:
            by_item.setdefault(pair[0].key, []).append(pair)

    t_mon = sum(med(m.run_s for m, _ in pairs) for pairs in by_item.values())
    t_unmon = sum(med(u.run_s for _, u in pairs)
                  for pairs in by_item.values())
    cycle = sum(med(m.cycle_s for m, _ in pairs)
                for pairs in by_item.values())
    ops = sum(pairs[0][0].ops for pairs in by_item.values())
    out = {
        "overhead_x": _paired(by_item, lambda m, u: m.run_s),
        "samples_per_s": len(by_item) / cycle,
        "ops_per_s": ops / t_mon,
        "added_us_per_op": (t_mon - t_unmon) / ops * 1e6,
    }
    for kind in CallTimer.KINDS:
        out[f"{kind}_added_x"] = _paired(
            by_item, lambda m, u, k=kind: (sum(m.calls[k]) - sum(u.calls[k]))
            / 1e6)
        # call i of every pass is the same operation: its median time
        mon = [med(column) for pairs in by_item.values()
               for column in zip(*(m.calls[kind] for m, _ in pairs))]
        out[f"{kind}_calls"] = len(mon)
        if mon:
            out[f"{kind}_p50_us"] = percentile(mon, 0.5)
            if kind == "close":
                out["close_p90_us"] = percentile(mon, 0.9)
    return out
