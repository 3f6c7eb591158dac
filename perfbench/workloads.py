"""The workloads: what each sets up and which programs it runs.

* ``cohort`` — live ransomware samples (``repro.ransomware``) against a
  planted corpus with the shared corpus ``BaselineStore``.
* ``benign`` — the thirty §V-F applications (``repro.benign``).

Set-up builds everything a workload needs from scratch: corpus
generation, store build, machine and snapshot.  The item lists are
fixed, so the verdicts repeat exactly from seed to seed; the seed
orders the items and their legs (see ``harness.Campaign``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.benign import ALL_APP_CLASSES
from repro.corpus import generate
from repro.ransomware import instantiate, working_cohort
from repro.sandbox import VirtualMachine, store_for_config

from harness import Item, LegResult, Workload

__all__ = ["FULL", "SMOKE", "Scale", "WORKLOADS"]


@dataclass(frozen=True)
class Scale:
    """Workload sizes; :data:`FULL` is the benchmark, :data:`SMOKE` the
    harness self-test."""

    corpus_files: int
    corpus_dirs: int
    #: cohort: keep only the first N picked samples (None = all)
    cohort_limit: Optional[int]
    #: benign: keep only the first N applications (None = all thirty)
    app_limit: Optional[int]


FULL = Scale(corpus_files=1275, corpus_dirs=128, cohort_limit=None,
             app_limit=None)

SMOKE = Scale(corpus_files=300, corpus_dirs=30, cohort_limit=3, app_limit=3)

#: the repository's default corpus seed (``corpus.generate``)
CORPUS_SEED = 2016


# -- cohort ----------------------------------------------------------------

def _cohort_pick(limit: Optional[int]) -> list:
    """A fixed stratified subset of ``working_cohort()``.

    One sample of each family's most common (class, cipher) stratum,
    then one more for every class and cipher those leave uncovered, so
    the subset spans every family, classes A/B/C and all five ciphers.
    """
    strata: Dict[tuple, list] = {}
    for sample in working_cohort():
        p = sample.profile
        strata.setdefault((p.family, p.behavior_class, p.cipher_kind),
                          []).append(sample)
    ranked = sorted(strata.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    picked, families, classes, ciphers = [], set(), set(), set()
    for (family, cls, cipher), members in ranked:
        if family not in families:
            picked.append(members[0])
            families.add(family)
            classes.add(cls)
            ciphers.add(cipher)
    for (family, cls, cipher), members in ranked:
        if cls not in classes or cipher not in ciphers:
            picked.append(members[0])
            classes.add(cls)
            ciphers.add(cipher)
    return picked[:limit] if limit else picked


def _expect_detected(item: Item, leg: LegResult) -> Optional[str]:
    if not (leg.verdict[0] and leg.suspended):
        return "sample ran undetected"
    return None


def set_up_cohort(scale: Scale) -> Workload:
    t0 = time.perf_counter()
    corpus = generate(CORPUS_SEED, scale.corpus_files, scale.corpus_dirs,
                      use_cache=False)
    t1 = time.perf_counter()
    store = store_for_config(corpus, None)
    t2 = time.perf_counter()
    machine = VirtualMachine(corpus, baseline_store=store)
    machine.snapshot()
    items = [Item(s.profile.sample_name,
                  lambda p=s.profile: instantiate(p))
             for s in _cohort_pick(scale.cohort_limit)]
    return Workload(machine, items, _expect_detected, campaign=True,
                    phases={"generate_s": t1 - t0, "store_build_s": t2 - t1})


# -- benign ----------------------------------------------------------------

#: §V-F: the one application the paper's CryptoDrop flagged
PAPER_BENIGN_ALARMS = {"7z.exe"}


def _expect_benign(item: Item, leg: LegResult) -> Optional[str]:
    name = item.key.split("/")[0]
    alarmed = bool(leg.verdict[0])
    if alarmed != (name in PAPER_BENIGN_ALARMS):
        return (f"alarm={alarmed}, but the §V-F alarm set is "
                f"{sorted(PAPER_BENIGN_ALARMS)}")
    return None


def set_up_benign(scale: Scale) -> Workload:
    t0 = time.perf_counter()
    corpus = generate(CORPUS_SEED, scale.corpus_files, scale.corpus_dirs,
                      use_cache=False)
    t1 = time.perf_counter()
    machine = VirtualMachine(corpus)
    machine.snapshot()
    # all_apps(0): two applications share an image name, so the key
    # carries the class name as well
    items = [Item(f"{cls.name}/{cls.__name__}", lambda c=cls: c(0),
                  prepare=True)
             for cls in ALL_APP_CLASSES[:scale.app_limit]]
    return Workload(machine, items, _expect_benign,
                    phases={"generate_s": t1 - t0})


WORKLOADS = {"cohort": set_up_cohort, "benign": set_up_benign}
