"""Spans around calls into each layer, recorded from the benchmark side.

:class:`Tracer` wraps the public entry points of every layer the
benchmark attributes time to.  Each wrapper records a span (name,
start, end, parent) in memory; a layer's self time is its spans'
duration minus the part their child spans cover.  Functions are
wrapped at every attribute a caller resolves: a name imported with
``from x import f`` is rebound in each ``repro`` module that holds it,
and a method on its class.  Nothing is wrapped until :meth:`install`,
and :meth:`uninstall` puts every original back.

Spans are only recorded inside leg segments (:meth:`begin`/:meth:`end`
open and close a root span named ``bench``), so the root's self time is
the harness's own share of the traced wall time.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["Tracer", "DETECTOR_LAYERS", "layer_of"]

#: the layers that make up the detector: core.*, simhash, entropy, magic
#: and corpus-store lookups
DETECTOR_LAYERS = ("core.engine", "core.monitor", "core.filestate",
                   "core.schedule", "core.scoring", "simhash", "entropy",
                   "magic", "corpus.baselines")


def layer_of(name: str) -> str:
    """``core.engine.post.read`` → ``core.engine``; ``magic.identify`` →
    ``magic``."""
    head, _, rest = name.partition(".")
    if head in ("core", "fs", "corpus"):
        return head + "." + rest.partition(".")[0]
    return head


def _nbytes_arg(index: int) -> Callable:
    def count(args, kwargs, result) -> int:
        return len(args[index])
    return count


def _nbytes_many(args, kwargs, result) -> int:
    return sum(len(blob) for blob in args[0])


def _n_counts(args, kwargs, result) -> int:
    return int(args[1])


def _found(args, kwargs, result) -> int:
    return int(result is not None)


def _targets():
    """(owner, attribute, span name, group, byte-or-hit counter)."""
    from repro import crypto, entropy
    from repro.core.filestate import FileStateCache
    from repro.core.monitor import CryptoDropMonitor
    from repro.core.schedule import InspectionScheduler
    from repro.core.scoring import Scoreboard
    from repro.corpus.baselines import BaselineStore
    from repro.fs.filters import FilterStack
    from repro.fs.vfs import VirtualFileSystem
    from repro.magic import identifier
    from repro.sandbox.machine import VirtualMachine

    # the package re-exports the function under the submodule's name
    sdhash_mod = sys.modules["repro.simhash.sdhash"]
    out = []
    for attr in ("open", "read", "write", "close", "rename", "delete",
                 "stat", "listdir", "mkdir", "seek", "truncate_handle",
                 "set_attributes", "read_file", "write_file"):
        out.append((VirtualFileSystem, attr, f"fs.vfs.{attr}", "fs.vfs",
                    None))
    out += [
        (FilterStack, "run_pre", "fs.filters.run_pre", "fs.filters", None),
        (FilterStack, "run_post", "fs.filters.run_post", "fs.filters", None),
        (CryptoDropMonitor, "__init__", "core.monitor.init", "core.monitor",
         None),
        (FileStateCache, "inspect", "core.filestate.inspect",
         "core.filestate.inspect", None),
        (FileStateCache, "ensure_baseline", "core.filestate.ensure_baseline",
         "core.filestate.baseline", None),
        (FileStateCache, "materialise_baseline",
         "core.filestate.materialise_baseline", "core.filestate.baseline",
         None),
        (FileStateCache, "refresh_baseline", "core.filestate.refresh_baseline",
         "core.filestate.baseline", None),
        (InspectionScheduler, "flush", "core.schedule.flush", "core.schedule",
         None),
        (InspectionScheduler, "enqueue", "core.schedule.enqueue",
         "core.schedule", None),
        (Scoreboard, "apply", "core.scoring.apply", "core.scoring", None),
        (entropy, "corrected_entropy", "entropy.corrected_entropy",
         "entropy", _nbytes_arg(0)),
        (entropy, "shannon_entropy", "entropy.shannon_entropy", "entropy",
         _nbytes_arg(0)),
        (entropy, "corrected_entropy_from_counts",
         "entropy.corrected_entropy_from_counts", "entropy", _n_counts),
        (entropy, "histograms_many", "entropy.histograms_many", "entropy",
         _nbytes_many),
        (entropy, "corrected_entropies_from_histograms",
         "entropy.corrected_entropies_from_histograms", "entropy", None),
        (identifier, "identify", "magic.identify", "magic", None),
        (sdhash_mod, "sdhash", "simhash.sdhash", "simhash.digest",
         _nbytes_arg(0)),
        (sdhash_mod, "digest_many", "simhash.digest_many", "simhash.digest",
         _nbytes_many),
        (sdhash_mod, "compare", "simhash.compare", "simhash.compare", None),
        (sdhash_mod, "compare_many", "simhash.compare_many",
         "simhash.compare", None),
        (sdhash_mod.StreamingDigestState, "update", "simhash.stream_update",
         "simhash.stream", _nbytes_arg(1)),
        (sdhash_mod.StreamingDigestState, "finalize",
         "simhash.stream_finalize", "simhash.stream", None),
        (BaselineStore, "get", "corpus.baselines.get", "corpus.baselines",
         _found),
        (BaselineStore, "lookup_content", "corpus.baselines.lookup_content",
         "corpus.baselines", _found),
        (BaselineStore, "entropy_of", "corpus.baselines.entropy_of",
         "corpus.baselines", _found),
        (VirtualMachine, "run_program", "program.run", "program", None),
        (VirtualMachine, "assess", "sandbox.assess", "sandbox.assess", None),
        (VirtualMachine, "revert", "sandbox.revert", "sandbox.revert", None),
    ]
    for attr, index in (("aes_ctr_xor", 2), ("chacha20_xor", 2),
                        ("rc4_crypt", 1), ("tea_encrypt_blocks", 1),
                        ("xor_crypt", 1), ("wrap_key", 0)):
        out.append((crypto, attr, f"crypto.{attr}", "crypto",
                    _nbytes_arg(index)))
    return out


_ENGINE_HOOKS = ("pre_operation", "post_operation")


class Tracer:
    """In-memory spans plus per-name and per-group aggregates."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # one row per span: name id, parent span index, start/end ns
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # open spans: [span index, start ns, child ns, group, name]
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        #: per group: outermost calls, inclusive ns, counted bytes/hits
        self.group_calls: Dict[str, int] = {}
        self.group_ns: Dict[str, int] = {}
        self.group_count: Dict[str, int] = {}
        self._group_depth: Dict[str, int] = {}
        self._restore: List[tuple] = []
        #: total duration of the root spans: the traced wall time
        self.wall_ns = 0

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _enter(self, name: str, group: Optional[str]) -> list:
        index = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        if group is not None:
            self._group_depth[group] = self._group_depth.get(group, 0) + 1
        frame = [index, 0, 0, group, name]
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list, count: int = 0) -> int:
        end = time.perf_counter_ns()
        index, start, child, group, name = frame
        self._stack.pop()
        self.span_start[index] = start
        self.span_end[index] = end
        duration = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl_ns[name] = self.incl_ns.get(name, 0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        if group is not None:
            depth = self._group_depth[group] - 1
            self._group_depth[group] = depth
            if depth == 0:
                self.group_calls[group] = self.group_calls.get(group, 0) + 1
                self.group_ns[group] = self.group_ns.get(group, 0) + duration
                self.group_count[group] = \
                    self.group_count.get(group, 0) + count
        return duration

    def begin(self) -> None:
        """Open a root ``bench`` span and start recording."""
        self.active = True
        self._root = self._enter("bench", None)

    def end(self) -> None:
        """Close the root span and stop recording."""
        self.wall_ns += self._exit(self._root)
        self.active = False

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name: str, group: str, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, group)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame, counter(args, kwargs, result)
                             if counter is not None else 0)

        traced.__wrapped__ = fn
        return traced

    def _wrap_engine(self, fn, stage: str) -> Callable:
        """Engine hooks get the operation kind in the span name."""
        tracer = self
        names = {}

        def traced(engine, op):
            if not tracer.active:
                return fn(engine, op)
            kind = op.kind.value
            name = names.get(kind)
            if name is None:
                name = names[kind] = f"core.engine.{stage}.{kind}"
            frame = tracer._enter(name, f"core.engine.{kind}")
            try:
                return fn(engine, op)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind it in every repro module that
        # imported it, under whatever name it was imported
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            namespace = getattr(module, "__dict__", None)
            if namespace is None or not name.startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        from repro.core.engine import AnalysisEngine
        for owner, attr, name, group, counter in _targets():
            self._rebind(owner, attr, self._wrap(owner.__dict__[attr], name,
                                                 group, counter))
        for hook, stage in zip(_ENGINE_HOOKS, ("pre", "post")):
            self._rebind(AnalysisEngine, hook, self._wrap_engine(
                AnalysisEngine.__dict__[hook], stage))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, value in self.self_ns.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0) + value
        return out

    def save(self, path) -> None:
        """Write the spans out (compressed numpy arrays)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.int64),
            end=np.frombuffer(self.span_end, dtype=np.int64))
