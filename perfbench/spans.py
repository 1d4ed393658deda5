"""Spans for the traced run, recorded from outside the program.

:meth:`Tracer.install` replaces each public call in :data:`TARGETS` with a
wrapper that records one span per call: name, start, end, parent span and
thread.  :meth:`Tracer.remove` puts the originals back.  The program's
source is never edited; the wrappers exist only inside a traced run.

A layer's self time is its span's duration minus the spans it called on
the same thread, so nested layers (collector > search sweep > engine sweep
> churn) are never counted twice.  Spans stay in memory until
:meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: One clock for every span and every client-side timestamp.  It is
#: CLOCK_MONOTONIC on Linux, which is shared between processes, so the
#: server's spans and the load generator's request times line up.
clock = time.monotonic


def _api_probe(counter: str):
    """Count the API calls and quota units one client call makes."""

    def before(args, kwargs):
        service = args[0].service
        return len(service.transport.records), service.quota.total_used

    def after(counts, args, kwargs, state):
        service = args[0].service
        calls, units = state
        counts[counter] += len(service.transport.records) - calls
        counts["api.quota_units"] += service.quota.total_used - units

    return before, after


def _count(counter: str):
    def after(counts, args, kwargs, state):
        counts[counter] += 1

    return None, after


def _save_bytes():
    def after(counts, args, kwargs, state):
        path = args[1] if len(args) > 1 else kwargs["path"]
        counts["datasets.bytes"] += os.path.getsize(path)

    return None, after


def _spill_bytes():
    def before(args, kwargs):
        return args[0].total_bytes

    def after(counts, args, kwargs, state):
        counts["spill.bytes"] += args[0].total_bytes - state

    return before, after


def _file_size(path: Path) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


def _compact_bytes():
    """Bytes a compaction writes, and the journal bytes it folds away.

    Compaction truncates the journal, so the journal's size just before
    each compaction sums to every byte appended (the daemon's drain ends
    with a compaction).
    """

    def before(args, kwargs):
        return _file_size(args[0].journal_path)

    def after(counts, args, kwargs, state):
        counts["orchestrator.compacts"] += 1
        counts["orchestrator.journal_bytes"] += state
        counts["orchestrator.compact_bytes"] += _file_size(args[0].snapshot_path)

    return before, after


_RENDERERS = (
    "render_table1", "render_table2", "render_table4", "render_table5",
    "render_figure1", "render_figure2", "render_figure3", "render_figure4",
    "render_regression",
)

#: (layer, "module:qualified.name", probe factory or None).  Functions are
#: replaced in every ``repro`` module that imported them by name; methods
#: are replaced on their class.
TARGETS = (
    ("world.build", "repro.world.corpus:build_world", None),
    ("sampling.churn", "repro.sampling.churn:ChurnProcess.latent_at",
     lambda: _count("sampling.churn_calls")),
    ("sampling.sweep",
     "repro.sampling.engine:SearchBehaviorEngine.execute_sweep", None),
    ("sampling.execute", "repro.sampling.engine:SearchBehaviorEngine.execute",
     None),
    ("api.search_sweep", "repro.api.client:YouTubeClient.search_sweep",
     lambda: _api_probe("api.search_calls")),
    ("api.metadata", "repro.api.client:YouTubeClient.videos_list",
     lambda: _api_probe("api.videos_calls")),
    ("api.metadata", "repro.api.client:YouTubeClient.channels_list",
     lambda: _api_probe("api.channels_calls")),
    ("api.comments", "repro.api.client:YouTubeClient.comment_threads_all",
     lambda: _api_probe("api.comment_calls")),
    ("api.comments", "repro.api.client:YouTubeClient.comment_replies_all",
     lambda: _api_probe("api.comment_calls")),
    ("collector", "repro.core.collector:SnapshotCollector.collect", None),
    ("datasets.save", "repro.core.datasets:CampaignResult.save", _save_bytes),
    ("datasets.load", "repro.core.datasets:CampaignResult.load", None),
    ("index.build", "repro.core.index:campaign_index", None),
    ("index.append", "repro.core.index:CampaignIndex.append_snapshot",
     lambda: _count("index.appends")),
    *(("report.render", f"repro.core.report:{name}", None)
      for name in _RENDERERS),
    *(("stats.fit", f"repro.core.returnmodel:{name}", None)
      for name in ("fit_binned_ordinal", "fit_frequency_ols",
                   "fit_unbinned_ordinal")),
    ("spill.append", "repro.core.spill:SpillStore.append", _spill_bytes),
    ("spill.read", "repro.core.spill:SpillStore.read_snapshot", None),
    ("orchestrator.journal_append", "repro.orchestrator.journal:Journal.append",
     lambda: _count("orchestrator.journal_appends")),
    ("orchestrator.record",
     "repro.orchestrator.daemon:JournalPartialStore.record_hour", None),
    ("orchestrator.compact", "repro.orchestrator.journal:Journal.compact",
     _compact_bytes),
    ("serve.gateway", "repro.serve.gateway:SimulatorGateway.search_list", None),
    ("serve.gateway", "repro.serve.gateway:SimulatorGateway.videos_list", None),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: (span id, name, start, end, parent id or None, thread id)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[defaultdict] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.counts
        except AttributeError:
            local.stack = []
            local.counts = defaultdict(float)
            self._thread_counts.append(local.counts)
            return local.stack, local.counts

    @contextmanager
    def span(self, name: str):
        """A span around harness code, e.g. a workload phase (a root)."""
        stack, _ = self._state()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident())
            )

    def wrap(self, name: str, fn, probe=None):
        """``fn`` with a span named ``name`` around every call."""
        before, after = probe() if probe is not None else (None, None)
        spans, ids, state = self.spans, self._ids, self._state

        def traced(*args, **kwargs):
            stack, counts = state()
            sid = next(ids)
            parent = stack[-1] if stack else None
            probed = before(args, kwargs) if before is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent, threading.get_ident())
                )
                if after is not None:
                    after(counts, args, kwargs, probed)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counts(self) -> dict[str, float]:
        """Counters summed over every thread that recorded a span."""
        total: dict[str, float] = defaultdict(float)
        for counts in list(self._thread_counts):
            for key, value in list(counts.items()):
                total[key] += value
        return dict(total)

    # -- installing and removing wrappers ----------------------------------

    def replace_function(self, module_name: str, attr: str, replacement) -> None:
        """Point every ``repro`` module's reference to a function elsewhere."""
        original = getattr(importlib.import_module(module_name), attr)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement
                    self._undo.append((namespace.__setitem__, key, original))

    def wrap_method(self, cls, attr: str, name: str, probe=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, probe))
        else:
            new = self.wrap(name, raw, probe)
        setattr(cls, attr, new)
        self._undo.append((lambda key, value, c=cls: setattr(c, key, value),
                           attr, raw))

    def wrap_instance(self, obj, attr: str, name: str) -> None:
        """Wrap one object's bound method (leaves the class untouched)."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))
        self._undo.append((lambda key, _v, o=obj: delattr(o, key), attr, None))

    def _gc_phase(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: each collection is a ``runtime.gc`` span."""
        stack, counts = self._state()
        if phase == "start":
            sid = next(self._ids)
            self._gc_open = (sid, stack[-1] if stack else None, clock())
            stack.append(sid)
            return
        end = clock()
        sid, parent, start = self._gc_open
        stack.pop()
        self.spans.append(
            (sid, "runtime.gc", start, end, parent, threading.get_ident())
        )
        counts["runtime.gc_collections"] += 1

    def install(self) -> None:
        """Wrap every call in :data:`TARGETS` and time garbage collections."""
        for name, target, probe in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self.wrap_method(getattr(module, cls_name), attr, name, probe)
            else:
                fn = getattr(module, qualname)
                self.replace_function(
                    module_name, qualname, self.wrap(name, fn, probe)
                )
        gc.callbacks.append(self._gc_phase)
        self._undo.append((lambda _k, _v: gc.callbacks.remove(self._gc_phase),
                           None, None))

    def remove(self) -> None:
        """Restore every original, newest wrapper first."""
        while self._undo:
            restore, key, value = self._undo.pop()
            restore(key, value)

    # -- output ------------------------------------------------------------

    def dump(self, path: str | Path) -> None:
        payload = {
            "workload": self.workload,
            "spans": self.spans,
            "counts": self.counts(),
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_total: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, _thread in spans:
        if parent is not None:
            child_total[parent] += end - start
    return {
        sid: (end - start) - child_total.get(sid, 0.0)
        for sid, _name, start, end, _parent, _thread in spans
    }


def layer_self_times(spans) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[1]] += own[span[0]]
    return dict(totals)


def layer_totals(spans, name: str) -> float:
    """Summed full duration of every span with this name."""
    return sum(end - start for _sid, n, start, end, _p, _t in spans if n == name)
