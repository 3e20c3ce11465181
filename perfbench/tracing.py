"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install_layer_spans` wraps public methods of each layer's classes
for the duration of a traced run and restores them afterwards; nothing
under ``src/`` changes.  A span's *self* time is its duration minus the
spans it encloses, so the self times of all spans plus the residual
(window time no span covers) add up to the traced window exactly.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Spans whose every duration is kept (for medians), not just their sum.
_KEEP_DURATIONS = ("engine.self_s",)


class Tracer:
    """Span stack plus per-span self and inclusive time, counts and durations.

    Spans and counts are recorded only while the window is open; the
    untraced run never opens it, so nothing is recorded there.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.window_s = 0.0
        self._stack: List[List[float]] = []
        self._opened: Optional[float] = None
        self._patches: list = []

    # -- the traced window -------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._opened is not None

    def open(self) -> None:
        if self._opened is None:
            self._opened = time.perf_counter()

    def close(self) -> None:
        if self._opened is not None:
            if self._stack:
                raise RuntimeError("the traced window closed inside a span")
            self.window_s += time.perf_counter() - self._opened
            self._opened = None

    @contextlib.contextmanager
    def paused(self):
        """Leave the benchmark's own bookkeeping out of the window."""
        was_active = self.active
        self.close()
        try:
            yield
        finally:
            if was_active:
                self.open()

    # -- spans ----------------------------------------------------------------------
    def _enter(self) -> List[float]:
        frame = [0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: List[float]) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        self.self_s[name] += duration - frame[0]
        self.busy_s[name] += duration
        if name in _KEEP_DURATIONS:
            self.durations[name].append(duration)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(name, frame)

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counts[name] += amount

    def wrap(self, owner: type, attr: str, name: str,
             on_result: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span *name*.

        *on_result(tracer, args, result)* records counts.  The attribute
        must be defined on *owner* itself, so a renamed or removed method
        fails the traced run instead of silently measuring nothing.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._opened is None:
                return original(*args, **kwargs)
            frame = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- report -----------------------------------------------------------------------
    def residual_s(self) -> float:
        return self.window_s - sum(self.self_s.values())

    def median_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) * 1e3 if values else 0.0


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public calls of every measured layer (see README.md)."""
    from repro.classifier.compiled import CompiledHierarchicalModel
    from repro.core.checkpoint import CheckpointManager
    from repro.core.system import CrawlHandle, FocusSystem
    from repro.crawler.frontier import Frontier
    from repro.distiller.db_distiller import IncrementalDistiller, LinkDeltaCache
    from repro.distiller.score_store import ScoreTableStore
    from repro.minidb.compactor import Compactor
    from repro.minidb.database import Database
    from repro.minidb.intervals import IntervalIndex
    from repro.minidb.table import Table
    from repro.minidb.wal import WriteAheadLog
    from repro.service.jobs import JobManager
    from repro.webgraph.fetch import FetchStatus
    from repro.webgraph.transport import SimulatedTransport

    def fetched(tracer, args, result):
        tracer.count("fetch.attempts")
        if result.status is not FetchStatus.OK:
            tracer.count("fetch.not_ok")

    def counted(name):
        def on_result(tracer, args, result):
            tracer.count(name)
        return on_result

    def counted_len(name):
        def on_result(tracer, args, result):
            tracer.count(name, len(result))
        return on_result

    def updated(tracer, args, result):
        tracer.count("minidb.update_rows", result)

    wrap = tracer.wrap
    wrap(FocusSystem, "train", "system.train_s")
    wrap(FocusSystem, "start", "system.start_s")
    wrap(FocusSystem, "install_model", "system.install_model_s")
    wrap(FocusSystem, "resume", "system.resume_s")

    wrap(Frontier, "pop_batch", "frontier.checkout_s", counted_len("frontier.urls_out"))
    wrap(Frontier, "add_many", "frontier.enqueue_s")
    wrap(Frontier, "record_visit", "frontier.visit_s")
    wrap(Frontier, "flush_batch", "frontier.flush_s")
    wrap(Frontier, "boost", "frontier.boost_s")

    wrap(SimulatedTransport, "fetch", "fetch.busy_s", fetched)

    wrap(CompiledHierarchicalModel, "__init__", "classify.compile_s")
    wrap(CompiledHierarchicalModel, "classify_batch", "classify.busy_s",
         counted_len("classify.docs"))

    wrap(CrawlHandle, "step", "engine.self_s", counted("engine.rounds"))

    wrap(Table, "insert_many", "minidb.insert_s", counted_len("minidb.insert_rows"))
    wrap(Table, "update_rows", "minidb.update_s", updated)
    wrap(Table, "update_column", "minidb.update_s", updated)
    wrap(IntervalIndex, "insert", "minidb.interval_s")
    wrap(IntervalIndex, "insert_many", "minidb.interval_s")
    wrap(WriteAheadLog, "append", "minidb.wal_append_s")
    wrap(WriteAheadLog, "sync", "minidb.wal_sync_s")

    wrap(IncrementalDistiller, "run", "distill.self_s", counted("distill.runs"))
    wrap(LinkDeltaCache, "refresh", "distill.refresh_s")
    wrap(ScoreTableStore, "store", "distill.store_s")

    wrap(CheckpointManager, "save", "checkpoint.save_s", counted("checkpoint.saves"))
    wrap(Database, "checkpoint", "checkpoint.save_s")
    wrap(Compactor, "rewrite", "checkpoint.compact_s")

    wrap(JobManager, "submit", "service.submit_s")
    wrap(JobManager, "step_once", "service.sweep_self_s", counted("service.sweeps"))
