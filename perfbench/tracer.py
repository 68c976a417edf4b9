"""In-memory span recorder and the wrappers that feed it.

The traced run installs these wrappers around the public functions of
each layer before the program runs, through :mod:`traced` for
``repro build`` and ``repro serve``. Nothing under ``src/`` is changed: a wrapper records a
span (name, start, end, parent span, request id, a few counts) and calls
the original.

Spans are plain tuples kept in a list and written out as JSON when the
process is told to (:meth:`Recorder.dump`). Timestamps come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and so
is comparable between the load generator and the server process.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

# span tuple layout
SID, PARENT, RID, NAME, T0, T1, INFO = range(7)


class Recorder:
    """Collects spans from every thread of one process.

    ``enabled`` gates recording: a disabled wrapper calls straight
    through, so one server process can serve an untraced and a traced
    half of a run (the difference is the tracing overhead).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_ids = itertools.count(1)
        self.missing: List[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> list:
        """Open a span frame ``[sid, parent, rid, info]`` on this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [
            next(self._ids),
            parent[0] if parent else 0,
            parent[2] if parent else 0,
            None,
        ]
        stack.append(frame)
        return frame

    def end(self, frame: list, name: str, t0: float, t1: float) -> None:
        self._stack().pop()
        self.spans.append((frame[0], frame[1], frame[2], name, t0, t1, frame[3]))

    def new_request(self) -> None:
        """Give the innermost open frames of this thread a fresh request id."""
        rid = next(self._request_ids)
        for frame in self._stack():
            frame[2] = rid

    def dump(self, path: str) -> None:
        """Write the spans recorded so far (atomically) and forget them."""
        spans, self.spans = self.spans, []
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "missing": self.missing}, fh)
        os.replace(tmp, path)


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, attr_path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _span_wrapper(rec: Recorder, name: str, fn: Callable,
                  info_of: Optional[Callable] = None,
                  request_root: bool = False,
                  before_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        before = before_of(args) if before_of is not None else None
        frame = rec.begin()
        if request_root:
            rec.new_request()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.end(frame, name, t0, time.perf_counter())
            raise
        t1 = time.perf_counter()
        if info_of is not None:
            frame[3] = info_of(args, kwargs, result, before)
        rec.end(frame, name, t0, t1)
        return result
    return wrapper


def _generator_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Time the work done inside a lazy generator.

    The generator's body runs in ``next()`` calls interleaved with the
    consumer's own work (scoring, heap pushes), so its span is as long
    as the sum of those calls and starts at the first one. Spans opened
    during a ``next()`` (probes) become its children. ``info`` is the
    number of items yielded.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.enabled:
            return gen

        def timed():
            head = None
            first = 0.0
            total = 0.0
            items = 0
            try:
                while True:
                    frame = rec.begin()
                    if head is None:
                        head = list(frame)
                    else:
                        frame[0] = head[0]
                    t0 = time.perf_counter()
                    if not first:
                        first = t0
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        total += time.perf_counter() - t0
                        rec._stack().pop()
                    items += 1
                    yield item
            finally:
                if head is not None:
                    rec.spans.append((head[0], head[1], head[2], name,
                                      first, first + total, items))
        return timed()
    return wrapper


class Wrapping:
    """Installs wrappers on ``module:Owner.attr`` targets, tolerantly.

    A target that no longer exists is noted in ``recorder.missing`` (and
    reported by the benchmark) instead of failing the run.
    """

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec

    def _install(self, target: str, make: Callable[[Callable], Callable]) -> None:
        try:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.rec.missing.append(target)
            return
        setattr(owner, attr, make(original))

    def span(self, target: str, name: str, info_of=None,
             request_root: bool = False, before_of=None) -> None:
        self._install(target, lambda fn: _span_wrapper(
            self.rec, name, fn, info_of, request_root, before_of))

    def generator(self, target: str, name: str) -> None:
        self._install(target, lambda fn: _generator_wrapper(self.rec, name, fn))


# -- what each layer's spans carry in ``info`` ---------------------------

def _probe_many_info(args, kwargs, result, before):
    # connected_many(self, u, candidates) -> flags
    return [len(result), sum(1 for ok in result if ok)]


def _intersect_info(args, kwargs, result, before):
    # intersect_many(self, sources, candidates) -> rows
    sources, candidates = args[1], args[2]
    return [len(sources) * len(candidates), sum(len(r) for r in result)]


def _cache_info(args, kwargs, result, before):
    # get_or_compute(self, key, compute) -> (value, source)
    key = args[1]
    kind = "result" if isinstance(key, tuple) and key and key[0] in (
        "query", "count") else "probe"
    return [kind, result[1]]


def _lookup_info(args, kwargs, result, before):
    # LRUCache.get(self, key, default) -> value or default
    key = args[1]
    default = args[2] if len(args) > 2 else kwargs.get("default")
    if isinstance(key, str):
        kind = "plan"
    elif isinstance(key, tuple) and key and key[0] in ("query", "count"):
        kind = "result"
    else:
        kind = "probe"
    return [kind, result is not default]


def _dispatch_info(args, kwargs, result, before):
    # dispatch(self, url_path, params, body) -> (status, payload)
    return [args[1], result[0]]


def _evaluate_info(args, kwargs, result, before):
    return len(result)


def _build_info(args, kwargs, result, before):
    stats = result.stats
    return [stats.num_partitions, stats.num_cross_links, stats.cover_size]


def install_build_wrappers(rec: Recorder) -> None:
    """Spans for the offline build: partition, covers, join, persist."""
    w = Wrapping(rec)
    w.span("repro.core.hopi:HopiIndex.build", "build.total", _build_info)
    w.span("repro.core.pipeline:BuildPipeline.partition", "build.partition")
    w.span("repro.core.pipeline:BuildPipeline.build_partition_covers",
           "build.covers")
    # BuildPipeline.run calls the stats-returning join directly
    w.span("repro.core.pipeline:BuildPipeline._join_with_stats", "build.join")
    for module in ("repro.storage.db", "repro.cli", "repro.storage.wal"):
        w.span(f"{module}:persist_index", "build.persist")


def install_serving_wrappers(rec: Recorder) -> None:
    """Spans for every layer a ``/v1`` request or update crosses."""
    w = Wrapping(rec)
    for method in ("do_GET", "do_POST"):
        w.span(f"repro.service.http:ServiceRequestHandler.{method}",
               "frontend.handle", lambda a, k, r, b: a[0].client_address[1])
    w.span("repro.service.api:ServiceAPI.dispatch", "api.dispatch",
           _dispatch_info, request_root=True)
    w.span("repro.service.service:QueryService.query", "service.query")
    w.span("repro.service.service:QueryService.update", "write.update")
    w.span("repro.service.coalesce:CoalescingCache.get_or_compute",
           "service.cache", _cache_info)
    w.span("repro.service.cache:LRUCache.get", "service.lookup", _lookup_info)
    w.span("repro.query.engine:QueryEngine.__init__", "service.epoch_setup")
    w.span("repro.query.engine:QueryEngine.evaluate", "query.evaluate",
           _evaluate_info)
    w.span("repro.query.engine:plan_query", "query.plan")
    w.span("repro.query.planner:PreparedQuery.bind", "query.plan")
    w.generator("repro.query.engine:run_bindings", "query.exec")
    w.span("repro.core.hopi:HopiIndex.connected_many", "probe.connected_many",
           _probe_many_info)
    w.span("repro.core.hopi:HopiIndex.intersect_many", "probe.intersect_many",
           _intersect_info)
    w.span("repro.core.hopi:HopiIndex.descendants", "probe.descendants")
    w.span("repro.core.hopi:HopiIndex.ancestors", "probe.ancestors")
    w.span("repro.core.hopi:HopiIndex.cow_copy", "write.cow_copy")
    for op in ("insert_document", "insert_edge", "delete_document"):
        w.span(f"repro.core.hopi:HopiIndex.{op}", f"write.{op}")
    w.span("repro.storage.wal:UpdateWAL.append", "wal.append",
           lambda a, k, r, before: os.path.getsize(a[0].path) - before,
           before_of=lambda a: os.path.getsize(a[0].path))
    w.span("repro.storage.wal:DurableIndexStore.checkpoint", "wal.checkpoint")
    w.span("repro.storage.wal:DurableIndexStore.recover", "recovery.recover")
    w.generator("repro.storage.wal:UpdateWAL.replay", "recovery.replay")
    w.span("repro.storage.db:load_index", "setup.load_index")
    w.span("repro.cli:load_index", "setup.load_index")
