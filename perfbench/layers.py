"""Per-layer metrics computed from recorded spans.

A layer's *self time* is its span's duration minus the time its child
spans cover. Spans of one thread nest strictly, so the covered time is
the sum of the direct children's durations.

For serving workloads the load generator records one client span per
request (send to last byte read). The server's ``frontend.handle`` span
of that request is found by the client's local port, which the server
sees as the peer port, and by time containment; the client span's self
time is the client latency minus the server's handler span (socket
buffers, the network stack and both HTTP parsers).
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tracer import INFO, NAME, PARENT, SID, T0, T1

#: every per-layer metric in the result, with its unit; workloads a
#: layer does not run in report 0
PER_LAYER_UNITS: Dict[str, str] = {
    "build.dblp.partition_s": "s",
    "build.dblp.covers_s": "s",
    "build.dblp.join_s": "s",
    "build.dblp.persist_s": "s",
    "build.dblp.partitions": "count",
    "build.dblp.cross_links": "count",
    "setup.build_s": "s",
    "setup.load_s": "s",
    "setup.warmup_s": "s",
    "frontend.overhead_ms": "ms",
    "api.dispatch_ms": "ms",
    "api.encode_ms": "ms",
    "api.response_bytes": "bytes",
    "service.result_hit_ratio": "ratio",
    "service.probe_cache_hit_ratio": "ratio",
    "service.probe_cache_entries": "count",
    "service.epoch_setup_ms": "ms",
    "query.plan_ms": "ms",
    "query.exec_self_ms": "ms",
    "query.rank_ms": "ms",
    "query.bindings_per_result": "ratio",
    "probe.calls": "count",
    "probe.ms": "ms",
    "probe.candidates": "count",
    "probe.true_ratio": "ratio",
    "write.update_ms": "ms",
    "write.frontend_wait_ms": "ms",
    "write.cow_copy_ms": "ms",
    "write.insert_document_ms": "ms",
    "write.insert_edge_ms": "ms",
    "write.delete_document_ms": "ms",
    "wal.append_ms": "ms",
    "wal.bytes_per_update": "bytes",
    "wal.checkpoints": "count",
    "wal.checkpoint_ms": "ms",
    "recovery.recover_ms": "ms",
    "recovery.replayed_records": "count",
    "loadgen.write_late_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def load_spans(path: Path) -> List[tuple]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]]


def load_missing(path: Path) -> List[str]:
    with open(path, encoding="utf-8") as fh:
        return list(json.load(fh)["missing"])


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class SpanTree:
    """Spans of one process, with children and self times."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        self.spans = list(spans)
        self.by_id = {s[SID]: s for s in self.spans}
        self.children: Dict[int, List[tuple]] = defaultdict(list)
        for s in self.spans:
            if s[PARENT]:
                self.children[s[PARENT]].append(s)

    @staticmethod
    def dur(span: tuple) -> float:
        return span[T1] - span[T0]

    def self_time(self, span: tuple) -> float:
        return self.dur(span) - sum(self.dur(c) for c in self.children[span[SID]])

    def subtree_self(self, span: tuple) -> float:
        total = 0.0
        stack = [span]
        while stack:
            s = stack.pop()
            total += self.self_time(s)
            stack.extend(self.children[s[SID]])
        return total

    def named(self, prefix: str) -> List[tuple]:
        return [s for s in self.spans if s[NAME].startswith(prefix)]

    def child(self, span: tuple, name: str) -> Optional[tuple]:
        for c in self.children[span[SID]]:
            if c[NAME] == name:
                return c
        return None


class ClientSpan:
    """One request as the load generator saw it."""

    __slots__ = ("kind", "t_send", "t_done", "port", "nbytes")

    def __init__(self, kind: str, t_send: float, t_done: float, port: int,
                 nbytes: int) -> None:
        self.kind = kind
        self.t_send = t_send
        self.t_done = t_done
        self.port = port
        self.nbytes = nbytes

    @property
    def dur(self) -> float:
        return self.t_done - self.t_send


def match_requests(tree: SpanTree, clients: Sequence[ClientSpan]
                   ) -> List[Tuple[ClientSpan, Optional[tuple]]]:
    """Pair each client span with the server handler span it started."""
    handlers: Dict[int, List[tuple]] = defaultdict(list)
    for s in tree.spans:
        if s[NAME] == "frontend.handle" and not s[PARENT]:
            handlers[s[INFO]].append(s)
    for spans in handlers.values():
        spans.sort(key=lambda s: s[T0])
    starts = {port: [s[T0] for s in spans] for port, spans in handlers.items()}
    pairs = []
    for c in clients:
        spans = handlers.get(c.port, [])
        i = bisect.bisect_left(starts.get(c.port, []), c.t_send)
        match = None
        # the handler's span may end a little after the client has read
        # the reply (the wrapper stamps its end once the handler returns)
        if i < len(spans) and spans[i][T0] <= c.t_done:
            match = spans[i]
        pairs.append((c, match))
    return pairs


def serving_layers(tree: SpanTree, clients: Sequence[ClientSpan]
                   ) -> Dict[str, float]:
    """Front end, API, service, query, probe and write-path metrics."""
    out: Dict[str, float] = {}
    pairs = match_requests(tree, clients)
    queries = [(c, h) for c, h in pairs if c.kind == "query" and h]
    updates = [(c, h) for c, h in pairs if c.kind == "update" and h]
    n_queries = max(sum(1 for c in clients if c.kind == "query"), 1)

    overhead, dispatch, encode = [], [], []
    for c, h in queries:
        d = tree.child(h, "api.dispatch")
        if d is None:
            continue
        overhead.append(c.dur - tree.dur(d))
        dispatch.append(tree.dur(d))
        q = tree.child(d, "service.query")
        if q is not None:
            encode.append(tree.dur(d) - tree.dur(q))
    out["frontend.overhead_ms"] = 1e3 * _mean(overhead)
    out["api.dispatch_ms"] = 1e3 * _mean(dispatch)
    out["api.encode_ms"] = 1e3 * _mean(encode)
    out["api.response_bytes"] = _mean(
        [c.nbytes for c in clients if c.kind == "query"])

    outcomes = [s[INFO] for s in tree.named("service.cache")]
    results = [src for kind, src in outcomes if kind == "result"]
    out["service.result_hit_ratio"] = (
        sum(1 for src in results if src != "computed") / len(results)
        if results else 0.0)
    lookups = [hit for kind, hit in
               (s[INFO] for s in tree.named("service.lookup")) if kind == "probe"]
    out["service.probe_cache_hit_ratio"] = (
        sum(1 for hit in lookups if hit) / len(lookups) if lookups else 0.0)
    out["service.epoch_setup_ms"] = 1e3 * _mean(
        [tree.dur(s) for s in tree.named("service.epoch_setup")])

    plan, exec_self, rank, items, rows = [], [], [], 0, 0
    for ev in tree.named("query.evaluate"):
        kids = tree.children[ev[SID]]
        plan.append(sum(tree.dur(k) for k in kids if k[NAME] == "query.plan"))
        for k in kids:
            if k[NAME] == "query.exec":
                exec_self.append(tree.self_time(k))
                items += k[INFO]
        rank.append(tree.self_time(ev))
        rows += ev[INFO] or 0
    out["query.plan_ms"] = 1e3 * _mean(plan)
    out["query.exec_self_ms"] = 1e3 * _mean(exec_self)
    out["query.rank_ms"] = 1e3 * _mean(rank)
    out["query.bindings_per_result"] = items / rows if rows else 0.0

    probes = tree.named("probe.")
    tested = sum(s[INFO][0] for s in probes if s[INFO])
    reached = sum(s[INFO][1] for s in probes if s[INFO])
    out["probe.calls"] = len(probes) / n_queries
    out["probe.ms"] = 1e3 * sum(tree.dur(s) for s in probes) / n_queries
    out["probe.candidates"] = tested / n_queries
    out["probe.true_ratio"] = reached / tested if tested else 0.0

    update_spans = tree.named("write.update")
    out["write.update_ms"] = 1e3 * _mean([tree.dur(s) for s in update_spans])
    wait = []
    for c, h in updates:
        d = tree.child(h, "api.dispatch")
        u = tree.child(d, "write.update") if d is not None else None
        if u is not None:
            wait.append(c.dur - tree.dur(u))
    out["write.frontend_wait_ms"] = 1e3 * _mean(wait)
    for name in ("cow_copy", "insert_document", "insert_edge",
                 "delete_document"):
        out[f"write.{name}_ms"] = 1e3 * _mean(
            [tree.dur(s) for s in tree.spans if s[NAME] == f"write.{name}"])
    appends = [s for s in tree.spans if s[NAME] == "wal.append"]
    out["wal.append_ms"] = 1e3 * _mean([tree.dur(s) for s in appends])
    n_updates = sum(1 for c in clients if c.kind == "update")
    out["wal.bytes_per_update"] = (
        sum(s[INFO] for s in appends) / n_updates if n_updates else 0.0)
    checkpoints = [s for s in tree.spans if s[NAME] == "wal.checkpoint"]
    out["wal.checkpoints"] = float(len(checkpoints))
    out["wal.checkpoint_ms"] = 1e3 * _mean([tree.dur(s) for s in checkpoints])

    # every span of a request tree, plus the client's own share
    covered = 0.0
    for c, h in pairs:
        if h is not None:
            covered += (c.dur - tree.dur(h)) + tree.subtree_self(h)
    wall = sum(c.dur for c in clients)
    out["trace.coverage_frac"] = covered / wall if wall else 0.0
    return out


def recovery_layers(tree: SpanTree) -> Dict[str, float]:
    recover = tree.named("recovery.recover")
    # the store also replays the log once to count it when it opens;
    # only the replay inside recover() applies records
    replay = [c for r in recover for c in tree.children[r[SID]]
              if c[NAME] == "recovery.replay"]
    return {
        "recovery.recover_ms": 1e3 * _mean([tree.dur(s) for s in recover]),
        "recovery.replayed_records": float(sum(s[INFO] for s in replay)),
    }


def build_layers(tree: SpanTree) -> Dict[str, float]:
    """Phase means over every build of the DBLP-like corpus in ``tree``."""
    collection = "dblp"
    totals = [s for s in tree.spans if s[NAME] == "build.total"]
    out: Dict[str, float] = {}
    for phase, name in (("partition_s", "build.partition"),
                        ("covers_s", "build.covers"),
                        ("join_s", "build.join")):
        out[f"build.{collection}.{phase}"] = _mean(
            [sum(tree.dur(k) for k in tree.children[t[SID]] if k[NAME] == name)
             for t in totals])
    persists = [s for s in tree.spans if s[NAME] == "build.persist"]
    out[f"build.{collection}.persist_s"] = (
        sum(tree.dur(s) for s in persists) / len(totals) if totals else 0.0)
    if totals:
        partitions, cross_links, _ = totals[-1][INFO]
        out[f"build.{collection}.partitions"] = float(partitions)
        out[f"build.{collection}.cross_links"] = float(cross_links)
    return out
