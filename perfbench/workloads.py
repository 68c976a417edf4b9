"""The three workloads: read-cold, read-hot and write-mixed.

Each workload function takes a :class:`Run` and fills in its metrics.
The load generator is this one process. It uses at most ``nproc``
threads (the main thread included) and at most ``nproc`` connections,
and every connection is a persistent keep-alive connection.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import signal
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import corpus
import layers
from layers import ClientSpan, SpanTree
from oracle import (ClosureIndex, answered_pairs, check_cover,
                    oracle_engine, query_payload_results)
from proc import Client, ProgramError, Reply, Server, answer_rows, run_build

#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: SIGKILL-and-restart cycles of the write-mixed run. Each restart must
#: come back at the last acknowledged epoch; the fastest is printed as
#: ``recovery_s``. It is not an end-to-end metric: a restart is mostly
#: interpreter start-up, imports (numpy alone is 160 ms) and fresh
#: allocations, and on a shared 2-CPU host its time moved by 35% (quartile
#: spread over median) between runs of the same code, and an in-process
#: reopen of the index by as much, more than a regression bound can allow.
RESTARTS = 3
#: tail quantiles printed with each run (``op_tail_ms`` in the
#: context) and not reported as end-to-end metrics. On a shared 2-CPU
#: host the update-ack tail of the mixed workload's open loop moved by
#: 25-75% (quartile spread over median) between runs of the same code,
#: more than any bound a regression gate can use: its checkpoints stall
#: the writer for a few hundred milliseconds and the backlog drains
#: over the next 4-9 acks, so the upper percentiles sit in that cascade.
TAIL_QUANTILES = (0.8, 0.9, 0.95, 0.99)
#: the mixed workload's open-loop writer, in update POSTs per second.
#: At this rate the writer's connection idles between acks long enough
#: for the client's TCP stack to leave delayed-ACK mode, so acks do not
#: pay the ~40 ms Nagle/delayed-ACK stall; from about 12/s the
#: connection can lock into stalling every ack, and flips between the
#: two from run to run.
WRITE_RATE = 10.0
#: ``repro serve`` flush policy of the mixed workload: every update
#: batch is fsynced to the WAL before it is acknowledged, and a
#: checkpoint rewrites the snapshot every this many batches (the
#: default of ``--checkpoint-interval``)
CHECKPOINT_INTERVAL = 64
#: share of the write-mixed window that runs the open loop; the rest is
#: the closed-loop update phase that measures the write path's latency
#: and capacity. The open loop's single-op ack median (about 6 ms) is
#: printed, not gated: on a shared 2-CPU host it moved with the host's
#: load from minute to minute. Sets of runs of the same code spread by
#: 6% to 32% of it (quartile spread over median); reads and acks of the
#: same runs slowed together, and reruns of the slowest seeds came out
#: mid-pack, so the inputs were not the cause. The closed-loop acks,
#: mostly the program's own work, spread by 5-10% in the same hours.
OPEN_LOOP_SHARE = 0.6
#: ops per POST in the closed-loop update phase. Enough that applying
#: them outweighs the fixed per-request cost (the ~40 ms keep-alive
#: stall of a busy connection), so the op rate moves with the write
#: path's own work rather than with the round trip.
CAPACITY_BATCH = 32


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def _tail(lat_ms: List[float]) -> Dict[str, float]:
    return {f"p{round(100 * q)}": round(percentile(lat_ms, q), 4)
            for q in TAIL_QUANTILES}


def _op_latency(run: "Run", lat_ms: List[float], op: str) -> None:
    """``op_p50_ms``, and the op's tail and sample count as context."""
    run.metrics["op_p50_ms"] = statistics.median(lat_ms)
    run.context["op"] = op
    run.context["op_samples"] = len(lat_ms)
    run.context["op_tail_ms"] = _tail(lat_ms)


class Run:
    """One benchmark run: its inputs, results and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.nproc = os.cpu_count() or 1
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.context: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.invalid: List[str] = []
        self.missing_wrappers: List[str] = []
        self.max_threads = 1
        self.connections = 0

    def fail(self, message: str) -> None:
        """A correctness failure: counted, and reported (first few)."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def client(self, server: Server) -> Client:
        """A load-generator connection (counted for the nproc guard)."""
        self.connections += 1
        return Client(server.host, server.port)

    def note_threads(self) -> None:
        self.max_threads = max(self.max_threads, threading.active_count())

    def check_generator(self) -> None:
        if self.max_threads > self.nproc:
            self.invalid.append(
                f"load generator used {self.max_threads} threads > nproc "
                f"{self.nproc}")
        if self.connections > self.nproc:
            self.invalid.append(
                f"load generator opened {self.connections} connections > "
                f"nproc {self.nproc}")


def _stats(server: Server) -> dict:
    client = Client(server.host, server.port)
    try:
        return client.stats()
    finally:
        client.close()


def _file_bytes(db: Path) -> int:
    return sum(p.stat().st_size for p in (db, Path(f"{db}-wal")) if p.exists())


# ---------------------------------------------------------------------------
# serving set-up
# ---------------------------------------------------------------------------

class Served:
    """The corpus, index and server a serving workload runs against.

    ``index`` is the built index as the benchmark loads it from the
    database, outside every timed section: the state the server starts
    from, which the oracles and the write-mixed replay begin with.
    """

    def __init__(self, server: Server, db: Path, tags: List[str],
                 store: Optional[Path]) -> None:
        self.server = server
        self.db = db
        self.tags = tags
        self.store = store
        self.index = None


def _one_setup(run: Run, i: int, n_docs: int, store: bool,
               warm: Optional[List[str]]) -> Tuple[Served, Dict[str, float]]:
    """One set-up from scratch; returns the server and its timings."""
    t0 = time.perf_counter()
    base = run.work / f"setup{i}"
    collection = corpus.dblp_collection(n_docs)
    corpus.write_corpus(collection, base / "corpus")
    db = base / "index.db"
    trace_out = base / "build.spans" if run.trace else None
    build_s, rss, counts = run_build(
        [str(base / "corpus"), "-o", str(db)], base / "build.log", trace_out)
    expected = (collection.num_documents, collection.num_elements,
                collection.num_links)
    if counts != expected:
        run.fail(f"repro build loaded {counts} (documents, elements, links), "
                 f"generated {expected}")
    index_bytes = _file_bytes(db)
    if trace_out is not None:
        run.layers.update(layers.build_layers(
            SpanTree(layers.load_spans(trace_out))))
    args = [str(db)]
    store_dir = None
    if store:
        store_dir = base / "store"
        args += ["--store", str(store_dir)]
    server = Server(args, base / "serve.log",
                    base / "serve.spans" if run.trace else None,
                    trace_mode="off")
    served = Served(server, db, sorted(collection.tags()), store_dir)
    w0 = time.perf_counter()
    if warm:
        client = Client(server.host, server.port)
        for text in warm:
            if not client.query(text).ok:
                run.fail(f"warm-up query failed: {text}")
        client.close()
    done = time.perf_counter()
    return served, {"setup": done - t0, "build": build_s, "build_rss": rss,
                    "load": server.start_s, "warmup": done - w0,
                    "index_bytes": index_bytes}


def serve_setup(run: Run, n_docs: int, *, store: bool = False,
                warm: Optional[List[str]] = None) -> Served:
    """Generate the corpus, ``repro build`` it and ``repro serve`` it.

    Repeated :data:`SETUPS` times from scratch; ``setup_s`` is the
    median and the last server is the one measured. Then, untimed, the
    built index is loaded and its cover checked against the closure.
    """
    from repro.storage import load_index

    timings: List[Dict[str, float]] = []
    served = None
    try:
        for i in range(SETUPS):
            if served is not None:
                served.server.stop()
                served = None
            served, times = _one_setup(run, i, n_docs, store, warm)
            timings.append(times)
        stats = _stats(served.server)
        served.index = load_index(str(served.db))
    except BaseException:
        if served is not None:
            served.server.stop()
        raise
    run.attempted += 1
    for message in check_cover(served.index,
                               ClosureIndex(served.index.collection)):
        run.fail(f"built cover: {message}")

    def median(key: str) -> float:
        return statistics.median(t[key] for t in timings)

    run.metrics["setup_s"] = median("setup")
    run.metrics["index_bytes"] = median("index_bytes")
    run.metrics["cover_entries"] = float(stats["cover_entries"])
    run.layers["setup.build_s"] = median("build")
    run.layers["setup.load_s"] = median("load")
    run.layers["setup.warmup_s"] = median("warmup")
    run.context.update(
        build_rss_mb=median("build_rss"),
        backend=stats["backend"], frontend=served.server.frontend,
        serve_mode=served.server.mode,
        collections={"dblp": {"documents": stats["documents"],
                              "elements": stats["elements"],
                              "links": stats["links"],
                              "cover_entries": stats["cover_entries"]}},
    )
    return served


# ---------------------------------------------------------------------------
# the timed window and the traced half
# ---------------------------------------------------------------------------

class Window:
    """The timed window (``seconds``, by default the run's). In a traced
    run its first half runs untraced; at half time the server starts
    recording (``SIGUSR2``)."""

    def __init__(self, run: Run, server: Server,
                 seconds: Optional[float] = None) -> None:
        seconds = run.seconds if seconds is None else seconds
        self.run = run
        self.server = server
        self.start = time.perf_counter()
        self.end = self.start + seconds
        self.half = self.start + seconds / 2
        self.traced_from: Optional[float] = None
        self._lock = threading.Lock()

    def open(self) -> bool:
        return time.perf_counter() < self.end

    def poll_trace(self) -> None:
        """Switch recording on once half the window has passed."""
        if not self.run.trace or self.traced_from is not None:
            return
        if time.perf_counter() < self.half:
            return
        with self._lock:
            if self.traced_from is None:
                out = self.server.trace_out
                self.server.trace_command(signal.SIGUSR2, out.with_suffix(".on"))
                self.traced_from = time.perf_counter()

    def traced(self, reply: Reply) -> bool:
        return self.traced_from is not None and reply.t_send >= self.traced_from


def _closed_loop(window: Window, client: Client,
                 next_query: Callable[[], str],
                 sink: List[Tuple[str, Reply]]) -> None:
    while window.open():
        window.poll_trace()
        text = next_query()
        sink.append((text, client.query(text)))


def _paced_loop(window: Window, client: Client, next_query: Callable[[], str],
                period: float, offset: float,
                sink: List[Tuple[str, Reply]], due_times: List[float]) -> None:
    """Open loop: one query due every ``period`` s from ``offset``."""
    i = 0
    while True:
        due = window.start + offset + i * period
        if due >= window.end:
            return
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        text = next_query()
        sink.append((text, client.query(text)))
        due_times.append(due)
        i += 1


def _traced_layers(run: Run, served: Served, window: Window,
                   samples: List[Tuple[str, str, Reply]]) -> None:
    """Fetch the server's spans and compute the serving-layer metrics."""
    server = served.server
    out = server.trace_out
    server.trace_command(signal.SIGUSR1, out.with_suffix(".done"))
    tree = SpanTree(layers.load_spans(out))
    run.missing_wrappers = layers.load_missing(out)
    clients = [ClientSpan(kind, r.t_send, r.t_done, r.port, r.nbytes)
               for kind, _, r in samples if window.traced(r)]
    run.layers.update(layers.serving_layers(tree, clients))

    def mean_latency(traced: bool) -> float:
        lat = [r.t_done - r.t_send for kind, _, r in samples
               if window.traced(r) == traced]
        return sum(lat) / len(lat)

    run.layers["trace.overhead_frac"] = mean_latency(True) / mean_latency(False) - 1


def _query_metrics(run: Run, replies: List[Tuple[str, Reply]],
                   window_s: float) -> None:
    lat = [1e3 * (r.t_done - r.t_send) for _, r in replies if r.ok]
    if not lat:
        raise ProgramError("no query succeeded")
    _op_latency(run, lat, "/v1/query round trip, timed from the send")
    run.metrics["ops_per_s"] = len(lat) / window_s


def _crash_and_recover(run: Run, served: Served, before: Dict[str, dict],
                       epoch: int, trace_out: Optional[Path]) -> None:
    """SIGKILL the server and restart it on its store, RESTARTS times.

    Each restart must be ready at ``epoch``; ``recovery_s`` (context) is
    the shortest time from spawning one until it listens. The last one must
    answer every query in ``before`` exactly as the server did before
    the first kill. In a traced run the first restart is traced. A
    restart that exits before listening (its recovery failed) is a
    failure, and ends the cycles.
    """
    run.metrics["peak_rss_mb"] = served.server.peak_rss_mb()
    args = [str(served.db), "--store", str(served.store)]
    times = []
    for cycle in range(RESTARTS):
        served.server.kill()
        traced = trace_out if cycle == 0 else None
        log = run.work / f"restart{cycle}.log"
        run.attempted += 1
        try:
            served.server = Server(args, log, traced, trace_mode="on")
        except ProgramError:
            lines = log.read_text().strip().splitlines() or ["(no output)"]
            run.fail(f"restart {cycle} on the store did not come up: "
                     f"{lines[-1]}")
            return
        times.append(served.server.start_s)
        got = _stats(served.server)["epoch"]
        if got != epoch:
            run.fail(f"restarted at epoch {got}, last acknowledged epoch "
                     f"was {epoch}")
        if served.server.recovered_epoch != epoch:
            run.fail(f"recovered epoch {served.server.recovered_epoch}, last "
                     f"acknowledged epoch was {epoch}")
        if traced is not None:
            served.server.trace_command(signal.SIGUSR1,
                                        traced.with_suffix(".done"))
            run.layers.update(layers.recovery_layers(
                SpanTree(layers.load_spans(traced))))
    run.context["recovery_s"] = min(times)
    run.context["restart_s"] = [round(t, 4) for t in times]
    client = Client(served.server.host, served.server.port)
    for text in sorted(before):
        run.attempted += 1
        reply = client.query(text)
        if not reply.ok or answer_rows(reply.body) != answer_rows(before[text]):
            run.fail(f"answer to {text!r} changed across the restart")
    client.close()


def _check_replies(run: Run, collection,
                   replies: List[Tuple[str, Reply]]) -> None:
    """Count failed requests; compare the answered ones with the oracle."""
    answered = []
    for text, reply in replies:
        if reply.ok:
            answered.append((text, reply.body))
        else:
            run.fail(f"{text!r}: HTTP {reply.status} {reply.body}")
    _oracle_check(run, collection, answered)


def _oracle_check(run: Run, collection,
                  answers: List[Tuple[str, dict]]) -> None:
    """Compare ``/v1/query`` answer bodies with the closure oracle's."""
    engine, closure = oracle_engine(collection)
    expected: Dict[str, tuple] = {}
    for text, body in answers:
        if text not in expected:
            expected[text] = query_payload_results(engine, closure, text)
        if answer_rows(body) != expected[text]:
            run.fail(f"{text!r}: answer disagrees with the closure oracle")


# ---------------------------------------------------------------------------
# read-cold
# ---------------------------------------------------------------------------

def read_cold(run: Run) -> None:
    """One closed-loop connection; every query text is new in the run.

    The texts are drawn over the head/tail tag pairs that have answers,
    so every query does the work of ranking and encoding real results.
    """
    pairs = answered_pairs(corpus.dblp_collection(corpus.COLD_DBLP_DOCS))
    served = serve_setup(run, corpus.COLD_DBLP_DOCS)
    try:
        client = run.client(served.server)
        stream = corpus.cold_texts(pairs, run.seed)
        window = Window(run, served.server)
        replies: List[Tuple[str, Reply]] = []
        _closed_loop(window, client, lambda: next(stream), replies)
        window_s = time.perf_counter() - window.start
        run.note_threads()
        client.close()
        run.attempted += len(replies)
        if run.trace:
            _traced_layers(run, served, window,
                           [("query", t, r) for t, r in replies])
        stats = _stats(served.server)
        run.layers["service.probe_cache_entries"] = float(
            stats["probe_cache"]["size"])
        run.context["probe_cache"] = stats["probe_cache"]
        cached = sum(1 for _, r in replies if r.ok and r.body["cached"])
        if cached:
            run.invalid.append(f"read-cold saw {cached} cached answers")
        _query_metrics(run, replies, window_s)
        _check_replies(run, served.index.collection, replies)
        run.metrics["peak_rss_mb"] = served.server.peak_rss_mb()
    finally:
        served.server.stop()


# ---------------------------------------------------------------------------
# read-hot
# ---------------------------------------------------------------------------

def _zipf_picker(queries: List[str], seed: int) -> Callable[[], str]:
    rng = random.Random(seed)
    weights = corpus.zipf_weights(len(queries))
    return lambda: rng.choices(queries, weights)[0]


def _cycle_picker(queries: List[str], seed: int) -> Callable[[], str]:
    """Every query once per cycle, in a seeded order."""
    order = list(queries)
    random.Random(seed).shuffle(order)
    cycle = itertools.cycle(order)
    return lambda: next(cycle)


def read_hot(run: Run) -> None:
    """Closed-loop connections over a Zipf-skewed set of 48 windowed
    queries, all cached by the warm-up pass of the set-up."""
    tags = sorted(corpus.dblp_collection(corpus.SERVE_DBLP_DOCS).tags())
    hot = corpus.hot_queries(tags, run.seed)
    served = serve_setup(run, corpus.SERVE_DBLP_DOCS, warm=hot)
    try:
        n_conn = min(2, run.nproc)
        clients = [run.client(served.server) for _ in range(n_conn)]
        window = Window(run, served.server)
        sinks: List[List[Tuple[str, Reply]]] = [[] for _ in clients]
        threads = [
            threading.Thread(target=_closed_loop, args=(
                window, clients[i], _zipf_picker(hot, run.seed * 31 + i),
                sinks[i]))
            for i in range(1, n_conn)
        ]
        for t in threads:
            t.start()
        run.note_threads()
        _closed_loop(window, clients[0],
                     _zipf_picker(hot, run.seed * 31), sinks[0])
        for t in threads:
            t.join()
        window_s = time.perf_counter() - window.start
        for c in clients:
            c.close()
        replies = [x for sink in sinks for x in sink]
        run.attempted += len(replies)
        if run.trace:
            _traced_layers(run, served, window,
                           [("query", t, r) for t, r in replies])
        stats = _stats(served.server)
        run.layers["service.probe_cache_entries"] = float(
            stats["probe_cache"]["size"])
        hits = sum(1 for _, r in replies if r.ok and r.body["cached"])
        ratio = hits / max(len(replies), 1)
        run.context["result_hit_ratio"] = ratio
        if ratio < 0.99:
            run.invalid.append(f"read-hot hit ratio {ratio:.4f} < 0.99")
        _query_metrics(run, replies, window_s)
        _check_replies(run, served.index.collection, replies)
        run.metrics["peak_rss_mb"] = served.server.peak_rss_mb()
    finally:
        served.server.stop()


# ---------------------------------------------------------------------------
# write-mixed
# ---------------------------------------------------------------------------

def _replay_checks(run: Run, index, batches: List[Tuple[List[dict], dict]],
                   reads: List[Tuple[str, Reply]]) -> None:
    """Check every read against the oracle at the epoch it reports.

    The acknowledged batches are applied in epoch order to the built
    index in-process (``apply_update_op``, as the server and its WAL
    replay do); each read is compared with the closure oracle over the
    collection as it was at that read's epoch. A read at an epoch that
    no acknowledged batch produced fails. Every batch is applied in the
    end, so ``index`` holds the last acknowledged state.
    """
    from repro.core.ops import apply_update_op

    batches = sorted(batches, key=lambda b: b[1]["epoch"])
    pending = sorted((r.body["epoch"], text, r.body)
                     for text, r in reads if r.ok)
    applied_epoch = 0
    i = 0
    engine_epoch, engine, closure = None, None, None
    for epoch, text, body in pending + [(math.inf, None, None)]:
        while i < len(batches) and batches[i][1]["epoch"] <= epoch:
            ops, ack = batches[i]
            for op, acked in zip(ops, ack["reports"]):
                report = apply_update_op(index, op)
                if report.get("elements") != acked.get("elements"):
                    run.fail(f"replaying {op['op']} {op.get('doc_id')} gave "
                             "other element ids than the server acknowledged")
            applied_epoch = ack["epoch"]
            i += 1
        if text is None:
            break
        if epoch != applied_epoch:
            run.fail(f"read {text!r} answered at epoch {epoch}, which no "
                     "acknowledged update produced")
            continue
        if engine_epoch != epoch:
            engine, closure = oracle_engine(index.collection)
            engine_epoch = epoch
        if answer_rows(body) != query_payload_results(engine, closure, text):
            run.fail(f"read {text!r} at epoch {epoch} disagrees with the "
                     "closure oracle")


def write_mixed(run: Run) -> None:
    """Open-loop writes and reads, a closed-loop update phase, a crash.

    For the first :data:`OPEN_LOOP_SHARE` of the window the writer POSTs
    one op per request at :data:`WRITE_RATE`, each ack timed from when
    the op was due (printed as ``open_loop_ack_ms``), and the reader
    sends a query at the same rate, half a period after each write. For
    the rest of the window the writer sends :data:`CAPACITY_BATCH` ops
    per POST in a closed loop: ``op_p50_ms`` is the median ack of those
    POSTs, timed from the send, and ``ops_per_s`` the ops acknowledged
    per second, the write path's capacity. After the window the server
    is killed with SIGKILL and restarted on its store: it must come back
    at the last acknowledged epoch with the same answers.
    """
    served = serve_setup(run, corpus.SERVE_DBLP_DOCS, store=True)
    tags = served.tags
    # the reader cycles through a fixed windowed query set in a seeded
    # order. Update acks wait for a read in flight (the interpreter lock
    # is shared): with a closed-loop reader the share of acks that did
    # swung with the phase between the two loops, and the ack tail by
    # +-30% from run to run; a paced reader and a query set that is not
    # drawn from the seed keep that share fixed. Every publish empties
    # the result cache, so the reads miss it.
    hot = corpus.hot_queries(tags, corpus.CORPUS_SEED)
    roots = sorted(d.root for d in served.index.collection.documents.values())
    schedule = corpus.WriteSchedule(roots, run.seed)
    try:
        writer = run.client(served.server)
        reader = run.client(served.server)
        window = Window(run, served.server, run.seconds * OPEN_LOOP_SHARE)
        reads: List[Tuple[str, Reply]] = []
        read_due: List[float] = []
        period = 1.0 / WRITE_RATE
        n_ops = int(WRITE_RATE * (window.end - window.start))
        reader_thread = threading.Thread(target=_paced_loop, args=(
            window, reader, _cycle_picker(hot, run.seed * 31), period,
            period / 2, reads, read_due))
        reader_thread.start()
        run.note_threads()
        acked_latency, late, writes = [], [], []
        by_kind: Dict[str, List[float]] = {}
        capacity_batches = 0
        batches: List[Tuple[List[dict], dict]] = []

        def post(ops: List[dict]) -> Reply:
            reply = writer.request("POST", "/v1/update", {"ops": ops})
            run.attempted += len(ops)
            if reply.ok:
                schedule.acknowledged(ops, reply.body)
                batches.append((ops, reply.body))
            else:
                for op in ops:
                    run.fail(f"update {op['op']}: HTTP {reply.status} "
                             f"{reply.body}")
            return reply

        for i in range(n_ops):
            due = window.start + i * period
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            window.poll_trace()
            op = schedule.next_op()
            reply = post([op])
            late.append(reply.t_send - due)
            writes.append(("update", op["op"], reply))
            if reply.ok:
                acked_latency.append(1e3 * (reply.t_done - due))
                by_kind.setdefault(op["op"], []).append(acked_latency[-1])
        reader_thread.join()
        reader.close()
        run.attempted += len(reads)
        for text, reply in reads:
            if not reply.ok:
                run.fail(f"read {text!r}: HTTP {reply.status} {reply.body}")
        mean_late = 1e3 * sum(late) / len(late)
        run.layers["loadgen.write_late_ms"] = mean_late
        if mean_late > 1e3 * period:
            run.invalid.append(
                f"writer ran {mean_late:.1f} ms late on average, more than "
                f"its {1e3 * period:.1f} ms period")
        if run.trace:
            # the spans of the open-loop phase only: single-op updates
            _traced_layers(run, served, window,
                           writes + [("query", t, r) for t, r in reads])
        if not acked_latency:
            raise ProgramError("no open-loop update was acknowledged")

        # the closed-loop update phase, until the run's window ends
        capacity_start = time.perf_counter()
        capacity_end = window.start + run.seconds
        capacity_latency = []
        while True:
            reply = post([schedule.next_op() for _ in range(CAPACITY_BATCH)])
            capacity_batches += 1
            if reply.ok:
                capacity_latency.append(1e3 * (reply.t_done - reply.t_send))
            if reply.t_done >= capacity_end:
                break
        if not capacity_latency:
            raise ProgramError("no closed-loop update was acknowledged")
        _op_latency(run, capacity_latency,
                    f"ack of a {CAPACITY_BATCH}-op update in the closed "
                    "loop, timed from the send")
        run.metrics["ops_per_s"] = CAPACITY_BATCH * len(capacity_latency) / (
            reply.t_done - capacity_start)
        writer.close()
        last_epoch = max(ack["epoch"] for _, ack in batches)
        read_lat = [1e3 * (r.t_done - due)
                    for (_, r), due in zip(reads, read_due) if r.ok]
        run.context.update(
            write_rate_per_s=WRITE_RATE,
            open_loop_ack_ms={"samples": len(acked_latency),
                              "p50": round(statistics.median(acked_latency), 4),
                              **_tail(acked_latency)},
            update_p50_ms_by_op={kind: [len(lat), round(statistics.median(lat), 4)]
                                 for kind, lat in sorted(by_kind.items())},
            capacity_batch_ops=CAPACITY_BATCH,
            capacity_batches=capacity_batches,
            read_p50_ms=statistics.median(read_lat) if read_lat else None,
            reads=len(reads),
            flush_policy=(
                "WAL fsync per update batch before the ack; checkpoint "
                f"every {CHECKPOINT_INTERVAL} batches (the default)"),
            durability=(
                "process crash only (SIGKILL): the operating system's page "
                "cache survives, so writes not flushed to the device are "
                "not tested (unverified)"),
        )

        client = Client(served.server.host, served.server.port)
        if client.stats()["epoch"] != last_epoch:
            run.fail("published epoch differs from the last acknowledged one")
        before = {}
        for text in hot:
            reply = client.query(text)
            if reply.ok:
                before[text] = reply.body
            else:
                run.fail(f"pre-kill read {text!r}: HTTP {reply.status}")
        client.close()
        _crash_and_recover(
            run, served, before, last_epoch,
            run.work / "restart.spans" if run.trace else None)
        # every read, and the pre-kill answers at the last epoch, against
        # the oracle over the acknowledged op sequence replayed in-process
        _replay_checks(run, served.index, batches, reads)
        _oracle_check(run, served.index.collection, sorted(before.items()))
    finally:
        served.server.stop()


WORKLOADS: Dict[str, Tuple[Callable[[Run], None], str]] = {
    "read-cold": (read_cold, "every query text is new and has answers, so "
                  "parse/plan, exec, probes and ranking do the work and the "
                  "result cache and write path do none"),
    "read-hot": (read_hot, "a warm Zipf-skewed set of cached queries, so the "
                 "HTTP front end, API encoding and result-cache hits do the "
                 "work and the exec stack does none"),
    "write-mixed": (write_mixed, "open-loop single-op updates and reads, then "
                    "closed-loop update batches, on the durable store: "
                    "maintenance, COW forks, WAL, checkpoints and recovery"),
}
