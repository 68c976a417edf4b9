"""Seeded inputs: collections, query texts and write operations.

Everything here is a pure function of the run's ``--seed``; the program
only ever sees the generated documents, query strings and ``/v1/update``
bodies.
"""

from __future__ import annotations

import itertools
import pathlib
import random
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.query.pathexpr import parse_path
from repro.xmlmodel.export import export_collection
from repro.xmlmodel.generator import dblp_like
from repro.xmlmodel.model import Collection

#: generator seed of every collection. The collections are a fixed
#: data set, like a benchmark's published corpus: a run's ``--seed``
#: varies the requests (query texts, skewed draws, write ops), not the
#: data's shape. Citation graphs drawn with other seeds differ by
#: 20-30% in closure and cover size, which would swamp every set-up time.
CORPUS_SEED = 2005
#: served corpus of the read-hot and write-mixed workloads: DBLP-like
#: publications (about 24 elements and 5 citation links per document)
SERVE_DBLP_DOCS = 100
#: served corpus of read-cold. Larger than the others, so that a cold
#: query's own work weighs against the fixed ~40 ms keep-alive stall
#: every closed-loop request pays: on a 2-CPU host it is about 23 ms of
#: the 63 ms median round trip and 36 ms of the 76 ms mean (at 100
#: documents, over every tag pair, about 4 ms of 48 ms).
COLD_DBLP_DOCS = 150
#: weight classes the read-cold pairs are interleaved from
COLD_STRATA = 4


def dblp_collection(n_docs: int) -> Collection:
    return dblp_like(n_docs, seed=CORPUS_SEED)


def write_corpus(collection: Collection, out: pathlib.Path) -> None:
    """One XML file per document, named by document id."""
    out.mkdir(parents=True, exist_ok=True)
    for doc_id, text in export_collection(collection).items():
        (out / f"{doc_id}.xml").write_text(text, encoding="utf-8")


_PREDICATES = ["", "", "", "[keywords]", "[//author]", "[citations]",
               "[title]", "[//keyword]"]
#: the predicates of the read-cold texts, one query after the other
_COLD_PREDICATES = ["", "[keywords]", "[//author]", "[citations]", "[title]",
                    "[//keyword]"]

Pair = Tuple[str, str]


def _text(head: str, pred: str, tail: str, rng: random.Random,
          seen: set) -> str:
    """The canonical ``//head[pred]//tail limit k`` with a seeded ``k``
    that makes it new in ``seen``; added to ``seen``. Texts are distinct
    in their canonical form, which is what the server's result cache
    keys on."""
    while True:
        text = str(parse_path(f"//{head}{pred}//{tail}"
                              f" limit {rng.randint(1, 50)}"))
        if text not in seen:
            seen.add(text)
            return text


def cold_texts(pairs: Sequence[Pair], seed: int) -> Iterator[str]:
    """An endless stream of distinct query texts over ``pairs``.

    The pairs, given heaviest first, are cut into :data:`COLD_STRATA`
    runs of consecutive pairs, and the stream takes one pair of each in
    turn, round and round, with the next of :data:`_COLD_PREDICATES`
    each time; the seed draws the ``limit k`` windows. Every stretch of
    the stream so has about the same mix of heavy and light pairs and
    of predicates, and the same share of probes the server's probe
    cache (an LRU) can answer. With a seeded order, or predicates that
    changed from one walk over the pairs to the next, that share
    depended on the order and on how far a run got (23-47% of probes),
    and a run's throughput with it.
    """
    rng = random.Random(seed)
    size = -(-len(pairs) // COLD_STRATA)
    order = [pairs[start + i] for i in range(size)
             for start in range(0, len(pairs), size)
             if start + i < len(pairs)]
    seen: set = set()
    for i in itertools.count():
        head, tail = order[i % len(order)]
        pred = _COLD_PREDICATES[i % len(_COLD_PREDICATES)]
        yield _text(head, pred, tail, rng, seen)


def hot_queries(tags: Sequence[str], seed: int, n: int = 48) -> List[str]:
    """The fixed windowed query set of the hot-read mix: ``n`` tag pairs
    in a seeded order, each with a seeded predicate and window."""
    rng = random.Random(seed + 1)
    tags = sorted(tags)
    pairs = [(head, tail) for head in tags for tail in tags]
    rng.shuffle(pairs)
    seen: set = set()
    return [_text(head, rng.choice(_PREDICATES), tail, rng, seen)
            for head, tail in pairs[:n]]


def zipf_weights(n: int, s: float = 1.1) -> List[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


class WriteSchedule:
    """The writer's seeded op sequence for the mixed workload.

    Ops come in blocks of four, in a seeded order within each block:
    two insert a DBLP-shaped article citing 1-3 original documents'
    roots, one adds a link from a writer-inserted root to an original
    root, and one deletes a document the writer inserted earlier (an
    op that has nothing to act on yet becomes an insert). Every run so
    has the same mix, whose ops differ in cost. Original documents are
    never deleted (deleting a heavily cited one takes seconds, which is
    a different workload).
    """

    _BLOCK = ("insert_document", "insert_document", "insert_edge",
              "delete_document")

    def __init__(self, original_roots: Sequence[int], seed: int) -> None:
        self._roots = list(original_roots)
        self._rng = random.Random(seed + 2)
        self._seed = seed
        self._live: List[str] = []
        self._count = 0
        self._edges = set()
        self._block: List[str] = []
        #: element id of each live writer document's root, filled from
        #: the insert acknowledgements
        self.root_of: Dict[str, int] = {}

    def next_op(self) -> dict:
        rng = self._rng
        self._count += 1
        if not self._block:
            self._block = list(self._BLOCK)
            rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "delete_document" and self._live:
            doc = self._live.pop(rng.randrange(len(self._live)))
            self.root_of.pop(doc, None)
            return {"op": "delete_document", "doc_id": doc}
        if kind == "insert_edge" and self.root_of:
            source = self.root_of[rng.choice(sorted(self.root_of))]
            target = rng.choice(self._roots)
            if (source, target) not in self._edges:
                self._edges.add((source, target))
                return {"op": "insert_edge", "source": source,
                        "target": target}
        doc = f"w{self._seed}x{self._count}"
        cited = rng.sample(self._roots, rng.randint(1, 3))
        children = [
            {"ref": "title", "tag": "title"},
            {"ref": "year", "tag": "year"},
            {"ref": "authors", "tag": "authors"},
            {"ref": "a0", "parent": "authors", "tag": "author"},
            {"ref": "keywords", "tag": "keywords"},
            {"ref": "k0", "parent": "keywords", "tag": "keyword"},
            {"ref": "citations", "tag": "citations"},
        ]
        links = []
        for j, root in enumerate(cited):
            children.append({"ref": f"c{j}", "parent": "citations",
                             "tag": "cite"})
            links.append([f"c{j}", root])
        self._live.append(doc)
        return {"op": "insert_document", "doc_id": doc,
                "root_tag": "article", "children": children, "links": links}

    def acknowledged(self, ops: List[dict], reply: dict) -> None:
        """Learn the root ids of inserted documents from a batch's ack.

        A document deleted later in the same batch stays unknown, so no
        later edge starts at it.
        """
        for op, report in zip(ops, reply["reports"]):
            if op["op"] == "insert_document" and op["doc_id"] in self._live:
                self.root_of[op["doc_id"]] = report["elements"]["root"]
