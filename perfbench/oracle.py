"""Correctness oracles that never consult a 2-hop cover.

Reachability here comes from the transitive closure of the collection's
element graph (parent->child edges plus links), computed by a strongly
connected component condensation and a bitset dynamic program over it.
:class:`ClosureIndex` exposes that closure through the probe surface the
query executor calls on a :class:`repro.core.hopi.HopiIndex`
(``connected_many`` / ``intersect_many`` / ``descendants`` /
``ancestors``), so the program's own :class:`repro.query.engine.QueryEngine`
can evaluate a query against it. Only the cover is replaced: parsing,
planning, scoring and ranking are the program's, which is what the
answers are compared with.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.query.engine import QueryEngine
from repro.xmlmodel.model import Collection


def reach_bitsets(succ: Dict[int, Sequence[int]]) -> Dict[int, int]:
    """``{node: bitset of every node it reaches, itself included}``.

    Iterative Tarjan: components are emitted sinks first, so every
    successor component is complete when a component is folded.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    reach: Dict[int, int] = {}
    counter = 0
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            descended = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    descended = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] != index[v]:
                continue
            members = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                members.append(w)
                if w == v:
                    break
            acc = 0
            for m in members:
                acc |= 1 << m
            for m in members:
                for w in succ[m]:
                    r = reach.get(w)
                    if r is not None:
                        acc |= r
            for m in members:
                reach[m] = acc
    return reach


def bits_to_set(bits: int) -> Set[int]:
    """The node ids set in ``bits``."""
    digits = bin(bits)[:1:-1]  # lowest bit first, without "0b"
    out = set()
    i = digits.find("1")
    while i >= 0:
        out.add(i)
        i = digits.find("1", i + 1)
    return out


def _successors(collection: Collection, reverse: bool) -> Dict[int, List[int]]:
    succ: Dict[int, List[int]] = {e: [] for e in collection.elements}
    graph = collection.element_graph()
    for u, v in graph.edges():
        if reverse:
            succ[v].append(u)
        else:
            succ[u].append(v)
    return succ


class ClosureIndex:
    """The probe surface of a ``HopiIndex``, answered from the closure."""

    is_distance_aware = False

    def __init__(self, collection: Collection) -> None:
        self.collection = collection
        self._down = reach_bitsets(_successors(collection, reverse=False))
        self._up: Dict[int, int] = {}

    def connected_many(self, u: int, candidates: Iterable[int]) -> List[bool]:
        bits = self._down[u]
        return [bool(bits >> c & 1) for c in candidates]

    def intersect_many(self, sources, candidates) -> List[List[int]]:
        out = []
        for u in sources:
            bits = self._down[u]
            out.append([i for i, c in enumerate(candidates) if bits >> c & 1])
        return out

    def descendants(self, u: int) -> Set[int]:
        return bits_to_set(self._down[u])

    def ancestors(self, v: int) -> Set[int]:
        if not self._up:
            self._up = reach_bitsets(_successors(self.collection, reverse=True))
        return bits_to_set(self._up[v])

    def reach_bits(self, u: int) -> int:
        """The descendant bitset of ``u`` (for whole-cover checks)."""
        return self._down[u]


def oracle_engine(collection: Collection) -> "tuple[QueryEngine, ClosureIndex]":
    """The program's query engine over a closure-backed index.

    The engine's defaults (``max_results=1000``, similarity threshold
    0.3, default ontology) are the ones ``repro serve`` uses.
    """
    closure = ClosureIndex(collection)
    return QueryEngine(closure), closure  # type: ignore[arg-type]


def query_payload_results(engine: QueryEngine, closure: ClosureIndex, path: str):
    """``(results, total)`` as ``/v1/query`` would encode them.

    ``results`` is the list of ``[element, bindings, score]`` rows in
    rank order; ``total`` the pre-window match count the service
    reports (the ranked list truncated at ``max_results``).
    """
    ranked = engine.evaluate(path, index=closure)  # type: ignore[arg-type]
    rows = [[r.target, list(r.bindings), r.score] for r in ranked]
    return rows, len(rows)


def answered_pairs(collection: Collection) -> List[Tuple[str, str]]:
    """The ``(head, tail)`` tag pairs for which ``//head//tail`` has an
    answer, by the closure, largest answer first.

    The size of an answer is the number of (``head`` element, other
    ``tail`` element) pairs where the first reaches the second.
    """
    closure = ClosureIndex(collection)
    tags = collection.tags()
    tag_bits = {}
    for tag, eids in tags.items():
        bits = 0
        for e in eids:
            bits |= 1 << e
        tag_bits[tag] = bits
    sizes = {}
    for head, eids in tags.items():
        for e in eids:
            reached = closure.reach_bits(e) & ~(1 << e)
            for tail, bits in tag_bits.items():
                n = (reached & bits).bit_count()
                if n:
                    sizes[head, tail] = sizes.get((head, tail), 0) + n
    return sorted(sizes, key=lambda pair: (-sizes[pair], pair))


def check_cover(index, closure: ClosureIndex) -> List[str]:
    """Compare a built cover with the closure, node by node.

    Returns one message per node whose cover descendants differ from
    the closure's (empty when the cover is exact).
    """
    errors = []
    for u in index.collection.elements:
        want = closure.reach_bits(u)
        got = index.descendants(u)
        if len(got) != want.bit_count() or not all(want >> v & 1 for v in got):
            errors.append(f"descendants({u}) disagree with the closure")
            if len(errors) >= 5:
                break
    return errors
