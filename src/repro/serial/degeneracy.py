"""Degeneracy-order algorithms: DGOne and DGTwo (Zheng et al., ICDE 2019).

Zheng et al. maintain a near-maximum independent set over evolving graphs
with a *degeneracy graph*: vertices are processed along the degeneracy
(k-core peeling) order, which empirically yields larger independent sets
than the plain degree order, and updates are repaired locally.  Table IV of
the OIMIS paper compares against their stronger variant DGTwo.

This module reimplements the algorithms at the fidelity the OIMIS paper
relies on (result quality and memory blow-up):

- :func:`degeneracy_order` — standard O(n + m) min-degree peeling.
- :class:`DGOne` — maintains the greedy set over the degeneracy order;
  updates repair the affected region with direct insert/evict rules.
- :class:`DGTwo` — DGOne plus a (1,2)-swap pass over the affected region
  after each repair, which is what buys its extra quality (and its extra
  memory: the two-hop candidate index is why the paper reports DGTwo
  OOM-ing earliest).

Both classes model their memory via :mod:`repro.serial.memory_model`.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeDeletion, EdgeInsertion, EdgeUpdate
from repro.serial.greedy import greedy_mis_arbitrary_order
from repro.serial.memory_model import DG_ONE_MODEL, DG_TWO_MODEL, MemoryModel
from repro.util import membership_delta


def degeneracy_order(graph: DynamicGraph) -> List[int]:
    """The min-degree peeling order (smallest-core vertices first).

    Repeatedly removes a minimum-degree vertex (ties by id); the removal
    order is the processing order the DG algorithms use for greedy
    selection.  Runs in O((n + m) log n) with a lazy-deletion heap.
    """
    degrees = {u: graph.degree(u) for u in graph.vertices()}
    heap: List[Tuple[int, int]] = [(d, u) for u, d in degrees.items()]
    heapq.heapify(heap)
    removed: Set[int] = set()
    order: List[int] = []
    while heap:
        d, u = heapq.heappop(heap)
        if u in removed or d != degrees[u]:
            continue  # stale entry
        removed.add(u)
        order.append(u)
        # push order is irrelevant: the heap pops by total (degree, id) order
        for v in graph.neighbors(u):  # repro-lint: disable=D1
            if v not in removed:
                degrees[v] -= 1
                heapq.heappush(heap, (degrees[v], v))
    return order


def degeneracy(graph: DynamicGraph) -> int:
    """The graph's degeneracy (max min-degree encountered while peeling)."""
    degrees = {u: graph.degree(u) for u in graph.vertices()}
    heap: List[Tuple[int, int]] = [(d, u) for u, d in degrees.items()]
    heapq.heapify(heap)
    removed: Set[int] = set()
    best = 0
    while heap:
        d, u = heapq.heappop(heap)
        if u in removed or d != degrees[u]:
            continue
        best = max(best, d)
        removed.add(u)
        # push order is irrelevant: the heap pops by total (degree, id) order
        for v in graph.neighbors(u):  # repro-lint: disable=D1
            if v not in removed:
                degrees[v] -= 1
                heapq.heappush(heap, (degrees[v], v))
    return best


class DGOne:
    """Degeneracy-order dynamic MIS maintenance (the lighter variant).

    The maintained invariant is maximality: after every update the set is a
    maximal independent set whose composition follows the degeneracy-order
    greedy seed, repaired locally per update.
    """

    name = "DGOne"
    _memory: MemoryModel = DG_ONE_MODEL

    def __init__(
        self,
        graph: DynamicGraph,
        memory_budget_mb: Optional[float] = None,
    ):
        self._memory.check(graph, memory_budget_mb)
        self.graph = graph
        self._budget = memory_budget_mb
        order = degeneracy_order(graph)
        self._position: Dict[int, int] = {u: i for i, u in enumerate(order)}
        self.members: Set[int] = greedy_mis_arbitrary_order(graph, order)
        self.updates_applied = 0

    # -- queries ---------------------------------------------------------
    def independent_set(self) -> Set[int]:
        return set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def _pos(self, u: int) -> Tuple[int, int]:
        # Vertices inserted after construction get appended to the order.
        if u not in self._position:
            self._position[u] = len(self._position)
        return (self._position[u], u)

    def _is_free(self, u: int) -> bool:
        return u not in self.members and not any(
            v in self.members for v in self.graph.neighbors(u)
        )

    # -- updates -----------------------------------------------------------
    def apply(self, op: EdgeUpdate) -> None:
        if isinstance(op, EdgeInsertion):
            self.insert_edge(op.u, op.v)
        elif isinstance(op, EdgeDeletion):
            self.delete_edge(op.u, op.v)
        else:
            raise TypeError(f"unsupported operation {op!r}")

    def apply_batch(
        self, operations: Sequence[EdgeUpdate]
    ) -> Tuple[Set[int], Set[int]]:
        before = set(self.members)
        for op in operations:
            self.apply(op)
        return membership_delta(before, self.members)

    def apply_stream(self, operations: Iterable[EdgeUpdate], batch_size: int = 1) -> None:
        # Centralized algorithms process updates one at a time regardless of
        # batching; the parameter exists for interface parity.
        for op in operations:
            self.apply(op)

    def insert_edge(self, u: int, v: int) -> None:
        for w in (u, v):
            if not self.graph.has_vertex(w):
                self.graph.add_vertex(w)
                self._pos(w)
        self.graph.add_edge(u, v)
        self._memory.check(self.graph, self._budget)
        if u in self.members and v in self.members:
            # Conflict: evict the later-order endpoint, repair around it.
            evict = u if self._pos(u) > self._pos(v) else v
            self.members.discard(evict)
            self._repair_around(evict)
        self.updates_applied += 1

    def delete_edge(self, u: int, v: int) -> None:
        self.graph.remove_edge(u, v)
        # Endpoints may now be insertable.
        for w in sorted((u, v), key=self._pos):
            if self._is_free(w):
                self.members.add(w)
        self.updates_applied += 1

    def _repair_around(self, evicted: int) -> None:
        """Re-add free vertices near an eviction, in degeneracy order."""
        candidates = sorted(
            set(self.graph.neighbors(evicted)) | {evicted}, key=self._pos
        )
        for w in candidates:
            if self._is_free(w):
                self.members.add(w)


class DGTwo(DGOne):
    """DGOne plus (1,2)-swap repair — the paper's quality comparator.

    After each repair, solution vertices in the affected two-hop region are
    tested for a two-improvement (one out, two free-in), which is the
    mechanism that makes DGTwo's sets slightly larger than greedy-order
    maintenance.
    """

    name = "DGTwo"
    _memory: MemoryModel = DG_TWO_MODEL

    def insert_edge(self, u: int, v: int) -> None:
        super().insert_edge(u, v)
        self._swap_pass({u, v})

    def delete_edge(self, u: int, v: int) -> None:
        super().delete_edge(u, v)
        self._swap_pass({u, v})

    def _swap_pass(self, seeds: Set[int]) -> None:
        region: Set[int] = set()
        for s in seeds:
            if not self.graph.has_vertex(s):
                continue
            region.add(s)
            region.update(self.graph.neighbors(s))
        targets = sorted(
            x for x in region if x in self.members
        )
        for x in targets:
            if x not in self.members:
                continue
            pair = self._find_two_improvement(x)
            if pair is None:
                continue
            a, b = pair
            self.members.discard(x)
            self.members.add(a)
            self.members.add(b)
            for y in self.graph.neighbors(x):
                if self._is_free(y):
                    self.members.add(y)

    def _find_two_improvement(self, x: int) -> Optional[Tuple[int, int]]:
        candidates = [
            v
            for v in sorted(self.graph.neighbors(x))
            if v not in self.members
            and all(
                w == x or w not in self.members
                for w in self.graph.neighbors(v)
            )
        ]
        for i, a in enumerate(candidates):
            a_nbrs = self.graph.neighbors(a)
            for b in candidates[i + 1:]:
                if b not in a_nbrs:
                    return (a, b)
        return None
