"""Swap-based dynamic MIS maintenance (Gao et al., ICDE 2022).

Gao et al. maintain a near-maximum independent set with an index of
*swaps* — local exchanges that grow the solution:

- a **one-swap** removes one solution vertex and inserts two free
  neighbours (the (1,2)-swap ARW uses);
- a **two-swap** removes a pair of solution vertices and inserts three
  vertices tight only to that pair (a (2,3)-swap), which finds improvements
  one-swaps cannot.

``DOSwap`` applies one-swaps, ``DTSwap`` also applies two-swaps (its sets
are what Table IV compares against).  The ``Lazy*`` variants keep the swap
index lazily — here: improvements are only searched in the update's affected
region, without transitive propagation — trading a sliver of quality for
much less work per update, exactly the trade the paper reports (Table IV
shows LazyDTSwap matching DTSwap's sizes while scaling one dataset class
further before OOM).

The implementation indexes per-vertex *tightness* (number of solution
neighbours), kept in lock-step with both solution moves and graph updates,
so swap candidacy tests are O(1) per neighbour — this is the in-memory
"swap index" whose footprint the memory model charges
(:mod:`repro.serial.memory_model`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeDeletion, EdgeInsertion, EdgeUpdate
from repro.serial.greedy import greedy_mis
from repro.serial.memory_model import LAZY_SWAP_MODEL, SWAP_MODEL, MemoryModel
from repro.util import membership_delta

#: candidate-pool bound for the cubic (2,3)-swap search; pools this large
#: essentially always contain an independent triple already
_TWO_SWAP_POOL_CAP = 24
#: bound on two-swap partners examined per solution vertex
_PARTNER_CAP = 12
#: bound on improvement-queue pops per update (eager variants); real
#: implementations bound their swap search similarly — quality impact is
#: negligible because improvements cluster around the update
_IMPROVE_POP_CAP = 400


class _SwapEngine:
    """Solution state + tightness index + swap searches for all variants."""

    def __init__(self, graph: DynamicGraph):
        self.graph = graph
        self.members: Set[int] = set()
        self.tight: Dict[int, int] = {u: 0 for u in graph.vertices()}
        for u in greedy_mis(graph):
            self.add_member(u)

    # -- solution mutation (keeps the tightness index consistent) ---------
    def add_member(self, u: int) -> None:
        self.members.add(u)
        for v in sorted(self.graph.neighbors(u)):
            self.tight[v] = self.tight.get(v, 0) + 1

    def remove_member(self, u: int) -> None:
        self.members.discard(u)
        for v in sorted(self.graph.neighbors(u)):
            self.tight[v] = self.tight.get(v, 0) - 1

    # -- graph mutation hooks ---------------------------------------------
    def on_edge_added(self, u: int, v: int) -> None:
        self.tight.setdefault(u, 0)
        self.tight.setdefault(v, 0)
        if u in self.members:
            self.tight[v] += 1
        if v in self.members:
            self.tight[u] += 1

    def on_edge_removed(self, u: int, v: int) -> None:
        if u in self.members:
            self.tight[v] -= 1
        if v in self.members:
            self.tight[u] -= 1

    # -- predicates ----------------------------------------------------------
    def is_free(self, u: int) -> bool:
        return u not in self.members and self.tight.get(u, 0) == 0

    def add_free(self, candidates: Iterable[int]) -> List[int]:
        added = []
        for u in sorted(set(candidates)):
            if self.graph.has_vertex(u) and self.is_free(u):
                self.add_member(u)
                added.append(u)
        return added

    # -- swap searches ---------------------------------------------------------
    def one_swap(self, x: int) -> Optional[Tuple[int, int]]:
        """A (1,2)-swap at solution vertex ``x``, if one exists."""
        if x not in self.members:
            return None
        candidates = [
            v
            for v in sorted(self.graph.neighbors(x))
            if v not in self.members and self.tight[v] == 1
        ]
        for i, a in enumerate(candidates):
            a_nbrs = self.graph.neighbors(a)
            for b in candidates[i + 1:]:
                if b not in a_nbrs:
                    return (a, b)
        return None

    def apply_one_swap(self, x: int, pair: Tuple[int, int]) -> List[int]:
        a, b = pair
        self.remove_member(x)
        self.add_member(a)
        self.add_member(b)
        return self.add_free(self.graph.neighbors(x)) + [a, b]

    def two_swap(self, x: int, y: int) -> Optional[Tuple[int, int, int]]:
        """A (2,3)-swap removing solution vertices ``x, y``, if one exists.

        Candidates are non-solution vertices whose solution neighbours all
        lie in ``{x, y}`` (an O(1) tightness test); three mutually
        non-adjacent candidates grow the set by one.
        """
        if x not in self.members or y not in self.members or x == y:
            return None
        x_nbrs = self.graph.neighbors(x)
        y_nbrs = self.graph.neighbors(y)
        pool: List[int] = []
        for v in sorted(x_nbrs | y_nbrs):
            if v in self.members:
                continue
            within = (1 if v in x_nbrs else 0) + (1 if v in y_nbrs else 0)
            if self.tight[v] == within:
                pool.append(v)
                if len(pool) >= _TWO_SWAP_POOL_CAP:
                    break
        for i, a in enumerate(pool):
            a_nbrs = self.graph.neighbors(a)
            for j in range(i + 1, len(pool)):
                b = pool[j]
                if b in a_nbrs:
                    continue
                b_nbrs = self.graph.neighbors(b)
                for c in pool[j + 1:]:
                    if c not in a_nbrs and c not in b_nbrs:
                        return (a, b, c)
        return None

    def apply_two_swap(self, x: int, y: int, triple: Tuple[int, int, int]) -> List[int]:
        self.remove_member(x)
        self.remove_member(y)
        for v in triple:
            self.add_member(v)
        touched = list(triple)
        # x (resp. y) itself can be free when the whole triple neighbours
        # only the other removed vertex — re-adding it is a bonus +1.
        touched += self.add_free({x, y})
        touched += self.add_free(self.graph.neighbors(x))
        touched += self.add_free(self.graph.neighbors(y))
        return touched

    def solution_partners(self, x: int) -> List[int]:
        """Solution vertices within two hops of ``x`` (two-swap partners),
        bounded to :data:`_PARTNER_CAP` for tractability."""
        partners: Set[int] = set()
        for v in sorted(self.graph.neighbors(x)):
            for y in self.graph.neighbors(v):
                if y != x and y in self.members:
                    partners.add(y)
            if len(partners) >= _PARTNER_CAP:
                break
        return sorted(partners)[:_PARTNER_CAP]


class DOSwap:
    """One-swap maintenance (eager: improvements propagate transitively)."""

    name = "DOSwap"
    _memory: MemoryModel = SWAP_MODEL
    _use_two_swaps = False
    _lazy = False

    def __init__(self, graph: DynamicGraph, memory_budget_mb: Optional[float] = None):
        self._memory.check(graph, memory_budget_mb)
        self._budget = memory_budget_mb
        self._engine = _SwapEngine(graph)
        self.updates_applied = 0
        self._improve(set(graph.vertices()))

    # -- public interface ---------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        return self._engine.graph

    def independent_set(self) -> Set[int]:
        return set(self._engine.members)

    def __len__(self) -> int:
        return len(self._engine.members)

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
        before = set(self._engine.members)
        for op in operations:
            self.apply(op)
        return membership_delta(before, self._engine.members)

    def apply_stream(self, operations: Iterable[EdgeUpdate], batch_size: int = 1) -> None:
        for op in operations:
            self.apply(op)

    def insert_edge(self, u: int, v: int) -> None:
        engine = self._engine
        graph = engine.graph
        for w in (u, v):
            if not graph.has_vertex(w):
                graph.add_vertex(w)
        graph.add_edge(u, v)
        engine.on_edge_added(u, v)
        self._memory.check(graph, self._budget)
        if u in engine.members and v in engine.members:
            # Evict the endpoint whose eviction loses less (more repairable).
            evict = max((u, v), key=lambda w: (graph.degree(w), w))
            engine.remove_member(evict)
            engine.add_free(graph.neighbors(evict))
        self._improve({u, v})
        self.updates_applied += 1

    def delete_edge(self, u: int, v: int) -> None:
        engine = self._engine
        engine.graph.remove_edge(u, v)
        engine.on_edge_removed(u, v)
        engine.add_free((u, v))
        self._improve({u, v})
        self.updates_applied += 1

    # -- improvement loop -----------------------------------------------------
    def _improve(self, seeds: Set[int]) -> None:
        engine = self._engine
        graph = engine.graph
        region: Set[int] = set()
        for s in seeds:
            if graph.has_vertex(s):
                region.add(s)
                region.update(graph.neighbors(s))
        queue = sorted(v for v in region if v in engine.members)
        queued = set(queue)
        pops = 0
        while queue:
            if pops >= _IMPROVE_POP_CAP:
                break
            pops += 1
            x = queue.pop()
            queued.discard(x)
            if x not in engine.members:
                continue
            pair = engine.one_swap(x)
            touched: List[int] = []
            if pair is not None:
                touched = engine.apply_one_swap(x, pair)
            elif self._use_two_swaps:
                for y in engine.solution_partners(x):
                    triple = engine.two_swap(x, y)
                    if triple is not None:
                        touched = engine.apply_two_swap(x, y, triple)
                        break
            if touched and not self._lazy:
                for t in touched:
                    if not graph.has_vertex(t):
                        continue
                    for y in sorted(graph.neighbors(t)):
                        if y in engine.members and y not in queued:
                            queue.append(y)
                            queued.add(y)


class DTSwap(DOSwap):
    """One- and two-swap maintenance (the paper's strongest swap variant)."""

    name = "DTSwap"
    _use_two_swaps = True


class LazyDOSwap(DOSwap):
    """One-swap maintenance with a lazy index (affected region only)."""

    name = "LazyDOSwap"
    _memory = LAZY_SWAP_MODEL
    _lazy = True


class LazyDTSwap(DTSwap):
    """One-/two-swap maintenance with a lazy index (affected region only)."""

    name = "LazyDTSwap"
    _memory = LAZY_SWAP_MODEL
    _lazy = True
