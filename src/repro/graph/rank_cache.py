"""Rank-ordered cached adjacency (the paper's ``≺`` scan order).

Every scan loop in OIMIS/DOIMIS examines a vertex's neighbours looking for a
*dominating* neighbour — one that precedes the vertex under the total order
``≺`` = ``(degree, id)``.  Scanning in ascending ``≺`` order makes the
Algorithm 2 early-``break`` fire at the first dominating in-neighbour (and
lets the scan stop outright once a neighbour no longer precedes the vertex),
but a naive implementation re-sorts the adjacency set on every ``compute``
call — O(d log d) per active vertex per superstep.

:class:`RankedAdjacency` caches per-vertex neighbour lists sorted by a rank
key and repairs them *incrementally* under graph updates: an edge update
``(u, v)`` changes only the keys of ``u`` and ``v``, so it dirties the two
endpoint lists (membership changed) plus, for each *materialized* list of a
neighbour ``w``, the single entry whose relative rank key changed — repaired
with one bisect-remove plus one bisect-insert instead of a full re-sort.
Lists are materialized lazily (only queried vertices pay memory), and the
flattened id view handed to scan loops is cached until its list changes.

The key function is pluggable so the weighted extension can keep a cache in
its GWMIN order ``≺_w`` (see :mod:`repro.core.weighted`): any key that
depends only on a vertex's own degree and per-vertex attributes works —
degree shifts are repaired automatically on edge updates, attribute shifts
(e.g. a weight change) via :meth:`refresh_key`.

Caches register with their :class:`~repro.graph.dynamic_graph.DynamicGraph`,
which notifies them from every mutation path (``add_edge`` / ``remove_edge``
/ ``remove_vertex``, and therefore also every
:class:`~repro.graph.distributed_graph.DistributedGraph` update op).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Callable, Dict, List, Optional, Tuple


def degree_rank_key(graph: Any) -> Callable[[int], Tuple[int, int]]:
    """The paper's ``≺`` key: ``(degree, id)``, ascending."""

    def key(u: int) -> Tuple[int, int]:
        return (graph.degree(u), u)

    return key


class RankedAdjacency:
    """Per-vertex neighbour lists kept sorted by a rank key.

    Do not mutate the returned lists: like
    :meth:`~repro.graph.dynamic_graph.DynamicGraph.neighbors`, they are live
    views owned by the cache.

    Invariants (checked by ``tests/test_rank_cache.py`` property tests):

    - ``_keys[u]``, when present, equals the current ``key(u)``;
    - every materialized ``_entries[w]`` equals
      ``sorted((key(v), v) for v in neighbors(w))``.

    The counters :attr:`repairs` (single-entry repositions) and
    :attr:`rebuilds` feed the perf benchmarks.  ``rebuilds`` counts *build
    events*, not vertices: one lazy per-vertex materialization adds one,
    and one :meth:`build_all` bulk pass adds one regardless of how many
    lists it sorts.
    """

    __slots__ = ("_graph", "_key_of", "_keys", "_entries", "_ids",
                 "repairs", "rebuilds")

    def __init__(self, graph: Any, key: Optional[Callable[[int], Any]] = None):
        self._graph = graph
        self._key_of = key if key is not None else degree_rank_key(graph)
        #: published rank key per vertex (only vertices seen by some list)
        self._keys: Dict[int, Any] = {}
        #: vertex -> sorted [(key, neighbour)] (materialized lazily)
        self._entries: Dict[int, List[Tuple[Any, int]]] = {}
        #: vertex -> flattened neighbour-id view of ``_entries``
        self._ids: Dict[int, List[int]] = {}
        self.repairs = 0
        self.rebuilds = 0

    @property
    def graph(self) -> Any:
        return self._graph

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def ranked_neighbors(self, u: int) -> List[int]:
        """Neighbours of ``u`` in ascending rank order (cached; do not mutate)."""
        ids = self._ids.get(u)
        if ids is None:
            entries = self._entries.get(u)
            if entries is None:
                entries = self._materialize(u)
            ids = [v for _, v in entries]
            self._ids[u] = ids
        return ids

    def rank_key(self, u: int) -> Any:
        """Current rank key of ``u`` (published if not yet seen)."""
        key = self._keys.get(u)
        if key is None:
            key = self._key_of(u)
            self._keys[u] = key
        return key

    def build_all(self) -> None:
        """Materialize every vertex's ranked list in one bulk pass.

        Publishes all keys first, then sorts each adjacency list once —
        the same end state lazy materialization reaches after touching
        every vertex, but the whole pass counts as **one** bulk build on
        :attr:`rebuilds` instead of one rebuild per vertex (the counter
        semantics the perf benchmarks assert: ``rebuilds`` = bulk builds +
        lazy per-vertex materializations).  Already-materialized lists are
        kept as-is; vertices added after the pass still materialize lazily.
        """
        graph = self._graph
        keys = self._keys
        key_of = self._key_of
        entries_map = self._entries
        for u in graph.vertices():
            if u not in keys:
                keys[u] = key_of(u)
        # per-vertex sorts are independent; set-iteration order is erased
        # by each sort, so the dict iteration below cannot leak ordering
        for u in graph.vertices():
            if u not in entries_map:
                entries_map[u] = sorted(
                    (keys[v], v) for v in graph.neighbors(u)
                )
        self.rebuilds += 1

    def _materialize(self, u: int) -> List[Tuple[Any, int]]:
        keys = self._keys
        key_of = self._key_of
        entries = []
        # set-iteration order is erased by the sort below
        for v in self._graph.neighbors(u):  # repro-lint: disable=D1
            key = keys.get(v)
            if key is None:
                key = key_of(v)
                keys[v] = key
            entries.append((key, v))
        entries.sort()
        self._entries[u] = entries
        self.rebuilds += 1
        return entries

    # ------------------------------------------------------------------
    # incremental repair (called by DynamicGraph after its own mutation)
    # ------------------------------------------------------------------
    def refresh_key(self, u: int) -> None:
        """Re-derive ``u``'s key and reposition ``u`` in every materialized
        neighbour list whose relative order it changed."""
        old = self._keys.get(u)
        if old is None:
            return  # never published: u appears in no materialized list
        new = self._key_of(u)
        if new == old:
            return
        self._keys[u] = new
        entries_map = self._entries
        ids = self._ids
        # per-list repairs are independent, so visit order cannot matter
        for w in self._graph.neighbors(u):  # repro-lint: disable=D1
            entries = entries_map.get(w)
            if entries is None:
                continue
            i = bisect_left(entries, (old, u))
            if i < len(entries) and entries[i] == (old, u):
                del entries[i]
                insort(entries, (new, u))
                ids.pop(w, None)
                self.repairs += 1

    def _insert_member(self, owner: int, member: int) -> None:
        entries = self._entries.get(owner)
        if entries is None:
            return
        insort(entries, (self.rank_key(member), member))
        self._ids.pop(owner, None)

    def _remove_member(self, owner: int, member: int) -> None:
        entries = self._entries.get(owner)
        if entries is None:
            return
        key = self._keys.get(member)
        if key is not None:
            i = bisect_left(entries, (key, member))
            if i < len(entries) and entries[i] == (key, member):
                del entries[i]
                self._ids.pop(owner, None)
                return
        # key never published while the member sat in a materialized list
        # would break the invariant; fall back defensively to a rebuild
        self._entries.pop(owner, None)  # pragma: no cover - defensive
        self._ids.pop(owner, None)  # pragma: no cover - defensive

    # -- mutation notifications (graph already mutated when these run) ---
    def on_add_edge(self, u: int, v: int) -> None:
        # Reposition the endpoints first (their keys changed), then insert
        # the new memberships under the fresh keys.  During the repositioning
        # sweep the other endpoint's list cannot yet contain the mover, so
        # the equality guard in refresh_key skips it cleanly.
        self.refresh_key(u)
        self.refresh_key(v)
        self._insert_member(u, v)
        self._insert_member(v, u)

    def on_remove_edge(self, u: int, v: int) -> None:
        # Drop memberships under the *old* keys, then reposition.
        self._remove_member(u, v)
        self._remove_member(v, u)
        self.refresh_key(u)
        self.refresh_key(v)

    def on_remove_vertex(self, u: int) -> None:
        """``u`` is already isolated (incident edges went via on_remove_edge)."""
        self._entries.pop(u, None)
        self._ids.pop(u, None)
        self._keys.pop(u, None)
