"""Array-native (CSR) partition representation for the sweep hot path.

The dict-path engines walk Python sets/dicts vertex by vertex — correct,
and the bit-identity reference, but the gating cost on the Fig. 10/11
workloads.  This module keeps a flat-array mirror of one
:class:`~repro.graph.distributed_graph.DistributedGraph` partition-local
view so a whole superstep sweep becomes a few vectorized numpy passes:

- ``ids``      — every vertex id, ascending ``int64`` (row order);
- ``keys``     — the paper's total order ``≺`` packed into one ``int64``
  per vertex: ``(degree << 32) | id``, which compares exactly like the
  ``(degree, id)`` tuple for ``0 <= id < 2^32`` and ``degree < 2^31``;
- ``indptr`` / ``nbr`` — CSR adjacency, each row holding the neighbour
  *row indices* sorted ascending by the neighbour's ``keys`` entry (the
  rank-ordered scan of Algorithm 2, precomputed);
- ``home``     — the owning logical worker per row (vectorized
  multiplicative hash for the stock :class:`HashPartitioner`);
- ``in_``      — the packed membership bitmap (one ``bool`` per row).
  For the OIMIS family it *is* the vertex state: :class:`CSRStates`
  exposes it as a ``{vertex: bool}`` mapping, the engine commits each
  barrier's changed rows through it, and a rebuild carries every bit
  across a row-set change (a new vertex starts in the set, the paper's
  vertex-insertion init).  :meth:`CSRPartition.sync_states` only bulk
  loads state arriving from outside (a checkpoint, a static run's dict).

The mirror registers as a :class:`DynamicGraph` mutation observer (the
same protocol the rank caches and the process runtime use) and repairs
itself incrementally: an edge update re-sorts only the rows whose content
or order can have changed (the endpoints, plus every row containing an
endpoint — their ``keys`` moved); vertex insertion/removal schedules a
full rebuild.  ``ensure()`` settles all pending repairs before a run.

For the multi-process runtime the arrays are published once into a single
``multiprocessing.shared_memory`` segment; worker processes map it
(zero-copy) and per-barrier frames shrink to the active row indices down
and compact typed delta arrays back — no pickled state dicts, no
activation-request object graphs.  The master's bitmap *is* the shared
view after publication, so barrier commits propagate without reshipping.

numpy is an optional dependency: importing this module without it is
fine; constructing a :class:`CSRPartition` raises a clear error.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, MutableMapping, ValuesView
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

try:  # numpy is optional at import time (CI lint jobs, minimal installs)
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

#: env flag consulted when an engine/maintainer is built without an
#: explicit ``representation=`` argument
REPRESENTATION_ENV = "REPRO_REPRESENTATION"

_REPRESENTATIONS = ("dict", "csr")


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable."""
    return np is not None


def resolve_representation(value: Optional[str]) -> str:
    """Resolve an engine's ``representation=`` argument.

    ``None`` defers to the ``REPRO_REPRESENTATION`` environment variable
    (default ``"dict"``); explicit values are validated.  Choosing
    ``"csr"`` without numpy installed raises immediately — a silent
    fallback would invalidate any speedup comparison.
    """
    if value is None:
        import os

        value = os.environ.get(REPRESENTATION_ENV) or "dict"
    if value not in _REPRESENTATIONS:
        raise ValueError(
            f"unknown representation {value!r}: expected one of "
            f"{_REPRESENTATIONS}"
        )
    if value == "csr" and np is None:
        raise RuntimeError(
            "representation='csr' requires numpy, which is not installed"
        )
    return value


@dataclass
class CSRSweepExtras:
    """Typed delta arrays a CSR fast-path sweep hands to the barrier.

    All four are numpy arrays over *row indices* of the partition's CSR
    arrays (not vertex ids); ``req_src``/``req_tgt`` are aligned pairs,
    one entry per raw activation request (duplicates preserved — the
    engine's ``messages`` meter counts requests, not targets).
    """

    changed_idx: Any  # int64[k] rows whose state flipped, ascending
    changed_val: Any  # bool[k]  their new membership values
    req_src: Any  # int64[r] activation source rows (non-decreasing)
    req_tgt: Any  # int64[r] activation target rows


class CSRPartition:
    """Flat-array mirror of a distributed partition, repaired under
    mutations via the graph's observer protocol (see module docstring)."""

    def __init__(self, dgraph) -> None:
        if np is None:
            raise RuntimeError(
                "CSRPartition requires numpy, which is not installed"
            )
        self._dgraph = dgraph
        self._graph = dgraph.graph
        self.ids = None
        self.keys = None
        self.indptr = None
        self.nbr = None
        self.home = None
        self.in_ = None
        self._index: Dict[int, int] = {}
        self._ids_list: List[int] = []
        #: bumped whenever ids/keys/indptr/nbr/home change (repairs and
        #: rebuilds both); the shared-memory publisher keys off it
        self.structure_version = 0
        self.rebuilds = 0
        self.repairs = 0
        self._needs_rebuild = True
        self._dirty_keys: set = set()
        #: per-row sorted badge (uint8): rows whose members are current
        #: but whose rank order may be stale carry 0 and re-sort lazily on
        #: first scan (see :meth:`freshen`)
        self._row_fresh = None
        # shared-memory publication state
        self._shm = None
        self._shm_epoch = 0
        self._shm_meta = None
        self._published_version = -1
        self._bitmap_in_shm = False
        # epoch pinning (snapshot read path): refcounts per segment name
        # and the retired-but-still-pinned segments awaiting their last
        # reader (unlink is deferred until the count drops to zero)
        self._pins: Dict[str, int] = {}
        self._retired: Dict[str, Any] = {}
        #: the bitmap as a state mapping (see :class:`CSRStates`)
        self.states = CSRStates(self)

    # -- attachment -----------------------------------------------------
    @classmethod
    def attach(cls, dgraph) -> "CSRPartition":
        """The (cached) CSR mirror of ``dgraph``, observer-attached."""
        part = getattr(dgraph, "_csr_partition", None)
        if part is None:
            part = cls(dgraph)
            dgraph._csr_partition = part
            dgraph.graph.attach_mutation_observer(part)
        return part

    # -- mutation observer (DynamicGraph protocol) ----------------------
    def on_add_vertex(self, u: int) -> None:
        self._needs_rebuild = True

    def on_remove_vertex(self, u: int) -> None:
        self._needs_rebuild = True

    def on_add_edge(self, u: int, v: int) -> None:
        self._mark_edge(u, v)

    def on_remove_edge(self, u: int, v: int) -> None:
        self._mark_edge(u, v)

    def _mark_edge(self, u: int, v: int) -> None:
        if self._needs_rebuild:
            return
        if u not in self._index or v not in self._index:
            # an endpoint this mirror has never seen (implicitly created
            # by add_edge): row set changed, full rebuild
            self._needs_rebuild = True
            return
        # the endpoints' degrees (hence keys) changed; the rows their key
        # change un-sorts are derived vectorially at repair time
        self._dirty_keys.add(u)
        self._dirty_keys.add(v)

    # -- build / repair -------------------------------------------------
    def ensure(self) -> None:
        """Settle every pending repair; cheap no-op when already fresh."""
        if self._needs_rebuild or self.ids is None:
            self._rebuild()
            self._needs_rebuild = False
            self._dirty_keys.clear()
        elif self._dirty_keys:
            self._repair()
            self._dirty_keys.clear()

    def _rebuild(self) -> None:
        graph = self._graph
        old_ids, old_in = self.ids, self.in_
        order = graph.sorted_vertices()
        n = len(order)
        ids = np.fromiter(order, np.int64, count=n)
        index = {u: i for i, u in enumerate(order)}
        adj = [graph.neighbors(u) for u in order]
        degs = np.fromiter(map(len, adj), np.int64, count=n)
        if n:
            if int(ids[0]) < 0 or int(ids[-1]) >= 1 << 32:
                raise ValueError(
                    "representation='csr' requires vertex ids in "
                    "[0, 2^32): the packed rank key would misorder"
                )
        keys = (degs << 32) | ids
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(degs, out=indptr[1:])
        total = int(indptr[-1])
        from itertools import chain

        # one flat pass over the adjacency sets, then a vectorized id →
        # row translation (ids are ascending, so searchsorted is exact)
        dst = np.searchsorted(ids, np.fromiter(
            chain.from_iterable(adj), np.int64, count=total
        ))
        src = np.repeat(np.arange(n, dtype=np.int64), degs)
        # per-row rank order: primary key the row, secondary the ≺ key
        grab = np.lexsort((keys[dst], src))
        self.ids = ids
        self.keys = keys
        self.indptr = indptr
        self.nbr = dst[grab]
        self.home = self._home_array(ids)
        # surviving rows keep their bit; new vertices join the set
        in_ = np.ones(n, np.bool_)
        if old_in is not None and old_ids.size and n:
            pos = np.minimum(np.searchsorted(ids, old_ids), n - 1)
            kept = ids[pos] == old_ids
            in_[pos[kept]] = old_in[kept]
        self.in_ = in_
        self._bitmap_in_shm = False
        self._index = index
        self._ids_list = ids.tolist()
        self._row_fresh = np.ones(n, np.uint8)
        self.structure_version += 1
        self.rebuilds += 1

    def _repair(self) -> None:
        graph = self._graph
        index = self._index
        keys = self.keys
        for u in self._dirty_keys:
            keys[index[u]] = (graph.degree(u) << 32) | u
        indptr = self.indptr
        nbr = self.nbr
        # two repair classes: the endpoints themselves changed *membership*
        # (their rows refetch from the adjacency sets, lengths may differ);
        # every other row containing an endpoint merely holds a member
        # whose key moved, so it needs re-*sorting* only — and row order is
        # read by nothing but lists mode's scan of the active rows, so
        # those re-sorts defer to first scan (a maintained stream
        # re-dirties the same hub rows batch after batch while the sweep
        # touches a handful of them).  Refetched rows are rewritten
        # *unsorted* and drop their badge like the rest.
        refetch = {index[u] for u in self._dirty_keys}
        rows = sorted(refetch)
        if rows:
            from itertools import chain

            row_sets = [graph.neighbors(int(self.ids[r])) for r in rows]
            counts = np.fromiter(map(len, row_sets), np.int64,
                                 count=len(rows))
            flat = np.searchsorted(self.ids, np.fromiter(
                chain.from_iterable(row_sets), np.int64,
                count=int(counts.sum()),
            ))
            rows_arr = np.fromiter(rows, np.int64, count=len(rows))
            same_len = bool(np.array_equal(
                counts, indptr[rows_arr + 1] - indptr[rows_arr]
            ))
            # the rows containing a re-keyed endpoint are exactly its
            # current neighbours (a row that *lost* the endpoint belongs
            # to the other endpoint — refetched here itself), and `flat`
            # already gathers those: one scatter un-badges them all
            self._row_fresh[flat] = 0
            self._row_fresh[rows_arr] = 0
            if same_len:
                # scatter every refetched row in one shot: map flat's
                # positions onto the rows' existing slices
                starts = indptr[rows_arr]
                offs = np.zeros(rows_arr.size, np.int64)
                np.cumsum(counts[:-1], out=offs[1:])
                owners = np.repeat(
                    np.arange(rows_arr.size, dtype=np.int64), counts
                )
                nbr[np.arange(flat.size, dtype=np.int64)
                    - offs[owners] + starts[owners]] = flat
            else:
                new_rows = np.split(flat, np.cumsum(counts[:-1]))
                lens = np.diff(indptr)
                pieces = []
                prev = 0
                for ridx, arr in zip(rows, new_rows):
                    start = int(indptr[ridx])
                    pieces.append(nbr[prev:start])
                    pieces.append(arr)
                    prev = int(indptr[ridx + 1])
                    lens[ridx] = arr.size
                pieces.append(nbr[prev:])
                self.nbr = np.concatenate(pieces) if pieces else nbr[:0]
                nptr = np.zeros(lens.size + 1, np.int64)
                np.cumsum(lens, out=nptr[1:])
                self.indptr = nptr
        self.structure_version += 1
        self.repairs += 1

    def freshen(self, active_idx) -> None:
        """Re-sort any stale rows among ``active_idx`` (row indices).

        Must run before a sweep scans those rows — and, in the process
        runtime, before :meth:`publish_shared`, so the refreshed order is
        what lands in the frame (the version bump forces a re-publish).
        """
        badge = self._row_fresh
        if badge is None:
            return
        if not isinstance(active_idx, np.ndarray):
            active_idx = np.fromiter(active_idx, np.int64,
                                     count=len(active_idx))
        rows_arr = active_idx[badge[active_idx] == 0]
        if not rows_arr.size:
            return
        badge[rows_arr] = 1
        indptr = self.indptr
        nbr = self.nbr
        keys = self.keys
        starts = indptr[rows_arr]
        lens = indptr[rows_arr + 1] - starts
        total = int(lens.sum())
        if total:
            # one lexsort keyed (row, ≺ key) re-sorts every row at once:
            # flat gathers the rows' slices, the primary key keeps slices
            # grouped, and the grouped order scatters straight back
            owners = np.repeat(np.arange(rows_arr.size, dtype=np.int64),
                               lens)
            offs = np.zeros(rows_arr.size, np.int64)
            np.cumsum(lens[:-1], out=offs[1:])
            flat = (np.arange(total, dtype=np.int64)
                    - offs[owners] + starts[owners])
            vals = nbr[flat]
            order = np.lexsort((keys[vals], owners))
            nbr[flat] = vals[order]
        self.structure_version += 1
        self.repairs += 1

    def mark_membership_change(self) -> None:
        """Invalidate the published frame after a membership transition.

        A voluntary join/drain changes the effective placement overlay, so
        any shared-memory frame published before the transition must not be
        reused: bumping :attr:`structure_version` makes the next
        :meth:`publish_shared` reship the frame instead of short-circuiting
        on the cached version.
        """
        self.structure_version += 1

    def _home_array(self, ids):
        from repro.pregel.partition import (
            _HASH_MASK,
            _HASH_MULTIPLIER,
            HashPartitioner,
        )

        partitioner = self._dgraph.partitioner
        worker_of = partitioner.worker_of
        if (
            type(partitioner) is HashPartitioner
            and ids.size
            and isinstance(getattr(partitioner, "_salt", None), int)
            and 0 <= partitioner._salt < 1 << 31
        ):
            salted = ids.astype(np.uint64) + np.uint64(partitioner._salt)
            hashed = (salted * np.uint64(_HASH_MULTIPLIER)) & np.uint64(
                _HASH_MASK
            )
            home = (hashed % np.uint64(partitioner.num_workers)).astype(
                np.int64
            )
            # spot-check the vectorized hash against the scalar one
            for i in (0, int(ids.size) // 2, int(ids.size) - 1):
                if int(home[i]) != worker_of(int(ids[i])):
                    break
            else:
                return home
        return np.fromiter(
            (worker_of(int(u)) for u in ids), np.int64, count=ids.size
        )

    # -- state bitmap ---------------------------------------------------
    def sync_states(self, states: Dict[int, Any]) -> None:
        """Bulk load the membership bitmap from a state dict that arrived
        from outside (a checkpoint, a static run's result, a caller's own
        dict handed to the engine).

        Requires a state entry for every vertex of the graph; missing
        entries raise ``KeyError`` rather than silently diverging from
        the dict path.
        """
        self.ensure()
        n = len(self._ids_list)
        vals = np.fromiter(
            map(states.__getitem__, self._ids_list), np.bool_, count=n
        )
        if self.in_ is not None and self.in_.shape == (n,):
            self.in_[:] = vals  # keeps any shared-memory backing
        else:
            self.in_ = vals
            self._bitmap_in_shm = False

    def index_of(self, vertex_ids) -> Any:
        """Row indices of ``vertex_ids`` (every id must be present)."""
        count = len(vertex_ids)
        arr = np.fromiter(vertex_ids, np.int64, count=count)
        return np.searchsorted(self.ids, arr)

    # -- shared-memory publication --------------------------------------
    def publish_shared(self) -> Tuple[str, int, list]:
        """Publish (or refresh) the arrays into one shared-memory segment.

        Returns the frame meta ``(segment_name, epoch, layout)`` a worker
        process needs to map the arrays.  When the structure is unchanged
        since the last publication this is a cheap no-op returning the
        cached meta — the master's bitmap already lives inside the
        segment, so barrier commits are visible without any copy.
        """
        self.ensure()
        if (
            self._shm is not None
            and self._published_version == self.structure_version
            and self._bitmap_in_shm
        ):
            return self._shm_meta
        if self._bitmap_in_shm and self.in_ is not None:
            # re-laying out a reused segment: the live bitmap still aliases
            # the buffer at its *old* offset, and a structure change (nbr
            # grew/shrank) shifts every later offset — copying the earlier
            # arrays would clobber the bitmap before it is read.  Detach it
            # into private memory first; the copy loop re-homes it below.
            self.in_ = np.array(self.in_)
            self._bitmap_in_shm = False
        arrays = [
            ("ids", self.ids),
            ("keys", self.keys),
            ("indptr", self.indptr),
            ("nbr", self.nbr),
            ("home", self.home),
            ("in_", self.in_),
        ]
        need = sum(int(a.nbytes) for _, a in arrays)
        if self._shm is None or self._shm.size < need:
            from multiprocessing import shared_memory

            self._release_segment()
            # headroom so steady edge churn re-uses the segment in place
            capacity = max(need + need // 2 + 4096, 1)
            self._shm = shared_memory.SharedMemory(create=True, size=capacity)
        layout = []
        offset = 0
        buf = self._shm.buf
        bitmap_view = None
        for name, arr in arrays:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf,
                              offset=offset)
            view[...] = arr
            layout.append((name, arr.dtype.str, arr.shape, offset))
            offset += int(arr.nbytes)
            if name == "in_":
                bitmap_view = view
        # the master's bitmap IS the shared view from here on: barrier
        # commits write straight into the frame the workers map
        self.in_ = bitmap_view
        self._bitmap_in_shm = True
        self._shm_epoch += 1
        self._published_version = self.structure_version
        self._shm_meta = (self._shm.name, self._shm_epoch, layout)
        return self._shm_meta

    def _release_segment(self) -> None:
        if self._shm is None:
            return
        if self._bitmap_in_shm and self.in_ is not None:
            self.in_ = np.array(self.in_)  # detach before unmapping
        self._bitmap_in_shm = False
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass
        self._shm = None
        self._shm_meta = None
        self._published_version = -1

    # -- epoch pinning (snapshot read path) ------------------------------
    def pin_shared(self) -> Tuple[str, int, list]:
        """Freeze the currently published frame as an immutable epoch.

        Publishes first if needed, takes one pin on the segment and
        *detaches the writer* from it: the live bitmap moves back to
        private memory and the publication cache resets, so the next
        :meth:`publish_shared` lays the arrays out in a brand-new segment
        and nothing ever writes the pinned frame again.  Readers map the
        returned meta with :class:`WorkerCSRView`; every pin (this one and
        any extra taken via :meth:`pin`) must be paired with one
        :meth:`retire` call — the segment is unlinked only when the last
        pin drops, so a reader attached to epoch *e* keeps a consistent
        view while the writer republishes *e+1*.
        """
        meta = self.publish_shared()
        name = meta[0]
        self._pins[name] = self._pins.get(name, 0) + 1
        if self._bitmap_in_shm and self.in_ is not None:
            self.in_ = np.array(self.in_)  # writer's bitmap goes private
        self._bitmap_in_shm = False
        self._retired[name] = self._shm
        self._shm = None
        self._shm_meta = None
        self._published_version = -1
        return meta

    def pin(self, name: str) -> None:
        """Take one more pin on an already-pinned segment."""
        count = self._pins.get(name)
        if count is None:
            raise ValueError(f"segment {name!r} is not pinned")
        self._pins[name] = count + 1

    def retire(self, name: str) -> None:
        """Drop one pin on ``name``; unlink the segment on the last one.

        Readers that still hold a mapping keep reading it (POSIX keeps the
        memory alive until the last mapping closes) — only the *name* goes
        away, so no new reader can attach a dead epoch.
        """
        count = self._pins.get(name)
        if count is None:
            raise ValueError(f"segment {name!r} is not pinned")
        if count > 1:
            self._pins[name] = count - 1
            return
        del self._pins[name]
        self._unlink_retired(name)

    def pinned_segments(self) -> Dict[str, int]:
        """Current pin counts per retired segment name (a copy)."""
        return dict(self._pins)

    def _unlink_retired(self, name: str) -> None:
        shm = self._retired.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
        try:
            shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass

    def release_shared(self) -> None:
        """Close and unlink the published segment plus every retired one
        (idempotent teardown; outstanding pins are forcibly dropped)."""
        self._release_segment()
        for name in list(self._retired):
            self._unlink_retired(name)
        self._pins.clear()

    def __del__(self):  # pragma: no cover - interpreter teardown ordering
        try:
            self.release_shared()
        except Exception:
            pass


class CSRStates(MutableMapping):
    """A partition's membership bitmap as a ``{vertex: bool}`` mapping.

    On the CSR path this view is the only copy of OIMIS-family vertex
    state: the engine reads and commits through it, and every caller that
    takes a state dict (activation charging, fault checkpoints, failover,
    contracts) works on it unchanged.  Keys follow the graph: a vertex the
    graph gains appears at the next access (in the set, per the rebuild),
    a removed one disappears, and deleting a vertex still in the graph is
    refused.
    """

    __slots__ = ("_part",)

    def __init__(self, part: CSRPartition) -> None:
        self._part = part

    def _rows(self) -> CSRPartition:
        part = self._part
        if part._needs_rebuild or part.ids is None:
            part.ensure()  # the row set changed: rebuild, carrying bits
        return part

    def __getitem__(self, u: int) -> bool:
        part = self._rows()
        return bool(part.in_[part._index[u]])

    def __setitem__(self, u: int, value: Any) -> None:
        part = self._rows()
        part.in_[part._index[u]] = value

    def __delitem__(self, u: int) -> None:
        if u in self._rows()._index:
            raise ValueError(
                f"vertex {u} is still in the graph: bitmap rows follow the "
                "graph, remove the vertex first"
            )
        raise KeyError(u)

    def __contains__(self, u: object) -> bool:
        return u in self._rows()._index

    def __iter__(self):
        return iter(self._rows()._ids_list)

    def __len__(self) -> int:
        return len(self._rows()._ids_list)

    def items(self) -> ItemsView:
        return _BitmapItems(self)

    def values(self) -> ValuesView:
        return _BitmapValues(self)

    def update(self, other=()) -> None:
        """Write many states in one vectorized row scatter."""
        if not isinstance(other, Mapping):
            other = dict(other)
        count = len(other)
        if not count:
            return
        part = self._rows()
        rows = np.fromiter(map(part._index.__getitem__, other), np.int64,
                           count=count)
        part.in_[rows] = np.fromiter(other.values(), np.bool_, count=count)

    def members(self) -> Set[int]:
        """``{u | u.in}`` straight from the bitmap."""
        part = self._rows()
        return set(part.ids[part.in_].tolist())

    def member_count(self) -> int:
        return int(np.count_nonzero(self._rows().in_))


class _BitmapItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        part = self._mapping._rows()
        return zip(part._ids_list, part.in_.tolist())


class _BitmapValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._rows().in_.tolist())


# ---------------------------------------------------------------------------
# vectorized OIMIS sweep kernel
# ---------------------------------------------------------------------------
def _sweep_arrays(arrs, active_idx, full_scan: bool, suffix_only: bool,
                  num_workers: int):
    """One OIMIS compute sweep over ``active_idx`` rows, vectorized.

    Reproduces the dict path's work accounting exactly (see
    ``OIMISProgram.compute``): with ``P`` prefix neighbours (rank key
    below the vertex's own) and the early break enabled, a vertex whose
    first in-set prefix neighbour sits at 0-based rank position ``f``
    charges ``2*(f+1)``; a vertex with no hit charges
    ``P + min(P+1, deg)``; the SCALL full scan always charges
    ``deg + P``.  Activation requests are emitted for changed vertices
    only — the full ranked row (`ALL`) or its non-prefix suffix
    (`LOWER_RANKING`/`SAME_STATUS`).  Nothing here depends on the rows
    being rank-sorted (prefix membership and the early-break position are
    both key comparisons), so the fast path skips lazy row re-sorts; only
    lists mode needs :meth:`CSRPartition.freshen` first, because it
    materializes request targets in the dict path's rank order for the
    fault machinery's draw sequence.

    Returns ``(compute_work, worker_work, changed_idx, changed_val,
    req_src, req_tgt)`` with row-index arrays (see
    :class:`CSRSweepExtras`).
    """
    a = active_idx
    n_a = int(a.size)
    empty = np.empty(0, np.int64)
    if n_a == 0:
        return (0, [0] * num_workers, empty, np.empty(0, np.bool_),
                empty, np.empty(0, np.int64))
    indptr = arrs.indptr
    keys = arrs.keys
    in_ = arrs.in_
    starts = indptr[a]
    lens = indptr[a + 1] - starts
    total = int(lens.sum())
    if total:
        offs = np.zeros(n_a, np.int64)
        np.cumsum(lens[:-1], out=offs[1:])
        owners = np.repeat(np.arange(n_a, dtype=np.int64), lens)
        flat = np.arange(total, dtype=np.int64) - offs[owners] + starts[owners]
        nbrs = arrs.nbr[flat]
        nkeys = keys[nbrs]
        prefix = nkeys < keys[a][owners]
        pcounts = np.bincount(
            owners, weights=prefix, minlength=n_a
        ).astype(np.int64)
        # first-hit position without assuming rank-sorted rows: the
        # early break stops at the *minimum-key* in-set prefix neighbour,
        # and its 0-based rank position equals the count of members keyed
        # strictly below it (all of which are prefix members themselves)
        hit_pos = np.flatnonzero(prefix & in_[nbrs])
        if hit_pos.size:
            h_owner = owners[hit_pos]
            gstarts = np.concatenate((
                np.zeros(1, np.int64), np.flatnonzero(np.diff(h_owner)) + 1
            ))
            hit_owner = h_owner[gstarts]
            min_keys = np.minimum.reduceat(nkeys[hit_pos], gstarts)
            # keys are non-negative, so a zero threshold counts nothing
            # for owners without a hit (their f is never read anyway)
            thresh = np.zeros(n_a, np.int64)
            thresh[hit_owner] = min_keys
            f_local = np.bincount(
                owners, weights=nkeys < thresh[owners], minlength=n_a
            ).astype(np.int64)[hit_owner]
        else:
            hit_owner = empty
            f_local = empty
    else:
        owners = empty
        nbrs = empty
        prefix = np.empty(0, np.bool_)
        pcounts = np.zeros(n_a, np.int64)
        hit_owner = empty
        f_local = empty
    new_in = np.ones(n_a, np.bool_)
    new_in[hit_owner] = False
    if full_scan:
        work = lens + pcounts
    else:
        work = pcounts + np.minimum(pcounts + 1, lens)
        work[hit_owner] = 2 * (f_local + 1)
    compute_work = int(work.sum())
    worker_work = np.bincount(
        arrs.home[a], weights=np.maximum(work, 1), minlength=num_workers
    ).astype(np.int64).tolist()
    changed_mask = new_in != in_[a]
    changed_sel = np.flatnonzero(changed_mask)
    changed_idx = a[changed_sel]
    changed_val = new_in[changed_sel]
    if total and changed_sel.size:
        sel = changed_mask[owners]
        if suffix_only:
            sel = sel & ~prefix
        req_src = a[owners[sel]]
        req_tgt = nbrs[sel]
    else:
        req_src = empty
        req_tgt = np.empty(0, np.int64)
    return (compute_work, worker_work, changed_idx, changed_val,
            req_src, req_tgt)


def _requests_from_arrays(part, req_src, req_tgt, strategy):
    """Rebuild the dict path's activation-request lists from the typed
    arrays (used when faults/sanitizer need standard-shaped sweeps)."""
    from repro.core.activation import ActivationStrategy, _same_status

    requests: List[Tuple[int, List[int], List[Tuple[int, Any]]]] = []
    if not req_src.size:
        return requests
    split_at = np.flatnonzero(np.diff(req_src)) + 1
    groups = np.split(req_tgt, split_at)
    sources = req_src[np.concatenate((np.zeros(1, np.int64), split_at))]
    same_status = strategy is ActivationStrategy.SAME_STATUS
    ids = part.ids
    for src_row, tgt_rows in zip(sources, groups):
        source = int(ids[src_row])
        targets = ids[tgt_rows].tolist()
        if same_status:
            requests.append(
                (source, [], [(t, _same_status) for t in targets])
            )
        else:
            requests.append((source, targets, []))
    return requests


class OIMISKernel:
    """Array-native sweep kernel for :class:`~repro.core.oimis.OIMISProgram`.

    Picklable and tiny (strategy + scan mode only): the multi-process
    runtime ships its config to workers once per pool, never per barrier.
    """

    #: every OIMIS state syncs as one status byte (uniform)
    def __init__(self, strategy, full_scan: bool):
        from repro.pregel.metrics import STATUS_BYTES

        self.strategy = strategy
        self.full_scan = full_scan
        self.sync_bytes_const = STATUS_BYTES

    @property
    def same_status(self) -> bool:
        from repro.core.activation import ActivationStrategy

        return self.strategy is ActivationStrategy.SAME_STATUS

    @property
    def suffix_only(self) -> bool:
        from repro.core.activation import ActivationStrategy

        return self.strategy is not ActivationStrategy.ALL

    def config(self, num_workers: int) -> Tuple[str, bool, bool, int]:
        """Wire form shipped to worker processes (picklable primitives)."""
        return (self.strategy.value, self.full_scan, self.suffix_only,
                num_workers)

    def sweep(self, engine, active, superstep: int):
        """Run one inline sweep; returns a standard ``ScaleGSweep``.

        In fast mode (no faults, no sanitizer, no isolation snapshots)
        the sweep carries :class:`CSRSweepExtras` and an empty request
        list — the engine's vectorized barrier consumes the arrays.
        Otherwise the exact dict-shaped requests are materialized so the
        fault/sanitizer machinery sees the standard sweep shape.
        """
        from repro.runtime.base import ScaleGSweep

        part = engine._csr
        active_idx = part.index_of(active)
        if not getattr(engine, "_csr_fast", False):
            # lists mode replays request targets in rank order so the
            # fault injector's draw sequence matches the dict path
            part.freshen(active_idx)
        (compute_work, worker_work, changed_idx, changed_val,
         req_src, req_tgt) = _sweep_arrays(
            part, active_idx, self.full_scan, self.suffix_only,
            engine.dgraph.num_workers,
        )
        changed_ids = part.ids[changed_idx].tolist()
        new_states = dict(zip(changed_ids, changed_val.tolist()))
        if getattr(engine, "_csr_fast", False):
            return ScaleGSweep(
                new_states=new_states,
                changed=changed_ids,
                forced=[],
                requests=[],
                compute_work=compute_work,
                worker_work=worker_work,
                csr=CSRSweepExtras(changed_idx, changed_val,
                                   req_src, req_tgt),
            )
        return ScaleGSweep(
            new_states=new_states,
            changed=changed_ids,
            forced=[],
            requests=_requests_from_arrays(
                part, req_src, req_tgt, self.strategy
            ),
            compute_work=compute_work,
            worker_work=worker_work,
        )


def finish_barrier(part, kernel, extras, changed, record, dgraph):
    """Vectorized barrier charging for a fast-path sweep.

    Mirrors the engine's dict-path loops exactly: one sync record per
    (changed vertex, guest machine); activation requests filtered by the
    end-of-superstep same-status predicate where the strategy asks, each
    surviving request counted once (duplicates included), remote pairs
    charged the piggybacked activation entry (every OIMIS activation
    source changed state, so it is always in the synced set).  Returns
    the next active vertex ids, ascending and deduplicated.  Must run
    *after* the barrier committed its rows to the bitmap — the predicate
    and the piggyback rule read post-commit state.
    """
    from repro.pregel.metrics import (
        ACTIVATION_ENTRY_BYTES,
        MESSAGE_OVERHEAD_BYTES,
        VERTEX_ID_BYTES,
    )

    record.state_changes = len(changed)
    copies = sum(map(dgraph.num_guest_copies, changed))
    if copies:
        wire = (MESSAGE_OVERHEAD_BYTES + VERTEX_ID_BYTES
                + kernel.sync_bytes_const)
        record.remote_messages += copies
        record.bytes_sent += copies * wire
    req_src = extras.req_src
    req_tgt = extras.req_tgt
    if req_src.size and kernel.same_status:
        keep = part.in_[req_src] == part.in_[req_tgt]
        req_src = req_src[keep]
        req_tgt = req_tgt[keep]
    if not req_src.size:
        return []
    record.messages += int(req_src.size)
    remote = part.home[req_src] != part.home[req_tgt]
    remote_count = int(np.count_nonzero(remote))
    record.remote_messages += remote_count
    record.bytes_sent += remote_count * ACTIVATION_ENTRY_BYTES
    return part.ids[np.unique(req_tgt)].tolist()


# ---------------------------------------------------------------------------
# worker-process side (multi-process runtime)
# ---------------------------------------------------------------------------
class WorkerCSRView:
    """A worker process's zero-copy mapping of the published frame."""

    def __init__(self, meta):
        from multiprocessing import shared_memory

        name, epoch, layout = meta
        # The master owns the segment's lifecycle; a worker must attach
        # WITHOUT registering it with the (shared) resource tracker, or
        # the tracker's refcount diverges and the master's unlink warns
        # (bpo-39959).  Python 3.13 has track=False for exactly this;
        # earlier versions need the registration suppressed around the
        # attach.
        try:
            self.shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track= parameter
            from multiprocessing import resource_tracker

            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                self.shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig_register
        self.name = name
        self.epoch = 0
        self.remap(meta)

    def remap(self, meta) -> None:
        _, epoch, layout = meta
        buf = self.shm.buf
        for name, dtype, shape, offset in layout:
            setattr(self, name, np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf, offset=offset
            ))
        self.epoch = epoch

    def close(self) -> None:
        for name in ("ids", "keys", "indptr", "nbr", "home", "in_"):
            if hasattr(self, name):
                delattr(self, name)
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass


def worker_attach(view: Optional[WorkerCSRView], meta) -> WorkerCSRView:
    """(Re)map the published frame inside a worker process."""
    name = meta[0]
    if view is not None:
        if view.name == name:
            view.remap(meta)
            return view
        view.close()
    return WorkerCSRView(meta)


def worker_sweep(view: WorkerCSRView, active_idx, cfg):
    """One worker's share of a fast-path sweep, wire-encoded.

    Row indices travel as ``int32`` (row counts are far below 2^31) and
    the request pairs as (unique sources, run lengths, targets) — the
    source column is non-decreasing, so run-length grouping shrinks it to
    one entry per requesting vertex.  :func:`decode_worker_sweep` is the
    inverse.
    """
    _strategy_value, full_scan, suffix_only, num_workers = cfg
    compute_work, worker_work, changed_idx, changed_val, req_src, req_tgt = (
        _sweep_arrays(view, active_idx.astype(np.int64), full_scan,
                      suffix_only, num_workers)
    )
    if req_src.size:
        starts = np.flatnonzero(np.diff(req_src)) + 1
        bounds = np.concatenate(
            (np.zeros(1, np.int64), starts,
             np.array([req_src.size], np.int64))
        )
        sources = req_src[bounds[:-1]].astype(np.int32)
        counts = np.diff(bounds).astype(np.int32)
    else:
        sources = np.empty(0, np.int32)
        counts = np.empty(0, np.int32)
    return (
        compute_work,
        worker_work,
        changed_idx.astype(np.int32),
        changed_val,
        sources,
        counts,
        req_tgt.astype(np.int32),
    )


def decode_worker_sweep(payload):
    """Decode one worker's wire frame back to int64 row-index arrays."""
    compute_work, worker_work, changed_idx, changed_val, sources, counts, \
        req_tgt = payload
    req_src = np.repeat(sources.astype(np.int64), counts)
    return (
        compute_work,
        worker_work,
        changed_idx.astype(np.int64),
        changed_val,
        req_src,
        req_tgt.astype(np.int64),
    )
