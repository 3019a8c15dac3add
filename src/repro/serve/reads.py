"""Epoch-consistent read path: snapshot registry + query engine.

The maintenance side of this repo keeps a near-maximum independent set
converged under a stream of edge updates; this module makes the *read*
side first-class.  Two pieces:

:class:`SnapshotRegistry` publishes an immutable, epoch-tagged view of
the maintained set at each committed window (the
:class:`~repro.serve.service.IngestionService` calls :meth:`publish`
right after every WAL commit).  Two backings, chosen automatically:

- **shared** — when the maintainer already runs the array-native sweep
  path over a published shared-memory frame (process runtime +
  ``representation="csr"``), the registry *pins* the live segment via
  :meth:`CSRPartition.pin_shared`: the frame becomes the epoch, readers
  map it zero-copy, the writer detaches and republishes the next barrier
  into a fresh segment, and the pinned segment is unlinked only when the
  last reader retires its pin.  Readers never block the writer; the
  writer never mutates a published epoch.
- **local** — otherwise the registry keeps private array copies:
  structure arrays are re-copied only when the CSR mirror's
  ``structure_version`` moved; the membership bitmap is a copy of the
  partition's own bitmap when that bitmap is the maintainer's state (a
  CSR maintainer), and is rebuilt from ``independent_set()`` for a
  dict-path maintainer.

:class:`QueryEngine` answers queries against the newest snapshot:
point membership, numpy-vectorized batch lookups (thousands of point
queries per bitmap pass), k-hop neighbourhood set queries, and "why-not"
certificates — for a non-member ``v``, the blocking neighbour is the
minimum-``≺``-key in-set neighbour ranked below ``v`` (the exact vertex
Algorithm 2's early-break scan stops at; at a fixpoint one always
exists).  Every answer is tagged with the epoch it was served from, and
the engine accounts read latency (a fixed-memory
:class:`LatencyHistogram`: nearest-rank percentiles at 1/32
relative resolution) and ingress staleness (events admitted but not yet
visible at the answering epoch).

Consistency model: an epoch is a committed-window barrier snapshot, so
every query result is bit-identical to querying a maintainer restored to
that window's checkpoint — the property the read-path tests pin.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.graph.csr import CSRPartition, WorkerCSRView, numpy_available

try:  # optional at import time, like repro.graph.csr
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None


class LatencyHistogram:
    """Fixed-bucket log-scale histogram of durations in seconds.

    HdrHistogram's layout: every power-of-two octave from 2^-30 s (about
    1 ns) to 2^8 s splits into :attr:`SUB_BUCKETS` equal-width buckets,
    so memory is a fixed ~1,200 counters however many samples arrive.
    Samples are binned in batches (:meth:`add`, one vectorized pass).
    :meth:`percentile` keeps nearest-rank semantics at bucket resolution:
    it returns the upper edge of the bucket holding the nearest-rank
    sample, capped at the largest sample seen — never below the exact
    nearest-rank value and at most 1/32 (3.1%) above it.  Samples outside
    the range count in the first or last bucket.
    """

    SUB_BUCKETS = 32
    MIN_EXP = -29  # frexp exponent of the first octave, [2^-30, 2^-29)
    MAX_EXP = 8

    def __init__(self) -> None:
        size = (self.MAX_EXP - self.MIN_EXP + 1) * self.SUB_BUCKETS
        self.counts = np.zeros(size, np.int64)
        self.count = 0
        #: sum of all samples (seconds)
        self.total = 0.0
        self.max = 0.0

    def add(self, samples: List[float]) -> None:
        """Bin a batch of samples."""
        if not samples:
            return
        values = np.array(samples, np.float64)
        self.count += int(values.size)
        self.total += float(values.sum())
        self.max = max(self.max, float(values.max()))
        mant, exp = np.frexp(values)  # mant in [0.5, 1) for values > 0
        sub = self.SUB_BUCKETS
        index = ((exp.astype(np.int64) - self.MIN_EXP) * sub
                 + ((mant - 0.5) * (2 * sub)).astype(np.int64))
        index[values <= 0.0] = 0
        np.clip(index, 0, self.counts.size - 1, out=index)
        self.counts += np.bincount(index, minlength=self.counts.size)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile at bucket resolution (0.0 when empty)."""
        if not self.count:
            return 0.0
        if not 0.0 < q <= 1.0:
            raise QueryError(f"percentile q must be in (0, 1], got {q}")
        rank = math.ceil(q * self.count)
        index = int(np.searchsorted(np.cumsum(self.counts), rank))
        octave, step = divmod(index, self.SUB_BUCKETS)
        upper = math.ldexp(0.5 + (step + 1) / (2 * self.SUB_BUCKETS),
                           octave + self.MIN_EXP)
        return min(upper, self.max)


#: query latencies a :class:`QueryEngine` buffers before binning them:
#: fixed memory (~256 KB), and the binning pass (well under a
#: millisecond) lands on one read in this many, far out in the tail
_LATENCY_BATCH = 8192


class EpochSnapshot:
    """One immutable, epoch-tagged view of graph structure + membership.

    ``ids``/``keys``/``indptr``/``nbr`` follow the CSR mirror's layout
    (see :mod:`repro.graph.csr`); ``in_`` is the membership bitmap.  For
    shared snapshots the arrays are zero-copy views of a pinned
    shared-memory segment; for local snapshots they are private copies.
    Lifecycle is refcounted by the owning registry: the registry holds
    one reference until the snapshot is superseded, readers take more
    via :meth:`SnapshotRegistry.acquire`.
    """

    __slots__ = (
        "epoch", "watermark", "shared", "segment", "meta",
        "ids", "keys", "indptr", "nbr", "in_", "refs", "_view",
    )

    def __init__(self, epoch: int, watermark: int, shared: bool,
                 segment: Optional[str], meta, ids, keys, indptr, nbr, in_,
                 view=None):
        self.epoch = epoch
        self.watermark = watermark
        self.shared = shared
        self.segment = segment
        self.meta = meta
        self.ids = ids
        self.keys = keys
        self.indptr = indptr
        self.nbr = nbr
        self.in_ = in_
        self.refs = 0
        self._view = view

    @property
    def num_vertices(self) -> int:
        return int(self.ids.size)

    @property
    def set_size(self) -> int:
        return int(np.count_nonzero(self.in_))

    def row_of(self, vertex: int) -> Optional[int]:
        """Row index of ``vertex`` in this epoch, or None if absent."""
        ids = self.ids
        if not ids.size:
            return None
        row = int(np.searchsorted(ids, vertex))
        if row >= ids.size or int(ids[row]) != vertex:
            return None
        return row

    def members(self) -> List[int]:
        """The maintained set at this epoch, ascending."""
        return self.ids[self.in_.astype(np.bool_)].tolist()


class SnapshotRegistry:
    """Publishes and refcounts epoch-tagged snapshots of a maintainer.

    Parameters
    ----------
    maintainer:
        Anything with the :class:`~repro.core.doimis.DOIMISMaintainer`
        read surface (``dgraph``, ``independent_set()``).
    frontier_fn:
        Zero-argument callable returning the ingress frontier (the last
        *accepted* sequence id) — staleness of a snapshot is
        ``frontier - snapshot.watermark``, the number of admitted events
        not yet visible to readers.  ``None`` reports staleness 0.
    """

    def __init__(self, maintainer,
                 frontier_fn: Optional[Callable[[], int]] = None):
        if not numpy_available():
            raise QueryError(
                "the snapshot read path requires numpy, which is not "
                "installed"
            )
        self._maintainer = maintainer
        self._frontier_fn = frontier_fn
        self._part: Optional[CSRPartition] = None
        self._latest: Optional[EpochSnapshot] = None
        self._closed = False
        # local-mode structure cache: private copies remade only when the
        # mirror's structure_version moves
        self._struct_version = -1
        self._struct: Optional[Tuple[Any, Any, Any, Any]] = None
        self.epochs_published = 0
        #: every published (epoch, watermark) pair, in publish order —
        #: the monotonicity witness the chaos tests assert over
        self.history: List[Tuple[int, int]] = []

    # -- publication -----------------------------------------------------
    def _partition(self) -> CSRPartition:
        part = self._part
        if part is None:
            part = self._part = CSRPartition.attach(self._maintainer.dgraph)
        return part

    def publish(self, epoch: Optional[int] = None,
                watermark: int = 0) -> EpochSnapshot:
        """Publish the maintainer's current committed state as an epoch.

        ``epoch`` must be strictly greater than the last published one
        (defaults to a simple counter); ``watermark`` is the commit
        watermark the epoch corresponds to.  The previous epoch loses the
        registry's reference and is reclaimed once its last reader
        releases it — publication never blocks on readers.
        """
        if self._closed:
            raise QueryError("snapshot registry is closed")
        latest = self._latest
        if epoch is None:
            epoch = latest.epoch + 1 if latest is not None else 0
        if latest is not None and epoch <= latest.epoch:
            raise QueryError(
                f"epochs must be strictly monotonic: {epoch} <= "
                f"already-published {latest.epoch}"
            )
        part = self._partition()
        part.ensure()
        if part._shm is not None and part._bitmap_in_shm:
            snapshot = self._publish_shared(part, epoch, watermark)
        else:
            snapshot = self._publish_local(part, epoch, watermark)
        snapshot.refs = 1  # the registry's own reference
        self._latest = snapshot
        self.epochs_published += 1
        self.history.append((epoch, watermark))
        if latest is not None:
            self._release(latest)
        return snapshot

    def _publish_shared(self, part: CSRPartition, epoch: int,
                        watermark: int) -> EpochSnapshot:
        meta = part.pin_shared()
        view = WorkerCSRView(meta)
        return EpochSnapshot(
            epoch, watermark, True, meta[0], meta,
            view.ids, view.keys, view.indptr, view.nbr, view.in_,
            view=view,
        )

    def _publish_local(self, part: CSRPartition, epoch: int,
                       watermark: int) -> EpochSnapshot:
        if part.structure_version != self._struct_version:
            self._struct = (
                np.array(part.ids), np.array(part.keys),
                np.array(part.indptr), np.array(part.nbr),
            )
            self._struct_version = part.structure_version
        ids, keys, indptr, nbr = self._struct
        if getattr(self._maintainer, "state_partition", None) is part:
            in_ = np.array(part.in_)  # the bitmap is the maintainer's state
        else:
            members = sorted(self._maintainer.independent_set())
            in_ = np.zeros(ids.size, np.bool_)
            if members:
                rows = np.searchsorted(
                    ids, np.fromiter(members, np.int64, count=len(members))
                )
                in_[rows] = True
        return EpochSnapshot(
            epoch, watermark, False, None, None,
            ids, keys, indptr, nbr, in_,
        )

    # -- reader lifecycle ------------------------------------------------
    def latest(self) -> Optional[EpochSnapshot]:
        """The newest published snapshot (not refcounted — single-threaded
        in-process readers query it directly between publishes)."""
        return self._latest

    def acquire(self) -> EpochSnapshot:
        """Take a reference on the newest snapshot; pair with
        :meth:`release`.  A reader holding an acquired epoch keeps its
        (consistent) view even after newer epochs are published."""
        snapshot = self._latest
        if snapshot is None:
            raise QueryError("no epoch published yet")
        snapshot.refs += 1
        if snapshot.shared:
            self._partition().pin(snapshot.segment)
        return snapshot

    def release(self, snapshot: EpochSnapshot) -> None:
        """Drop a reference taken by :meth:`acquire`."""
        self._release(snapshot)

    def _release(self, snapshot: EpochSnapshot) -> None:
        if snapshot.refs <= 0:
            raise QueryError(
                f"epoch {snapshot.epoch} released more times than acquired"
            )
        snapshot.refs -= 1
        if snapshot.shared:
            # the partition's pin count mirrors the snapshot's refcount;
            # the last retire unlinks the segment
            self._partition().retire(snapshot.segment)
        if snapshot.refs == 0 and snapshot._view is not None:
            view = snapshot._view
            snapshot._view = None
            view.close()

    def staleness(self, snapshot: Optional[EpochSnapshot] = None) -> int:
        """Admitted-but-invisible event count at ``snapshot`` (latest by
        default): the ingress frontier minus the snapshot watermark."""
        if snapshot is None:
            snapshot = self._latest
        if snapshot is None or self._frontier_fn is None:
            return 0
        return max(0, int(self._frontier_fn()) - snapshot.watermark)

    def close(self) -> None:
        """Drop the registry's reference on the newest epoch.  Readers
        holding acquired epochs keep them until they release."""
        if self._closed:
            return
        self._closed = True
        latest = self._latest
        self._latest = None
        if latest is not None:
            self._release(latest)


class QueryEngine:
    """Answers membership queries against the registry's newest epoch.

    Single-threaded like everything in this repo: each call fetches the
    newest snapshot, so answers always come from the last committed
    window.  The engine keeps deterministic read counters (what the bench
    pins) and a wall-clock latency histogram (what the bench trends; its
    memory stays fixed however many queries are served).
    """

    def __init__(self, registry: SnapshotRegistry):
        self._registry = registry
        self.point_queries = 0
        self.batch_queries = 0
        self.batch_vertices = 0
        self.max_batch_size = 0
        self.neighborhood_queries = 0
        self.why_not_queries = 0
        self.staleness_max = 0
        self.staleness_sum = 0
        self.staleness_samples = 0
        #: read latencies not yet binned into :attr:`_latency` (at most
        #: ``_LATENCY_BATCH``: every query bins a full buffer first)
        self._latencies: List[float] = []
        self._latency = LatencyHistogram()

    # -- bookkeeping -----------------------------------------------------
    def _snapshot(self) -> EpochSnapshot:
        if len(self._latencies) >= _LATENCY_BATCH:
            self._bin_latencies()
        snapshot = self._registry.latest()
        if snapshot is None:
            raise QueryError("no epoch published yet")
        staleness = self._registry.staleness(snapshot)
        if staleness > self.staleness_max:
            self.staleness_max = staleness
        self.staleness_sum += staleness
        self.staleness_samples += 1
        return snapshot

    def _bin_latencies(self) -> None:
        self._latency.add(self._latencies)
        self._latencies = []

    @property
    def reads_served(self) -> int:
        """Individual vertex answers served, across every query kind."""
        return (self.point_queries + self.batch_vertices
                + self.neighborhood_queries + self.why_not_queries)

    # -- queries ---------------------------------------------------------
    def point(self, vertex: int) -> Dict[str, Any]:
        """Is ``vertex`` in the maintained set at the newest epoch?

        Unknown vertices answer ``False`` (they are not in the set),
        matching ``maintainer.contains`` on a restored checkpoint.
        """
        started = time.perf_counter()
        snapshot = self._snapshot()
        row = snapshot.row_of(vertex)
        member = bool(snapshot.in_[row]) if row is not None else False
        self.point_queries += 1
        self._latencies.append(time.perf_counter() - started)
        return {
            "vertex": vertex, "member": member,
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    def batch(self, vertices, runtime=None) -> Dict[str, Any]:
        """Vectorized point membership for many vertices in one pass.

        One ``searchsorted`` + one gather answers the whole batch against
        the epoch bitmap — no per-vertex Python work, no pickling on the
        in-process path.  With ``runtime`` (a
        :class:`~repro.runtime.parallel.ParallelRuntime`) and a shared
        snapshot, the gather is offloaded to a worker process that maps
        the pinned segment zero-copy.
        """
        started = time.perf_counter()
        snapshot = self._snapshot()
        count = len(vertices)
        members = [False] * count
        if count and snapshot.ids.size:
            ids = snapshot.ids
            wanted = np.fromiter(vertices, np.int64, count=count)
            rows = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
            valid = ids[rows] == wanted
            if runtime is not None and snapshot.shared:
                hits = runtime.read_membership(
                    snapshot.meta, rows[valid].astype(np.int32)
                )
                out = np.zeros(count, np.bool_)
                out[np.flatnonzero(valid)] = hits
            else:
                out = np.where(valid, snapshot.in_[rows], False)
            members = out.tolist()
        self.batch_queries += 1
        self.batch_vertices += count
        if count > self.max_batch_size:
            self.max_batch_size = count
        self._latencies.append(time.perf_counter() - started)
        return {
            "vertices": list(vertices), "members": members,
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    def neighborhood(self, vertex: int, hops: int = 1) -> Dict[str, Any]:
        """The maintained set restricted to ``<= hops`` of ``vertex``
        (including ``vertex`` itself when it is a member), ascending."""
        if hops < 0:
            raise QueryError(f"hops must be >= 0, got {hops}")
        started = time.perf_counter()
        snapshot = self._snapshot()
        row = snapshot.row_of(vertex)
        if row is None:
            raise QueryError(
                f"vertex {vertex} is not in the graph at epoch "
                f"{snapshot.epoch}"
            )
        indptr = snapshot.indptr
        visited = np.zeros(snapshot.ids.size, np.bool_)
        visited[row] = True
        frontier = np.array([row], np.int64)
        for _ in range(hops):
            if not frontier.size:
                break
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            total = int(lens.sum())
            if not total:
                break
            owners = np.repeat(
                np.arange(frontier.size, dtype=np.int64), lens
            )
            offs = np.zeros(frontier.size, np.int64)
            np.cumsum(lens[:-1], out=offs[1:])
            flat = (np.arange(total, dtype=np.int64)
                    - offs[owners] + starts[owners])
            nxt = np.unique(snapshot.nbr[flat])
            nxt = nxt[~visited[nxt]]
            visited[nxt] = True
            frontier = nxt
        members = snapshot.ids[visited & snapshot.in_.astype(np.bool_)]
        self.neighborhood_queries += 1
        self._latencies.append(time.perf_counter() - started)
        return {
            "vertex": vertex, "hops": hops, "members": members.tolist(),
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    def why_not(self, vertex: int) -> Dict[str, Any]:
        """Membership certificate for ``vertex`` at the newest epoch.

        For a member the blocker is ``None`` (it is in the set because no
        ``≺``-smaller neighbour is).  For a non-member the blocker is the
        minimum-key in-set neighbour ranked below it — exactly where the
        OIMIS early-break scan stopped, so the certificate is checkable:
        the blocker is adjacent, in the set, and ``≺``-smaller.
        """
        started = time.perf_counter()
        snapshot = self._snapshot()
        row = snapshot.row_of(vertex)
        if row is None:
            raise QueryError(
                f"vertex {vertex} is not in the graph at epoch "
                f"{snapshot.epoch}"
            )
        member = bool(snapshot.in_[row])
        blocker: Optional[int] = None
        if not member:
            nb = snapshot.nbr[
                int(snapshot.indptr[row]):int(snapshot.indptr[row + 1])
            ]
            keys = snapshot.keys
            cand = nb[(keys[nb] < keys[row])
                      & snapshot.in_[nb].astype(np.bool_)]
            if cand.size:
                blocker = int(snapshot.ids[cand[np.argmin(keys[cand])]])
        self.why_not_queries += 1
        self._latencies.append(time.perf_counter() - started)
        return {
            "vertex": vertex, "member": member, "blocker": blocker,
            "epoch": snapshot.epoch, "watermark": snapshot.watermark,
        }

    # -- reporting -------------------------------------------------------
    def logical_stats(self) -> Dict[str, int]:
        """Deterministic read counters (no wall-clock numbers): what a
        bench baseline can pin bit-identically."""
        return {
            "reads_served": self.reads_served,
            "point_queries": self.point_queries,
            "batch_queries": self.batch_queries,
            "batch_vertices": self.batch_vertices,
            "max_batch_size": self.max_batch_size,
            "neighborhood_queries": self.neighborhood_queries,
            "why_not_queries": self.why_not_queries,
            "epochs_published": self._registry.epochs_published,
            "staleness_max": self.staleness_max,
            "staleness_sum": self.staleness_sum,
            "staleness_samples": self.staleness_samples,
        }

    def read_stats(self) -> Dict[str, Any]:
        """Everything :meth:`logical_stats` has, plus the epoch frontier
        and read-latency percentiles in milliseconds (nearest rank at the
        histogram's resolution: at most 1/32 above the exact value)."""
        stats: Dict[str, Any] = dict(self.logical_stats())
        latest = self._registry.latest()
        if latest is not None:
            stats["epoch"], stats["watermark"] = (
                latest.epoch, latest.watermark,
            )
        elif self._registry.history:
            # the registry may already be closed (stats read after
            # teardown) — the publish history still names the final epoch
            stats["epoch"], stats["watermark"] = self._registry.history[-1]
        else:
            stats["epoch"] = stats["watermark"] = None
        self._bin_latencies()
        latency = self._latency
        for tag, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            stats[f"latency_{tag}_ms"] = round(latency.percentile(q) * 1e3, 6)
        total = latency.total
        stats["reads_per_s"] = (
            round(self.reads_served / total, 3) if total > 0 else 0.0
        )
        return stats
