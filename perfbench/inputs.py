"""Seeded benchmark inputs, generated here and pinned by checksum.

The graph and the update stream come from this module alone, never from
``repro.graph.generators`` or ``repro.serve.trace``, so a change to the
program cannot move the workload.  Everything is a function of the seed:

- the graph is a Chung–Lu power-law graph (vertex ``i`` has weight
  ``(i + 1) ** (-1 / (exponent - 1))``, endpoints drawn proportional to
  weight, self-loops and repeats dropped) with exactly
  ``num_vertices * avg_degree / 2`` edges;
- the stream is the paper's Section VII update stream cut into blocks:
  each block deletes ``block_edges`` distinct sampled edges and then
  reinserts them in the same order, so the graph is the original one again
  after every whole block;
- the read schedule (``read_mix``) and the post-run read probe draw read
  kinds and vertices uniformly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

NUM_VERTICES = 100_000
AVG_DEGREE = 10
EXPONENT = 2.5
BATCH_READ_SIZE = 32
#: read kinds and their shares: 85% point, 10% batch, 5% why-not
POINT, BATCH, WHY_NOT = 0, 1, 2
READ_SHARES = (0.85, 0.10, 0.05)

# independent RNG streams per input, so e.g. a longer stream never moves
# the graph
_GRAPH, _STREAM, _READS, _PROBE = range(4)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return digest.hexdigest()


def chung_lu_edges(seed: int, n: int = NUM_VERTICES,
                   avg_degree: int = AVG_DEGREE,
                   exponent: float = EXPONENT) -> np.ndarray:
    """``(m, 2)`` int64 array of edges ``u < v``, in first-draw order."""
    rng = _rng(seed, _GRAPH)
    weights = (np.arange(n) + 1.0) ** (-1.0 / (exponent - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    target = n * avg_degree // 2
    keys = np.empty(0, np.int64)
    while keys.size < target:
        draws = int((target - keys.size) * 1.3) + 1024
        u = np.searchsorted(cdf, rng.random(draws), side="right")
        v = np.searchsorted(cdf, rng.random(draws), side="right")
        keep = u != v
        lo = np.minimum(u, v)[keep]
        hi = np.maximum(u, v)[keep]
        keys = np.concatenate([keys, lo * n + hi])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    keys = keys[:target]
    return np.stack([keys // n, keys % n], axis=1)


def update_stream(seed: int, num_edges: int, block_edges: int,
                  blocks: int) -> np.ndarray:
    """``(blocks, 2 * block_edges)`` edge indices; in each block the first
    half are deletions and the second half reinsert the same edges."""
    rng = _rng(seed, _STREAM)
    out = np.empty((blocks, 2 * block_edges), np.int64)
    for b in range(blocks):
        picked = rng.choice(num_edges, size=block_edges, replace=False)
        out[b, :block_edges] = picked
        out[b, block_edges:] = picked
    return out


@dataclass
class ReadSchedule:
    """Seeded reads: ``kinds[i]`` and ``vertices[i]`` for read ``i``;
    batch reads take their 32 vertices from ``batches[batch_row[i]]``."""

    kinds: np.ndarray
    vertices: np.ndarray
    batch_row: np.ndarray
    batches: np.ndarray

    def __len__(self) -> int:
        return int(self.kinds.size)

    def checksum(self) -> str:
        return sha256(self.kinds, self.vertices, self.batches)


def read_schedule(seed: int, count: int, probe: bool = False,
                  n: int = NUM_VERTICES) -> ReadSchedule:
    rng = _rng(seed, _PROBE if probe else _READS)
    u = rng.random(count)
    kinds = np.full(count, WHY_NOT, np.int64)
    kinds[u < READ_SHARES[0] + READ_SHARES[1]] = BATCH
    kinds[u < READ_SHARES[0]] = POINT
    vertices = rng.integers(0, n, size=count)
    is_batch = kinds == BATCH
    batch_row = np.cumsum(is_batch) - 1
    batches = rng.integers(0, n, size=(int(is_batch.sum()), BATCH_READ_SIZE))
    return ReadSchedule(kinds, vertices, batch_row, batches)
