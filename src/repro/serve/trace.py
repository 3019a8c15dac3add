"""Seeded bursty traffic traces for the ingestion service.

Real ingestion traffic is not the paper's tidy delete-reinsert protocol:
it alternates calm stretches with bursts (an order of magnitude higher
arrival rate, heavier churn), and it occasionally carries garbage — an
operation that can never apply.  This module generates such a trace
deterministically from a seed so every serve benchmark, soak and chaos
case is bit-reproducible.

Validity bookkeeping mirrors :func:`repro.bench.workloads.mixed_workload`:
the generator tracks the edge set the stream implies, so every non-poison
operation is valid *at the moment it is applied* (in order, with earlier
poison operations quarantined — poison ops never change the tracked
state, so quarantining them keeps the rest of the stream valid).

Poison operations are deletions of edges between *reserved* vertex ids
that no insertion ever touches — invalid on arrival, invalid forever, and
recognizably so in a dead-letter log.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeDeletion, EdgeInsertion, EdgeUpdate

#: poison endpoints start this far above the largest real vertex id, so no
#: generated insertion can ever legitimize them
POISON_ID_GAP = 1_000_000


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a bursty trace."""

    num_ops: int = 500
    seed: int = 0
    #: mean inter-arrival gap (event-time seconds) outside bursts
    calm_gap_s: float = 1.0
    #: mean inter-arrival gap inside bursts (an order of magnitude hotter)
    burst_gap_s: float = 0.05
    #: a calm phase lasts this many events before a burst may start
    calm_len: int = 40
    burst_len: int = 60
    insert_ratio: float = 0.5
    #: probability an event is a poison operation (0 = clean trace)
    poison_prob: float = 0.0

    def __post_init__(self):
        if self.num_ops < 1:
            raise WorkloadError(f"num_ops must be >= 1, got {self.num_ops}")
        if self.calm_gap_s <= 0 or self.burst_gap_s <= 0:
            raise WorkloadError("arrival gaps must be positive")
        if self.calm_len < 1 or self.burst_len < 1:
            raise WorkloadError("phase lengths must be >= 1")
        if not 0.0 <= self.insert_ratio <= 1.0:
            raise WorkloadError(
                f"insert_ratio must be in [0, 1], got {self.insert_ratio}"
            )
        if not 0.0 <= self.poison_prob < 1.0:
            raise WorkloadError(
                f"poison_prob must be in [0, 1), got {self.poison_prob}"
            )


def bursty_trace(
    graph: DynamicGraph, config: Optional[TraceConfig] = None, **overrides
) -> Tuple[List[EdgeUpdate], List[float]]:
    """A seeded (operations, timestamps) pair over ``graph``'s vertices.

    Timestamps are non-decreasing event-time seconds starting at 0.0;
    bursts alternate with calm phases per ``config``.  Keyword overrides
    build a :class:`TraceConfig` when none is given.
    """
    cfg = config if config is not None else TraceConfig(**overrides)
    rng = random.Random(cfg.seed)
    vertices = graph.sorted_vertices()
    if len(vertices) < 2:
        raise WorkloadError("bursty_trace needs a graph with >= 2 vertices")
    poison_base = (max(vertices) if vertices else 0) + POISON_ID_GAP
    # the edge state the stream implies, mutated only by valid operations:
    # a set for membership tests plus the same edges as a sorted list, so
    # a deletion draws by index without re-sorting the set
    ordered = graph.sorted_edges()
    present = set(ordered)
    ops: List[EdgeUpdate] = []
    timestamps: List[float] = []
    now = 0.0
    in_burst = False
    phase_left = cfg.calm_len
    poison_emitted = 0
    while len(ops) < cfg.num_ops:
        if phase_left <= 0:
            in_burst = not in_burst
            phase_left = cfg.burst_len if in_burst else cfg.calm_len
        phase_left -= 1
        gap = cfg.burst_gap_s if in_burst else cfg.calm_gap_s
        now += rng.expovariate(1.0 / gap)
        if cfg.poison_prob and rng.random() < cfg.poison_prob:
            # a deletion between reserved ids: invalid now, invalid forever
            u = poison_base + 2 * poison_emitted
            ops.append(EdgeDeletion(u, u + 1))
            timestamps.append(now)
            poison_emitted += 1
            continue
        op = _valid_op(rng, vertices, present, ordered, cfg.insert_ratio)
        if op is None:
            # degenerate state (complete or empty graph): skip this slot
            continue
        ops.append(op)
        timestamps.append(now)
    return ops, timestamps


def _valid_op(rng, vertices, present, ordered,
              insert_ratio) -> Optional[EdgeUpdate]:
    from repro.graph.dynamic_graph import normalize_edge

    want_insert = rng.random() < insert_ratio
    if want_insert:
        for _ in range(32):
            u, v = rng.sample(vertices, 2)
            edge = normalize_edge(u, v)
            if edge not in present:
                present.add(edge)
                insort(ordered, edge)
                return EdgeInsertion(*edge)
        want_insert = False  # dense neighbourhood: fall through to delete
    if ordered:
        # deterministic choice from the tracked edge set in sorted order
        # (set iteration order must never leak into a seeded trace)
        edge = rng.choice(ordered)
        del ordered[bisect_left(ordered, edge)]
        present.discard(edge)
        return EdgeDeletion(*edge)
    return None


def is_poison(op: EdgeUpdate, graph: DynamicGraph) -> bool:
    """Whether ``op`` references the reserved poison id space."""
    vertices = graph.sorted_vertices()
    if not vertices:
        return False
    base = max(vertices) + POISON_ID_GAP
    return op.u >= base or op.v >= base
