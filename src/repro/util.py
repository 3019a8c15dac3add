"""Small shared helpers with no heavyweight intra-repo dependencies.

:func:`percentile` started life inside :mod:`repro.stream` (per-window
wall-latency summaries); ``bench-perf`` takes the same nearest-rank
summary.  :func:`membership_delta` is the ``apply_batch`` report shared by
the maintainers that recompute their whole set per batch.
"""

from __future__ import annotations

import math
from typing import Sequence, Set, Tuple

from repro.errors import WorkloadError


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence (0.0 when
    empty — there is no latency to report before the first sample)."""
    if not sorted_values:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise WorkloadError(f"percentile q must be in (0, 1], got {q}")
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1]


def membership_delta(
    before: Set[int], after: Set[int]
) -> Tuple[Set[int], Set[int]]:
    """``(entered, left)`` between two member sets — the ``apply_batch``
    report of maintainers that recompute their whole set anyway."""
    return after - before, before - after
