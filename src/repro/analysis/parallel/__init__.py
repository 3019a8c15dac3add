"""Parallel-safety analysis: static P-family rules + the race sanitizer.

Two halves of one guard-rail for the runtime layer:

- :mod:`repro.analysis.parallel.rules` — the **P family** of static AST
  rules (P1 sweep purity, P2 barrier ordering, P3 frame hygiene, P4
  merge-once), run by the linter over the engines and execution backends.
- :mod:`repro.analysis.parallel.sanitizer` — the **RaceSanitizer**, an
  opt-in (``REPRO_SANITIZE=1``) backend wrapper that records per-worker
  read/write vertex sets each superstep and flags races at runtime, with
  a keyed-hash trace log that replays under any ``PYTHONHASHSEED``.
  ``repro-mis sanitize`` runs the chaos sweep of :mod:`repro.faults.chaos`
  with one per case.
"""

from repro.analysis.parallel.rules import check_parallel
from repro.analysis.parallel.sanitizer import (
    RaceSanitizer,
    SanitizedBackend,
    SuperstepTrace,
    resolve_sanitizer,
    sanitize_enabled,
)

__all__ = [
    "check_parallel",
    "RaceSanitizer",
    "SanitizedBackend",
    "SuperstepTrace",
    "resolve_sanitizer",
    "sanitize_enabled",
]
