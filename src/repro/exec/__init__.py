"""Resilient execution layer: supervised workers, journals, chaos.

This package replaces the runner's bare ``ProcessPoolExecutor`` fan-out
with machinery that survives real infrastructure failures:

:mod:`~repro.exec.outcomes`
    Structured per-job terminal states (``ok`` / ``retried`` /
    ``timed_out`` / ``crashed`` / ``gave_up`` / ``resumed`` /
    ``cancelled``) — nothing aborts a sweep.
:mod:`~repro.exec.retry`
    :class:`~repro.exec.retry.RetryPolicy` — exponential backoff with
    seeded deterministic jitter.
:mod:`~repro.exec.pool`
    The supervised worker pool: crash isolation, deadline kills,
    policy-scheduled retries, ordered outcomes.
:mod:`~repro.exec.journal`
    Crash-safe append-only sweep journals enabling ``--resume`` after a
    ``kill -9``.
:mod:`~repro.exec.integrity`
    SHA-256 cache-entry checksums, verified on read; corrupted entries
    quarantined and transparently recomputed.
:mod:`~repro.exec.chaos`
    Deterministic fault injection (crash / stall / flaky / cache
    corruption) behind ``REPRO_CHAOS_*`` environment hooks.
:mod:`~repro.exec.report`
    The ``python -m repro chaos`` harness: runs a real sweep under
    injected faults and emits a schema'd, hard-checked
    ``CHAOS_<label>.json`` proving the resilience invariants.
"""

from .chaos import ChaosConfig, ChaosTransientError, chaos_hook
from .integrity import load_verified_json, stamp_integrity
from .journal import JournalWriter, load_journal
from .outcomes import (
    AttemptRecord,
    JobFailedError,
    JobOutcome,
    raise_outcome,
)
from .pool import run_supervised
from .retry import RetryPolicy

__all__ = [
    "AttemptRecord",
    "ChaosConfig",
    "ChaosTransientError",
    "JobFailedError",
    "JobOutcome",
    "JournalWriter",
    "RetryPolicy",
    "chaos_hook",
    "load_journal",
    "load_verified_json",
    "raise_outcome",
    "run_supervised",
    "stamp_integrity",
]
