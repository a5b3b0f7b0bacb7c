"""Deterministic retry policies for supervised jobs.

A :class:`RetryPolicy` describes how many times a job may run, how long
to back off between attempts, and how long each attempt may take.  The
backoff is exponential with *seeded deterministic jitter*: the jitter
fraction for attempt ``k`` of job ``key`` is drawn from a
``numpy.random.Generator`` seeded by ``(policy.seed, key, k)``, so a
rerun of the same sweep schedules byte-identical delays — retries never
make a run irreproducible.

The supervised pool (:mod:`repro.exec.pool`) schedules retries with
this arithmetic and enforces attempt deadlines by killing worker
processes, which is the only reliable way to stop a stalled fork.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]


def _key_entropy(key: str) -> int:
    """A stable 32-bit integer derived from a job key."""
    return zlib.crc32(key.encode("utf-8"))


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) a failed job attempt is retried.

    ``max_attempts`` counts *total* attempts (1 = never retry).
    ``base_delay`` of 0 is the zero-delay fast path: retries reschedule
    immediately and no jitter generator is ever consulted.  Otherwise
    attempt ``k`` (1-based retry index) waits
    ``min(max_delay, base_delay * backoff**(k-1))`` stretched by a
    jitter fraction in ``[0, jitter]`` drawn deterministically from
    ``(seed, key, k)``.  ``timeout`` bounds each attempt's wall-clock
    (``None`` = unbounded).
    """

    max_attempts: int = 1
    base_delay: float = 0.0
    backoff: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        for name in ("base_delay", "max_delay", "jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1 (delays never shrink)")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def delay_before(self, key: str, attempt: int) -> float:
        """Seconds to wait before ``attempt`` (0-based) of job ``key``.

        Attempt 0 and the zero-delay fast path always return 0.0; other
        attempts get the jittered exponential backoff.  Deterministic:
        the same ``(seed, key, attempt)`` always yields the same delay.
        """
        if attempt <= 0 or self.base_delay == 0.0:
            return 0.0
        raw = min(self.max_delay, self.base_delay * self.backoff ** (attempt - 1))
        if self.jitter == 0.0:
            return raw
        rng = np.random.default_rng(
            [int(self.seed), _key_entropy(key), int(attempt)]
        )
        return raw * (1.0 + self.jitter * float(rng.random()))

    def allows_retry(self, attempt: int) -> bool:
        """Whether another attempt may follow 0-based attempt ``attempt``."""
        return attempt + 1 < self.max_attempts
