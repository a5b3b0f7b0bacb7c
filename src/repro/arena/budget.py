"""Per-diagnosis time budgets: soft (cooperative) and hard (SIGALRM/thread).

The arena runs every diagnoser over the same scenario cell under one
clock discipline, borrowed from the DXC diagnostic-competition harness
(SNIPPETS.md snippets 1-2):

* **Soft budget** — the diagnoser is *expected* to notice it ran out of
  time and return early.  :class:`BudgetedExecutor` enforces this at
  round granularity: every ``execute`` (one adaptive test) and every
  ``execute_round`` (one predetermined round) first checks the budget
  and raises :class:`SoftBudgetExceeded`, which the diagnoser adapters
  convert into a partial, ``timed_out`` diagnosis.
* **Hard deadline** — a diagnoser that ignores the soft budget (an
  infinite loop, a stalled backend) is killed from outside.  The default
  mechanism is a ``SIGALRM`` interval timer (:func:`hard_deadline`);
  because POSIX signals only fire on the main thread, callers off the
  main thread (the fleet simulator's diagnosis episodes, worker threads)
  use :func:`run_with_thread_deadline` — the diagnosis runs on a daemon
  worker joined with a timeout, and an overrun raises
  :class:`DiagnosisTimeout` in the caller while the stalled worker is
  abandoned.  :func:`repro.arena.diagnosers.run_bounded` picks the
  mechanism automatically.

:class:`TimeBudget` takes an injectable monotonic ``clock`` (defaulting
to :func:`time.perf_counter`) so budget arithmetic is testable without
sleeping and so embedding harnesses can drive it from their own clock.

On platforms without ``SIGALRM`` (Windows) the signal deadline degrades
to a no-op; ``run_bounded`` falls back to the thread deadline there —
and on non-main threads — even when ``mechanism="signal"`` was forced,
so no caller ever runs deadline-free by accident.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.protocol import TestExecutor, TestResult
from ..core.tests_builder import TestSpec

__all__ = [
    "BudgetedExecutor",
    "DiagnosisTimeout",
    "SoftBudgetExceeded",
    "TimeBudget",
    "hard_deadline",
    "has_hard_deadline",
    "run_with_thread_deadline",
]


class SoftBudgetExceeded(Exception):
    """The cooperative (soft) time budget ran out mid-diagnosis."""


class DiagnosisTimeout(Exception):
    """The hard deadline fired: the diagnoser was killed from outside."""


@dataclass
class TimeBudget:
    """One diagnosis session's time allowance.

    ``soft_seconds`` is the budget a well-behaved diagnoser honors (via
    :class:`BudgetedExecutor` checks between rounds);
    ``hard_seconds`` is the external kill deadline.  ``None`` disables
    either bound.  The clock starts at :meth:`begin` (the arena harness
    calls it immediately before ``diagnose``).  ``clock`` is any
    monotonic zero-argument callable; injecting a fake makes budget
    expiry deterministic in tests and lets embedding simulators charge
    their own notion of time.
    """

    soft_seconds: float | None = None
    hard_seconds: float | None = None
    started_at: float | None = field(default=None, compare=False)
    clock: Callable[[], float] = field(
        default=time.perf_counter, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        for bound in (self.soft_seconds, self.hard_seconds):
            if bound is not None and bound < 0:
                raise ValueError("time budgets must be non-negative")
        if (
            self.soft_seconds is not None
            and self.hard_seconds is not None
            and self.hard_seconds < self.soft_seconds
        ):
            raise ValueError("hard deadline must not precede the soft budget")

    def begin(self) -> "TimeBudget":
        """Start (or restart) the budget clock; returns self for chaining."""
        self.started_at = self.clock()
        return self

    def elapsed(self) -> float:
        """Seconds since :meth:`begin` (0.0 before the clock starts)."""
        if self.started_at is None:
            return 0.0
        return self.clock() - self.started_at

    def soft_expired(self) -> bool:
        """True once the cooperative budget is spent."""
        return self.soft_seconds is not None and self.elapsed() >= self.soft_seconds

    def soft_remaining(self) -> float | None:
        """Seconds left on the soft budget (``None`` when unbounded)."""
        if self.soft_seconds is None:
            return None
        return max(0.0, self.soft_seconds - self.elapsed())


def has_hard_deadline() -> bool:
    """Whether the SIGALRM hard deadline can be armed *here*.

    Requires both the platform capability (``SIGALRM`` + ``setitimer``)
    and running on the main thread — POSIX delivers the alarm to the
    main thread only, and ``signal.signal`` refuses to install handlers
    anywhere else.  Off the main thread, use
    :func:`run_with_thread_deadline` instead.
    """
    return (
        hasattr(signal, "SIGALRM")
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def hard_deadline(seconds: float | None):
    """Raise :class:`DiagnosisTimeout` in the block after ``seconds``.

    A ``SIGALRM`` interval timer (main-thread only, like the DXC
    harness); the previous handler and any pending timer are restored on
    exit.  ``seconds`` of ``None`` — or a platform/thread where the
    alarm cannot be armed (:func:`has_hard_deadline`) — yields without
    arming anything, leaving only the cooperative soft budget.
    """
    if seconds is None or not has_hard_deadline():
        yield
        return
    if seconds <= 0:
        raise DiagnosisTimeout("hard deadline is already spent")

    def _on_alarm(signum, frame):
        raise DiagnosisTimeout(f"diagnosis exceeded {seconds:.3f}s hard deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_with_thread_deadline(fn: Callable[[], Any], seconds: float | None) -> Any:
    """Run ``fn()`` with a hard deadline enforced by a worker thread.

    The signal-free fallback for non-main threads and platforms without
    ``SIGALRM``: ``fn`` runs on a daemon worker which the caller joins
    for at most ``seconds``.  On overrun a :class:`DiagnosisTimeout` is
    raised in the *caller*; the stalled worker is abandoned (daemonized,
    so it cannot block interpreter exit) rather than killed — Python
    offers no safe cross-thread kill, which is why the SIGALRM path
    stays the default where it is available.  Exceptions raised by
    ``fn`` propagate; ``seconds`` of ``None`` joins unbounded.
    """
    if seconds is not None and seconds <= 0:
        raise DiagnosisTimeout("hard deadline is already spent")
    outcome: dict[str, Any] = {}

    def _target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # propagated to the caller below
            outcome["error"] = exc

    worker = threading.Thread(
        target=_target, name="diagnosis-hard-deadline", daemon=True
    )
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        raise DiagnosisTimeout(
            f"diagnosis exceeded {seconds:.3f}s hard deadline (thread fallback)"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


@dataclass
class BudgetedExecutor(TestExecutor):
    """A :class:`~repro.core.protocol.TestExecutor` that honors a budget.

    Every ``execute`` and ``execute_round`` call first checks the
    attached :class:`TimeBudget`'s soft bound and raises
    :class:`SoftBudgetExceeded`, before anything is drawn, once it is
    spent — so any strategy driven through this executor becomes
    budget-cooperative at round granularity (one adaptive test, or one
    predetermined round) without knowing about budgets itself.  The
    cost tracker keeps counting across the interruption, so a partial
    session's shots are still accounted.
    """

    budget: TimeBudget = field(default_factory=TimeBudget)

    def execute(self, spec: TestSpec) -> TestResult:
        """Check the soft budget, then run the test as usual."""
        self._check_budget()
        return super().execute(spec)

    def execute_round(
        self, specs: list[TestSpec], engine: str = "auto"
    ) -> list[TestResult]:
        """Check the soft budget once, then run the whole round."""
        self._check_budget()
        return super().execute_round(specs, engine)

    def _check_budget(self) -> None:
        if self.budget.soft_expired():
            raise SoftBudgetExceeded(
                f"soft budget ({self.budget.soft_seconds:.3f}s) spent "
                f"after {self.budget.elapsed():.3f}s"
            )
