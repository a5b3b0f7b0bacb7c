"""The supervised worker pool: crash/stall isolation with retries.

``ProcessPoolExecutor`` — the seed runner's fan-out mechanism — treats a
dead worker as fatal: one ``os._exit`` (or OOM kill) raises
``BrokenProcessPool`` and aborts the whole sweep, and a stalled worker
blocks it forever.  :func:`run_supervised` replaces it with an
explicitly supervised pool:

* every job attempt runs in a worker *process* (so a crash is isolated
  by construction), workers are reused across jobs while healthy and
  respawned when they die;
* each attempt carries a per-attempt deadline — a stalled worker is
  killed from the supervisor (the process analogue of the arena's
  :func:`~repro.arena.budget.run_with_thread_deadline`) and the attempt
  recorded as ``timed_out``;
* failures feed the job's :class:`~repro.exec.retry.RetryPolicy` —
  exponential backoff with seeded deterministic jitter — until the
  attempts are spent;
* *nothing raises*: every job terminates in exactly one
  :class:`~repro.exec.outcomes.JobOutcome` state and the caller decides
  what a failure means (the runner degrades gracefully, ``fan_out``
  re-raises for backward compatibility).

The worker loop calls :func:`repro.exec.chaos.chaos_hook` before each
attempt — a no-op unless the ``REPRO_CHAOS_*`` environment hooks are
armed — which is how the chaos harness injects crashes, stalls and
transient errors into otherwise-real sweeps.

Workers are forked where the platform allows (inheriting the warmed
interpreter: no re-import cost per worker) and spawned elsewhere; in
both cases ``fn`` and the items must pickle, the same contract the old
``ProcessPoolExecutor`` path imposed.

A caller that runs many small calls (the job service: one call per job)
can pass a :class:`WorkerSet`: healthy idle workers then outlive the
call and serve the next one with everything they have already imported
and cached.  A worker is only reused by a call with the same ``fn`` and
the same ``REPRO_CHAOS_*`` environment it was forked under, and a
crashed, timed-out or cancelled worker is never kept.  Every worker
exits on its own once its supervisor process is gone.
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.util
import os
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable

from .chaos import CHAOS_ENV_VARS
from .outcomes import AttemptRecord, JobOutcome
from .retry import RetryPolicy

__all__ = ["WorkerSet", "run_supervised"]

#: Grace period for a worker to exit after the shutdown sentinel.
_SHUTDOWN_GRACE_SECONDS = 0.5

#: How often a worker checks that its supervisor process is still alive.
_ORPHAN_CHECK_SECONDS = 0.2

#: Held while a worker's pipes are open on both ends in this process.
#: A fork from another thread inside that window would hand the new
#: sibling this worker's child-side ends, and while the sibling lives
#: the worker's death would close neither its sentinel nor its pipe:
#: the supervisor would wait on a dead worker forever.
_spawn_lock = threading.Lock()


def _reset_spawn_lock() -> None:
    """In a forked child, drop the lock state copied from the parent."""
    global _spawn_lock
    _spawn_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_spawn_lock)


def _exit_when_orphaned(supervisor_pid: int) -> None:
    """Worker watchdog: ``os._exit`` as soon as the supervisor is gone.

    Pipe EOF is not enough: each worker inherits the supervisor's ends of
    the workers forked before it, so a dead supervisor's pipes may never
    close.  Checked mid-job too — a ``kill -9`` of the
    supervisor must not leave a worker finishing an orphaned job.
    """
    while os.getppid() == supervisor_pid:
        time.sleep(_ORPHAN_CHECK_SECONDS)
    os._exit(1)


def _worker_main(conn, fn, supervisor_pid: int) -> None:
    """Worker process loop: receive jobs, run them, post outcomes.

    Messages in: ``(index, attempt, key, item)`` tuples, or ``None`` to
    exit.  Messages out: ``("done", index, attempt, value)`` or
    ``("fail", index, attempt, error_type, message)``.  An injected
    crash (``os._exit``) or external kill never reaches the except
    block — the supervisor detects it from the process sentinel.
    """
    from .chaos import chaos_hook

    threading.Thread(
        target=_exit_when_orphaned, args=(supervisor_pid,), daemon=True
    ).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, attempt, key, item = message
        try:
            # Keyed per (job, attempt): a crash-fated attempt must not
            # doom every retry of the same job to the same fate.
            chaos_hook(f"{key}#a{attempt}")
            value = fn(item)
        except BaseException as exc:
            detail = f"{exc}\n{traceback.format_exc(limit=4)}"
            try:
                conn.send(("fail", index, attempt, type(exc).__name__, detail))
            except Exception:
                return
        else:
            try:
                conn.send(("done", index, attempt, value))
            except Exception as exc:
                # The result itself would not serialize: report that as
                # the failure rather than dying with a half-sent pipe.
                try:
                    conn.send(
                        ("fail", index, attempt, type(exc).__name__, str(exc))
                    )
                except Exception:
                    return


def _chaos_env() -> tuple[str | None, ...]:
    """The ``REPRO_CHAOS_*`` block a worker forked now would inherit."""
    return tuple(os.environ.get(name) for name in CHAOS_ENV_VARS)


class _Worker:
    """Supervisor-side handle on one worker process."""

    __slots__ = (
        "process", "conn", "fn", "chaos_env", "job", "dispatched_at", "fresh"
    )

    def __init__(self, ctx, fn) -> None:
        #: What the worker was forked to run, and under which chaos
        #: hooks: a :class:`WorkerSet` reuses it only for the same pair.
        self.fn = fn
        self.chaos_env = _chaos_env()
        with _spawn_lock:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            self.process = ctx.Process(
                target=_worker_main,
                args=(child_conn, fn, os.getpid()),
                name="repro-exec-worker",
            )
            self.process.start()
            child_conn.close()
        self.conn = parent_conn
        #: ``(index, attempt)`` of the in-flight job, or ``None`` when idle.
        self.job: tuple[int, int] | None = None
        self.dispatched_at: float = 0.0
        #: True until the first job reaches the worker.
        self.fresh = True

    def dispatch(self, index: int, attempt: int, key: str, item: Any) -> None:
        """Send one job attempt to the worker and mark it in flight."""
        self.conn.send((index, attempt, key, item))
        self.job = (index, attempt)
        self.dispatched_at = time.monotonic()
        self.fresh = False

    def kill(self) -> None:
        """Hard-stop the worker process (stall or shutdown path)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()

    def shutdown(self) -> None:
        """Ask the worker to exit; escalate to a kill if it lingers."""
        try:
            if self.process.is_alive() and self.job is None:
                self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_SHUTDOWN_GRACE_SECONDS)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


class WorkerSet:
    """Idle workers a caller keeps alive across :func:`run_supervised` calls.

    The caller owns the set and must :meth:`close` it; a worker handed
    back after :meth:`close` is shut down at once.  Safe to close from
    another thread while a call has workers borrowed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []
        self._closed = False
        # An unclosed set must not hang interpreter exit, which joins
        # every live non-daemon child: multiprocessing runs this before.
        multiprocessing.util.Finalize(
            self, _shutdown_all, args=(self._idle,), exitpriority=0
        )

    def take(self, fn: Callable[[Any], Any]) -> _Worker | None:
        """Borrow a live idle worker forked for ``fn`` under the current
        chaos environment; retire idle workers that no longer qualify."""
        chaos_env = _chaos_env()
        found = None
        keep: list[_Worker] = []
        retire: list[_Worker] = []
        with self._lock:
            for worker in self._idle:
                if not (
                    worker.fn is fn
                    and worker.chaos_env == chaos_env
                    and worker.process.is_alive()
                ):
                    retire.append(worker)
                elif found is None:
                    found = worker
                else:
                    keep.append(worker)
            self._idle[:] = keep
        for worker in retire:
            worker.shutdown()
        return found

    def give(self, worker: _Worker) -> None:
        """Keep an idle worker for a later call (shut it down if closed)."""
        with self._lock:
            if not self._closed:
                self._idle.append(worker)
                return
        worker.shutdown()

    def close(self) -> None:
        """Shut down every idle worker; later hand-backs shut down too."""
        with self._lock:
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
        _shutdown_all(idle)


def _shutdown_all(workers: list[_Worker]) -> None:
    """Shut down each worker in ``workers`` (a snapshot is iterated)."""
    for worker in list(workers):
        worker.shutdown()


def _pool_context(start_method: str | None):
    """Fork where available (no per-worker re-import), else the default."""
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(start_method)


#: Poll interval for the caller's cancel hook while workers are busy.
_CANCEL_POLL_SECONDS = 0.1


def run_supervised(
    fn: Callable[[Any], Any],
    items: list[Any],
    jobs: int = 1,
    policy: RetryPolicy | None = None,
    timeout: float | None = None,
    keys: list[str] | None = None,
    on_event: Callable[[str, JobOutcome], None] | None = None,
    start_method: str | None = None,
    cancel: Callable[[], bool] | None = None,
    worker_set: WorkerSet | None = None,
) -> list[JobOutcome]:
    """Map ``fn`` over ``items`` under supervision; return one outcome each.

    Parameters
    ----------
    fn, items:
        The job function and its inputs (both must pickle).
    jobs:
        Maximum concurrent worker processes (clamped to ``len(items)``
        and at least 1 — even ``jobs <= 1`` runs in a worker process,
        because crash isolation is the point).
    policy:
        Retry policy applied to every job (default: single attempt).
    timeout:
        Per-attempt deadline in seconds; overrides ``policy.timeout``
        when given.  ``None`` disables the deadline.
    keys:
        Stable per-job labels (default ``"job-<index>"``) used for
        retry jitter seeding, chaos injection and journal records.
    on_event:
        Optional callback ``(event, outcome)`` fired with ``"started"``
        when a job is first dispatched (outcome has no attempts yet) and
        ``"finished"``/``"failed"`` when it terminates.
    start_method:
        Multiprocessing start method override (default: fork when
        available).
    cancel:
        Optional zero-argument hook polled between supervision rounds
        (at least every ``0.1`` s while workers are busy).  The first
        time it returns true, in-flight workers are killed and every
        unterminated job lands in the ``cancelled`` state — the
        service's ``cancel(job_id)`` path.  Jobs that already finished
        keep their outcomes.
    worker_set:
        Optional caller-owned :class:`WorkerSet`.  The call borrows its
        idle workers that were forked for this ``fn`` before forking new
        ones, and hands its healthy idle workers back on exit instead of
        shutting them down.  A worker found dead when its job is sent is
        replaced without spending an attempt.

    Outcomes return in input order; no exception from a job ever
    propagates — inspect :attr:`JobOutcome.status`.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        return []
    policy = policy or RetryPolicy()
    effective_timeout = timeout if timeout is not None else policy.timeout
    if keys is None:
        keys = [f"job-{i}" for i in range(n)]
    elif len(keys) != n:
        raise ValueError("keys must match items one-to-one")
    jobs_cap = max(1, min(int(jobs), n))
    ctx = _pool_context(start_method)

    outcomes: list[JobOutcome | None] = [None] * n
    attempts: list[list[AttemptRecord]] = [[] for _ in range(n)]
    pending: deque[tuple[int, int]] = deque((i, 0) for i in range(n))
    delayed: list[tuple[float, int, int]] = []
    completed = 0
    workers: list[_Worker] = []

    def _emit(event: str, index: int) -> None:
        if on_event is None:
            return
        outcome = outcomes[index]
        if outcome is None:
            # "started" fires before any terminal outcome exists: pass a
            # shell carrying the job identity only.
            outcome = JobOutcome(
                index=index, key=keys[index], status="ok", attempts=[]
            )
        on_event(event, outcome)

    def _finalize_success(index: int, attempt: int, value: Any, wall: float) -> None:
        nonlocal completed
        attempts[index].append(
            AttemptRecord(attempt=attempt, cause="ok", wall_seconds=wall)
        )
        outcomes[index] = JobOutcome(
            index=index,
            key=keys[index],
            status="ok" if attempt == 0 else "retried",
            attempts=attempts[index],
            value=value,
        )
        completed += 1
        _emit("finished", index)

    def _register_failure(index: int, attempt: int, record: AttemptRecord) -> None:
        nonlocal completed
        attempts[index].append(record)
        if policy.allows_retry(attempt):
            delay = policy.delay_before(keys[index], attempt + 1)
            if delay <= 0.0:
                pending.append((index, attempt + 1))
            else:
                heapq.heappush(
                    delayed, (time.monotonic() + delay, index, attempt + 1)
                )
            return
        status = {"timed_out": "timed_out", "crashed": "crashed"}.get(
            record.cause, "gave_up"
        )
        outcomes[index] = JobOutcome(
            index=index,
            key=keys[index],
            status=status,
            attempts=attempts[index],
            value=None,
        )
        completed += 1
        _emit("failed", index)

    def _handle_message(worker: _Worker, message: Any) -> None:
        index, attempt = worker.job
        wall = time.monotonic() - worker.dispatched_at
        worker.job = None
        kind = message[0]
        if kind == "done":
            _finalize_success(index, attempt, message[3], wall)
        else:
            _register_failure(
                index,
                attempt,
                AttemptRecord(
                    attempt=attempt,
                    cause="error",
                    wall_seconds=wall,
                    delay_seconds=policy.delay_before(keys[index], attempt),
                    error_type=message[3],
                    message=message[4],
                ),
            )

    def _handle_crash(worker: _Worker) -> None:
        index, attempt = worker.job
        wall = time.monotonic() - worker.dispatched_at
        worker.job = None
        _record_crash(worker, index, attempt, wall)

    def _record_crash(
        worker: _Worker, index: int, attempt: int, wall: float
    ) -> None:
        worker.kill()
        workers.remove(worker)
        _register_failure(
            index,
            attempt,
            AttemptRecord(
                attempt=attempt,
                cause="crashed",
                wall_seconds=wall,
                delay_seconds=policy.delay_before(keys[index], attempt),
                error_type="WorkerCrashed",
                message=f"worker died (exit code {worker.process.exitcode})",
            ),
        )

    def _dispatch(worker: _Worker, index: int, attempt: int) -> None:
        """Send one attempt; a worker that died idle costs no attempt."""
        crashed = False
        try:
            worker.dispatch(index, attempt, keys[index], items[index])
        except (BrokenPipeError, OSError):
            if not worker.fresh:
                # The attempt never started: replace the worker.
                worker.kill()
                workers.remove(worker)
                pending.appendleft((index, attempt))
                return
            # A worker that cannot take its first job counts as a crash,
            # so a host that cannot keep workers alive runs out of
            # attempts instead of forking forever.
            crashed = True
        if attempt == 0:
            _emit("started", index)
        if crashed:
            _record_crash(worker, index, attempt, 0.0)

    def _handle_timeout(worker: _Worker) -> None:
        index, attempt = worker.job
        wall = time.monotonic() - worker.dispatched_at
        worker.job = None
        worker.kill()
        workers.remove(worker)
        _register_failure(
            index,
            attempt,
            AttemptRecord(
                attempt=attempt,
                cause="timed_out",
                wall_seconds=wall,
                delay_seconds=policy.delay_before(keys[index], attempt),
                error_type="AttemptTimeout",
                message=(
                    f"attempt exceeded {effective_timeout:.3f}s deadline; "
                    "worker killed"
                ),
            ),
        )

    def _cancel_remaining() -> None:
        """Terminate every unfinished job as ``cancelled``."""
        nonlocal completed
        for worker in list(workers):
            if worker.job is not None:
                index, attempt = worker.job
                wall = time.monotonic() - worker.dispatched_at
                worker.job = None
                worker.kill()
                workers.remove(worker)
                attempts[index].append(
                    AttemptRecord(
                        attempt=attempt,
                        cause="crashed",
                        wall_seconds=wall,
                        error_type="Cancelled",
                        message="attempt killed by cancellation",
                    )
                )
        pending.clear()
        delayed.clear()
        for index in range(n):
            if outcomes[index] is None:
                outcomes[index] = JobOutcome(
                    index=index,
                    key=keys[index],
                    status="cancelled",
                    attempts=attempts[index],
                    value=None,
                )
                completed += 1
                _emit("failed", index)

    try:
        while completed < n:
            if cancel is not None and cancel():
                _cancel_remaining()
                break
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                pending.append((index, attempt))

            idle = [w for w in workers if w.job is None]
            while pending and (idle or len(workers) < jobs_cap):
                worker = idle.pop() if idle else None
                if worker is None and worker_set is not None:
                    worker = worker_set.take(fn)
                    if worker is not None:
                        workers.append(worker)
                if worker is None:
                    worker = _Worker(ctx, fn)
                    workers.append(worker)
                index, attempt = pending.popleft()
                _dispatch(worker, index, attempt)

            busy = [w for w in workers if w.job is not None]
            if not busy:
                if delayed:
                    until_retry = max(0.0, delayed[0][0] - time.monotonic())
                    if cancel is not None:
                        until_retry = min(until_retry, _CANCEL_POLL_SECONDS)
                    time.sleep(until_retry)
                    continue
                if pending:
                    continue
                if completed < n:  # pragma: no cover - defensive
                    raise RuntimeError("supervised pool deadlocked")
                break

            wait_for = None
            if effective_timeout is not None:
                wait_for = max(
                    0.0,
                    min(
                        w.dispatched_at + effective_timeout for w in busy
                    )
                    - time.monotonic(),
                )
            if delayed:
                until_retry = max(0.0, delayed[0][0] - time.monotonic())
                wait_for = (
                    until_retry if wait_for is None else min(wait_for, until_retry)
                )
            if cancel is not None:
                # Keep the wait bounded so the hook is polled promptly
                # even with no per-attempt deadline armed.
                wait_for = (
                    _CANCEL_POLL_SECONDS
                    if wait_for is None
                    else min(wait_for, _CANCEL_POLL_SECONDS)
                )
            watch: list[Any] = []
            for worker in busy:
                watch.append(worker.conn)
                watch.append(worker.process.sentinel)
            ready = set(_wait_connections(watch, timeout=wait_for))

            for worker in busy:
                if worker.job is None:
                    continue
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        _handle_crash(worker)
                        continue
                    _handle_message(worker, message)
                elif worker.process.sentinel in ready:
                    _handle_crash(worker)

            if effective_timeout is not None:
                now = time.monotonic()
                for worker in list(workers):
                    if (
                        worker.job is not None
                        and now - worker.dispatched_at >= effective_timeout
                    ):
                        _handle_timeout(worker)
    finally:
        for worker in workers:
            if (
                worker_set is not None
                and worker.job is None
                and worker.process.is_alive()
            ):
                worker_set.give(worker)
            else:
                worker.shutdown()

    return [outcome for outcome in outcomes if outcome is not None]
