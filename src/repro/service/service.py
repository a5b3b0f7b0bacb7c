"""The diagnosis service: a long-running job runner over the supervised pool.

:class:`DiagnosisService` accepts jobs (:class:`~repro.service.jobs.JobSpec`)
through an async API — ``submit`` returns immediately with a job id;
``status`` / ``result`` / ``cancel`` / ``wait`` operate on it later —
and drives each job through :func:`repro.exec.pool.run_supervised`:
every attempt runs crash-isolated in a worker process, stalled attempts
are killed at the spec's deadline, failures retry under the spec's
budget, and a ``cancel`` kills the in-flight worker within the pool's
cancellation poll interval.

Workers are warm: each dispatcher thread keeps one supervised worker
(a :class:`~repro.exec.pool.WorkerSet`) that lives as long as the
dispatcher and serves job after job with its imports and caches
intact — including a memo of calibrated scenario cells
(:mod:`repro.service.jobs`), so a repeated cell is calibrated once per
worker.  A worker that crashes, times out or is cancelled is replaced
by a fresh fork for the next job; every worker exits when the service
stops, and on its own when the service process dies.

Dispatch order is owned by the
:class:`~repro.service.scheduler.FairScheduler`, not a FIFO: weighted
fair share across namespaces, ``interactive`` > ``normal`` > ``batch``
priority bands with starvation-proof aging, per-namespace token-bucket
rate limits and max-inflight caps.  Every submission carries a journal
sequence number and every dispatch decision is journalled, so a
restarted service re-adopts orphans in the same order the dead one
would have dispatched them.  Retention
(:mod:`repro.service.retention`) keeps the root bounded: a policy plus
``gc_interval`` runs periodic GC passes that prune terminal journal
entries (with a crash-safe compacting rewrite), orphaned result
artifacts and aged cache files.

Durability comes from the :class:`~repro.service.store.JobStore`
journal: *submitted* is on disk before ``submit`` returns, *done* is on
disk only after the result artifact is, and a service restarted over an
existing root **re-adopts** every job the previous process left
``queued`` or ``running`` — a ``kill -9`` mid-job re-runs that job, it
never loses it.

Multi-tenancy: each namespace gets a private subtree
``<root>/<namespace>/{cache,results}`` — cache keys and result
artifacts of different tenants cannot collide by construction.  Result
artifacts are integrity-stamped (:mod:`repro.exec.integrity`) and
verified on read, so a corrupted artifact is quarantined and surfaces
as an explicit error instead of silently serving garbage.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import Counter
from pathlib import Path
from typing import Any

from ..analysis.runner import MATRIX_SPECS, _atomic_write_json
from ..exec.integrity import load_verified_json, stamp_integrity
from ..exec.outcomes import JobOutcome
from ..exec.pool import WorkerSet, run_supervised
from ..exec.retry import RetryPolicy
from .jobs import TERMINAL_STATES, JobSpec, execute_job, outcome_state
from .retention import RetentionPolicy, select_prunable, sweep_artifacts
from .scheduler import FairScheduler, NamespacePolicy
from .store import JobStore, replay_store

__all__ = ["DiagnosisService", "JobNotFoundError", "JobNotFinishedError"]


class JobNotFoundError(KeyError):
    """No job with that id (this root, any namespace)."""


class JobNotFinishedError(RuntimeError):
    """``result`` was asked for before the job reached ``done``."""


class _Job:
    """Runtime view of one job (the store holds the durable view)."""

    __slots__ = (
        "job_id",
        "spec",
        "seq",
        "state",
        "outcome",
        "result_path",
        "cancel_event",
        "adopted",
        "done_unix",
    )

    def __init__(self, job_id: str, spec: JobSpec, seq: int = 0, adopted: int = 0):
        self.job_id = job_id
        self.spec = spec
        self.seq = seq
        self.state = "queued"
        self.outcome: JobOutcome | None = None
        self.result_path: Path | None = None
        self.cancel_event = threading.Event()
        self.adopted = adopted
        self.done_unix: float | None = None


class DiagnosisService:
    """Long-running diagnosis-job service over the supervised pool.

    Parameters
    ----------
    root:
        Service state directory: the job journal lives at
        ``<root>/service.journal.jsonl``, tenants under
        ``<root>/<namespace>/``.  Reusing a root resumes its history
        (terminal jobs stay queryable, orphans are re-adopted).
    workers:
        Dispatcher threads, i.e. how many jobs run concurrently.  Each
        dispatcher drives one job at a time through its own warm
        supervised worker process, kept across jobs and replaced after
        a crash, timeout or cancel.
    default_timeout, default_max_attempts:
        Fallback resilience parameters for specs that do not set their
        own.
    policies, default_policy, aging_seconds:
        Per-namespace :class:`~repro.service.scheduler.NamespacePolicy`
        overrides, the fallback policy, and the priority-aging constant
        — all forwarded to the
        :class:`~repro.service.scheduler.FairScheduler`.
    retention, gc_interval:
        Optional :class:`~repro.service.retention.RetentionPolicy`; when
        set, a background thread runs :meth:`run_gc` every
        ``gc_interval`` seconds while the service is started.
    """

    def __init__(
        self,
        root: Path | str,
        workers: int = 2,
        default_timeout: float | None = None,
        default_max_attempts: int = 1,
        policies: dict[str, NamespacePolicy] | None = None,
        default_policy: NamespacePolicy | None = None,
        aging_seconds: float = 60.0,
        retention: RetentionPolicy | None = None,
        gc_interval: float = 300.0,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if gc_interval <= 0:
            raise ValueError("gc_interval must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.default_timeout = default_timeout
        self.default_max_attempts = default_max_attempts
        self.retention = retention
        self.gc_interval = gc_interval
        self.store = JobStore(self.root / "service.journal.jsonl")
        self.scheduler = FairScheduler(
            policies=policies,
            default_policy=default_policy,
            aging_seconds=aging_seconds,
        )
        self._jobs: dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._seq = 0
        self._threads: list[threading.Thread] = []
        self._worker_sets: list[WorkerSet] = []
        self._gc_thread: threading.Thread | None = None
        self._gc_wake = threading.Event()
        self._started = False
        self._stopping = False
        self.adopted: list[str] = []
        self._recover()

    # ------------------------------------------------------------ lifecycle

    def _recover(self) -> None:
        """Replay the store; re-adopt every non-terminal job.

        Orphans re-enter the scheduler in journal order: previously
        *dispatched* jobs first (by their journalled ``dispatch_seq`` —
        the dead service had already chosen them), then still-queued
        jobs by submission ``seq``, each keeping its original sequence
        number, priority and accumulated wait — so the revived queue
        dispatches in the order the dead one would have.
        """
        orphans = []
        now = time.time()
        for job_id, record in replay_store(self.store.path).items():
            self._seq = max(self._seq, record.seq)
            job = _Job(job_id, record.spec, seq=record.seq, adopted=record.adopted)
            if record.terminal:
                job.state = record.state
                job.done_unix = record.done_unix or record.submitted_unix
                job.outcome = JobOutcome(
                    index=0,
                    key=job_id,
                    status=record.status or "gave_up",
                    attempts=[],
                )
                if record.result_path:
                    job.result_path = Path(record.result_path)
                self._jobs[job_id] = job
                continue
            # Orphan from a crashed/killed service: its worker died with
            # the old process, so the only safe move is to run it again.
            job.adopted += 1
            self._jobs[job_id] = job
            orphans.append(record)
        orphans.sort(
            key=lambda r: (
                r.dispatch_seq is None,
                r.dispatch_seq if r.dispatch_seq is not None else r.seq,
                r.seq,
            )
        )
        for record in orphans:
            self.store.record_state(record.job_id, "queued", adopted=True)
            self.scheduler.submit(
                record.job_id,
                record.spec.namespace,
                priority=record.spec.priority,
                seq=record.seq,
                age=max(0.0, now - record.submitted_unix),
            )
            self.adopted.append(record.job_id)

    def start(self) -> "DiagnosisService":
        """Spawn the dispatcher threads (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        for index in range(self.workers):
            worker_set = WorkerSet()
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(worker_set,),
                name=f"repro-service-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            self._worker_sets.append(worker_set)
        if self.retention is not None and self._gc_thread is None:
            self._gc_thread = threading.Thread(
                target=self._gc_loop, name="repro-service-gc", daemon=True
            )
            self._gc_thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop accepting dispatches and (optionally) join the threads.

        Queued jobs stay journaled as ``queued`` — a later service over
        the same root re-adopts them.  Running jobs finish their current
        supervised call.  Shutdown is a scheduler-level broadcast
        (:meth:`FairScheduler.stop`), not a sentinel per thread: every
        dispatcher's ``acquire`` returns ``None`` no matter how many
        threads there are or what order they drain in.  Idle warm
        workers are shut down here; a worker still running a job (only
        with ``wait=False``) exits as soon as its dispatcher hands it
        back.
        """
        with self._lock:
            self._stopping = True
        self.scheduler.stop()
        self._gc_wake.set()
        if wait:
            for thread in self._threads:
                thread.join()
            if self._gc_thread is not None:
                self._gc_thread.join()
                self._gc_thread = None
        for worker_set in self._worker_sets:
            worker_set.close()
        self._worker_sets = []
        self._threads = []
        self._started = False

    def close(self) -> None:
        self.stop(wait=True)
        self.store.close()

    def __enter__(self) -> "DiagnosisService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ tenancy

    def namespace_dir(self, namespace: str) -> Path:
        return self.root / namespace

    def cache_dir(self, namespace: str) -> Path:
        return self.namespace_dir(namespace) / "cache"

    def results_dir(self, namespace: str) -> Path:
        return self.namespace_dir(namespace) / "results"

    # ------------------------------------------------------------ API

    def submit(self, spec: JobSpec | dict[str, Any], **kwargs: Any) -> str:
        """Accept a job; the id is durable before this returns.

        Accepts a :class:`JobSpec`, a spec payload dict, or keyword
        fields (``submit(kind="sleep", payload={...})``).  A matrix job
        whose payload carries a key its front door does not read, or an
        unknown scenario kind / policy, is refused with ``ValueError``
        before it is journaled.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_payload(spec)
        elif not isinstance(spec, JobSpec):
            raise TypeError("submit expects a JobSpec or a spec dict")
        if kwargs:
            raise TypeError("pass spec fields inside the JobSpec/dict")
        if spec.kind in MATRIX_SPECS:
            MATRIX_SPECS[spec.kind].check_request(spec.payload)
        job_id = uuid.uuid4().hex[:16]
        # Sequence bump, journal append and table insert happen under
        # the one service lock so a concurrent GC compaction (which
        # also holds it) can never observe — and drop — a half-accepted
        # job.
        with self._changed:
            if self._stopping:
                raise RuntimeError("service is stopping; submission refused")
            self._seq += 1
            seq = self._seq
            job = _Job(job_id, spec, seq=seq)
            self.store.record_submitted(job_id, spec, seq=seq)
            self._jobs[job_id] = job
            self._changed.notify_all()
        self.scheduler.submit(
            job_id, spec.namespace, priority=spec.priority, seq=seq
        )
        return job_id

    def _get(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def status(self, job_id: str) -> dict[str, Any]:
        """One job's current state, as a JSON-able dict."""
        job = self._get(job_id)
        with self._lock:
            outcome = job.outcome
            return {
                "job_id": job.job_id,
                "namespace": job.spec.namespace,
                "kind": job.spec.kind,
                "priority": job.spec.priority,
                "seq": job.seq,
                "state": job.state,
                "status": outcome.status if outcome else None,
                "n_attempts": outcome.n_attempts if outcome else 0,
                "adopted": job.adopted,
                "result_path": (
                    str(job.result_path) if job.result_path else None
                ),
            }

    def result(self, job_id: str) -> dict[str, Any]:
        """Load a finished job's integrity-verified result payload.

        Raises :class:`JobNotFinishedError` unless the job is ``done``,
        and ``RuntimeError`` if the artifact on disk fails verification
        (it is quarantined, never silently served).
        """
        job = self._get(job_id)
        with self._lock:
            state, path = job.state, job.result_path
        if state != "done" or path is None:
            raise JobNotFinishedError(
                f"job {job_id} is {state}, not done; no result to load"
            )
        payload, verdict = load_verified_json(
            path, self.cache_dir(job.spec.namespace)
        )
        if payload is None:
            raise RuntimeError(
                f"result artifact for job {job_id} failed integrity "
                f"verification ({verdict}); it has been quarantined"
            )
        return payload

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; False once it is terminal.

        A queued job is cancelled immediately; a running one has its
        cancel hook set, which the supervised pool polls — the worker
        is killed and the job lands in ``cancelled`` shortly after.
        """
        job = self._get(job_id)
        with self._changed:
            if job.state in TERMINAL_STATES:
                return False
            job.cancel_event.set()
            if job.state == "queued":
                # Pull it out of the scheduler too; if a dispatcher
                # already acquired it (remove() returns False), the
                # cancel_event makes that dispatcher drop it.
                self.scheduler.remove(job_id)
                job.state = "cancelled"
                job.done_unix = time.time()
                job.outcome = JobOutcome(
                    index=0, key=job_id, status="cancelled", attempts=[]
                )
                self.store.record_done(
                    job_id, "cancelled", "cancelled", attempts=[]
                )
                self._changed.notify_all()
        return True

    def wait(self, job_id: str, timeout: float | None = None) -> str:
        """Block until the job is terminal (or ``timeout``); return its state."""
        job = self._get(job_id)
        with self._changed:
            self._changed.wait_for(
                lambda: job.state in TERMINAL_STATES, timeout=timeout
            )
            return job.state

    def list_jobs(self, namespace: str | None = None) -> list[dict[str, Any]]:
        """Status dicts of every known job, optionally one namespace's."""
        with self._lock:
            ids = list(self._jobs)
        rows = [self.status(job_id) for job_id in ids]
        if namespace is not None:
            rows = [row for row in rows if row["namespace"] == namespace]
        return rows

    # ------------------------------------------------------------ scheduler

    def job_state_counts(self) -> dict[str, int]:
        """How many known jobs are in each state (one pass, one lock)."""
        with self._lock:
            return dict(Counter(job.state for job in self._jobs.values()))

    def queue_snapshot(self) -> dict[str, Any]:
        """Scheduler introspection (the ``/v1/queue`` payload):
        per-namespace queues by priority band, inflight counts, token
        and virtual-time state, plus job-state totals."""
        snapshot = self.scheduler.snapshot()
        snapshot["job_states"] = self.job_state_counts()
        return snapshot

    # ------------------------------------------------------------ dispatch

    def _dispatch_loop(self, worker_set: WorkerSet) -> None:
        try:
            self._dispatch_jobs(worker_set)
        finally:
            worker_set.close()

    def _dispatch_jobs(self, worker_set: WorkerSet) -> None:
        while True:
            job_id = self.scheduler.acquire()
            if job_id is None:
                return  # scheduler stopped: the shutdown sentinel is the API
            job = self._jobs.get(job_id)
            dispatched = False
            if job is not None:
                with self._lock:
                    if job.state == "queued" and not job.cancel_event.is_set():
                        job.state = "running"
                        dispatched = True
            if not dispatched:
                # Cancelled (or unknown) between enqueue and acquire:
                # give the inflight slot straight back.
                self.scheduler.release(job_id)
                continue
            self.store.record_state(
                job_id, "running", dispatch_seq=self.scheduler.dispatch_seq(job_id)
            )
            try:
                self._run_job(job, worker_set)
            except Exception as exc:  # noqa: BLE001 — a dispatcher must not die
                self._finish(
                    job,
                    JobOutcome(
                        index=0,
                        key=job_id,
                        status="gave_up",
                        attempts=[],
                        value=None,
                    ),
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _run_job(self, job: _Job, worker_set: WorkerSet) -> None:
        spec = job.spec
        cache_dir = self.cache_dir(spec.namespace)
        cache_dir.mkdir(parents=True, exist_ok=True)
        item = {
            "job_id": job.job_id,
            "kind": spec.kind,
            "payload": spec.payload,
            "cache_dir": str(cache_dir),
        }
        timeout = spec.timeout if spec.timeout is not None else self.default_timeout
        attempts = max(spec.max_attempts, self.default_max_attempts)
        policy = RetryPolicy(
            max_attempts=attempts,
            base_delay=spec.retry_delay,
            timeout=timeout,
        )
        outcomes = run_supervised(
            execute_job,
            [item],
            jobs=1,
            policy=policy,
            timeout=timeout,
            keys=[job.job_id],
            cancel=job.cancel_event.is_set,
            worker_set=worker_set,
        )
        self._finish(job, outcomes[0])

    def _finish(
        self, job: _Job, outcome: JobOutcome, error: str | None = None
    ) -> None:
        """Persist the artifact (done ⇒ artifact invariant), then journal."""
        if error is not None and not outcome.attempts:
            # Dispatcher-level failure (not a pool outcome): keep the
            # cause visible in status() and the journal via a synthetic
            # attempt record.
            from ..exec.outcomes import AttemptRecord

            outcome.attempts.append(
                AttemptRecord(
                    attempt=0,
                    cause="error",
                    error_type="DispatchError",
                    message=error,
                )
            )
        state = outcome_state(outcome.status)
        result_path: Path | None = None
        if state == "done":
            result_path = self.results_dir(job.spec.namespace) / (
                f"{job.job_id}.json"
            )
            artifact = {
                "schema": "repro-service-result/v1",
                "job_id": job.job_id,
                "namespace": job.spec.namespace,
                "kind": job.spec.kind,
                "status": outcome.status,
                "n_attempts": outcome.n_attempts,
                "result": outcome.value,
            }
            stamp_integrity(artifact)
            _atomic_write_json(result_path, artifact)
        self.store.record_done(
            job.job_id,
            state,
            outcome.status,
            attempts=[a.to_payload() for a in outcome.attempts],
            result_path=str(result_path) if result_path else None,
        )
        with self._changed:
            job.outcome = outcome
            job.result_path = result_path
            job.state = state
            job.done_unix = time.time()
            self._changed.notify_all()
        self.scheduler.release(job.job_id)

    # ------------------------------------------------------------ retention

    def _gc_loop(self) -> None:
        """Background retention passes every ``gc_interval`` seconds."""
        while not self._gc_wake.wait(timeout=self.gc_interval):
            try:
                self.run_gc()
            except Exception:  # noqa: BLE001 — GC must never kill the service
                continue

    def run_gc(
        self, policy: RetentionPolicy | None = None, now: float | None = None
    ) -> dict[str, Any]:
        """One live GC pass under ``policy`` (default: the service's).

        Selects prunable *terminal* jobs from the in-memory table (a
        job is only memory-terminal once its journal ``done`` record is
        on disk, so the journal can never lose a live job), compacts
        the journal through the store's append lock, drops the pruned
        jobs from memory, then sweeps orphaned artifacts and aged cache
        files.  Safe to call any time, including under load.
        """
        policy = policy if policy is not None else self.retention
        if policy is None:
            raise ValueError("no retention policy configured or given")
        now = time.time() if now is None else now
        with self._changed:
            rows = [
                (
                    job.job_id,
                    job.spec.namespace,
                    job.state,
                    job.done_unix or 0.0,
                )
                for job in self._jobs.values()
                if job.state in TERMINAL_STATES
            ]
            known = set(self._jobs)
            prune = select_prunable(rows, policy, now=now)
            keep = known - prune
            # Compact while holding the service lock: submit() also
            # journals under it, so no fresh record can land on the
            # pre-compaction inode and be lost.
            journal_stats = self.store.compact(keep)
            for job_id in prune:
                self._jobs.pop(job_id, None)
            self._changed.notify_all()
        # Live sweep deletes exactly the pruned artifacts (no exact
        # "keep everything else" pass: a job finishing this instant
        # must not race it); the offline CLI pass sweeps orphans too.
        swept = sweep_artifacts(
            self.root,
            drop=prune,
            cache_max_age_seconds=policy.cache_max_age_seconds,
            now=now,
        )
        return {
            "schema": "repro-service-gc/v1",
            "root": str(self.root),
            "dry_run": False,
            "jobs_total": len(known),
            "jobs_pruned": len(prune),
            "jobs_kept": len(keep),
            "pruned_job_ids": sorted(prune),
            "journal": journal_stats,
            "swept": swept,
        }
