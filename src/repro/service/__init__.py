"""Diagnosis-as-a-service: long-running jobs over the supervised pool.

The resilient execution layer (:mod:`repro.exec`) made individual
sweeps survive crashes, stalls and ``kill -9``; this package turns that
machinery into a *service*: a long-running process that accepts
diagnosis work asynchronously, supervises it, and survives its own
death.

:mod:`~repro.service.jobs`
    Job kinds (experiments, the scenario/arena/fleet front doors,
    single bounded diagnoses), priority bands and the picklable worker
    entry point.
:mod:`~repro.service.scheduler`
    :class:`~repro.service.scheduler.FairScheduler` — weighted
    fair-share across namespaces (stride scheduling), priority bands
    with starvation-proof aging, token-bucket rate limits and
    max-inflight caps, shutdown-sentinel semantics built in.
:mod:`~repro.service.store`
    The append-only, crash-safe job journal (``submitted`` → ``state``
    → ``done``; a restart re-adopts every orphan in scheduler order)
    with an atomic compacting rewrite for GC.
:mod:`~repro.service.retention`
    :class:`~repro.service.retention.RetentionPolicy` and the GC pass:
    age/count pruning of terminal journal entries, orphaned-artifact
    and aged-cache sweeps (``python -m repro gc``).
:mod:`~repro.service.service`
    :class:`~repro.service.service.DiagnosisService` — ``submit`` /
    ``status`` / ``result`` / ``cancel`` / ``wait`` over dispatcher
    threads driving :func:`repro.exec.pool.run_supervised`, with
    per-namespace cache/result isolation and integrity-stamped
    artifacts.  Each dispatcher keeps one warm worker process for as
    long as it lives (replaced after a crash, timeout or cancel; gone
    when the service stops or dies), and each worker memoizes the
    calibration of the scenario cells it has diagnosed.
:mod:`~repro.service.client`
    :class:`~repro.service.client.ServiceClient` (in-process) and
    :class:`~repro.service.client.HttpServiceClient` (:mod:`http.client`,
    one persistent connection per calling thread).
:mod:`~repro.service.http`
    The stdlib ``/v1`` HTTP/1.1 server behind ``python -m repro serve``:
    kept-alive connections with an idle timeout, one write per response.
"""

from .client import HttpServiceClient, ServiceClient, ServiceError
from .jobs import JOB_KINDS, PRIORITIES, SERVICE_STATES, JobSpec, execute_job
from .retention import RetentionPolicy, run_gc
from .scheduler import FairScheduler, NamespacePolicy
from .service import (
    DiagnosisService,
    JobNotFinishedError,
    JobNotFoundError,
)
from .store import JobStore

__all__ = [
    "JOB_KINDS",
    "PRIORITIES",
    "SERVICE_STATES",
    "DiagnosisService",
    "FairScheduler",
    "HttpServiceClient",
    "JobNotFinishedError",
    "JobNotFoundError",
    "JobSpec",
    "JobStore",
    "NamespacePolicy",
    "RetentionPolicy",
    "ServiceClient",
    "ServiceError",
    "execute_job",
    "run_gc",
]
